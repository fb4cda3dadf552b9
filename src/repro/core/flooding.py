"""The flooding mechanism on evolving graphs (Section 2 of the paper).

Given a source node ``s``, the flooding process is the node-set sequence

.. math::

    I_0 = \\{s\\}, \\qquad I_{t+1} = I_t \\cup N(I_t)

where ``N(I_t)`` is the out-neighborhood of ``I_t`` *in the graph at
time step t* (the paper's convention, Section 2).  The *flooding time*
``T(s)`` is the first time step at which ``I_t = [n]``; the flooding
time of the evolving graph is ``max_s T(s)``.

:func:`flood` works on any :class:`~repro.dynamics.base.EvolvingGraph`
and records the full informed-count trajectory ``m_t = |I_t|``, which the
expansion experiments consume (the sets ``I_t`` are exactly the sets
whose expansion drives Lemma 2.4).  It runs flooding through the one
serial loop of the library, :func:`repro.protocols.runner.spread`, and
:func:`flooding_trials` runs it through the engine
(:mod:`repro.engine`) on every backend.

Notes on semantics
------------------
* A node is informed at step ``t+1`` iff it has an informed neighbor in
  ``G_t``; information crosses one edge per time step (no intra-step
  chaining).
* If the process does not complete within ``max_steps`` the result is
  returned with ``completed = False`` and ``time = max_steps`` — callers
  decide how to treat truncation (the experiments treat it as a failure
  of the w.h.p. event and count it separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_node, require_positive_int

__all__ = [
    "FloodingResult",
    "flood",
    "flooding_time",
    "flooding_trials",
    "max_flooding_time_over_sources",
    "resolve_max_steps",
    "DEFAULT_MAX_STEPS",
]

#: Conservative default step cap: on every model in this library the
#: expected flooding time is polylogarithmic-to-sqrt in ``n``; the
#: resolved budget of ``4n + 64`` steps (see :func:`resolve_max_steps`)
#: is far beyond any regime we simulate and signals a disconnected or
#: mis-parameterised instance rather than a slow one.
DEFAULT_MAX_STEPS = None  # sentinel: resolved by resolve_max_steps(n)


def resolve_max_steps(n: int, max_steps: int | None = DEFAULT_MAX_STEPS) -> int:
    """Resolve a step budget for a flooding-style process on ``n`` nodes.

    ``None`` (the :data:`DEFAULT_MAX_STEPS` sentinel) resolves to
    ``4n + 64`` — linear headroom for the adversarial/worst-case
    experiments plus a constant floor so tiny graphs are not truncated
    prematurely.  An explicit *max_steps* is validated and returned
    unchanged.  This is the single budget rule shared by
    :func:`flood`, the protocols in :mod:`repro.protocols`, and the
    batched engine in :mod:`repro.engine`.
    """
    n = require_positive_int(n, "n")
    if max_steps is None:
        return 4 * n + 64
    return require_positive_int(max_steps, "max_steps")


@dataclass(frozen=True)
class FloodingResult:
    """Outcome of one flooding run.

    Attributes
    ----------
    source:
        The initiating node(s).
    time:
        ``T(s)`` when *completed*; otherwise the number of steps run.
    completed:
        Whether all nodes were informed within the step budget.
    informed_history:
        ``m_t`` for ``t = 0 .. time`` (``informed_history[0] == len(sources)``,
        and when completed ``informed_history[-1] == n``).
    informed:
        Final informed mask (length ``n``).
    """

    source: tuple[int, ...]
    time: int
    completed: bool
    informed_history: np.ndarray
    informed: np.ndarray = field(repr=False)

    @property
    def num_nodes(self) -> int:
        """Number of nodes of the underlying graph."""
        return int(self.informed.shape[0])

    @property
    def num_informed(self) -> int:
        """Number of informed nodes at the end of the run."""
        return int(self.informed_history[-1])

    def growth_factors(self) -> np.ndarray:
        """Per-step growth ratios ``m_{t+1} / m_t`` (length ``time``).

        These are lower-bounded by ``1 + k_i`` whenever ``G_t`` is an
        ``(h_i, k_i)``-expander and ``m_t <= h_i <= n/2`` — the inequality
        at the heart of Lemma 2.4.
        """
        m = self.informed_history.astype(float)
        if len(m) < 2:
            return np.empty(0)
        return m[1:] / m[:-1]


def _resolve_sources(source: int | Sequence[int], n: int) -> tuple[int, ...]:
    if isinstance(source, (int, np.integer)):
        return (require_node(source, n, "source"),)
    sources = tuple(require_node(s, n, "source") for s in source)
    require(len(sources) > 0, "at least one source is required")
    require(len(set(sources)) == len(sources), "sources must be distinct")
    return sources


def flood(
    graph: EvolvingGraph,
    source: int | Sequence[int] = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    reset: bool = True,
) -> FloodingResult:
    """Run the flooding process on *graph* and return the full trace.

    ``spread(FLOODING, ...)`` under the name the paper uses.

    Parameters
    ----------
    graph:
        The evolving graph; it is ``reset(seed)`` first unless
        ``reset=False`` (in which case flooding starts at the process's
        current time, which is how "non-stationary start" experiments
        are expressed).
    source:
        Initiator node, or several initiators (multi-source flooding).
    seed:
        Randomness for the evolving graph (ignored when ``reset=False``).
    max_steps:
        Step budget; ``None`` resolves to ``4n + 64``.

    Returns
    -------
    FloodingResult
    """
    from repro.protocols.base import FLOODING
    from repro.protocols.runner import spread

    return spread(FLOODING, graph, source, seed=seed, max_steps=max_steps,
                  reset=reset)


def flooding_time(
    graph: EvolvingGraph,
    source: int | Sequence[int] = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    reset: bool = True,
) -> int:
    """Flooding time ``T(s)`` of one run.

    Raises
    ------
    RuntimeError
        If the process does not complete within *max_steps* — use
        :func:`flood` to inspect truncated runs instead.
    """
    result = flood(graph, source, seed=seed, max_steps=max_steps, reset=reset)
    if not result.completed:
        raise RuntimeError(
            f"flooding did not complete within {result.time} steps "
            f"({result.num_informed}/{result.num_nodes} nodes informed)"
        )
    return result.time


def flooding_trials(
    graph: EvolvingGraph,
    *,
    trials: int,
    seed: SeedLike = None,
    source: int | Sequence[int] | None = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    backend: str = "serial",
    jobs: int | None = None,
    rng_mode: str = "replay",
    chunk_size: int | None = None,
) -> list[FloodingResult]:
    """Run independent flooding trials with spawned RNG streams.

    Each trial resets the evolving graph with an independent generator
    (fresh stationary sample) and — when *source* is ``None`` — a source
    drawn uniformly at random.  Both models in the paper are
    vertex-symmetric in distribution, so a random source has the same
    ``T(s)`` distribution as any fixed one; the option to pin *source*
    exists for regression tests.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"batched"`` (the engine's chunks of
        :mod:`repro.engine`, run one after another in this process),
        or ``"parallel"`` (the same chunks fanned out to worker
        processes).  Every backend returns the same results for the
        same *seed*, *rng_mode* and *chunk_size*.
    jobs:
        Worker count for the parallel backend (``None`` = one per CPU).
    rng_mode:
        ``"replay"`` runs every trial through :func:`flood`'s loop with
        the serial seed tree (one ``(graph, source)`` stream pair per
        trial); ``"native"`` uses the engine's own batched stream
        layout — identical process law, different realisations, and a
        much faster kernel (see DESIGN.md).
    chunk_size:
        Trials per engine chunk (``None``: the plan default).  Replay
        results never depend on it; native realisations do, on every
        backend (the ``(seed, trials, chunk_size)`` contract).
    """
    from repro.protocols.base import FLOODING
    from repro.protocols.runner import spreading_trials

    return spreading_trials(FLOODING, graph, trials=trials, seed=seed,
                            source=source, max_steps=max_steps,
                            backend=backend, jobs=jobs, rng_mode=rng_mode,
                            chunk_size=chunk_size)


def max_flooding_time_over_sources(
    graph: EvolvingGraph,
    *,
    seed: SeedLike = None,
    sources: Sequence[int] | None = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    backend: str = "batched",
) -> int:
    """``max_s T(s)`` over *sources* on a **single** realisation.

    The same evolving-graph realisation is replayed for every source by
    resetting with the same seed, which is exactly the paper's
    definition of flooding time (max over sources for one sample of the
    process).  Defaults to all ``n`` sources; pass a subset for large
    graphs.

    The default ``backend="batched"`` advances the shared realisation
    once while flooding all sources simultaneously as rows of an
    ``(S, n)`` informed matrix — bit-identical to the ``"serial"``
    source-by-source replay but without re-simulating the graph per
    source.
    """
    n = graph.num_nodes
    if sources is None:
        sources = range(n)
    rng = as_generator(seed)
    # Freeze one replayable seed for the shared realisation.
    replay_seed = int(rng.integers(0, 2**63 - 1))
    if backend == "batched":
        from repro.engine.batch import run_multisource_replay

        return run_multisource_replay(graph, sources, replay_seed,
                                      resolve_max_steps(n, max_steps))
    require(backend == "serial", f"unknown backend: {backend!r}")
    worst = 0
    for s in sources:
        t = flooding_time(graph, int(s), seed=replay_seed, max_steps=max_steps)
        worst = max(worst, t)
    return worst
