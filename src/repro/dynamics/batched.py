"""The pluggable batched-kernel protocol.

The serial loop (:func:`repro.protocols.runner.spread`) and the
simulation engine (:mod:`repro.engine`) are model-agnostic apart from
two things that depend on the model family:

1. the exact ``N(I)`` query against one live model, which ``spread``
   asks every member-set round (the *replay* contract, bit-identical to
   the snapshot query), and
2. the fully batched native kernels that initialise, query, and advance
   all ``B`` trial populations of an engine chunk from one chunk-level
   generator as a ``(B, n)`` informed matrix (the *native* contract:
   same process law, different realisations).

:class:`BatchedDynamics` is the provider interface for both.  Each
model names its own provider:
:meth:`~repro.dynamics.base.EvolvingGraph.batched_dynamics` returns it,
and the engine asks through :func:`batched_dynamics_for`.  The default
is the base class itself, which answers replay queries through
``snapshot().neighborhood_mask`` and reports no native capability,
which routes native runs to the engine's per-trial fallback
(``spread``'s loop with chunk-spawned streams).  Model families
override the method next to their models, so Python's method
resolution hands plain subclasses (a re-parameterised edge-MEG, say)
their family's kernels.

An override serves a subclass only as far as its kernels stay exact:
a kernel that replicates ``reset``/``step``/``snapshot`` semantics is
exact only for classes that inherit them unchanged
(:func:`uses_inherited` is the gate the built-in families use).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.dynamics.base import EvolvingGraph

__all__ = [
    "BatchedDynamics",
    "batched_dynamics_for",
    "uses_inherited",
]


class BatchedDynamics:
    """Batched flooding-kernel provider for one model family.

    A provider is constructed from a *template* model (the plan's own
    model, which the engine does not copy for the native tiers) and
    serves one chunk of trials at a time.  It carries the family's
    static configuration (``n``, rates, lattice, radius, ...) and may
    read its template but must never mutate it: the caller's model is
    the template.  Per-chunk mutable state lives in the opaque object
    returned by :meth:`batch_init` and threaded back through the other
    native hooks.

    The base class itself is the generic provider every model gets by
    default: replay goes through the snapshot (exact by definition,
    ``O(n^2)``-ish per trial per step for dense snapshots) and there are
    no native kernels, so the engine runs ``spread``'s loop trial by
    trial with generators spawned from the chunk stream instead.

    Contracts
    ---------
    replay (always available)
        :meth:`replay_neighborhood` must be **bit-identical** to
        ``model.snapshot().neighborhood_mask(informed)`` for every model
        the provider serves, and must draw no randomness.
        :func:`~repro.protocols.runner.spread` drives the model through
        its own ``reset``/``step`` and asks this query for ``N(I)`` in
        every round of a member-set protocol (sampling protocols still
        read ``snapshot()``), so serial runs and every replayed engine
        trial go through it and stay equal to the snapshot semantics.
    native (optional, ``native_capable = True``)
        :meth:`batch_init` / :meth:`batch_neighborhood` /
        :meth:`batch_step` must implement the model's *exact process
        law* (stationary initialisation included), drawing randomness
        only from the chunk generator the engine passes in.  Results are
        identical in distribution to serial runs but are different
        realisations; determinism in ``(seed, trials, chunk_size)`` is
        inherited from the engine's chunk-seed derivation.
    count law (optional, ``count_law = True``)
        :meth:`count_stay_log` must give the family's *exact* flooding
        law in count form: given the informed history, every uninformed
        node stays uninformed next round independently, with a
        probability that depends on the history only through
        ``|I_{t-1}|`` and ``|I_t \\ I_{t-1}|``, and the law is invariant
        under node permutations fixing the sources.  Native flooding
        then runs as a Markov chain on those two counts (one binomial
        draw per trial per round) and never touches the population
        kernels.
    """

    #: Whether the native chunk-stream kernels below are implemented and
    #: exact for this provider's template.  ``False`` routes native runs
    #: to the engine's per-trial generic fallback.
    native_capable: bool = False

    #: Whether :meth:`count_stay_log` is implemented and exact for this
    #: provider's template.  ``True`` routes native *flooding* runs to
    #: the engine's count chain.
    count_law: bool = False

    def __init__(self, template: EvolvingGraph) -> None:
        self.template = template

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n`` of the template model."""
        return self.template.num_nodes

    # -- replay contract ----------------------------------------------------

    def replay_neighborhood(self, model: EvolvingGraph,
                            informed: np.ndarray) -> np.ndarray:
        """Exact ``N(I)`` of one live trial *model* at its current time.

        The default goes through the model's own snapshot — always
        correct, and the baseline every fast path must match bit for
        bit.
        """
        return model.snapshot().neighborhood_mask(informed)

    # -- native contract ----------------------------------------------------

    def batch_init(self, count: int, rng: np.random.Generator) -> object:
        """Stationary time-0 state of *count* trial populations.

        Returns an opaque state object threaded through the other
        native hooks; all randomness must come from *rng*.
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no native kernels")

    def batch_neighborhood(self, state: object, informed: np.ndarray,
                           act: np.ndarray) -> np.ndarray:
        """``N(I)`` masks ``(len(act), n)`` of the *act* trial rows.

        Must be disjoint from ``informed[act]`` row-wise and must not
        draw randomness (the query is a deterministic function of the
        current state).
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no native kernels")

    def batch_step(self, state: object, rng: np.random.Generator,
                   active: np.ndarray) -> None:
        """Advance the *active* trials one time step (``G_t -> G_{t+1}``).

        *active* is a length-``count`` boolean mask; state of inactive
        (completed) trials may be dropped or left stale.
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no native kernels")

    def batch_retire(self, state: object, active: np.ndarray) -> None:
        """Hook called when trials complete; *active* is the surviving
        mask.  Kernels with flat cross-trial state compact it here.
        Default: no-op."""

    # -- count law ----------------------------------------------------------

    def count_stay_log(self, older: np.ndarray,
                       fresh: np.ndarray) -> np.ndarray:
        """Log-probability that an uninformed node stays uninformed.

        *older* is ``|I_{t-1}|`` and *fresh* is ``|I_t \\ I_{t-1}|``
        (integer arrays, one entry per trial; at time 0, ``older = 0``
        and ``fresh = |S|``).  Must be elementwise, draw no randomness,
        and return exact limits (``-inf`` for a certain hit, never
        ``nan``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no count law")


def batched_dynamics_for(template: EvolvingGraph) -> BatchedDynamics:
    """The kernel provider serving *template*'s model family:
    ``template.batched_dynamics()``.

    The one name the engine and ``spread`` call.  Never returns
    ``None`` — every model is at least generically simulable.
    """
    return template.batched_dynamics()


def uses_inherited(template: EvolvingGraph, base: type,
                   *method_names: str) -> bool:
    """Whether *template*'s class inherits every named method of *base*
    unchanged.

    The capability gate of the built-in families' ``batched_dynamics``
    overrides: a batched kernel that re-implements
    ``reset``/``step``/``snapshot`` semantics is exact only for classes
    that did not override them.
    """
    cls = type(template)
    return all(getattr(cls, name) is getattr(base, name)
               for name in method_names)
