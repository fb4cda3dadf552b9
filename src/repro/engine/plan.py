"""Declarative simulation plans and the deterministic seed tree.

A :class:`SimulationPlan` captures *what* to simulate — model, trial
count, sources, step budget, seed — independently of *how* it is
executed (``serial`` / ``batched`` / ``parallel``, see
:mod:`repro.engine.executor`).  Everything random derives from the
plan's single seed through one of two documented stream layouts:

``replay`` (default)
    The per-trial layout of the serial reference: every trial is one
    :func:`repro.protocols.runner.spread` call.  For flooding,
    ``spawn(seed, 2 * trials)`` yields per-trial ``(graph, source)``
    generator pairs in trial order; other protocols get per-trial
    ``derive_seed`` integers (:meth:`SimulationPlan.protocol_streams`).
    Every backend returns the serial loop's results **bit for bit** —
    same flooding times, same informed histories, same masks —
    regardless of chunking or worker count.

``native``
    One generator per fixed-size *chunk* of trials, derived via
    :func:`repro.util.rng.derive_seed` from the chunk's starting trial
    index.  Kernels draw from the chunk stream in batch order, which
    unlocks the fast batched population kernels the model families
    provide through :mod:`repro.dynamics.batched`.  Results are
    deterministic in ``(seed, trials, chunk_size)`` and independent of
    the worker count (the parallel executor distributes whole chunks),
    but are *different realisations* from the replay layout — identical
    in distribution, not draw-for-draw.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.protocols.base import FLOODING, Flooding, SpreadingProtocol
from repro.util.rng import SeedLike, derive_seed
from repro.util.validation import require, require_positive_int

__all__ = ["SimulationPlan", "RNG_MODES"]

#: Supported stream layouts.
RNG_MODES = ("replay", "native")

#: Fixed key separating the native chunk-seed namespace from other
#: derive_seed users (an arbitrary constant, part of the seed contract).
_NATIVE_STREAM_KEY = 0xBA7C

#: Default trials per chunk.  Part of the native seed contract: changing
#: the chunk size changes native realisations (never replay ones).
DEFAULT_CHUNK_SIZE = 64


@dataclass(frozen=True)
class SimulationPlan:
    """A declarative batch of independent flooding trials.

    Parameters
    ----------
    model:
        Template :class:`~repro.dynamics.base.EvolvingGraph`, never
        mutated by any backend: per-trial chunks (replay, and the
        generic native tier) reset a deep copy made per chunk
        (:meth:`make_model`), and the native count and kernel tiers
        only read the template through its
        :class:`~repro.dynamics.batched.BatchedDynamics` provider.
        Exactly one of *model* and *model_factory* must be given.
    model_factory:
        Zero-argument callable building a fresh model.  Must be
        picklable (a module-level function or :func:`functools.partial`)
        for the parallel backend.
    trials:
        Number of independent trials ``B >= 1``.
    source:
        Fixed initiator node (or several, for multi-source flooding);
        ``None`` draws one uniformly random source per trial.
    max_steps:
        Step budget; ``None`` resolves to
        :func:`repro.core.flooding.resolve_max_steps`.
    seed:
        Root of the deterministic seed tree (see the module docstring).
    rng_mode:
        ``"replay"`` or ``"native"``.
    protocol:
        The information-spreading process to run — a
        :class:`~repro.protocols.base.SpreadingProtocol` instance or a
        registry token (``"push-pull"``, ``"p-flood:transmit_probability=0.3"``,
        ...).  Defaults to flooding, whose stream layouts (and
        therefore every pre-protocol result and campaign cache key)
        are unchanged.  Non-flooding protocols replay the
        ``derive_seed`` per-trial layout of
        :func:`repro.protocols.runner.spreading_trials` instead — see
        :meth:`protocol_streams`.
    chunk_size:
        Trials per batch chunk (also the parallel work unit).
    record_history / record_informed:
        Disable to save memory on very large ensembles; the resulting
        :class:`~repro.engine.results.TrialEnsemble` then carries empty
        histories / no masks.
    """

    model: EvolvingGraph | None = None
    model_factory: Callable[[], EvolvingGraph] | None = None
    trials: int = 1
    source: int | Sequence[int] | None = None
    max_steps: int | None = None
    seed: SeedLike = None
    rng_mode: str = "replay"
    protocol: "SpreadingProtocol | str" = FLOODING
    chunk_size: int = DEFAULT_CHUNK_SIZE
    record_history: bool = True
    record_informed: bool = True

    def __post_init__(self) -> None:
        require((self.model is None) != (self.model_factory is None),
                "exactly one of model and model_factory is required")
        require(self.model is None or isinstance(self.model, EvolvingGraph),
                "model must be an EvolvingGraph")
        require_positive_int(self.trials, "trials")
        require(self.rng_mode in RNG_MODES,
                f"rng_mode must be one of {RNG_MODES}")
        if not isinstance(self.protocol, SpreadingProtocol):
            from repro.protocols.registry import resolve_protocol
            object.__setattr__(self, "protocol",
                               resolve_protocol(self.protocol))
        require_positive_int(self.chunk_size, "chunk_size")

    @property
    def is_flooding(self) -> bool:
        """Whether the plan runs plain flooding (the frozen flooding
        stream layouts; subclassed protocols never qualify)."""
        return type(self.protocol) is Flooding

    # -- model construction -------------------------------------------------

    def make_model(self) -> EvolvingGraph:
        """A fresh model instance (deep copy of the template, or factory
        call); safe to reset/step without affecting other trials."""
        if self.model is not None:
            return copy.deepcopy(self.model)
        return self.model_factory()

    # -- seed tree ----------------------------------------------------------

    def replay_streams(self, root: np.random.SeedSequence) -> list[np.random.Generator]:
        """The flooding replay layout: ``2 * trials`` generators,
        ``(graph, source)`` pairs per trial, spawned from *root*."""
        return [np.random.default_rng(child) for child in root.spawn(2 * self.trials)]

    def protocol_streams(self, root: np.random.SeedSequence, start: int,
                         stop: int) -> list[tuple[int, int]]:
        """Per-trial ``(run_seed, source_seed)`` integers of trials
        ``start .. stop - 1`` — the replay layout of non-flooding
        protocols, identical to the serial
        :func:`repro.protocols.runner.spreading_trials` discipline (so
        the same master seed couples graph realisations across
        protocols, trial by trial)."""
        from repro.protocols.runner import protocol_trial_streams

        return protocol_trial_streams(root, start, stop)

    def native_chunk_seed(self, root: np.random.SeedSequence, start: int) -> int:
        """Deterministic 63-bit seed of the chunk starting at trial *start*."""
        return derive_seed(root, _NATIVE_STREAM_KEY, start)

    def chunk_ranges(self) -> Iterator[tuple[int, int]]:
        """``(start, stop)`` trial ranges of consecutive chunks."""
        for start in range(0, self.trials, self.chunk_size):
            yield start, min(start + self.chunk_size, self.trials)
