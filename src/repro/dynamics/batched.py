"""The pluggable batched-kernel protocol and its dispatch registry.

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

:class:`BatchedDynamics` is the provider interface for both.  Model
packages implement it next to their models and register a factory here
(:func:`register_batched_dynamics`); the engine looks providers up with
:func:`batched_dynamics_for`, which walks the model's MRO so that plain
subclasses (a re-parameterised edge-MEG, say) inherit their family's
kernels instead of silently falling back to the generic snapshot path.
Unregistered families always work: :class:`GenericBatchedDynamics`
answers replay queries through ``snapshot().neighborhood_mask`` and
reports no native capability, which routes native runs to the engine's
per-trial fallback (``spread``'s loop with chunk-spawned streams).

A factory may *decline* a particular template by returning ``None`` —
the lookup then continues up the MRO.  The standard reason to decline
is a subclass that overrides the very methods the kernel re-implements
(:func:`uses_inherited` is the gate the built-in factories use): a
kernel that replicates ``reset``/``step`` semantics is only exact for
classes that inherit them unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.util.validation import require

__all__ = [
    "BatchedDynamics",
    "GenericBatchedDynamics",
    "register_batched_dynamics",
    "batched_dynamics_for",
    "registered_families",
    "uses_inherited",
]


class BatchedDynamics:
    """Batched flooding-kernel provider for one model family.

    A provider is constructed from a *template* model (the engine's
    deep-copied plan model) and serves one chunk of trials at a time.
    It carries the family's static configuration (``n``, rates, lattice,
    radius, ...); per-chunk mutable state lives in the opaque object
    returned by :meth:`batch_init` and threaded back through the other
    native hooks.

    Contracts
    ---------
    replay (always available)
        :meth:`replay_neighborhood` must be **bit-identical** to
        ``model.snapshot().neighborhood_mask(informed)`` for every model
        the factory accepts, and must draw no randomness.
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


class GenericBatchedDynamics(BatchedDynamics):
    """Fallback provider for unregistered model families.

    Replay queries go through ``snapshot().neighborhood_mask`` (exact by
    definition, ``O(n^2)``-ish per trial per step for dense snapshots);
    there are no native kernels, so the engine runs ``spread``'s loop
    trial by trial with generators spawned from the chunk stream
    instead.
    """

    native_capable = False


#: Registered kernel factories, keyed by model class.  A factory maps a
#: template model to a provider, or to ``None`` to decline it.
KernelFactory = Callable[[EvolvingGraph], Optional[BatchedDynamics]]

_REGISTRY: dict[type, KernelFactory] = {}


def register_batched_dynamics(model_type: type,
                              factory: KernelFactory) -> None:
    """Register *factory* as the kernel provider for *model_type*.

    The registration covers subclasses via MRO dispatch: a lookup for a
    subclass finds the nearest registered ancestor.  Re-registering a
    class replaces its factory (last one wins), which keeps module
    re-imports idempotent.
    """
    require(isinstance(model_type, type) and issubclass(model_type, EvolvingGraph),
            "model_type must be an EvolvingGraph subclass")
    _REGISTRY[model_type] = factory


def batched_dynamics_for(template: EvolvingGraph) -> BatchedDynamics:
    """The kernel provider serving *template*'s model family.

    Walks ``type(template).__mro__`` for the nearest registered factory
    that accepts the template; falls back to
    :class:`GenericBatchedDynamics` when none does.  Never returns
    ``None`` — every model is at least generically simulable.
    """
    for cls in type(template).__mro__:
        factory = _REGISTRY.get(cls)
        if factory is not None:
            provider = factory(template)
            if provider is not None:
                return provider
    return GenericBatchedDynamics(template)


def registered_families() -> tuple[type, ...]:
    """The model classes with registered kernel factories (for docs/tests)."""
    return tuple(_REGISTRY)


def uses_inherited(template: EvolvingGraph, base: type,
                   *method_names: str) -> bool:
    """Whether *template*'s class inherits every named method of *base*
    unchanged.

    The capability gate used by the built-in factories: a batched kernel
    that re-implements ``reset``/``step``/``snapshot`` semantics is exact
    only for classes that did not override them.
    """
    cls = type(template)
    return all(getattr(cls, name) is getattr(base, name)
               for name in method_names)
