"""The pluggable information-spreading protocol interface.

The paper studies *flooding* — the canonical member of a family of
information-spreading processes on evolving graphs.  Everything the
rest of the stack needs from a process is captured by a few per-round
rules over the informed sets, each written **once** over a leading
trial axis (``B`` trials as rows of a ``(B, n)`` matrix):

* **state** — per-node protocol state beyond the informed mask (e.g.
  the informed-at clock of expiring flooding);
* **activation rule** — which informed nodes transmit this round;
* **transmission rule** — which uninformed nodes the active set reaches
  across the current graph ``G_t``;
* **absorb** — the state update for newly informed nodes;
* **stall predicate** — whether a trial has provably stalled (no
  transmitter will ever fire again) and can stop early.

:class:`SpreadingProtocol` is that contract.  A protocol instance is a
small frozen dataclass carrying its parameters, so it is hashable,
picklable (module-level class), and canonically printable via
:meth:`SpreadingProtocol.token` — the string the campaign cache key
records.  Concrete protocols live in :mod:`repro.protocols.zoo`.

Seeding convention
------------------
:class:`Flooding` consumes only graph randomness: the seed *is* the
graph seed (``splits_seed = False``), which keeps flooding results and
their campaign cache keys frozen.  Every other protocol splits its per-trial
seed as ``rng_graph, rng_protocol = spawn(seed, 2)``: passing the same
trial seed to different protocols couples the evolving-graph
realisation while keeping protocol randomness independent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar

import numpy as np

from repro.dynamics.base import GraphSnapshot

__all__ = ["SpreadingProtocol", "Flooding", "FLOODING"]


@dataclass(frozen=True)
class SpreadingProtocol:
    """One information-spreading process, as per-round rules over trials.

    Subclasses are frozen dataclasses whose fields are the protocol's
    parameters; :meth:`params` and :meth:`token` derive the canonical
    parameterisation from those fields automatically.

    Every ``batch_*`` rule sees the informed matrix ``(B, n)`` and an
    index *act* of the trial rows it acts on (an index array, or a
    slice); it must only read and write those rows, so that one trial
    (*act* a one-row slice) and a batch of trials follow the same law.
    Each round ``t`` runs::

        members = protocol.batch_active(state, informed, act, t, rng)
        fresh   = N(members) & ~informed[act]   # members None: N(informed)
        informed[act] |= fresh
        protocol.batch_absorb(state, act, fresh, t + 1)
        ...step the graphs, t += 1...
        retire rows where protocol.batch_stalled(state, informed, act, t)

    The serial reference loop (:func:`repro.protocols.runner.spread`),
    which runs every replayed engine trial too, runs it as the one-trial
    case, each trial with its own generator, and the engine's native
    loop runs it on whole chunks with one chunk generator and answers
    ``N(members)`` with the model family's batched neighborhood query.

    Sampling protocols (push, pull, push–pull) pick neighbors node by
    node, which has no member-set form: they override the per-trial
    :meth:`transmit` rule instead, and a protocol that overrides it runs
    trial by trial on every backend.
    """

    #: Registry name of the protocol family (e.g. ``"push-pull"``).
    name: ClassVar[str] = ""

    #: Whether a trial seed splits into ``(graph, protocol)`` streams
    #: (``spawn(seed, 2)``).  Flooding keeps ``False`` — its seed goes
    #: straight to ``graph.reset``.
    splits_seed: ClassVar[bool] = True

    # -- per-round rules -----------------------------------------------------

    def batch_state(self, informed: np.ndarray) -> Any:
        """Protocol state of the trials whose time-0 informed rows are
        *informed* (``None`` for stateless protocols)."""
        return None

    def batch_active(self, state: Any, informed: np.ndarray, act,
                     t: int, rng: np.random.Generator | None,
                     ) -> np.ndarray | None:
        """Activation rule: the member rows (within ``informed[act]``)
        that transmit at round *t*.

        ``None`` means "the informed rows themselves" (flooding), which
        hands the informed matrix to the neighborhood query unchanged.
        """
        return None

    def transmit(self, snapshot: GraphSnapshot, informed: np.ndarray,
                 active: np.ndarray, rng: np.random.Generator | None,
                 ) -> np.ndarray:
        """Transmission rule of one trial: the newly informed mask
        (disjoint from *informed*) reached across *snapshot* by the
        *active* set.

        The default is the member-set rule ``N(active) & ~informed``;
        *active* is *informed* itself when :meth:`batch_active` returned
        ``None``, and ``N(I)`` is disjoint from ``I`` by the snapshot
        contract.
        """
        return _member_fresh(snapshot.neighborhood_mask, informed, active)

    def batch_absorb(self, state: Any, act, fresh: np.ndarray,
                     t: int) -> None:
        """State update: *fresh* rows of the *act* trials were informed
        at time *t*.  Default: no-op (stateless protocols)."""

    def batch_stalled(self, state: Any, informed: np.ndarray, act,
                      t: int) -> np.ndarray | None:
        """Stall predicate after round *t*: a retire mask over the *act*
        trials, or ``None`` when the protocol never stalls."""
        return None

    # -- identity ------------------------------------------------------------

    def params(self) -> dict[str, Any]:
        """Canonical parameter mapping (dataclass fields, declared order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def token(self) -> str:
        """Canonical string identity, e.g. ``"p-flood(transmit_probability=0.5)"``.

        This is what the campaign cache key stores for non-flooding
        protocols, so it must pin every parameter that changes the
        process law.
        """
        params = self.params()
        if not params:
            return self.name
        inner = ",".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                         for k, v in params.items())
        return f"{self.name}({inner})"

    def __str__(self) -> str:
        return self.token()


@dataclass(frozen=True)
class Flooding(SpreadingProtocol):
    """The paper's flooding mechanism as the default protocol.

    Deterministic given the graph: every informed node transmits every
    round, and every neighbor of the informed set is reached.
    :func:`repro.core.flooding.flood` is ``spread(FLOODING, ...)``.  Its
    seed goes to ``graph.reset`` unsplit (``splits_seed = False``), which
    keeps all pre-existing flooding results and campaign cache keys
    valid.
    """

    name: ClassVar[str] = "flooding"
    splits_seed: ClassVar[bool] = False


#: Shared default instance (the engine plan default).
FLOODING = Flooding()


def member_set(protocol: SpreadingProtocol) -> bool:
    """Whether *protocol* transmits by the member-set rule (it inherits
    :meth:`SpreadingProtocol.transmit`), so the model family's
    neighborhood queries can answer its rounds: serial ``spread`` then
    asks the family's ``replay_neighborhood`` instead of a snapshot, and
    the engine may run native kernels.  Sampling protocols override
    ``transmit`` and run trial by trial against snapshots."""
    return type(protocol).transmit is SpreadingProtocol.transmit


def _member_fresh(neighborhood, informed: np.ndarray,
                  active: np.ndarray) -> np.ndarray:
    """The member-set rule ``N(active) & ~informed`` of one trial, with
    ``N`` answered by *neighborhood* (a mask -> mask query of ``G_t``).

    The default :meth:`SpreadingProtocol.transmit` asks the snapshot;
    :func:`repro.protocols.runner.spread` asks the model family's
    ``replay_neighborhood``, so both run this one rule.
    """
    if active is informed:
        return neighborhood(informed)
    if not active.any():
        return np.zeros_like(informed)
    return neighborhood(active) & ~informed
