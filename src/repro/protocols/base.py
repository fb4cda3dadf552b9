"""The pluggable information-spreading protocol interface.

The paper studies *flooding* — the canonical member of a family of
information-spreading processes on evolving graphs.  Everything the
rest of the stack needs from a process is captured by four per-round
rules over the informed mask:

* **state init** — per-node protocol state beyond the informed mask
  (e.g. the informed-at clock of expiring flooding);
* **activation rule** — which informed nodes transmit this round;
* **transmission rule** — which uninformed nodes the active set reaches
  across the current graph ``G_t``;
* **retire predicate** — whether the protocol has provably stalled
  (no transmitter will ever fire again) and the run can stop early.

:class:`SpreadingProtocol` is that contract.  A protocol instance is a
small frozen dataclass carrying its parameters, so it is hashable,
picklable (module-level class), and canonically printable via
:meth:`SpreadingProtocol.token` — the string the campaign cache key
records.  Concrete protocols live in :mod:`repro.protocols.zoo`;
batched ``(B, n)`` kernels and their dispatch registry mirror
:mod:`repro.dynamics.batched` in :mod:`repro.protocols.batched`.

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
from typing import Any, ClassVar, Sequence

import numpy as np

from repro.dynamics.base import GraphSnapshot

__all__ = ["SpreadingProtocol", "Flooding", "FLOODING"]


@dataclass(frozen=True)
class SpreadingProtocol:
    """One information-spreading process, as four per-round rules.

    Subclasses are frozen dataclasses whose fields are the protocol's
    parameters; :meth:`params` and :meth:`token` derive the canonical
    parameterisation from those fields automatically.

    The library's one serial reference loop
    (:func:`repro.protocols.runner.spread`) drives the rules in a fixed order each round ``t``::

        active = protocol.active_mask(state, informed, t, rng)
        fresh  = protocol.transmit(snapshot, state, informed, active, t, rng)
        informed |= fresh            # if any
        protocol.absorb(state, fresh, t + 1)
        ...step the graph, t += 1...
        stop if protocol.stalled(state, informed, t)

    and the engine's batched kernels must reproduce exactly these
    semantics (see :mod:`repro.protocols.batched`).
    """

    #: Registry name of the protocol family (e.g. ``"push-pull"``).
    name: ClassVar[str] = ""

    #: Whether a trial seed splits into ``(graph, protocol)`` streams
    #: (``spawn(seed, 2)``).  Flooding keeps ``False`` — its seed goes
    #: straight to ``graph.reset``.
    splits_seed: ClassVar[bool] = True

    # -- per-round rules -----------------------------------------------------

    def state_init(self, n: int, sources: Sequence[int]) -> Any:
        """Per-node protocol state at time 0 (``None`` for stateless)."""
        return None

    def active_mask(self, state: Any, informed: np.ndarray, t: int,
                    rng: np.random.Generator | None) -> np.ndarray:
        """Activation rule: the informed nodes transmitting this round."""
        return informed

    def transmit(self, snapshot: GraphSnapshot, state: Any,
                 informed: np.ndarray, active: np.ndarray, t: int,
                 rng: np.random.Generator | None) -> np.ndarray:
        """Transmission rule: the newly informed mask (disjoint from
        *informed*) reached across *snapshot* by the *active* set."""
        raise NotImplementedError

    def absorb(self, state: Any, fresh: np.ndarray, t: int) -> None:
        """Update protocol *state* for nodes newly informed at time *t*."""

    def stalled(self, state: Any, informed: np.ndarray, t: int) -> bool:
        """Retire predicate: no transmitter can ever fire again."""
        return False

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

    def transmit(self, snapshot, state, informed, active, t, rng):
        # N(I) of the full informed set (disjoint from it by the
        # snapshot contract).
        return snapshot.neighborhood_mask(informed)


#: Shared default instance (the engine plan default).
FLOODING = Flooding()
