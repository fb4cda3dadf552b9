"""repro.protocols — pluggable information-spreading protocols.

The process counterpart of the :class:`~repro.dynamics.batched.BatchedDynamics`
model-kernel inversion: the *spreading process* itself is a plug-in.

* :class:`~repro.protocols.base.SpreadingProtocol` — one law per
  protocol: state, activation, absorb and stall rules written once over
  a leading trial axis (``batch_state`` / ``batch_active`` /
  ``batch_absorb`` / ``batch_stalled``), plus the per-trial
  ``transmit`` rule sampling protocols override.  The serial loop runs
  them as the one-trial case, the engine on whole chunks, so a
  subclass that overrides a rule gets it on every backend.
  :class:`~repro.protocols.base.Flooding` is the default protocol.
* :mod:`~repro.protocols.zoo` — push gossip, pull gossip, push–pull,
  probabilistic p-flooding, and expiring (SIR-style) flooding.
* :mod:`~repro.protocols.registry` — canonical protocol tokens for the
  CLI (``--protocol``), sweep grids, and campaign cache keys
  (:func:`~repro.protocols.registry.resolve_protocol`).
* :mod:`~repro.protocols.runner` — the library's one serial reference
  loop (:func:`~repro.protocols.runner.spread`, which
  :func:`~repro.core.flooding.flood` wraps) and engine-backed trial
  batches (:func:`~repro.protocols.runner.spreading_trials`).

See DESIGN.md ("The protocol subsystem") for the rule table, the
backend/stream semantics, and the cache-key rules.
"""

from repro.protocols.base import FLOODING, Flooding, SpreadingProtocol
from repro.protocols.registry import (
    default_zoo,
    protocol_names,
    register_protocol,
    resolve_protocol,
)
from repro.protocols.runner import spread, spreading_trials
from repro.protocols.zoo import (
    ExpiringFlooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
)

__all__ = [
    "FLOODING",
    "Flooding",
    "SpreadingProtocol",
    "ProbabilisticFlooding",
    "ExpiringFlooding",
    "PushGossip",
    "PullGossip",
    "PushPullGossip",
    "register_protocol",
    "protocol_names",
    "resolve_protocol",
    "default_zoo",
    "spread",
    "spreading_trials",
]
