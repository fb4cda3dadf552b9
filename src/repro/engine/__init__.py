"""repro.engine — batched, parallel Monte Carlo simulation engine.

The engine turns trial count and source count from wall-clock
multipliers into batch dimensions:

* :class:`~repro.engine.plan.SimulationPlan` — declarative description
  of a trial batch (model, trials, sources, budget, deterministic seed
  tree).
* :mod:`~repro.engine.batch` — one chunk of trials: replayed trials
  run :func:`repro.protocols.runner.spread` one by one, and native
  chunks advance ``B`` trials as a ``(B, n)`` informed matrix; the
  model-family kernels plug in through the
  :class:`~repro.dynamics.batched.BatchedDynamics` registry (providers
  live next to their models: ``repro.edgemeg.kernels``,
  ``repro.geometric.kernels``, ``repro.mobility.kernels``), and the
  spreading process (``SimulationPlan(protocol=...)``) runs its own
  rules, written once over a leading trial axis on
  :class:`~repro.protocols.base.SpreadingProtocol`; unregistered model
  families and sampling protocols run trial by trial.
* :func:`~repro.engine.executor.run_plan` — the same chunks in this
  process (``serial`` / ``batched``) or in worker processes
  (``parallel``) behind one call.
* :class:`~repro.engine.results.TrialEnsemble` — column-wise results
  that plug into :mod:`repro.analysis`.

See DESIGN.md ("The simulation engine") for the architecture, the
kernel protocol, and the two seed-tree contracts (bit-identical
*replay* vs fast *native*).
"""

from repro.engine.batch import run_multisource_replay
from repro.engine.executor import BACKENDS, default_jobs, run_plan
from repro.engine.plan import RNG_MODES, SimulationPlan
from repro.engine.results import TrialEnsemble

__all__ = [
    "BACKENDS",
    "RNG_MODES",
    "SimulationPlan",
    "TrialEnsemble",
    "default_jobs",
    "run_multisource_replay",
    "run_plan",
]
