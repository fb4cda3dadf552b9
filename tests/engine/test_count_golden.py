"""Golden pin of native edge-MEG flooding on the count-chain tier.

Native (``rng_mode="native"``) flooding on an edge-MEG never runs the
churn kernel: it runs the exact chain on two informed counts
(:func:`repro.engine.batch.count_chain`) and draws truncated trials'
final masks afterwards (``_count_masks``).  These digests pin every
output of that tier, for the dense, sparse and ``p_hat``-parameterised
models, across two chunks, a truncated budget, a fixed multi-source
start and a plan that records neither histories nor masks.  A change
meant as a pure speed-up of the tier (no model copy, no row gathers,
leaner result assembly) must leave them exactly unchanged.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.flooding import flooding_trials
from repro.edgemeg.er import ErMEG
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.engine import SimulationPlan, run_plan

N = 200

#: ``p_hat = 2 ln(n) / n``, the E8 regime perfbench's flood-edge runs.
P_HAT = 2 * math.log(N) / N

#: 70 trials at the default chunk size of 64: two chunks.
TRIALS = 70

MODELS = {
    "edge": lambda: EdgeMEG(N, P_HAT / 2, (1 - P_HAT) / 2),
    "sparse-edge": lambda: SparseEdgeMEG(N, 0.01, 0.4),
    "er": lambda: ErMEG(N, P_HAT, 0.3),
}

#: Per (model, case): SHA-256 of every trial's source, time, completion
#: flag, informed history and packed final mask, seeds 0 and 1.
GOLDEN = {
    ("edge", "multi-source"):
        "ab8500dea72fceb114399c17fdaf79d4d4d3eb5a6835fbfe541862074c081e26",
    ("edge", "random-source"):
        "6e8b5a31baff720cfb1a73a3384c292d3ccdd68c6a23007b503858f6b219ceb7",
    ("edge", "truncated"):
        "16d51d386119a20f14fa0a47a31ecdcab151fe7c52020140e9e20111eaa03e6d",
    ("er", "multi-source"):
        "cca86253707d7d51bdeafa0e068f4b7013b5f244da304e760aea71e6161737cf",
    ("er", "random-source"):
        "219bc0172f32a8114369c573809e64d8ff2a78bd6443ea23dcde670366159f98",
    ("er", "truncated"):
        "8d21894ac0eb4cc8d0998ca997692ead22ee613dc1b348eb4ba0fd0d0df934ed",
    ("sparse-edge", "multi-source"):
        "57edb4fcb68485378ceda44e4844477499b7923cd47ae86de42ce691ad91f4b4",
    ("sparse-edge", "random-source"):
        "d1a81e567f5f2140b5ab4735f027ea58d39d66d97ebb092d1eba119175af6963",
    ("sparse-edge", "truncated"):
        "1f16cad0a2ee7eadb045a91cbe8db40114ffc823799a5aa87f9e52e9a3a62cbc",
}


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(np.asarray(r.source, dtype=np.int64).tobytes())
        h.update(np.asarray([r.time, r.completed], dtype=np.int64).tobytes())
        h.update(np.asarray(r.informed_history, dtype=np.int64).tobytes())
        h.update(np.packbits(np.asarray(r.informed, dtype=bool)).tobytes())
    return h.hexdigest()


CASES = {
    "random-source": {},
    "truncated": {"max_steps": 3},
    "multi-source": {"source": (0, 7, 99)},
}


def _run(model_name: str, case: str) -> str:
    h = hashlib.sha256()
    for seed in (0, 1):
        results = flooding_trials(MODELS[model_name](), trials=TRIALS,
                                  seed=seed, backend="batched",
                                  rng_mode="native", **CASES[case])
        h.update(_digest(results).encode())
    return h.hexdigest()


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_native_count_tier_is_pinned(model_name, case):
    assert _run(model_name, case) == GOLDEN[model_name, case]


#: Times and completion flags of a plan recording neither histories nor
#: masks (truncated, so both outcomes occur).
GOLDEN_UNRECORDED = (
    "98fca8ac0d2b5a15acf45e0b2fcd6e7f942c31c85236023303f7be65bda3ef56")


def test_unrecorded_plan_is_pinned():
    plan = SimulationPlan(model=MODELS["edge"](), trials=TRIALS, seed=5,
                          max_steps=3, rng_mode="native",
                          record_history=False, record_informed=False)
    ensemble = run_plan(plan)
    assert ensemble.histories == ()
    assert ensemble.informed is None
    h = hashlib.sha256()
    h.update(np.asarray(ensemble.sources, dtype=np.int64).tobytes())
    h.update(ensemble.times.astype(np.int64).tobytes())
    h.update(ensemble.completed.astype(np.int64).tobytes())
    assert h.hexdigest() == GOLDEN_UNRECORDED
