"""Protocol-kernel throughput: vectorised transmission vs the per-trial path.

Acceptance tests over the ``protocols`` harness suite
(:mod:`repro.bench.workloads.protocols`).  The headline acceptance
comparison runs push–pull gossip on the classical rumor-spreading
substrate — a static sparse graph, where the round cost **is** the
transmission rule — so it isolates exactly what the subsystem
vectorised: one CSR gather + one uniform draw vector per sender set
instead of ~2n Python ``neighbors_of`` calls per round (floor 3x,
measured ~50–80x).  The evolving sparse edge-MEG pair is context:
there the model's own churn and snapshot construction dominate both
paths, so the registered floor only demands the batched path is never
materially slower (the DESIGN.md kernel table spells out the cost
model).
"""

from __future__ import annotations

from repro.bench import run_showdown


def test_push_pull_batched_speedup_over_per_trial_path():
    """The ISSUE acceptance criterion: batched push-pull >= 3x."""
    showdown = run_showdown([
        "protocols/push_pull_per_trial",
        "protocols/push_pull_batched",
    ])
    print("\npush-pull, static substrate n=2048, mean degree 16, "
          "16 trials:")
    print(showdown.table)
    assert not showdown.failures, "\n".join(showdown.failures)


def test_push_pull_evolving_meg_context():
    """Context pair (floor 0.8x): on an evolving sparse edge-MEG the
    model's own churn dominates both paths, so the margin narrows —
    the batched path must still never be materially slower."""
    showdown = run_showdown([
        "protocols/push_pull_meg_per_trial",
        "protocols/push_pull_meg_batched",
    ])
    print("\npush-pull, SparseEdgeMEG n=512, 8 trials:")
    print(showdown.table)
    assert not showdown.failures, "\n".join(showdown.failures)
