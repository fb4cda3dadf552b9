"""Mobility-kernel throughput: serial vs the batched native kernels.

Acceptance test over the mobility half of the ``engine`` harness
suite (:mod:`repro.bench.workloads.engine`): the acceptance comparison
measures the E11 waypoint ensemble (n=256, unit speed,
``R = 3 sqrt(log n)`` — the dense-connectivity regime the batched
cell-grid query targets) on every backend and asserts the registered
3x floor for the native kernel; at sparser radii the k-d tree's pruned
search is genuinely strong and the margin narrows (see the DESIGN.md
kernel table for the cost model).
"""

from __future__ import annotations

from repro.bench import run_showdown


def test_mobility_native_speedup_over_serial():
    """The ISSUE acceptance criterion: >= 3x on a waypoint ensemble."""
    showdown = run_showdown([
        "engine/mobility_ensemble_serial",
        "engine/mobility_ensemble_native",
        "engine/mobility_ensemble_parallel",
    ])
    print("\nRandomWaypointTorus n=256, R=3 sqrt(log n), 64 trials:")
    print(showdown.table)
    assert not showdown.failures, "\n".join(showdown.failures)
