"""``engine`` suite — trial-ensemble throughput per backend.

Ports of ``benchmarks/test_bench_engine_batch.py`` and
``test_bench_mobility_batch.py``, plus the geometric-MEG family.  Two
tiers per model family:

* **ensemble** cases at the acceptance scale (the sizes the asserted
  speedup floors were calibrated at — EdgeMEG n=512, geometric-MEG
  n=1024 and waypoint n=256, 64 trials each), where ``batched-native``
  must beat the serial reference by the family's floor, and
* small **tracking** cases (16 trials) whose absolute latency the
  baseline comparison follows over time.
"""

from __future__ import annotations

import functools
import math

from repro.bench.case import BenchCase, register
from repro.util.validation import require

SUITE = "engine"

#: Engine acceptance floor: native batched throughput over serial.
EDGE_NATIVE_FLOOR = 5.0
#: Mobility acceptance floor (k-d trees are strong at sparse radii, so
#: the dense-regime margin is structurally smaller).
MOBILITY_NATIVE_FLOOR = 3.0
#: Geometric-MEG acceptance floor: about half the lowest native/serial
#: speedup measured at the E4 law (4-7x with the lattice radius query).
GEOMETRIC_NATIVE_FLOOR = 2.0

ENSEMBLE_TRIALS = 64
SEED = 20090525


@functools.lru_cache(maxsize=None)
def make_edge_meg(n: int):
    """EdgeMEG at the paper's sparse density ``p_hat = 2 log n / n``.

    Cached: every backend case of a family measures the **same** model
    object (as the pre-harness acceptance tests did), so per-model
    lazily built kernel caches are shared across the comparison instead
    of being re-paid by whichever case happens to run first.
    ``flooding_trials`` reseeds per trial, so sharing is deterministic.
    """
    from repro.edgemeg.meg import EdgeMEG
    p_hat = 2.0 * math.log(n) / n
    q = 0.2
    return EdgeMEG(n, p_hat * q / (1.0 - p_hat), q)


@functools.lru_cache(maxsize=None)
def make_waypoint_meg(n: int):
    """The E11 torus waypoint model at dense radius ``3 sqrt(log n)``
    (exact stationary start, so flooding alone is timed; cached for the
    same reason as :func:`make_edge_meg`)."""
    from repro.mobility import MobilityMEG, RandomWaypointTorus
    side = math.sqrt(n)
    radius = 3.0 * math.sqrt(math.log(n))
    return MobilityMEG(RandomWaypointTorus(n, side, speed=1.0), radius,
                       torus=True)


@functools.lru_cache(maxsize=None)
def make_geometric_meg(n: int):
    """The E4 geometric-MEG at Thm 3.4: move radius 1,
    ``R = 2 sqrt(log n)`` (cached for the same reason as
    :func:`make_edge_meg`)."""
    from repro.geometric.meg import GeometricMEG
    return GeometricMEG(n, 1.0, 2.0 * math.sqrt(math.log(n)))


def _check_trials(expected: int):
    def check(results) -> None:
        require(len(results) == expected,
                f"expected {expected} trial results, got {len(results)}")
        require(all(r.completed for r in results),
                "every trial must complete")
    return check


def _trials_setup(make_meg, n: int, trials: int, **kwargs):
    def setup():
        from repro.core.flooding import flooding_trials
        meg = make_meg(n)
        return lambda: flooding_trials(meg, trials=trials, seed=SEED,
                                       **kwargs)
    return setup


def _register_family(prefix: str, make_meg, n: int, scale: str, *,
                     floor: float) -> None:
    ref = f"engine/{prefix}_ensemble_serial"
    ensemble = dict(make_meg=make_meg, n=n, trials=ENSEMBLE_TRIALS)
    register(BenchCase(
        name=ref, suite=SUITE, scale=scale,
        setup=_trials_setup(**ensemble), rounds=2,
        check=_check_trials(ENSEMBLE_TRIALS)))
    register(BenchCase(
        name=f"engine/{prefix}_ensemble_replay", suite=SUITE, scale=scale,
        setup=_trials_setup(**ensemble, backend="batched"),
        rounds=2, ref=ref, check=_check_trials(ENSEMBLE_TRIALS)))
    register(BenchCase(
        name=f"engine/{prefix}_ensemble_native", suite=SUITE, scale=scale,
        setup=_trials_setup(**ensemble, backend="batched",
                            rng_mode="native"),
        rounds=5, ref=ref, floor=floor,
        check=_check_trials(ENSEMBLE_TRIALS)))
    register(BenchCase(
        name=f"engine/{prefix}_ensemble_parallel", suite=SUITE, scale=scale,
        setup=_trials_setup(**ensemble, backend="parallel",
                            rng_mode="native", jobs=2),
        rounds=5, ref=ref, check=_check_trials(ENSEMBLE_TRIALS)))


_register_family("edge", make_edge_meg, 512,
                 "EdgeMEG n=512, p_hat=2 log n/n, 64 trials",
                 floor=EDGE_NATIVE_FLOOR)
_register_family("geometric", make_geometric_meg, 1024,
                 "GeometricMEG n=1024, r=1, R=2 sqrt(log n), 64 trials",
                 floor=GEOMETRIC_NATIVE_FLOOR)
_register_family("mobility", make_waypoint_meg, 256,
                 "RandomWaypointTorus n=256, R=3 sqrt(log n), 64 trials",
                 floor=MOBILITY_NATIVE_FLOOR)

# Small tracking cases: calibrated rounds, baseline-gated latency.
_SMALL = "EdgeMEG n=256, 16 trials"
register(BenchCase(
    name="engine/trials_serial", suite=SUITE, scale=_SMALL,
    setup=_trials_setup(make_edge_meg, 256, 16),
    check=_check_trials(16)))
register(BenchCase(
    name="engine/trials_batched_replay", suite=SUITE, scale=_SMALL,
    setup=_trials_setup(make_edge_meg, 256, 16, backend="batched"),
    ref="engine/trials_serial", check=_check_trials(16)))
register(BenchCase(
    name="engine/trials_batched_native", suite=SUITE, scale=_SMALL,
    setup=_trials_setup(make_edge_meg, 256, 16, backend="batched",
                        rng_mode="native"),
    ref="engine/trials_serial", check=_check_trials(16)))
register(BenchCase(
    name="engine/mobility_serial", suite=SUITE,
    scale="RandomWaypointTorus n=256, 8 trials",
    setup=_trials_setup(make_waypoint_meg, 256, 8),
    check=_check_trials(8)))
register(BenchCase(
    name="engine/mobility_batched_native", suite=SUITE,
    scale="RandomWaypointTorus n=256, 8 trials",
    setup=_trials_setup(make_waypoint_meg, 256, 8, backend="batched",
                        rng_mode="native"),
    ref="engine/mobility_serial", check=_check_trials(8)))
