"""Host-speed calibration: a fixed piece of work that runs none of the
program's code, timed beside the program's own.

The 2-vCPU host this benchmark was tuned on changes speed by 25-50% in
phases of seconds to minutes, and CPU time moves with wall time, so the
slowdown is not steal time the process could subtract.  A run's raw
query times therefore follow the host as much as the program.  The
calibration mixes the three costs the workloads pay -- interpreter
bytecode, small-array numpy dispatch and first-touch page faults -- so
its time moves with the host in step with theirs: over 5 s windows of
40 s runs, the coefficient of variation of the median query time was
6-15% raw and 2-6% as a ratio to the calibration, on every workload.

Every reported time is scaled by ``REFERENCE_MS / calibration``: it is
the time the same work would take on a host where the calibration takes
``REFERENCE_MS``.  A change to the program moves these times exactly as
it moves raw ones, because the calibration never calls it.  The page
faults come from ``mmap`` rather than numpy allocations, so the
program's use of ``malloc`` cannot change what the calibration costs.
"""

import mmap
import statistics
import time

import numpy as np

#: Calibration time (ms) of the reference host the reported times are
#: scaled to: about the median on the 2-vCPU host the bounds were set on.
REFERENCE_MS = 6.0

_RNG = np.random.default_rng(12345)
_VALUES = _RNG.random(1024)
_INDEX = _RNG.integers(0, 1024, 4096)
_PAGES = 8 << 20

#: Calibrations per set-up sample, and the calibrations on each side of
#: a query whose median scales it: one noisy calibration moves nothing.
SETUP_REPEATS = 5
HALF_WINDOW = 4


def calibrate() -> float:
    """Run the fixed work once; returns its wall time in ms."""
    start = time.perf_counter()
    total = 0
    for k in range(3000):                  # interpreter
        total += (k * k) % 7
    for _ in range(75):                    # small-array numpy dispatch
        picked = _VALUES[_INDEX] * 1.5
        total += int(np.count_nonzero(picked > 0.75))
    with mmap.mmap(-1, _PAGES) as pages:   # 2048 first-touch page faults
        np.frombuffer(pages, dtype=np.uint8)[::mmap.PAGESIZE] = 1
    return 1e3 * (time.perf_counter() - start)


def calibrate_median() -> float:
    return statistics.median(calibrate() for _ in range(SETUP_REPEATS))


def scale_factors(calibrations: list) -> list:
    """Per-sample factor ``REFERENCE_MS / c``, with ``c`` the median of the
    calibrations within ``HALF_WINDOW`` places of the sample."""
    factors = []
    for i in range(len(calibrations)):
        window = calibrations[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
        factors.append(REFERENCE_MS / statistics.median(window))
    return factors
