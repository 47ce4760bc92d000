"""Machine-speed calibration for the benchmark's timings.

The 2-core guest the benchmark was built on changes speed by up to ±20 %
over tens of seconds to minutes (the same fixed loop runs 25–37 ms apart
in different 5-s windows), so raw times of two runs of the same program
can differ by more than any useful regression bound.  The benchmark
therefore times a fixed piece of work, ``sample()``, right before and right
after every timed interval, and reports each interval scaled to the speed
at which ``sample()`` takes ``REF_SAMPLE_S``:

    reported = measured * REF_SAMPLE_S / sample time around the interval

``sample()`` does not import softgrand and never changes, so a change to
the program moves the reported figures exactly as it moves the measured
ones; a change of the machine's speed moves both the interval and the
sample, and cancels.  The sample mixes the three kinds of work the program
does: interpreted Python, numpy calls on code-word-sized arrays, and numpy
passes over long arrays.  It runs in one thread (no BLAS).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median sample time on the reference machine (2-core KVM guest, Intel Xeon,
# Python 3.11.7, numpy 2.4.6); reported times are in seconds at this speed.
REF_SAMPLE_S = 0.091

_RNG_SEED = 20221210
_SMALL = np.random.default_rng(_RNG_SEED).standard_normal(128)
_BIG = np.random.default_rng(_RNG_SEED + 1).standard_normal(1 << 17)


def _python():
    s = 0
    for i in range(350_000):
        s += i * i % 7
    return s


def _numpy_small():
    x = _SMALL.copy()
    for _ in range(3000):
        y = np.abs(x)
        order = np.argsort(y)
        x = x + np.cumsum(y[order]) * 1e-9
    return float(x[0])


def _numpy_big():
    x = _BIG.copy()
    for _ in range(6):
        y = np.logaddexp(x, -x)
        x = np.where(y > 1.0, x * 0.5, x)
    return float(x[0])


PARTS = (_python, _numpy_small, _numpy_big)


def sample():
    """Seconds the fixed calibration work takes now: the geometric mean of
    its parts' times, scaled so the parts weigh alike."""
    logs = []
    for part in PARTS:
        t0 = time.perf_counter()
        part()
        logs.append(math.log(time.perf_counter() - t0))
    return math.exp(sum(logs) / len(logs)) * len(PARTS)


def speed(before_s, after_s):
    """Factor that turns an interval timed between two samples into
    seconds at reference speed."""
    return REF_SAMPLE_S / math.sqrt(before_s * after_s)
