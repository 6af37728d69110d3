"""Machine-speed calibration, interleaved with the timed curves.

On a shared machine the speed of one pure-Python process drifts by a fifth
or more within a minute, for reasons outside the process.  The benchmark
therefore times a fixed kernel before every curve and after the last one,
and scales each curve's wall time by how fast the kernel ran around it:

    calibrated time = wall time * REFERENCE_KERNEL_S / local kernel time

The kernel is exact arithmetic of the kind the program does (polynomials
held in dicts, with Fraction coefficients) and belongs to the benchmark, so
no change to the program moves it.  A calibrated time is the wall time the
curve would have taken at the speed at which the kernel takes
REFERENCE_KERNEL_S.
"""

import statistics
from fractions import Fraction as F
from time import perf_counter
from typing import List, Sequence

import polyq

# a round figure for the kernel between curves on the reference machine
# (README.md) when lightly loaded; it fixes the unit of calibrated times
REFERENCE_KERNEL_S = 1.8e-3


def kernel() -> F:
    p = polyq.add(polyq.X, polyq.scale(polyq.Y, F(2, 3)), polyq.const(F(3, 4)))
    q = polyq.power(p, 5)
    return polyq.evaluate(q, F(5, 7), F(-2, 9)) + polyq.evaluate(q, F(-1, 3), F(4, 5))


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    kernel()
    return perf_counter() - t0


# Set-up (imports, unmarshalling, catalog load) slows less than the kernel
# when the machine does: over 132 cold set-ups, log(set-up time) against
# log(kernel time around it) had slope 0.49 (README.md).
SETUP_EXPONENT = 0.5


def bracket_kernel(n: int = 10) -> float:
    """Median of `n` kernel timings: the machine's speed right now, taken
    between two set-ups."""
    return statistics.median(time_kernel() for _ in range(n))


def setup_factor(before: float, after: float) -> float:
    """Speed factor of a set-up made between two kernel brackets."""
    return (REFERENCE_KERNEL_S * 2 / (before + after)) ** SETUP_EXPONENT


def local_factors(kernel_times: Sequence[float], window: int = 3) -> List[float]:
    """Speed factor for each curve.

    kernel_times[i] was taken just before curve i and kernel_times[-1] after
    the last curve; the factor of curve i uses the median of the `window`
    timings on either side of it, so one disturbed timing does not count.
    """
    out = []
    n = len(kernel_times)
    for i in range(n - 1):
        near = kernel_times[max(0, i - window + 1): min(n, i + 1 + window)]
        out.append(REFERENCE_KERNEL_S / statistics.median(near))
    return out
