"""Host-speed reference: timings scaled to a fixed speed of the host.

The shared hosts this benchmark runs on change speed by 20-40 % within a
minute, for CPU time as much as for wall time, so raw times of the same code
spread past any useful bound.  Every timed interval is therefore paired with
nearby timings of a fixed reference task that runs no zetakit code: a short
loop of mpmath arithmetic (exp, log, sqrt, powers) at the workload's
precision, through the same mpmath backend the library uses.  A reported time
is

    measured time * NOMINAL_S[bits] / median(reference times nearby)

that is, the time the operation would take on a host that runs the
reference task in ``NOMINAL_S[bits]`` seconds.  A change to zetakit moves
the measured time and not the reference, so it shows in full; a change of
host speed moves both, and cancels.  A change to mpmath or to its backend
moves both, so compare results only with the same ``mpmath_backend``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from mpmath.ctx_mp import MPContext

#: Reference time per precision: about its median between zetakit calls on a
#: 2-core Xeon (2.1 GHz) VM with Python 3.11.7 and mpmath 1.3.0, pure-Python
#: backend.  Scaled times read as seconds on a host that runs the reference
#: task in exactly this time.
NOMINAL_S = {256: 0.0019, 1024: 0.0048}
#: Reference samples on each side of an interval whose median scales it.
WINDOW = 7


class Reference:
    """The reference task at one precision, in its own mpmath context."""

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.mp = MPContext()
        self.mp.prec = bits
        self.task()  # warm mpmath's constant caches before any timing

    def task(self):
        mp = self.mp
        acc, x = mp.mpf(0), mp.mpf(1) / 3
        for k in range(1, 30):
            y = x * k + 1
            acc += mp.exp(y) * mp.log(y) / mp.sqrt(y) + y ** 7
        return acc

    def sample(self) -> float:
        """Seconds of one run of the reference task."""
        t0 = perf_counter()
        self.task()
        return perf_counter() - t0


def scale_one(t: float, refs: list, bits: int) -> float:
    """``t`` scaled by the median of the reference samples ``refs``."""
    return t * NOMINAL_S[bits] / statistics.median(refs)


def scale(times: list, refs: list, bits: int) -> list:
    """Scale ``times[i]`` by the median of the reference samples around it.

    ``refs[i]`` is taken just before interval i and ``refs[i + 1]`` just
    after it, so ``len(refs) == len(times) + 1``.
    """
    if len(refs) != len(times) + 1:
        raise ValueError("one reference sample before and after every interval")
    return [scale_one(t, refs[max(0, i - WINDOW + 1): i + WINDOW + 1], bits)
            for i, t in enumerate(times)]
