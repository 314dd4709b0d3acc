"""A fixed computation whose time says how fast the host is right now.

``seconds`` runs an exact rational recurrence shaped like the residue
kernel's (the binomial series of (1 + u)^alpha by its first-order
recurrence, in ``fractions.Fraction`` on growing integers) and returns
the wall time of each run.  The benchmark calls it between passes, in its
own process so that the calibration runs on the CPU the passes ran on,
and divides pass times by the median.  The computation imports nothing
from the package and runs with the garbage collector off, so objects the
package keeps alive cannot change its time; only the host's speed can.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# u(w) = Q_4(1/w) w^16 - 1 for d = 2, Q_4 the fourth iterate of z^2 + z:
# the same kind of integer data the residue kernel expands.
U = (0, 8, 28, 60, 94, 116, 114, 94, 69, 44, 26, 14, 5, 2, 1, 1, 0)
ALPHA = Fraction(37, 16)
ORDER = 300


def recurrence() -> Fraction:
    """f_{k+1} = sum_i (alpha i - (k + 1 - i)) u_i f_{k+1-i} / (k + 1)."""
    support = [i for i in range(1, len(U)) if U[i]]
    f = [Fraction(1)]
    for k in range(ORDER):
        acc = Fraction(0)
        for i in support:
            if i <= k + 1:
                acc += (ALPHA * i - (k + 1 - i)) * U[i] * f[k + 1 - i]
        f.append(acc / (k + 1))
    return f[-1]


def seconds(repeats: int) -> list:
    """Wall time of each of ``repeats`` runs of the recurrence."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            recurrence()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()
