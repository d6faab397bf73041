"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the core the benchmark runs on slows down by up to 1.8x
whenever a neighbour loads its sibling hyperthread, for stretches of
milliseconds to minutes; two runs of the same code a few minutes apart can
differ by that much.  run.py times this kernel before every op, so each op
sits between two samples, and divides the op's time by their mean: a slow
stretch slows the kernel and the program alike and cancels out, while a
change to the program moves only the program's side of the ratio.
Multiplied by REFERENCE_S, the ratio reads as seconds on an unshared core.

The kernel uses only the standard library, so no change to hullattack can
change it.  It does what the program spends its time on, in two halves of
about equal time: products of small Fraction matrices, whose entries go
through gcd on every operation (the generator and the rational linear
algebra), and fraction-free elimination on a matrix of 60-bit integers,
whose entries grow to over a thousand bits (the HNF and LLL kernels).
"""

import random
import time
from fractions import Fraction

# The kernel's time on an unshared core: the floor of its samples on a
# 2-vCPU Intel Xeon VM at 2.0 GHz under Python 3.11, where a core shared
# with a busy neighbour reads about 1.8 times as much.
REFERENCE_S = 0.0062

_N = 5
_A = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(_N)] for i in range(_N)]
_B = [[Fraction((5 * i + 2 * j) % 13 - 6, 1 + (i + j) % 3) for j in range(_N)] for i in range(_N)]
_rng = random.Random(7)
_M = [[_rng.randrange(-(2**60), 2**60) for _ in range(20)] for _ in range(20)]


def _matmul(x, y):
    return [[sum(x[i][t] * y[t][j] for t in range(_N)) for j in range(_N)] for i in range(_N)]


def _bareiss(m) -> int:
    """The determinant of m by fraction-free elimination (every division is exact)."""
    a = [row[:] for row in m]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def kernel() -> int:
    m = _A
    for r in range(8):
        m = _matmul(m, _B if r % 2 else _A)
    return m[0][0].numerator.bit_length() + _bareiss(_M).bit_length()


def sample() -> float:
    """Seconds of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
