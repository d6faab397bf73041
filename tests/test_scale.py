"""End-to-end attacks at n = 16 to 96 under per-instance time budgets.

Each instance must be recovered and its witness accepted by
`verify_isomorphism` within its budget (attack plus verify, generation
excluded).  The verify here gets no certificate, so it inverts G1, which
the attack itself no longer does.  A budget is at least five times what
the certificate-checking attack and this verifier take on a 2-vCPU x86
box (pure Python 3.11).  At n = 16, 20 and 32 it is below what the verifier that
compared two canonical HNFs took there: 1.2 s, 15 s and over 370 s.  At
n = 48 and 64 it is below what the verifier that inverted the cleared
basis took on the same box: 6.6 s and 20 s.  A timer stops an attack at
its budget, so a regression fails in bounded time rather than hanging
the suite.
"""

import signal
import time
from contextlib import contextmanager

import pytest

from hullattack.attack import hull_attack, verify_isomorphism
from hullattack.instances import generate_instance

# (k, n, m, seed, budget in seconds); measured: 0.02-0.04, 0.04-0.07,
# 0.08-0.11, 0.15-0.19, 0.58-0.70, 1.3-1.7 and 4.8-5.7 s.
SCALE_CORPUS = [
    (15, 16, 8, 3, 1.0),
    (15, 20, 10, 1, 4.0),
    (6, 24, 12, 1, 5.0),
    (3, 32, 16, 1, 15.0),
    (3, 48, 24, 1, 5.0),
    (3, 64, 32, 1, 10.0),
    (3, 96, 48, 1, 35.0),
]


class BudgetExceeded(Exception):
    pass


@contextmanager
def deadline(seconds):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise BudgetExceeded(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("k,n,m,seed,budget", SCALE_CORPUS)
def test_attack_within_budget(acceptance_report, k, n, m, seed, budget):
    inst = generate_instance(k, n, m, seed)
    t0 = time.perf_counter()
    with deadline(budget):
        res = hull_attack(inst.l1, inst.l2)
        ok = verify_isomorphism(inst.l1, inst.l2, res.o_star.matrix)
    dt = time.perf_counter() - t0
    acceptance_report(f"SCALE k={k} n={n} m={m} seed={seed}: {dt:.2f}s (budget {budget:g}s)")
    assert ok
    assert dt <= budget, f"attack and verify took {dt:.2f}s, budget {budget}s"
