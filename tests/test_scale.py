"""End-to-end attacks at n = 16 to 128 under per-instance time budgets.

Each instance must be recovered and its witness accepted by
`verify_isomorphism` within its budget (attack plus verify, generation
excluded).  The verify here gets no certificate, so it solves for the
change of basis on G1's fraction-free elimination, which the attack
itself does not do.  A budget is at least five times what
the certificate-checking attack and this verifier take on a 2-vCPU x86
box (pure Python 3.11).  At n = 16, 20 and 32 it is below what the verifier that
compared two canonical HNFs took there: 1.2 s, 15 s and over 370 s.  At
n = 48 and 64 it is below what the verifier that inverted the cleared
basis took on the same box: 6.6 s and 20 s.  A timer stops an attack at
its budget, so a regression fails in bounded time rather than hanging
the suite.

A row may also carry a budget for `generate_instance`, under the same
five-times rule.  At n = 128 generation took 477 s while Construction A
ran an integer HNF and takes 0.7 s reading it off the code's Howell form.

Inputs the attack must refuse have budgets too, under the same rule: a
code of random rows that is not LCD, rotated twice, must raise
`HullNotTrivial` once the hull test has failed every candidate modulus
or found a hull index too large for one, which no later candidate can
pass.  For a prime k that happens at the first candidate, k itself; the
pair over Z_9 here goes on from 3 to 9.  A rotated, row-mixed basis of
3.(Z^j + E8), attacked against itself, must raise `ZlipFailed`: its hull
is the whole lattice and its unit form is unimodular but not
equivalent to I, with only j < n norm-1 vectors.  The solver that
searched those vectors for an orthogonal family of n took 15 s at
n = 28 and 56 s at n = 48 to refuse them, at its node budget.
"""

import random
import signal
import time
from contextlib import contextmanager, nullcontext

import pytest

from hullattack.attack import hull_attack, verify_isomorphism
from hullattack.codes import code_from_rows, is_lcd
from hullattack.errors import HullNotTrivial, ZlipFailed
from hullattack.instances import generate_instance
from hullattack.lattices import LatticeBasis, construction_a, random_rational_orthogonal, rotate
from hullattack.linalg import RatMatrix
from test_zlip import e8_rows, mixed

# (k, n, m, seed, budget in seconds); attack plus verify measured:
# 0.02-0.03, 0.05-0.06, 0.08, 0.14-0.15, 0.44-0.52, 1.14-1.17,
# 0.49-0.53, 3.5-4.3 and 10.2-10.9 s.  The k = 2 row runs SPEP on the
# 3n closure, whose graph-isomorphism search visits 129 nodes.
SCALE_CORPUS = [
    (15, 16, 8, 3, 1.0),
    (15, 20, 10, 1, 4.0),
    (6, 24, 12, 1, 5.0),
    (3, 32, 16, 1, 15.0),
    (3, 48, 24, 1, 5.0),
    (3, 64, 32, 1, 10.0),
    (2, 64, 32, 1, 3.0),
    (3, 96, 48, 1, 35.0),
    (3, 128, 64, 1, 65.0),
]
# (k, n, m, seed) -> generation budget in seconds; measured 0.69-0.74 s.
GEN_BUDGETS = {(3, 128, 64, 1): 4.0}
# (k, n, m, seed, budget in seconds) of a non-LCD pair; the attack until
# HullNotTrivial measured 0.0015-0.0020 s, 0.009 s and 0.017-0.020 s
# (one, one and two Howell forms; 0.02-0.05 s, 0.23-0.25 s and 0.35-0.44 s
# while every candidate was tested).
REJECT_CORPUS = [
    (5, 32, 16, 1, 0.5),
    (3, 64, 32, 1, 2.0),
    (9, 64, 32, 1, 0.2),
]
# (j, seed, budget in seconds) of 3.(Z^j + E8) at n = j + 8; the attack
# until ZlipFailed measured 0.02-0.03 s and 0.08-0.11 s.
UNIMODULAR_CORPUS = [
    (20, 1, 0.5),
    (40, 1, 1.0),
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
    gen_budget = GEN_BUDGETS.get((k, n, m, seed))
    t0 = time.perf_counter()
    with deadline(gen_budget) if gen_budget else nullcontext():
        inst = generate_instance(k, n, m, seed)
    dt = time.perf_counter() - t0
    if gen_budget is not None:
        acceptance_report(f"SCALE gen k={k} n={n} m={m} seed={seed}: {dt:.2f}s (budget {gen_budget:g}s)")
        assert dt <= gen_budget, f"generation took {dt:.2f}s, budget {gen_budget}s"
    t0 = time.perf_counter()
    with deadline(budget):
        res = hull_attack(inst.l1, inst.l2)
        ok = verify_isomorphism(inst.l1, inst.l2, res.o_star.matrix)
    dt = time.perf_counter() - t0
    acceptance_report(f"SCALE k={k} n={n} m={m} seed={seed}: {dt:.2f}s (budget {budget:g}s)")
    assert ok
    assert dt <= budget, f"attack and verify took {dt:.2f}s, budget {budget}s"


def non_lcd_pair(k, n, m, seed):
    """Two rotations of the Construction A lattice of the first code of m
    random rows over Z_k that is not LCD, read back as from a file (which
    takes each |det L|)."""
    rng = random.Random(seed)
    while True:
        code = code_from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(m)], n)
        if not is_lcd(code):
            break
    base = construction_a(code)
    rotations = [random_rational_orthogonal(n, seed=rng.randrange(2**32)) for _ in "12"]
    return [LatticeBasis.from_dict(rotate(base, o).to_dict()) for o in rotations]


@pytest.mark.parametrize("k,n,m,seed,budget", REJECT_CORPUS)
def test_non_lcd_rejected_within_budget(acceptance_report, k, n, m, seed, budget):
    l1, l2 = non_lcd_pair(k, n, m, seed)
    t0 = time.perf_counter()
    with deadline(budget), pytest.raises(HullNotTrivial):
        hull_attack(l1, l2)
    dt = time.perf_counter() - t0
    acceptance_report(f"REJECT non-LCD k={k} n={n} m={m} seed={seed}: {dt:.2f}s (budget {budget:g}s)")
    assert dt <= budget, f"rejection took {dt:.2f}s, budget {budget}s"


def unimodular_lattice(j, seed, k=3):
    """k.(Z^j + E8) on a basis mixed by 5n seeded row additions and then
    rotated, read back as from a file."""
    n = j + 8
    rows = [[k * int(i == t) for t in range(n)] for i in range(j)]
    rows += [[0] * j + [k * x for x in r] for r in e8_rows()]
    base = mixed(LatticeBasis(n, RatMatrix.from_rows(rows)), 5 * n, seed)
    return LatticeBasis.from_dict(rotate(base, random_rational_orthogonal(n, seed=seed)).to_dict())


@pytest.mark.parametrize("j,seed,budget", UNIMODULAR_CORPUS)
def test_unimodular_rejected_within_budget(acceptance_report, j, seed, budget):
    lattice = unimodular_lattice(j, seed)
    t0 = time.perf_counter()
    with deadline(budget), pytest.raises(ZlipFailed, match="no orthogonal family"):
        hull_attack(lattice, lattice)
    dt = time.perf_counter() - t0
    acceptance_report(f"REJECT unimodular 3.(Z^{j} + E8) n={j + 8} seed={seed}: {dt:.2f}s (budget {budget:g}s)")
    assert dt <= budget, f"rejection took {dt:.2f}s, budget {budget}s"
