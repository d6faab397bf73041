"""Scaled lattice isomorphism: only the lattice image is ever checked,
never a specific transform, since solutions are unique only up to signed
permutations."""

import random
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hullattack import kernels, zlip
from hullattack.errors import NotARotation
from hullattack.instances import generate_instance
from hullattack.lattices import (
    LatticeBasis,
    hull_coefficients,
    random_rational_orthogonal,
    rotate,
    sublattice_gram,
)
from hullattack.linalg import IntMatrix, RatMatrix, bareiss_det, congruence
from hullattack.zlip import ZlipSolution, short_vectors, solve_scaled_zlip
from oracles import (
    assemble_orthogonal_basis_listing_first,
    enumerate_short_vectors,
    integer_gram_schmidt,
    lattice_equal,
    o_hat,
    solve_scaled_zlip_on_gram,
)
from test_kernels import HULL_MODULI, gram_of


def scaled_zn(n, k):
    return LatticeBasis(n, RatMatrix.over([[k * (i == j) for j in range(n)] for i in range(n)], 1))


def solved_image(lat, k):
    """rotate(lat, o_hat) for the ZLIP solution of lat's Gram record."""
    sol = solve_scaled_zlip(lat.gram_record.cleared, k)
    return sol, rotate(lat, o_hat(sol, lat.basis))


def test_pinned_givens_rotation():
    lat = LatticeBasis(2, RatMatrix.from_rows([[3, 4], [-4, 3]]))
    _, image = solved_image(lat, 5)
    assert lattice_equal(image, scaled_zn(2, 5))


def test_identity_lattice():
    _, image = solved_image(scaled_zn(4, 7), 7)
    assert lattice_equal(image, scaled_zn(4, 7))


def test_random_rotations_recovered():
    rng = random.Random(151)
    for _ in range(25):
        n = rng.randrange(2, 8)
        k = rng.choice([2, 3, 5, 6, 9, 10, 15])
        o = random_rational_orthogonal(n, seed=rng.randrange(10**6), depth=2 * n)
        lat = rotate(scaled_zn(n, k), o)
        sol, image = solved_image(lat, k)
        assert isinstance(sol, ZlipSolution)
        assert sol.method in ("lll", "enumeration")
        assert lattice_equal(image, scaled_zn(n, k))


def test_non_rotation_rejected():
    lat = LatticeBasis(2, RatMatrix.from_rows([[1, 0], [0, 4]]))  # det 4, not 2*rot
    with pytest.raises(NotARotation):
        solve_scaled_zlip(lat.gram_record.cleared, 2)


def test_wrong_scale_rejected():
    lat = scaled_zn(3, 6)
    with pytest.raises(NotARotation):
        solve_scaled_zlip(lat.gram_record.cleared, 3)


def honest_transform(h):
    """A stand-in for lll_gram that returns the transform h, with the
    integer Gram-Schmidt data of h.G.h^T."""

    def fake(gram, delta_num, delta_den):
        return h, *integer_gram_schmidt(congruence(h, gram))

    return fake


@pytest.mark.parametrize("k", [2, 3])
def test_transform_of_determinant_two_rejected(monkeypatch, k):
    # Rows (k/2)(1, 1) and (k/2)(1, -1): G = (k^2/2) I, and H = [[1, 1], [1, -1]]
    # gives H.G.H^T = k^2 I with det H = -2.  H.B = k I, so o_hat = I would
    # pass every check on H.G.H^T, yet the lattice is not k Z^2.  G is not
    # k^2 times an integer form, so the solver refuses it before LLL.
    half = Fraction(k, 2)
    lat = LatticeBasis(2, RatMatrix.from_rows([[half, half], [half, -half]]))
    monkeypatch.setattr(zlip, "lll_gram", honest_transform([[1, 1], [1, -1]]))
    with pytest.raises(NotARotation, match="not k\\^2.den times an integer form"):
        solve_scaled_zlip(lat.gram_record.cleared, k)


def never_reduce(gram, delta_num, delta_den):
    raise AssertionError("LLL ran on a record that is not k^2.den times an integer form")


@pytest.mark.parametrize(
    "rows, k",
    [
        ([[1, 0], [0, 4]], 2),  # G = diag(1, 16): 4 does not divide 1
        ([[2, 0], [0, 2]], 3),  # 2 Z^2 is no rotation of 3 Z^2
        ([[Fraction(3, 2), 0], [0, 3]], 3),  # G = diag(9, 36)/4: 36 does not divide 9
        ([[5, 0, 0], [0, 5, 0], [0, 0, 10]], 10),  # G = diag(25, 25, 100)
    ],
)
def test_indivisible_gram_refused_before_reduction(monkeypatch, rows, k):
    lat = LatticeBasis(len(rows), RatMatrix.from_rows(rows))
    monkeypatch.setattr(zlip, "lll_gram", never_reduce)
    with pytest.raises(NotARotation, match="not k\\^2.den times an integer form"):
        solve_scaled_zlip(lat.gram_record.cleared, k)


@pytest.mark.parametrize(
    "handed", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 1, 1]]],
    ids=["identity", "shear"],
)
def test_enumeration_fallback_through_solver(monkeypatch, handed):
    # LLL is made to hand back an unreduced basis, the given one or a
    # shear of it; its Gram matrix H.G.H^T is formed from G by the solver,
    # which then enumerates.
    n, k = 3, 5
    unimodular = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
    lat = rotate(
        LatticeBasis(n, RatMatrix.from_rows([[k * x for x in row] for row in unimodular])),
        random_rational_orthogonal(n, seed=7),
    )
    monkeypatch.setattr(zlip, "lll_gram", honest_transform(handed))
    sol, image = solved_image(lat, k)
    assert sol.method == "enumeration"
    assert lattice_equal(image, scaled_zn(n, k))


def test_fallback_from_unreduced_basis(monkeypatch):
    # Rows (5, 0) and (5, 5): unit form [[1, 1], [1, 2]], which LLL is
    # made to leave as it is, so the two norm-1 vectors are enumerated.
    lat = LatticeBasis(2, RatMatrix.from_rows([[5, 0], [5, 5]]))
    monkeypatch.setattr(zlip, "lll_gram", honest_transform([[1, 0], [0, 1]]))
    sol, image = solved_image(lat, 5)
    assert sol.method == "enumeration"
    assert lattice_equal(image, scaled_zn(2, 5))


def test_fallback_refuses_without_orthogonal_family(monkeypatch):
    # Rows (2, 0) and (0, 4): unit form diag(1, 4), whose only norm-1
    # vectors are +-(1, 0), one short of a family.
    lat = LatticeBasis(2, RatMatrix.from_rows([[2, 0], [0, 4]]))
    monkeypatch.setattr(zlip, "lll_gram", honest_transform([[1, 0], [0, 1]]))
    with pytest.raises(NotARotation, match="no orthogonal family of norm-k vectors"):
        solve_scaled_zlip(lat.gram_record.cleared, 2)


# --- the unit-scale solver against the one that reduced G itself ---


def mixed(lattice, rounds, seed):
    """The lattice on the basis U.B, for U a product of `rounds` seeded
    elementary row additions r_i += s.r_j with s = +-1."""
    rows = [list(r) for r in lattice.basis.num]
    rng = random.Random(seed)
    for _ in range(rounds):
        i, j = rng.sample(range(lattice.n), 2)
        s = rng.choice((1, -1))
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    return LatticeBasis(lattice.n, RatMatrix.over(rows, lattice.basis.den))


@st.composite
def hull_records(draw, k, min_n, max_n, mix):
    """The Gram record (G, den) of the k-hull of a public lattice, as the
    attack hands it to ZLIP; with `mix`, of the lattice on the public
    basis mixed by 5n row additions."""
    n = draw(st.integers(min_n, max_n))
    inst = generate_instance(k, n, draw(st.integers(1, n)), draw(st.integers(0, 10**6)))
    lattice = inst.l1 if draw(st.booleans()) else inst.l2
    if mix:
        lattice = mixed(lattice, 5 * n, draw(st.integers(0, 10**6)))
    return sublattice_gram(lattice, hull_coefficients(lattice, k))


def zlip_outcome(solve, record, k):
    try:
        sol = solve(record, k)
    except NotARotation:
        return NotARotation
    return sol.u, sol.method


@pytest.mark.parametrize("mix", [False, True], ids=["public", "mixed"])
@pytest.mark.parametrize("k", HULL_MODULI)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_unit_scale_matches_gram_scale(k, mix, data):
    """Same U and method as LLL on G with the checks against k^2.den.I:
    LLL makes the same swaps on G/(k^2.den)."""
    record = data.draw(hull_records(k, 2, 16, mix))
    sol = solve_scaled_zlip(record, k)
    assert (sol.u, sol.method) == zlip_outcome(solve_scaled_zlip_on_gram, record, k)


@pytest.mark.parametrize(
    "handed", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 1, 1]]],
    ids=["identity", "shear"],
)
@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from(HULL_MODULI), data=st.data())
def test_enumeration_matches_gram_scale(handed, k, data):
    """With LLL made to hand back the identity or a shear of a mixed
    hull's basis, the enumeration on H.M.H^T for norm 1 finds the same U
    as the one on H.G.H^T for norm k^2.den."""
    record = data.draw(hull_records(k, 3, 3, True))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlip, "lll_gram", honest_transform(handed))
        mp.setattr(kernels, "lll_gram", honest_transform(handed))
        assert zlip_outcome(solve_scaled_zlip, record, k) == zlip_outcome(
            solve_scaled_zlip_on_gram, record, k
        )


# --- the integer enumeration against the Fraction one ---


@st.composite
def enumeration_cases(draw):
    """(G, d, lam, bound): the Gram matrix of up to 5 small independent
    rows with the integer Gram-Schmidt data read off the Fraction
    oracle; or a hull's unit form after LLL at delta = 0.26, 3/4 or 0.99,
    with the kernel's own d and lam, where LLL at 0.26 may stop short."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        rows = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
        assume(bareiss_det(rows) != 0)
        gram = gram_of(rows)
        return gram, *integer_gram_schmidt(gram), draw(st.integers(0, 39))
    k = draw(st.sampled_from(HULL_MODULI))
    g, den = draw(hull_records(k, 2, 7, draw(st.booleans())))
    unit = [[x // (k * k * den) for x in row] for row in g]
    h, d, lam = kernels.lll_gram(unit, *draw(st.sampled_from([(26, 100), (3, 4), (99, 100)])))
    return congruence(h, unit), d, lam, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(enumeration_cases())
def test_integer_enumeration_matches_the_fraction_one(case):
    """The same vectors in the same discovery order: the enumeration
    fallback's frame reaches the attack's output."""
    gram, d, lam, bound = case
    assert list(short_vectors(d, lam, bound)) == enumerate_short_vectors(gram, Fraction(bound))


def e8_rows():
    """A basis of E8: 2e_1, e_i - e_(i-1) for i = 2..7, and (1/2, ..., 1/2);
    its Gram matrix is even with determinant 1."""
    rows = [[2] + [0] * 7]
    rows += [[int(t == i) - int(t == i - 1) for t in range(8)] for i in range(1, 7)]
    return rows + [[Fraction(1, 2)] * 8]


@st.composite
def norm_one_cases(draw):
    """(G, d, lam) for an integral form G: one of `enumeration_cases`, or
    Z^j + E8 (j <= 2) on a basis mixed by up to 40 row additions, an odd
    or even unimodular form with j norm-1 vectors but not equivalent to I,
    with the integer Gram-Schmidt data read off the Fraction oracle."""
    if draw(st.booleans()):
        return draw(enumeration_cases())[:3]
    j = draw(st.integers(0, 2))
    rows = [[int(i == t) for t in range(j + 8)] for i in range(j)]
    rows += [[0] * j + r for r in e8_rows()]
    lattice = LatticeBasis(j + 8, RatMatrix.from_rows(rows))
    lattice = mixed(lattice, draw(st.integers(0, 40)), draw(st.integers(0, 10**6)))
    gram, den = lattice.gram_record.cleared
    assert den == 1
    return gram, *integer_gram_schmidt(gram)


@settings(max_examples=200, deadline=None)
@given(norm_one_cases())
def test_fallback_family_matches_the_backtracking(case):
    """With LLL made to leave an integral form G as it is, the solver's
    fallback finds the family that backtracking over every norm-1 vector
    finds, or refuses where that finds none, wherever the backtracking
    ends within the budget."""
    gram, d, lam = case
    n = len(gram)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    if gram == identity:
        return  # LLL's output is accepted; the fallback does not run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlip, "NODE_BUDGET", 20_000)
        try:
            family = assemble_orthogonal_basis_listing_first(gram, d, lam, 1)
        except NotARotation:
            return
        mp.setattr(zlip, "lll_gram", lambda g, num, den: (identity, d, lam))
        outcome = zlip_outcome(solve_scaled_zlip, (gram, 1), 1)
    if family is None:
        assert outcome is NotARotation
    else:
        assert outcome == (IntMatrix.from_rows(family), "enumeration")


@settings(max_examples=200, deadline=None)
@given(norm_one_cases())
def test_norm_one_vectors_are_pairwise_orthogonal(case):
    """Two norm-1 vectors x, y of an integral positive-definite form that
    are not +-each other have |x.G.y^T| < 1, so x.G.y^T = 0."""
    gram, d, lam = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlip, "NODE_BUDGET", 20_000)
        try:
            found = list(short_vectors(d, lam, 1))
        except NotARotation:
            return
    for a, x in enumerate(found):
        gx = [sum(map(mul, row, x)) for row in gram]
        assert [sum(map(mul, gx, y)) for y in found] == [int(a == b) for b in range(len(found))]


def test_exhausted_enumeration_budget_refuses(monkeypatch):
    """With LLL made to hand back the identity on a mixed hull at n = 12,
    the enumeration runs on the unreduced form and stops at the node
    budget with NotARotation."""
    k, n = 3, 12
    inst = generate_instance(k, n, 6, seed=1)
    lattice = mixed(inst.l1, 5 * n, seed=1)
    record = sublattice_gram(lattice, hull_coefficients(lattice, k))
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    monkeypatch.setattr(zlip, "NODE_BUDGET", 1000)
    monkeypatch.setattr(zlip, "lll_gram", honest_transform(identity))
    start = time.perf_counter()
    with pytest.raises(NotARotation, match="enumeration exceeded 1000 nodes"):
        solve_scaled_zlip(record, k)
    assert time.perf_counter() - start < 1
