"""Lattice layer: Construction A, hulls, rotations, code recovery."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullattack.codes import code_from_rows, dual, hull, is_lcd, random_free_lcd
from hullattack.errors import NotARotation, NotIntegral, ParseError
from hullattack.lattices import (
    MAX_DEPTH_PER_DIM,
    PYTHAGOREAN_TRIPLES,
    LatticeBasis,
    RationalOrthogonal,
    construction_a,
    gram_row_module,
    hull_coefficients,
    random_rational_orthogonal,
    rotate,
    rotated_rows,
    sublattice_gram,
)
from hullattack.linalg import IntMatrix, RatMatrix, bareiss_det, gram_solves
from hullattack.modring import howell_order
from oracles import (
    canonical_basis,
    construction_a_by_hnf,
    contains,
    det,
    dual_basis,
    fraction_product,
    fraction_rows_orthonormal,
    fractions,
    gram,
    hull_coefficients_by_hnf,
    hull_coefficients_by_kernel,
    inv_int_rows,
    lattice_equal,
    mod_reduce_to_code,
    random_rational_orthogonal_by_columns,
    rat_inverse,
    s_hull,
)


def random_code(rng, k, n):
    rows = rng.randrange(0, n + 1)
    return code_from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(rows)], n)


def code_words(c):
    out = set()
    for coeff in product(range(c.k), repeat=c.gen.rows):
        out.add(
            tuple(sum(a * row[j] for a, row in zip(coeff, c.gen.entries)) % c.k for j in range(c.n))
        )
    return out


# --- Construction A ---


def test_construction_a_pinned():
    lat = construction_a(code_from_rows(2, [[1, 1]]))
    assert lat.basis == RatMatrix.from_rows([[1, 1], [0, 2]])


def test_construction_a_membership_matches_code():
    rng = random.Random(111)
    for _ in range(60):
        k = rng.choice([2, 3, 4, 5, 6, 9])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        lat = construction_a(c)
        cw = code_words(c)
        for v in product(range(-k, k + 1), repeat=n):
            assert contains(lat, v) == (tuple(x % k for x in v) in cw)


def test_construction_a_determinant_counts_words():
    rng = random.Random(113)
    for _ in range(60):
        k = rng.choice([2, 3, 5, 6, 9])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        lat = construction_a(c)
        assert det(lat.basis) * len(code_words(c)) == k**n


# --- hulls ---


def test_hull_identity_on_codes():
    # k-hull of the code lattice is the lattice of the code's hull
    rng = random.Random(127)
    for _ in range(80):
        k = rng.choice([2, 3, 4, 5, 6, 7, 8, 9])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        left = s_hull(construction_a(c), k)
        right = construction_a(hull(c))
        assert lattice_equal(left, right)


def test_dual_code_lattice_is_scaled_dual_lattice():
    rng = random.Random(131)
    for _ in range(80):
        k = rng.choice([2, 3, 4, 5, 6, 7, 8, 9])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        lat = construction_a(c)
        left = construction_a(dual(c))
        d = dual_basis(lat.basis)
        right = LatticeBasis(n, RatMatrix.over([[k * x for x in row] for row in d.num], d.den))
        assert lattice_equal(left, right)


def test_hull_of_lcd_code_is_scaled_integer_lattice():
    c = code_from_rows(3, [[1, 1]])
    assert is_lcd(c)
    h = s_hull(construction_a(c), 3)
    assert canonical_basis(h.basis) == RatMatrix.from_rows([[3, 0], [0, 3]])


HOWELL_MODULI = [2, 3, 5, 6, 9, 10, 15]


@st.composite
def codes_and_rotations(draw):
    """A random code over Z_k (any rows, so often neither free nor LCD)
    and its Construction A lattice, rotated or not."""
    k = draw(st.sampled_from(HOWELL_MODULI))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), max_size=n + 1))
    c = code_from_rows(k, rows, n)
    lat = construction_a(c)
    if draw(st.booleans()):
        lat = rotate(lat, random_rational_orthogonal(n, seed=draw(st.integers(0, 999))))
    return c, lat


@settings(max_examples=300, deadline=None)
@given(codes_and_rotations(), st.sampled_from([1, 2, 3, 5, 6, 9, 10, 15]))
def test_howell_lifts_match_the_hnf_oracle(case, s):
    # Construction A and the hull coefficients are the lifted Howell forms;
    # the HNF of the lifted generators stacked over q.I is the same matrix.
    c, lat = case
    assert construction_a(c).basis == construction_a_by_hnf(c.k, c.gen).to_rat()
    for scale in (s, c.k):
        assert hull_coefficients(lat, scale) == hull_coefficients_by_hnf(lat, scale)


@settings(max_examples=200, deadline=None)
@given(codes_and_rotations(), st.sampled_from(HOWELL_MODULI), st.sampled_from([1, 2, 3, 10]))
def test_gram_row_module_gives_the_hull_index_and_coefficients(case, s, shrink):
    # Shrinking the lattice by 1/shrink divides its Gram matrix by
    # shrink^2, so records over den > 1 are covered.  The order of the row module of G
    # mod s.den is the index of the hull, the product of the pivots of C,
    # and C from its Howell form is C from G itself.
    c, lat = case
    lat = LatticeBasis(lat.n, RatMatrix.over(lat.basis.num, lat.basis.den * shrink))
    for scale in (s, c.k):
        coeff = hull_coefficients_by_kernel(lat, scale)
        assert hull_coefficients(lat, scale) == coeff
        index = howell_order(gram_row_module(lat, scale))
        assert index == prod(row[i] for i, row in enumerate(coeff.entries))


def test_hull_coefficients_modulus_one_is_the_identity():
    # s.den = 1 admits every coefficient vector: C = I.
    lat = LatticeBasis(2, RatMatrix.from_rows([[1, 1], [0, 2]]))
    assert hull_coefficients(lat, 1) == IntMatrix.identity(2) == hull_coefficients_by_hnf(lat, 1)


def test_hull_of_self_dual_code_is_the_lattice_itself():
    c = code_from_rows(2, [[1, 1]])
    lat = construction_a(c)
    assert lattice_equal(s_hull(lat, 2), lat)


# --- rotations ---


def test_random_rational_orthogonal_exact_and_deterministic():
    for n in (1, 2, 5, 8):
        o1 = random_rational_orthogonal(n, seed=42)
        o2 = random_rational_orthogonal(n, seed=42)
        assert o1 == o2
        assert o1.matrix.mul(o1.matrix.transpose()) == RatMatrix.identity(n)
    assert random_rational_orthogonal(4, seed=1) != random_rational_orthogonal(4, seed=2)


def reference_rational_orthogonal(n, seed, depth):
    """The transform as a literal product of full Givens and signed
    permutation matrices, drawing from the RNG in the generator's order."""
    rng = random.Random(seed)

    def matmul(a, b):
        bt = list(zip(*b))
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]

    m = [[Fraction(int(r == t)) for t in range(n)] for r in range(n)]
    if n >= 2:
        for _ in range(depth):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            a, b, c = PYTHAGOREAN_TRIPLES[rng.randrange(len(PYTHAGOREAN_TRIPLES))]
            sin = Fraction(b, c) if rng.randrange(2) == 0 else Fraction(-b, c)
            g = [[Fraction(int(r == t)) for t in range(n)] for r in range(n)]
            g[i][i] = g[j][j] = Fraction(a, c)
            g[i][j] = sin
            g[j][i] = -sin
            m = matmul(m, g)
    sigma = list(range(n))
    rng.shuffle(sigma)
    p = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        p[i][sigma[i]] = Fraction(rng.choice((1, -1)))
    return matmul(m, p)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_random_rational_orthogonal_matches_givens_product(n):
    depths = (0, 1, 2 * n) + ((MAX_DEPTH_PER_DIM * n,) if n <= 5 else ())
    for depth in depths:
        for seed in (0, 1, 99):
            got = random_rational_orthogonal(n, seed=seed, depth=depth).matrix
            assert [list(row) for row in fractions(got)] == reference_rational_orthogonal(n, seed, depth)


@st.composite
def generator_args(draw):
    """(n, depth, seed) over every depth the generator admits."""
    n = draw(st.integers(1, 16))
    return n, draw(st.integers(0, MAX_DEPTH_PER_DIM * n)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(generator_args())
@example((16, 0, 0))
@example((16, MAX_DEPTH_PER_DIM * 16, 0))
def test_random_rational_orthogonal_matches_the_column_lists(args):
    """The packed columns against the column-list generator.  At depth 0
    every entry is ±1 over 1, equal to its denominator: the tightest case
    for the field width."""
    n, depth, seed = args
    got = random_rational_orthogonal(n, seed=seed, depth=depth)
    assert got == random_rational_orthogonal_by_columns(n, seed=seed, depth=depth)


def test_depth_zero_is_a_signed_permutation():
    o = random_rational_orthogonal(5, seed=7, depth=0)
    vals = {abs(x) for row in fractions(o.matrix) for x in row}
    assert vals <= {0, 1}


def test_negative_depth_rejected():
    with pytest.raises(ValueError, match="depth"):
        random_rational_orthogonal(5, seed=7, depth=-3)


def test_depth_past_the_bound_rejected():
    random_rational_orthogonal(5, seed=7, depth=MAX_DEPTH_PER_DIM * 5)
    with pytest.raises(ValueError, match="depth"):
        random_rational_orthogonal(5, seed=7, depth=MAX_DEPTH_PER_DIM * 5 + 1)


def test_rotation_constructor_rejects_non_orthogonal():
    with pytest.raises(NotARotation):
        RationalOrthogonal(RatMatrix.from_rows([[1, 1], [0, 1]]))


def test_rotate_preserves_gram_exactly():
    rng = random.Random(137)
    for _ in range(20):
        n = rng.randrange(2, 6)
        c = random_free_lcd(3, n, 1 + rng.randrange(n), seed=rng.randrange(10**6))
        lat = construction_a(c)
        o = random_rational_orthogonal(n, seed=rng.randrange(10**6), depth=2 * n)
        rot = rotate(lat, o)
        assert gram(rot) == gram(lat)
        assert det(rot.basis) in (det(lat.basis), -det(lat.basis))


@settings(max_examples=200, deadline=None)
@given(codes_and_rotations(), st.integers(0, 999), st.sampled_from([None, 0, 1, 3]))
def test_rotate_matches_the_fraction_product(case, seed, depth):
    _c, lat = case
    o = random_rational_orthogonal(lat.n, seed=seed, depth=depth)
    assert fraction_rows_orthonormal(fractions(o.matrix))
    rot = rotate(lat, o)
    o_t = list(zip(*fractions(o.matrix)))
    assert fractions(rot.basis) == fraction_product(fractions(lat.basis), o_t)


def test_rotation_shares_the_gram_record():
    lat = construction_a(code_from_rows(5, [[1, 2, 3, 4]]))
    rot = rotate(lat, random_rational_orthogonal(4, seed=3))
    assert rot.gram_record is lat.gram_record
    assert LatticeBasis(4, rot.basis).gram_record.cleared == lat.gram_record.cleared


def test_rotate_composition_law():
    n = 4
    lat = construction_a(code_from_rows(5, [[1, 2, 3, 4]]))
    a = random_rational_orthogonal(n, seed=3)
    b = random_rational_orthogonal(n, seed=4)
    twice = rotate(rotate(lat, a), b)
    assert twice.basis == rotate(lat, RationalOrthogonal(b.matrix.mul(a.matrix))).basis


# --- code recovery ---


def test_mod_reduce_pinned():
    lat = LatticeBasis(2, RatMatrix.from_rows([[1, 1], [0, 2]]))
    assert mod_reduce_to_code(lat, 2) == code_from_rows(2, [[1, 1]])


def test_mod_reduce_inverts_construction_a():
    rng = random.Random(139)
    for _ in range(60):
        k = rng.choice([2, 3, 4, 5, 6, 9])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        assert mod_reduce_to_code(construction_a(c), k) == c


def test_mod_reduce_errors():
    # The oracle reads no code off a rational basis, nor off a lattice
    # that does not contain kZ^n.
    half = LatticeBasis(2, RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]]))
    assert mod_reduce_to_code(half, 2) is None
    sparse = LatticeBasis(2, RatMatrix.from_rows([[3, 0], [0, 3]]))
    assert mod_reduce_to_code(sparse, 2) is None


def test_integral_rotation_refuses_a_rational_image():
    # `rotated_rows` with B = I/2: G = I over den = 4, and T = 2I makes the
    # frame T.B = I, so the rotation is the identity and the image B itself
    # is not integral.
    half = LatticeBasis(2, RatMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))
    with pytest.raises(NotIntegral):
        rotated_rows(half, IntMatrix.from_rows([[2, 0], [0, 2]]), 1)
    lat = LatticeBasis(2, RatMatrix.from_rows([[3, 4], [-4, 3]]))
    image = rotated_rows(lat, IntMatrix.from_rows([[1, 0], [0, 1]]), 5)
    assert image == IntMatrix.from_rows([[5, 0], [0, 5]])


# --- equality, membership, serialization ---


def test_lattice_equal_ignores_presentation():
    a = LatticeBasis(2, RatMatrix.from_rows([[1, 0], [0, 1]]))
    b = LatticeBasis(2, RatMatrix.from_rows([[2, 1], [1, 1]]))
    assert lattice_equal(a, b)
    c = LatticeBasis(2, RatMatrix.from_rows([[2, 0], [0, 1]]))
    assert not lattice_equal(a, c)


def test_contains_matches_exact_solve():
    rng = random.Random(149)
    for _ in range(30):
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        if bareiss_det(rows) == 0:
            continue
        lat = LatticeBasis(n, RatMatrix.from_rows(rows))
        inv = rat_inverse(RatMatrix.from_rows(rows))
        for v in product(range(-5, 6), repeat=n):
            coeff = [
                sum(Fraction(v[t]) * fractions(inv)[t][j] for t in range(n)) for j in range(n)
            ]
            assert contains(lat, v) == all(c.denominator == 1 for c in coeff)


def test_singular_basis_rejected():
    # Rows are checked independent where outside data enters, not on
    # every construction: the constructor keeps a singular basis, whose
    # |det| reads 0, and parsing it fails.
    singular = LatticeBasis(2, RatMatrix.from_rows([[1, 2], [2, 4]]))
    assert singular.abs_det == 0
    with pytest.raises(ParseError, match="dependent"):
        LatticeBasis.from_dict(singular.to_dict())


def test_abs_det_counts_words_through_a_rotation():
    # |det| of Construction A is k^n / |C|, and a rotation keeps it.
    rng = random.Random(5)
    for _ in range(10):
        c = random_code(rng, 6, 4)
        lat = rotate(construction_a(c), random_rational_orthogonal(4, seed=rng.randrange(100)))
        assert lat.abs_det == Fraction(6**4, len(code_words(c)))
    lat = LatticeBasis(2, RatMatrix.from_rows([[0, Fraction(-1, 3)], [2, 5]]))
    assert lat.abs_det == Fraction(2, 3)


# --- the Gram record ---

gram_entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def square_bases(draw):
    n = draw(st.integers(0, 5))
    return RatMatrix.from_rows([[draw(gram_entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(square_bases(), st.data())
def test_gram_record_matches_the_basis(b, data):
    lat = LatticeBasis(b.rows, b)
    g = gram(lat)
    assert lat.gram_record.cleared == ([list(row) for row in g.num], g.den)
    # The record of the rows C.B, read off B's record without forming C.B.
    c = IntMatrix.from_rows(
        [[data.draw(st.integers(-3, 3)) for _ in range(b.rows)] for _ in range(b.rows)]
    )
    combined = LatticeBasis(b.rows, c.to_rat().mul(b))
    assert sublattice_gram(lat, c) == combined.gram_record.cleared
    assert lat.abs_det == abs(det(b))
    if lat.abs_det:
        # The record's triangle solves y.G = x exactly where the reference
        # inverse G^-1 = N/q gives an integral x.G^-1: on the rows of G
        # (y = e_i) and on G's rows plus one.
        g_int = lat.gram_record.cleared[0]
        inv, q = inv_int_rows(g_int)
        assert RatMatrix.over(g_int, 1).mul(RatMatrix.over(inv, q)) == RatMatrix.identity(b.rows)
        assert gram_solves(lat.gram_record.triangle, g_int, 1)
        shifted = [[x + 1 for x in row] for row in g_int]
        integral = RatMatrix.over(shifted, 1).mul(RatMatrix.over(inv, q)).den == 1
        assert gram_solves(lat.gram_record.triangle, shifted, 1) is integral


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([], 1),
        ([[Fraction(-3, 2)]], Fraction(3, 2)),
        ([[0]], 0),
        ([[1, 2], [2, 4]], 0),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]], 0),
    ],
)
def test_abs_det_from_gram_edge_cases(rows, expected):
    b = RatMatrix.from_rows(rows)
    assert LatticeBasis(b.rows, b).abs_det == expected == abs(det(b))


@pytest.mark.parametrize("value", [2.7, 2.0, "2", True, None])
def test_lattice_dimension_must_be_a_json_integer(value):
    d = construction_a(code_from_rows(3, [[1, 2]])).to_dict()
    d["n"] = value
    with pytest.raises(ParseError, match="'n'"):
        LatticeBasis.from_dict(d)


def test_lattice_json_round_trip():
    lat = construction_a(code_from_rows(6, [[1, 2, 3]]))
    back = LatticeBasis.from_dict(lat.to_dict())
    assert back == lat
    bad = lat.to_dict()
    bad["n"] = 2
    with pytest.raises(ParseError):
        LatticeBasis.from_dict(bad)
    o = random_rational_orthogonal(3, seed=9)
    assert RationalOrthogonal.from_dict(o.to_dict()) == o
