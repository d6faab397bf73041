"""Exact linear algebra: oracle-backed tests.

Oracles used here are independent of the implementations under test:
Laplace expansion for determinants, Fraction Gauss-Jordan for inverses,
bounded brute-force search for short vectors, and reverse-engineered
unimodular transforms for HNF ground truth.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hullattack.errors import NonSquare, ParseError
from hullattack.linalg import (
    IntMatrix,
    RatMatrix,
    bareiss_det,
    gram_solves,
    gram_triangle,
    row_products,
)
from hullattack.lattices import GramRecord, random_rational_orthogonal
from oracles import (
    Singular,
    canonical_basis,
    det,
    dual_basis,
    enumerate_short_vectors,
    fraction_product,
    fraction_rows_orthonormal,
    fraction_str,
    fractions,
    gram_schmidt,
    hnf,
    int_product,
    inv_int_rows,
    lll_rows,
    rat_inverse,
    same_lattice,
)


def laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * laplace_det(minor)
    return total


def fraction_inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for p in range(n):
        piv = next((r for r in range(p, n) if m[r][p]), None)
        if piv is None:
            return None
        m[p], m[piv] = m[piv], m[p]
        d = m[p][p]
        m[p] = [x / d for x in m[p]]
        for i in range(n):
            if i != p and m[i][p]:
                f = m[i][p]
                m[i] = [a - f * b for a, b in zip(m[i], m[p])]
    return [r[n:] for r in m]


def random_unimodular(rng, n, steps=12):
    if n == 1:
        return [[rng.choice([-1, 1])]]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            m[i][t] += c * m[j][t]
    return m


# --- packed integer product ---

# 0, +-1 and +-(2^j - 1): all-ones words up to 300 bits, whose products
# fill the packed fields as far as they go.
packed_entries = st.one_of(
    st.sampled_from((0, 1, -1)),
    st.builds(lambda j, sign: sign * ((1 << j) - 1), st.integers(1, 300), st.sampled_from((1, -1))),
)


@st.composite
def int_matmul_pairs(draw):
    r, n, c = (draw(st.integers(0, 6)) for _ in range(3))
    a = [[draw(packed_entries) for _ in range(n)] for _ in range(r)]
    b = [[draw(packed_entries) for _ in range(c)] for _ in range(n)]
    return a, b


@settings(max_examples=400, deadline=None)
@given(int_matmul_pairs())
def test_row_products_match_the_plain_product(pair):
    a, b = pair
    assert list(row_products(a, b)) == int_product(a, b)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits_a,bits_b,n", [(1, 1, 1), (1, 1, 7), (3, 5, 8), (64, 64, 15), (300, 2, 6)])
def test_row_products_at_the_field_bound(bits_a, bits_b, n, sign):
    # Every |entry| = n.(2^ba - 1).(2^bb - 1), the largest the field
    # width bits(max|a|) + bits(max|b|) + bits(n) + 1 has to hold.
    x, y = (1 << bits_a) - 1, sign * ((1 << bits_b) - 1)
    a = [[x] * n for _ in range(3)]
    b = [[y] * 4 for _ in range(n)]
    assert list(row_products(a, b)) == [[n * x * y] * 4] * 3


@pytest.mark.parametrize(
    "a,b",
    [((), ()), (((),) * 3, ()), (((1, 2),), ((), ()))],
    ids=["0x0.0x0", "3x0.0x0", "1x2.2x0"],
)
def test_intmul_on_empty_shapes(a, b):
    want = IntMatrix(tuple(map(tuple, int_product(a, b))))
    assert IntMatrix(a).mul(IntMatrix(b)) == want
    assert want.rows == len(a) and want.cols == 0


# --- rational product ---

rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@st.composite
def matmul_pairs(draw):
    # An r x 0 matrix is r empty rows, but 0 x c cannot be told from 0 x 0.
    r = draw(st.integers(0, 4))
    k = draw(st.integers(0, 4)) if r else 0
    c = draw(st.integers(0, 4)) if k else 0
    a = [[draw(rationals) for _ in range(k)] for _ in range(r)]
    b = [[draw(rationals) for _ in range(c)] for _ in range(k)]
    return RatMatrix.from_rows(a), RatMatrix.from_rows(b)


@settings(max_examples=300, deadline=None)
@given(matmul_pairs())
def test_ratmul_matches_naive_fraction_product(pair):
    a, b = pair
    got = a.mul(b)
    assert fractions(got) == fraction_product(fractions(a), fractions(b))
    assert got.den > 0 and gcd(got.den, *(x for row in got.num for x in row)) == 1


def test_ratmul_rejects_shape_mismatch():
    with pytest.raises(NonSquare):
        RatMatrix.from_rows([[1, 2]]).mul(RatMatrix.from_rows([[1, 2]]))


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", [2.5, 2.0, "2", True, None])
def test_matrix_shape_must_be_a_json_integer(field, value):
    d = RatMatrix.identity(2).to_dict()
    d[field] = value
    with pytest.raises(ParseError, match=repr(field)):
        RatMatrix.from_dict(d)


# --- one integer matrix over one denominator ---


def is_canonical(m: RatMatrix) -> bool:
    return m.den > 0 and gcd(m.den, *(x for row in m.num for x in row)) == 1


@st.composite
def fraction_rows(draw):
    r, c = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    return [[draw(rationals) for _ in range(c)] for _ in range(r)]


@settings(max_examples=300, deadline=None)
@given(fraction_rows(), rationals, st.integers(-(10**6), 10**6).filter(bool))
def test_stored_form_is_canonical(rows, c, den):
    m = RatMatrix.from_rows(rows)
    assert fractions(m) == tuple(tuple(r) for r in rows)
    c_identity = [[c * (i == j) for j in range(m.cols)] for i in range(m.cols)]
    scaled = m.mul(RatMatrix.from_rows(c_identity))
    for got in (m, m.transpose(), scaled, m.mul(m.transpose())):
        assert is_canonical(got)
    # over() reduces any (rows, den), whatever the sign of den.
    raw = [[x.numerator for x in r] for r in rows]
    over = RatMatrix.over(raw, den)
    assert is_canonical(over)
    assert fractions(over) == tuple(tuple(Fraction(x.numerator, den) for x in r) for r in rows)


@settings(max_examples=300, deadline=None)
@given(fraction_rows())
def test_to_dict_matches_fraction_formatting_and_round_trips(rows):
    m = RatMatrix.from_rows(rows)
    d = m.to_dict()
    assert d["entries"] == [fraction_str(x) for r in rows for x in r]
    back = RatMatrix.from_dict(d)
    assert back == m
    assert is_canonical(back)


ODD_ENTRIES = [
    " 3", "3 ", "\t-4\n", "-0", "+5", "007", "-0/7", "6/4", "-6/-4", "1.5", "-.5", "2/0", "0/0",
    "1e3", "1E-2", "1_000", "1__0", " 1 / 2 ", "1/ 2", "", " ", "-", "/", "1/", "/2", "a", "--1",
    "0x10", "inf", "nan", "\u0661", "\u00b2", "3/\u0661", 7, -7, 1.5, True, 2**70,
]


@pytest.mark.parametrize("entry", ODD_ENTRIES, ids=repr)
def test_from_dict_accepts_what_fraction_accepts(entry):
    # Booleans are the one exception: Fraction reads them as 0 and 1.
    d = {"rows": 1, "cols": 1, "entries": [entry]}
    try:
        if type(entry) is bool:
            raise ValueError("a JSON boolean is not a matrix entry")
        expected = Fraction(entry)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError):
            RatMatrix.from_dict(d)
        return
    got = RatMatrix.from_dict(d)
    assert fractions(got) == ((expected,),)
    assert is_canonical(got)


def test_from_dict_refuses_json_booleans():
    d = {"n": 2, "rows": 2, "cols": 2, "entries": [True, False, False, True]}
    with pytest.raises(ParseError, match="True"):
        RatMatrix.from_dict(d)


@pytest.mark.parametrize(
    "entry, message",
    [(None, "None"), ([1], "[1]"), ({"p": 1}, "{'p': 1}"), (float("inf"), "Infinity")],
    ids=["null", "list", "object", "infinity"],
)
def test_from_dict_refuses_non_numbers(entry, message):
    d = {"rows": 1, "cols": 2, "entries": ["1/2", entry]}
    with pytest.raises(ParseError, match="bad rational entry") as info:
        RatMatrix.from_dict(d)
    assert message in str(info.value)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(alphabet="0123456789-+/ ._eE", max_size=7), min_size=1, max_size=4))
def test_from_dict_agrees_with_fraction_on_short_strings(entries):
    d = {"rows": 1, "cols": len(entries), "entries": entries}
    try:
        expected = tuple(Fraction(s) for s in entries)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError):
            RatMatrix.from_dict(d)
        return
    assert fractions(RatMatrix.from_dict(d)) == (expected,)


unit_fractions = st.sampled_from([Fraction(x, 5) for x in range(-5, 6)] + [Fraction(1, 2)])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_rows_orthonormal_matches_fraction_oracle(n, data):
    rows = [[data.draw(unit_fractions) for _ in range(n)] for _ in range(n)]
    candidates = [RatMatrix.from_rows(rows)]
    o = random_rational_orthogonal(n, seed=data.draw(st.integers(0, 99))).matrix
    negated = RatMatrix.over([[-x for x in row] for row in o.num], o.den)
    candidates += [o, negated, RatMatrix.over(o.num, 2 * o.den)]
    if n > 1:
        swapped = list(fractions(o))
        swapped[0] = swapped[1]
        candidates.append(RatMatrix.from_rows(swapped))
    for m in candidates:
        assert m.rows_orthonormal() is fraction_rows_orthonormal(fractions(m))


# --- HNF ---


def test_hnf_pinned_example():
    m = IntMatrix.from_rows([[1, 1], [0, 2], [2, 0]])
    assert hnf(m).entries == ((1, 1), (0, 2))


def test_hnf_identity_fixed_point():
    assert hnf(IntMatrix.identity(4)) == IntMatrix.identity(4)


def test_hnf_recovers_known_form_under_unimodular_mixing():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 5)
        # build a ground-truth HNF directly, then disguise it
        h = [[0] * n for _ in range(n)]
        for i in range(n):
            h[i][i] = rng.randrange(1, 6)
            for j in range(i + 1, n):
                h[i][j] = rng.randrange(h[j][j]) if h[j][j] > 1 else 0
        # entries above a pivot must lie in [0, pivot)
        truth = hnf(IntMatrix.from_rows(h))
        mixed = int_product(random_unimodular(rng, n), [list(r) for r in truth.entries])
        assert hnf(IntMatrix.from_rows(mixed)) == truth


def test_hnf_shape_invariants():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        )
        h = hnf(m)
        assert hnf(h) == h
        pivots = []
        for r in h.entries:
            lead = next((j for j, x in enumerate(r) if x), None)
            assert lead is not None
            assert r[lead] > 0
            pivots.append(lead)
            for above in h.entries[: h.entries.index(r)]:
                assert 0 <= above[lead] < r[lead]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


# --- determinants and inverses ---


def test_det_matches_laplace():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-8, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(rows) == laplace_det(rows)


@st.composite
def gram_matrices(draw):
    """The integer Gram matrix (B.B^T cleared to lowest terms, as a
    `GramRecord` holds it) of r <= 6 rows of length c in [r - 2, 7],
    integer or rational.  A row may be a combination of two rows before
    it, and r > c forces dependence, so det 0 is common."""
    r = draw(st.integers(0, 6))
    c = draw(st.integers(max(r - 2, 0), 7))
    entry = draw(st.sampled_from([st.integers(-9, 9), st.fractions(-3, 3, max_denominator=6)]))
    rows = []
    for _ in range(r):
        if rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * u + b * v for u, v in zip(x, y)])
        else:
            rows.append(draw(st.lists(entry, min_size=c, max_size=c)))
    return GramRecord(RatMatrix.from_rows(rows)).cleared[0]


@settings(max_examples=400, deadline=None)
@given(gram_matrices())
@example([])
@example([[0]])
@example([[7]])
@example([[0, 0], [0, 5]])
@example([[1, 2], [2, 4]])
def test_gram_det_matches_bareiss(gram):
    # det G is the triangle's last pivot, and every pivot is the leading
    # principal minor of its order, up to the first that is 0.
    before = [list(r) for r in gram]
    u = gram_triangle(gram)
    assert (u[-1][len(u) - 1] if u else 1) == bareiss_det(gram)
    assert [u[p][p] for p in range(len(u))] == [
        bareiss_det([r[: p + 1] for r in gram[: p + 1]]) for p in range(len(u))
    ]
    assert all(u[p][p] for p in range(len(u) - 1))
    assert gram == before


@st.composite
def gram_systems(draw):
    """(G, rows, q) for G = A.A^T of a nonsingular integer A with n <= 8:
    rows x = q.t.G for integer rows t, each of which may be perturbed
    in one entry, and a denominator q."""
    n = draw(st.integers(0, 8))
    entry = st.integers(-6, 6)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(bareiss_det(a) != 0)
    g = [[sum(map(mul, ai, aj)) for aj in a] for ai in a]
    q = draw(st.sampled_from([1, 1, 2, 3, 6]))
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.lists(entry, min_size=n, max_size=n))
        x = [q * sum(ti * gi[j] for ti, gi in zip(t, g)) for j in range(n)]
        if n and draw(st.booleans()):
            x[draw(st.integers(0, n - 1))] += draw(st.sampled_from([1, -1, q, g[0][0]]))
        rows.append(x)
    return g, rows, q


@settings(max_examples=400, deadline=None)
@given(gram_systems())
@example(([[2, 1], [1, 2]], [[3, 3], [1, 0]], 1))
@example(([[4]], [[6]], 3))
def test_gram_solves_matches_the_inverse(system):
    # y.G = x/q has an integer solution y exactly when x.N = 0 mod q.den
    # for the reference inverse G^-1 = N/den.
    g, rows, q = system
    num, den = inv_int_rows(g)
    # N is symmetric, so its rows are its columns.
    expected = all(sum(map(mul, x, col)) % (q * den) == 0 for x in rows for col in num)
    assert gram_solves(gram_triangle(g), rows, q) is expected
    assert gram_solves(gram_triangle(g), iter(rows), q) is expected


def test_det_rational_rotation_is_one():
    m = RatMatrix.from_rows([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    assert det(m) == 1


def test_det_rejects_non_square():
    with pytest.raises(NonSquare):
        det(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_inverse_matches_fraction_gauss_jordan():
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        oracle = fraction_inverse(rows)
        if oracle is None:
            with pytest.raises(Singular):
                inv_int_rows(rows)
            continue
        num, den = inv_int_rows(rows)
        assert [[Fraction(x, den) for x in r] for r in num] == oracle
        checked += 1


def full_sweep_inverse(rows):
    """Fraction-free Gauss-Jordan that sweeps all 2n columns of [M | I] at
    every pivot: the reference for the (N, den) of `inv_int_rows`."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for p in range(n):
        piv_row = next((r for r in range(p, n) if m[r][p]), None)
        if piv_row is None:
            return None
        m[p], m[piv_row] = m[piv_row], m[p]
        piv = m[p][p]
        for i in range(n):
            if i != p:
                f = m[i][p]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], m[p])]
        prev = piv
    return [r[n:] for r in m], (m[0][0] if n else 1)


@st.composite
def sparse_square(draw):
    n = draw(st.integers(0, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(sparse_square())
def test_inverse_matches_the_full_sweep(rows):
    # Mostly-zero entries force row swaps; the skipped columns change no
    # value, so the numerators and the denominator are the full sweep's.
    ref = full_sweep_inverse(rows)
    if ref is None:
        with pytest.raises(Singular):
            inv_int_rows(rows)
        return
    num, den = inv_int_rows(rows)
    assert (num, den) == ref
    assert abs(den) == abs(bareiss_det(rows))
    assert [[Fraction(x, den) for x in r] for r in num] == fraction_inverse(rows)


def test_inverse_handles_permutation_pivoting():
    rows = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    num, den = inv_int_rows(rows)
    inv = [[Fraction(x, den) for x in r] for r in num]
    assert inv == fraction_inverse(rows)


def test_dual_basis_pinned_example():
    b = RatMatrix.from_rows([[1, 1], [0, 2]])
    d = dual_basis(b)
    assert fractions(d) == ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(1, 2)))


def test_dual_basis_involution_and_product():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randrange(1, 5)
        while True:
            rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)] for _ in range(n)]
            if laplace_det(rows) != 0:
                break
        b = RatMatrix.from_rows(rows)
        d = dual_basis(b)
        assert d.mul(b.transpose()) == RatMatrix.identity(n)
        assert dual_basis(d) == b


def test_rat_inverse_rejects_singular():
    with pytest.raises(Singular):
        rat_inverse(RatMatrix.from_rows([[1, 2], [2, 4]]))


# --- lattice equality without HNF ---

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def lattice_pairs(draw):
    """(a, b, expected): b = M . a for a unimodular M, or for M with one
    row multiplied (index-p sublattice) or divided (index-p superlattice)
    by a prime p."""
    n = draw(st.integers(0, 5))
    a = [[draw(small_rationals) for _ in range(n)] for _ in range(n)]
    assume(det(RatMatrix.from_rows(a)) != 0)
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            u[i], u[j] = u[j], u[i]
    kind = draw(st.sampled_from(["equal", "sub", "super"])) if n else "equal"
    if kind != "equal":
        r, p = draw(st.integers(0, n - 1)), draw(st.sampled_from([2, 3, 5, 7]))
        f = Fraction(p) if kind == "sub" else Fraction(1, p)
        u[r] = [f * x for x in u[r]]
    a = RatMatrix.from_rows(a)
    return a, RatMatrix.from_rows(u).mul(a), kind == "equal"


@settings(max_examples=300, deadline=None)
@given(lattice_pairs())
def test_same_lattice_matches_hnf_oracle(case):
    a, b, expected = case
    assert same_lattice(a, b) is expected
    assert same_lattice(b, a) is expected
    assert (canonical_basis(a) == canonical_basis(b)) is expected


def test_same_lattice_edge_cases():
    def one(x):
        return RatMatrix.from_rows([[x]])

    empty = RatMatrix.from_rows([])
    assert same_lattice(empty, empty)
    assert same_lattice(one(2), one(-2))
    assert same_lattice(one(Fraction(3, 2)), one(Fraction(-3, 2)))
    assert not same_lattice(one(2), one(4))
    assert not same_lattice(one(4), one(2))
    assert not same_lattice(one(Fraction(1, 2)), one(1))
    with pytest.raises(NonSquare):
        same_lattice(RatMatrix.identity(2), RatMatrix.identity(3))
    with pytest.raises(Singular):
        same_lattice(RatMatrix.identity(2), RatMatrix.from_rows([[1, 2], [2, 4]]))


# --- LLL (the oracle lll_rows on integer bases) ---


def gram_of(b: RatMatrix):
    return fractions(b.mul(b.transpose()))


def projection_gram_schmidt(b: RatMatrix):
    """Textbook Gram-Schmidt on the rows themselves: (mu, |b*_i|^2), or
    None when the rows are dependent."""
    star, norms = [], []
    mu = [[Fraction(0)] * b.rows for _ in range(b.rows)]
    for i, row in enumerate(fractions(b)):
        v = list(row)
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(row, star[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        norm = sum(x * x for x in v)
        if norm == 0:
            return None
        star.append(v)
        norms.append(norm)
    return mu, norms


@st.composite
def square_rational_bases(draw):
    n = draw(st.integers(0, 5))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return RatMatrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(square_rational_bases())
def test_gram_schmidt_from_gram_matches_projections(b):
    expected = projection_gram_schmidt(b)
    if expected is None:
        with pytest.raises(Singular):
            gram_schmidt(gram_of(b))
    else:
        assert gram_schmidt(gram_of(b)) == expected


def lovasz_holds(b, delta):
    mu, norms = gram_schmidt(gram_of(b))
    n = b.rows
    for i in range(n):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
    for k in range(1, n):
        if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            return False
    return True


def lll(rows, delta=Fraction(99, 100)):
    return RatMatrix.from_rows(lll_rows(rows, delta.numerator, delta.denominator))


def test_lll_pinned_short_basis():
    rows = [[1, 0], [10, 1]]
    red = lll(rows)
    assert canonical_basis(red) == canonical_basis(RatMatrix.from_rows(rows))
    assert max(sum(x * x for x in row) for row in red.num) <= 2


def test_lll_preserves_lattice_and_reduces():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 6)
        while True:
            rows = [[rng.randrange(-12, 13) for _ in range(n)] for _ in range(n)]
            if laplace_det(rows) != 0:
                break
        red = lll(rows, Fraction(99, 100))
        assert canonical_basis(red) == canonical_basis(RatMatrix.from_rows(rows))
        assert lovasz_holds(red, Fraction(99, 100))


def test_lll_scaled_signed_permutation_stays_orthogonal():
    red = lll([[0, -7, 0], [7, 0, 0], [0, 0, 7]])
    gram = red.mul(red.transpose())
    assert gram == RatMatrix.from_rows([[49, 0, 0], [0, 49, 0], [0, 0, 49]])


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll([[1, 2], [2, 4]])


# --- enumeration (the Fraction oracle against brute force) ---


def enumeration_oracle(b, bound):
    """Brute force over a provably sufficient coefficient box."""
    n = b.rows
    inv = fraction_inverse([list(row) for row in fractions(b)])
    cols = list(zip(*inv))
    found = set()
    caps = []
    for j in range(n):
        norm2 = sum(x * x for x in cols[j])
        cap = 0
        while Fraction(cap * cap) <= bound * norm2:
            cap += 1
        caps.append(cap)
    for coeff in product(*[range(-c, c + 1) for c in caps]):
        if not any(coeff):
            continue
        v = [sum(Fraction(coeff[t]) * fractions(b)[t][j] for t in range(n)) for j in range(n)]
        if sum(x * x for x in v) <= bound:
            lead = next(c for c in coeff if c)
            found.add(coeff if lead > 0 else tuple(-c for c in coeff))
    return found


def test_enumerate_pinned_identity():
    got = enumerate_short_vectors(gram_of(RatMatrix.identity(2)), Fraction(2))
    assert set(got) == {(1, 0), (0, 1), (1, 1), (1, -1)}


def test_enumerate_pinned_scaled_rotation():
    b = RatMatrix.from_rows([[3, 4], [-4, 3]])
    got = enumerate_short_vectors(gram_of(b), Fraction(25))
    assert len(got) == 2
    for coeff in got:
        v = [sum(coeff[t] * b.num[t][j] for t in range(2)) for j in range(2)]
        assert sum(x * x for x in v) == 25


def test_enumerate_matches_brute_force():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(1, 4)
        while True:
            rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
            if laplace_det(rows) != 0:
                break
        b = RatMatrix.from_rows(rows)
        bound = Fraction(rng.randrange(1, 30))
        got = enumerate_short_vectors(gram_of(b), bound)
        assert len(set(got)) == len(got)
        assert set(got) == enumeration_oracle(b, bound)


def test_enumerate_zero_bound_empty():
    assert enumerate_short_vectors(gram_of(RatMatrix.identity(3)), Fraction(0)) == []
