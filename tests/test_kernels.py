"""Integer kernels on plain int rows: xgcd and all-integer LLL, plus the
row HNF and row LLL oracles kept in tests/oracles.py.

The matrix-level HNF wrapper and the basic LLL properties are tested in
test_linalg; these cover the edge cases that only the row-list interface
can reach.
"""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hullattack import kernels
from hullattack.instances import generate_instance
from hullattack.lattices import hull_coefficients, sublattice_gram
from hullattack.linalg import RatMatrix, bareiss_det, congruence
from oracles import (
    fractions,
    gram_schmidt,
    hnf_rows,
    integer_gram_schmidt,
    lll_gram as lll_gram_oracle,
    lll_rows,
)


class TestXgcd:
    def test_bezout_on_corpus(self):
        rng = random.Random(401)
        pairs = [(0, 0), (0, 5), (-7, 0), (12, -18), (-12, -18)]
        pairs += [(rng.randrange(-10**9, 10**9), rng.randrange(-10**9, 10**9)) for _ in range(200)]
        for a, b in pairs:
            g, x, y = kernels.xgcd(a, b)
            assert g >= 0
            assert a * x + b * y == g
            assert g == 0 or (a % g == 0 and b % g == 0)


class TestHnfRows:
    def test_empty_and_zero_rows(self):
        assert hnf_rows([], 3) == []
        assert hnf_rows([[0, 0]], 2) == []


class TestLllRows:
    def test_empty_basis(self):
        assert lll_rows([], 3, 4) == []

    @pytest.mark.parametrize("delta", [Fraction(3, 4), Fraction(99, 100)])
    def test_rectangular_large_entries_reduced_and_same_lattice(self, delta):
        rng = random.Random(407)
        rows = [[rng.randrange(-10**6, 10**6 + 1) for _ in range(5)] for _ in range(3)]
        red = lll_rows(rows, delta.numerator, delta.denominator)
        assert hnf_rows(red, 5) == hnf_rows(rows, 5)
        mu, norms = gram_schmidt(gram_of(red))
        for i in range(len(red)):
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
            if i:
                assert norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]

    @pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[0, 0], [1, 1]], [[1, 0], [0, 1], [1, 1]]])
    def test_dependent_rows_raise(self, rows):
        with pytest.raises(ValueError):
            lll_rows(rows, 3, 4)


def reference_lll(b: RatMatrix, delta: Fraction) -> RatMatrix:
    """Textbook LLL on the basis itself, with exact Gram-Schmidt recomputed
    after every change: the step order of the kernel (reduce against row
    k-1, Lovász test, then swap or size-reduce the rest of row k), none
    of its integral bookkeeping."""
    b = [list(r) for r in fractions(b)]

    def reduce(k, j):
        mu, _ = gram_schmidt(gram_of(b))
        if abs(mu[k][j]) > Fraction(1, 2):
            q = floor(mu[k][j] + Fraction(1, 2))
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]

    k = 1
    while k < len(b):
        reduce(k, k - 1)
        mu, norms = gram_schmidt(gram_of(b))
        if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return RatMatrix.from_rows(b)


def gram_of(rows):
    return [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]


def apply(h, rows):
    return [[sum(c * r[t] for c, r in zip(hr, rows)) for t in range(len(rows[0]))] for hr in h]


@st.composite
def bases(draw, entries):
    n = draw(st.integers(1, 6))
    ncols = n + draw(st.integers(0, 1))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(n)]
    assume(bareiss_det(gram_of(rows)) != 0)
    return rows


class TestLllGram:
    def test_empty(self):
        assert kernels.lll_gram([], 3, 4) == ([], [1], [])

    @pytest.mark.parametrize("gram", [[[1, 2], [2, 4]], [[0, 0], [0, 2]], gram_of([[1, 0], [0, 1], [1, 1]])])
    def test_dependent_rows_raise(self, gram):
        with pytest.raises(ValueError):
            kernels.lll_gram(gram, 3, 4)

    @settings(max_examples=60, deadline=None)
    @given(bases(st.integers(-(10**6), 10**6)), st.integers(2, 10**3))
    def test_transform_matches_basis_lll(self, rows, c):
        delta = Fraction(99, 100)
        gram = gram_of(rows)
        h, _, _ = kernels.lll_gram(gram, delta.numerator, delta.denominator)
        red = apply(h, rows)
        assert red == lll_rows(rows, delta.numerator, delta.denominator)
        assert RatMatrix.from_rows(red) == reference_lll(RatMatrix.from_rows(rows), delta)
        assert congruence(h, gram) == gram_of(red)  # H.G.H^T, formed outside the kernel
        assert abs(bareiss_det(h)) == 1
        scaled = [[c * c * x for x in row] for row in gram]
        assert kernels.lll_gram(scaled, delta.numerator, delta.denominator)[0] == h

    @settings(max_examples=60, deadline=None)
    @given(bases(st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**3))))
    def test_rational_basis_through_cleared_gram(self, rows):
        b = RatMatrix.from_rows(rows)
        gram = b.mul(b.transpose()).num
        h, _, _ = kernels.lll_gram(gram, 99, 100)
        assert RatMatrix.from_rows(apply(h, rows)) == reference_lll(b, Fraction(99, 100))
        assert abs(bareiss_det(h)) == 1

    def test_reads_the_gram_matrix_without_writing_it(self):
        gram = tuple(map(tuple, gram_of([[3, 1, 4], [1, 5, 9], [2, 6, 5]])))
        h, _, _ = kernels.lll_gram(gram, 99, 100)
        assert gram == tuple(map(tuple, gram_of([[3, 1, 4], [1, 5, 9], [2, 6, 5]])))
        assert h == lll_gram_oracle(gram, 99, 100)[0]


# --- the Gram-free kernel against the oracle that keeps H.G.H^T current ---

HULL_MODULI = (2, 3, 5, 6, 9, 10, 15)


@st.composite
def hull_grams(draw):
    """The integer Gram matrix of the k-hull of a public lattice, as ZLIP
    hands it to LLL."""
    k = draw(st.sampled_from(HULL_MODULI))
    n = draw(st.integers(2, 10))
    inst = generate_instance(k, n, draw(st.integers(1, n)), draw(st.integers(0, 10**6)))
    lattice = inst.l1 if draw(st.booleans()) else inst.l2
    return sublattice_gram(lattice, hull_coefficients(lattice, k))[0]


@st.composite
def mixed_grams(draw):
    """U.G.U^T for a hull Gram matrix G and U a product of up to 5n
    elementary row additions r_i += s.r_j with s = +-1."""
    g = [list(r) for r in draw(hull_grams())]
    n = len(g)
    rng = random.Random(draw(st.integers(0, 10**6)))
    for _ in range(draw(st.integers(0, 5 * n))):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        g[i] = [a + s * b for a, b in zip(g[i], g[j])]
        for row in g:
            row[i] += s * row[j]
    return g


@st.composite
def any_row_grams(draw):
    """The Gram matrix of up to 6 small rows, dependent or not."""
    n = draw(st.integers(0, 6))
    ncols = draw(st.integers(max(n - 1, 0), n + 1))
    return gram_of([[draw(st.integers(-3, 3)) for _ in range(ncols)] for _ in range(n)])


def lll_outcome(lll, gram, delta):
    try:
        return lll(gram, *delta)
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        bases(st.integers(-(10**6), 10**6)).map(gram_of),
        any_row_grams(),
        hull_grams(),
        mixed_grams(),
    ),
    st.sampled_from([(3, 4), (99, 100)]),
)
def test_gram_free_kernel_matches_the_oracle(gram, delta):
    """Same H as the kernel that keeps all of H.G.H^T current, and a
    ValueError on exactly the same inputs: every swap and every size
    reduction is the same."""
    expected, got = (lll_outcome(lll, gram, delta) for lll in (lll_gram_oracle, kernels.lll_gram))
    if expected is not ValueError:
        expected, got = expected[0], got[0]
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(bases(st.integers(-(10**3), 10**3)).map(gram_of), hull_grams(), mixed_grams()),
    st.sampled_from([(26, 100), (3, 4), (99, 100)]),
)
def test_kernel_returns_the_gram_schmidt_data_of_the_reduced_form(gram, delta):
    """d and lam are the integer Gram-Schmidt data of H.G.H^T, read off
    the Fraction Gram-Schmidt oracle, at every delta: also where LLL at
    delta = 0.26 stops short of I on a hull."""
    h, d, lam = kernels.lll_gram(gram, *delta)
    assert (d, lam) == integer_gram_schmidt(congruence(h, gram))
