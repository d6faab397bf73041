"""Integer kernels on plain int rows: xgcd, row HNF, all-integer LLL.

The matrix-level wrappers in hullattack.linalg are tested in test_linalg;
these cover the edge cases that only the row-list interface can reach.
"""

import random
from fractions import Fraction

import pytest

from hullattack import kernels
from hullattack.linalg import RatMatrix, gram_schmidt


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
        assert kernels.hnf_rows([], 3) == []
        assert kernels.hnf_rows([[0, 0]], 2) == []


class TestLllRows:
    def test_empty_basis(self):
        assert kernels.lll_rows([], 3, 4) == []

    @pytest.mark.parametrize("delta", [Fraction(3, 4), Fraction(99, 100)])
    def test_rectangular_large_entries_reduced_and_same_lattice(self, delta):
        rng = random.Random(407)
        rows = [[rng.randrange(-10**6, 10**6 + 1) for _ in range(5)] for _ in range(3)]
        red = kernels.lll_rows(rows, delta.numerator, delta.denominator)
        assert kernels.hnf_rows(red, 5) == kernels.hnf_rows(rows, 5)
        mu, norms = gram_schmidt(RatMatrix.from_rows(red))
        for i in range(len(red)):
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
            if i:
                assert norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]

    @pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[0, 0], [1, 1]], [[1, 0], [0, 1], [1, 1]]])
    def test_dependent_rows_raise(self, rows):
        with pytest.raises(ValueError):
            kernels.lll_rows(rows, 3, 4)
