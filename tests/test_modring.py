"""Mod-k matrix algebra, checked against exhaustive small-module oracles."""

import random
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullattack.errors import ParseError
from hullattack.lattices import _hermite_lift
from hullattack.modring import (
    ModMatrix,
    howell_form,
    howell_order,
    is_unit_det,
    kernel_mod,
    unit_multiplier,
)
from oracles import NotAUnit, inverse_mod


def identity_mod(k, n):
    return ModMatrix.from_rows(k, [[int(i == j) for j in range(n)] for i in range(n)], n)


def span_set(m: ModMatrix) -> frozenset:
    """Every element of the row module, by brute force."""
    k = m.k
    out = set()
    for coeff in product(range(k), repeat=m.rows):
        v = tuple(sum(c * row[j] for c, row in zip(coeff, m.entries)) % k for j in range(m.cols))
        out.add(v)
    return frozenset(out)


def random_mod(rng, k, rows, cols) -> ModMatrix:
    return ModMatrix.from_rows(k, [[rng.randrange(k) for _ in range(cols)] for _ in range(rows)], cols)


# --- Howell form ---


def test_howell_pinned_example():
    m = ModMatrix.from_rows(4, [[2, 2], [0, 2]])
    assert howell_form(m).entries == ((2, 0), (0, 2))


def test_howell_is_canonical_for_the_row_module():
    rng = random.Random(31)
    corpus = []
    for _ in range(160):
        k = rng.choice([2, 3, 4, 5, 6, 8, 9])
        n = rng.randrange(1, 4)
        m = random_mod(rng, k, rng.randrange(1, 4), n)
        corpus.append((m, span_set(m), howell_form(m)))
    for m, span, h in corpus:
        assert span_set(h) == span
        assert howell_form(h) == h
        assert howell_order(h) == len(span)
    # same module <-> same Howell form, both directions
    for a, span_a, ha in corpus:
        for b, span_b, hb in corpus:
            if a.k == b.k and a.cols == b.cols:
                assert (span_a == span_b) == (ha == hb)


def test_howell_shape_invariants():
    rng = random.Random(37)
    for _ in range(200):
        k = rng.choice([2, 3, 4, 6, 8, 9, 12])
        m = random_mod(rng, k, rng.randrange(1, 5), rng.randrange(1, 5))
        h = howell_form(m)
        pivots = []
        for idx, row in enumerate(h.entries):
            lead = next((j for j, x in enumerate(row) if x), None)
            assert lead is not None
            assert k % row[lead] == 0
            pivots.append(lead)
            for above in h.entries[:idx]:
                assert 0 <= above[lead] < row[lead]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


def test_unit_multiplier_properties():
    for k in range(2, 30):
        for a in range(1, k):
            u = unit_multiplier(a, k)
            assert gcd(u, k) == 1
            assert (u * a) % k == gcd(a, k)


# --- kernels ---


def test_kernel_pinned_examples():
    assert kernel_mod(ModMatrix.from_rows(3, [[1, 1]])).entries == ((1, 2),)
    assert kernel_mod(ModMatrix.from_rows(4, [[2]])).entries == ((2,),)
    assert kernel_mod(identity_mod(5, 3)).rows == 0


def test_kernel_matches_brute_force():
    rng = random.Random(41)
    for _ in range(160):
        k = rng.choice([2, 3, 4, 5, 6, 8, 9])
        n = rng.randrange(1, 4)
        m = random_mod(rng, k, rng.randrange(0, 4), n)
        ker = kernel_mod(m)
        assert ker.cols == n
        truth = {
            x
            for x in product(range(k), repeat=n)
            if all(sum(a * b for a, b in zip(x, row)) % k == 0 for row in m.entries)
        }
        assert span_set(ker) == truth
        assert howell_form(ker) == ker


# Primes, prime powers and composites, the moduli k.den of the hull test.
IDENTITY_MODULI = [2, 3, 5, 7, 4, 8, 9, 25, 27, 6, 10, 12, 15, 30, 36, 225]


@st.composite
def integer_matrices_mod(draw):
    """An integer matrix, symmetric (as a Gram matrix is) or not, with
    entries of either sign and larger than the modulus, read mod q."""
    q = draw(st.sampled_from(IDENTITY_MODULI))
    entry = st.integers(-(10**6), 10**6)
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        upper = [[draw(entry) for _ in range(n - i)] for i in range(n)]
        rows = [[upper[min(i, j)][abs(i - j)] for j in range(n)] for i in range(n)]
    else:
        n = draw(st.integers(1, 6))
        rows = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, 6)))]
    return ModMatrix.from_rows(q, rows)


@settings(max_examples=300, deadline=None)
@given(integer_matrices_mod())
def test_row_module_order_is_the_lifted_kernel_index(m):
    # |row module| = |column module| = q^n / |kernel|, and q^n / |kernel|
    # is the index of kernel + qZ^n in Z^n, the product of its HNF pivots.
    lifted = _hermite_lift(kernel_mod(m))
    assert howell_order(howell_form(m)) == prod(row[i] for i, row in enumerate(lifted))


@settings(max_examples=300, deadline=None)
@given(integer_matrices_mod())
def test_kernel_of_the_howell_form_is_the_kernel(m):
    # Both matrices have one row module, and kernel_mod is canonical.
    assert kernel_mod(howell_form(m)) == kernel_mod(m)


# --- unit determinants, and the inverse the library no longer takes ---


def test_inverse_pinned_examples():
    assert inverse_mod(ModMatrix.from_rows(6, [[5]])).entries == ((5,),)
    m = ModMatrix.from_rows(6, [[2, 1], [3, 1]])
    inv = inverse_mod(m)  # no unit pivot in column 1, adjugate path
    assert m.mul(inv) == identity_mod(6, 2)
    assert inv.mul(m) == identity_mod(6, 2)


def bijectivity_cases():
    rng = random.Random(43)
    for _ in range(200):
        k = rng.choice([2, 3, 4, 5, 6, 9])
        n = rng.randrange(1, 3)
        m = random_mod(rng, k, n, n)
        yield m, len(span_set(m)) == m.k**n


def test_unit_det_matches_bijectivity():
    for m, bijective in bijectivity_cases():
        assert is_unit_det(m) == bijective


def test_oracle_inverse_matches_bijectivity():
    for m, bijective in bijectivity_cases():
        if bijective:
            inv = inverse_mod(m)
            assert m.mul(inv) == identity_mod(m.k, m.rows)
            assert inv.mul(m) == identity_mod(m.k, m.rows)
        else:
            with pytest.raises(NotAUnit):
                inverse_mod(m)


# --- freeness ---


def rows_free(m: ModMatrix) -> bool:
    """Rows are a free basis of their row module exactly when it has
    k^rows elements: the map from coefficients onto it is then a
    bijection."""
    return howell_order(howell_form(m)) == m.k**m.rows


def test_free_rows_pinned_examples():
    assert rows_free(ModMatrix.from_rows(4, [[1, 0]]))
    assert not rows_free(ModMatrix.from_rows(4, [[2, 0]]))
    assert not rows_free(ModMatrix.from_rows(4, [[1], [0]]))
    assert rows_free(ModMatrix.from_rows(5, [], cols=3))
    # <(2,3)> over Z6 is free of rank 1, though its Howell form
    # [[2,0],[0,3]] has two rows
    assert rows_free(ModMatrix.from_rows(6, [[2, 3]]))


def test_free_rows_match_injectivity():
    rng = random.Random(47)
    for _ in range(250):
        k = rng.choice([2, 3, 4, 5, 6, 8, 9])
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = random_mod(rng, k, rows, cols)
        injective = all(
            any(sum(c * row[j] for c, row in zip(coeff, m.entries)) % k for j in range(cols))
            for coeff in product(range(k), repeat=rows)
            if any(coeff)
        )
        assert rows_free(m) == injective


@pytest.mark.parametrize("field", ["k", "rows", "cols"])
@pytest.mark.parametrize("value", [2.5, "2", True])
def test_mod_matrix_shape_must_be_a_json_integer(field, value):
    d = identity_mod(3, 2).to_dict()
    d[field] = value
    with pytest.raises(ParseError, match=repr(field)):
        ModMatrix.from_dict(d)


def test_mod_matrix_entries_must_be_json_integers():
    d = {"k": 3, "rows": 2, "cols": 2, "entries": [True, False, False, True]}
    with pytest.raises(ParseError, match="True"):
        ModMatrix.from_dict(d)
