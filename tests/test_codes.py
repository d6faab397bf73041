"""Codes over Z/kZ: duals, hulls, closures, projections.

Brute-force oracles enumerate whole codes, so every identity is checked
on actual codeword sets, not just on generators.
"""

import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hullattack.errors import BadModulus, NotLcd, ParseError, Timeout
from hullattack.codes import (
    LinearCode,
    apply_signed_perm,
    closure,
    closure_projection,
    code_from_rows,
    dual,
    from_generator,
    hull,
    is_free_lcd,
    is_lcd,
    projection_matrix,
    random_free_lcd,
    signed_perm_maps,
)
from hullattack.modring import ModMatrix, howell_form, howell_order, is_unit_det
from oracles import (
    NotAUnit,
    _inverse_by_elimination,
    inverse_mod,
    projection_matrix_by_inverse,
    projection_matrix_by_words,
)


def words(c: LinearCode) -> frozenset:
    out = set()
    for coeff in product(range(c.k), repeat=c.gen.rows):
        out.add(
            tuple(sum(a * row[j] for a, row in zip(coeff, c.gen.entries)) % c.k for j in range(c.n))
        )
    return frozenset(out)


def random_code(rng, k, n) -> LinearCode:
    rows = rng.randrange(0, n + 1)
    return code_from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(rows)], n)


def small_corpus(seed, count, ks=(2, 3, 4, 5, 6, 9), nmax=3):
    rng = random.Random(seed)
    return [random_code(rng, rng.choice(ks), rng.randrange(1, nmax + 1)) for _ in range(count)]


# --- construction, duals, hulls ---


def test_from_generator_pinned():
    c = code_from_rows(3, [[1, 1]])
    assert c.gen.entries == ((1, 1),)
    assert howell_order(c.gen) == 3


def test_code_equality_is_module_equality():
    assert code_from_rows(5, [[2, 2]]) == code_from_rows(5, [[1, 1]])
    assert code_from_rows(6, [[2, 3]]) == code_from_rows(6, [[2, 0], [0, 3]])


def test_dual_pinned_examples():
    assert dual(code_from_rows(5, [[1, 0]])) == code_from_rows(5, [[0, 1]])
    c = code_from_rows(2, [[1, 1]])
    assert dual(c) == c


def test_dual_is_orthogonality_and_double_dual_is_identity():
    for c in small_corpus(61, 120):
        d = dual(c)
        cw, dw = words(c), words(d)
        truth = {
            x
            for x in product(range(c.k), repeat=c.n)
            if all(sum(a * b for a, b in zip(x, w)) % c.k == 0 for w in cw)
        }
        assert dw == truth
        assert dual(d) == c


def test_hull_is_intersection_with_dual():
    for c in small_corpus(67, 120):
        h = hull(c)
        assert words(h) == words(c) & words(dual(c))


def test_is_lcd_matches_trivial_hull():
    for c in small_corpus(71, 120):
        assert is_lcd(c) == (len(words(c) & words(dual(c))) == 1)


@st.composite
def any_codes(draw):
    """A code over Z_k of length n <= 8 spanned by 0 to n + 1 uniform
    rows: the zero code, non-free codes and k = 0 mod 4 included."""
    k = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 25, 27]))
    n = draw(st.integers(0, 8))
    r = draw(st.integers(0, n + 1))
    rows = [[draw(st.integers(0, k - 1)) for _ in range(n)] for _ in range(r)]
    return code_from_rows(k, rows, n)


@settings(max_examples=300, deadline=None)
@given(any_codes())
def test_is_lcd_is_the_order_of_the_gram_row_module(c):
    """x -> x.g^T maps C onto the row module of g.g^T with kernel the
    hull, so |hull| . |row module of g.g^T| = |C|, and C is LCD exactly
    when the hull is the zero code."""
    g, h = c.gen, hull(c).gen
    image = howell_form(g.mul(g.transpose()))
    assert howell_order(h) * howell_order(image) == howell_order(g)
    assert is_lcd(c) == (h.rows == 0)


def is_free(c: LinearCode) -> bool:
    """C = Z_k^r as a module, by counting words: |C| = k^r, and for every
    prime p dividing k the words killed by p number p^r (one cyclic
    summand of the p-part per rank)."""
    cw = words(c)
    r = 0
    while c.k**r < len(cw):
        r += 1
    primes = [p for p in range(2, c.k + 1) if c.k % p == 0 and all(p % q for q in range(2, p))]
    return c.k**r == len(cw) and all(
        sum(all(p * x % c.k == 0 for x in w) for w in cw) == p**r for p in primes
    )


def test_is_free_lcd_agrees_with_freeness_plus_lcd():
    corpus = small_corpus(73, 200, ks=(2, 3, 4, 5, 6, 8, 9, 10, 12, 15))
    assert any(is_lcd(c) and not is_free(c) for c in corpus)
    for c in corpus:
        assert is_free_lcd(c) == (is_free(c) and is_lcd(c))


# --- closures ---


def test_signed_closure_pinned():
    c = code_from_rows(3, [[1, 1]])
    assert closure(c) == code_from_rows(3, [[1, 2, 1, 2]])


def test_extended_closure_pinned():
    c = code_from_rows(6, [[1, 0]])
    assert closure(c) == code_from_rows(6, [[1, 5, 0, 0, 3, 0]])
    with pytest.raises(BadModulus):
        closure(code_from_rows(8, [[1, 0]]))


def test_closure_words_are_signed_interleavings():
    rng = random.Random(83)
    for _ in range(40):
        k = rng.choice([3, 5, 7, 9])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        cl = closure(c)
        expect = set()
        for w in words(c):
            v = []
            for x in w:
                v += [x % k, (-x) % k]
            expect.add(tuple(v))
        assert words(cl) == expect


def test_extended_closure_words():
    rng = random.Random(89)
    for _ in range(30):
        k = rng.choice([2, 6, 10])
        m = k // 2
        n = rng.randrange(1, 3)
        c = random_code(rng, k, n)
        cl = closure(c)
        expect = set()
        for w in words(c):
            v = []
            for x in w:
                v += [x % k, (-x) % k]
            v += [(m * x) % k for x in w]
            expect.add(tuple(v))
        assert words(cl) == expect


def test_closure_inner_products_scale_by_a_unit():
    from math import gcd

    rng = random.Random(97)
    for _ in range(200):
        k = rng.choice([2, 3, 5, 6, 7, 9, 10])
        n = rng.randrange(1, 4)
        x = [rng.randrange(k) for _ in range(n)]
        y = [rng.randrange(k) for _ in range(n)]
        dot = sum(a * b for a, b in zip(x, y)) % k
        xi = [v for a in x for v in (a % k, -a % k)]
        yi = [v for a in y for v in (a % k, -a % k)]
        assert sum(a * b for a, b in zip(xi, yi)) % k == (2 * dot) % k
        if k % 2:
            assert gcd(2, k) == 1
        else:
            m = k // 2
            xe = xi + [(m * a) % k for a in x]
            ye = yi + [(m * a) % k for a in y]
            assert sum(a * b for a, b in zip(xe, ye)) % k == ((m * m + 2) * dot) % k
            if m % 2:
                assert gcd(m * m + 2, k) == 1


def test_closure_preserves_free_lcd_both_directions():
    rng = random.Random(101)
    odd_seen = even_seen = 0
    for _ in range(300):
        k = rng.choice([3, 5, 7, 9, 2, 6, 10])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        if k % 2:
            odd_seen += 1
        else:
            even_seen += 1
        assert is_free_lcd(closure(c)) == is_free_lcd(c)
    assert odd_seen and even_seen


@st.composite
def closable_codes(draw):
    """Codes over the SPEP moduli, free or not, from arbitrary generators."""
    k = draw(st.sampled_from([2, 3, 5, 6, 9, 10, 15]))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), max_size=n))
    return code_from_rows(k, rows, n)


def _projection_or_none(c: LinearCode):
    try:
        return projection_matrix(c)
    except NotLcd:
        return None


@settings(max_examples=150, deadline=None)
@given(closable_codes())
def test_inherited_closure_matches_rebuilt_code(c):
    cl = closure(c)
    rebuilt = from_generator(cl.gen)
    assert cl.gen == rebuilt.gen
    assert howell_order(cl.gen) == howell_order(c.gen)
    assert _projection_or_none(cl) == _projection_or_none(rebuilt)


# --- projections ---


def test_projection_pinned_examples():
    assert projection_matrix(code_from_rows(3, [[1, 1]])).entries == ((2, 2), (2, 2))
    assert projection_matrix(code_from_rows(5, [[1, 0]])).entries == ((1, 0), (0, 0))


def test_projection_laws():
    rng = random.Random(103)
    seen = 0
    while seen < 60:
        k = rng.choice([2, 3, 5, 6, 7, 9])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        if not is_free_lcd(c):
            continue
        seen += 1
        pi = projection_matrix(c)
        assert pi.mul(pi) == pi
        assert pi.transpose() == pi

        def image(w):
            return tuple(sum(w[i] * pi.entries[i][j] for i in range(n)) % k for j in range(n))

        # image is exactly C and every word is fixed
        assert from_generator(pi) == from_generator(c.gen)
        for w in words(c):
            assert image(w) == w
        # Pi projects along the dual: every word of C^perp maps to 0
        for w in words(dual(c)):
            assert image(w) == (0,) * n


@st.composite
def generators(draw):
    """(k, n, rows): up to n rows of length n over the SPEP moduli."""
    k = draw(st.sampled_from([2, 3, 5, 6, 7, 9, 10, 14, 15]))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), max_size=n))
    return k, n, rows


@settings(max_examples=300, deadline=None)
@given(generators())
@example((6, 2, [[2, 1], [3, 1]]))
def test_projection_matches_the_inverse_route(case):
    """On drawn rows that are a free basis of their code, the Howell route
    gives the projector the inverse of G.G^T gives, and refuses exactly
    the codes whose G.G^T has no inverse mod k."""
    k, n, rows = case
    c = code_from_rows(k, rows, n)
    g = ModMatrix.from_rows(k, rows, n)
    if howell_order(c.gen) != k**g.rows:
        return
    try:
        inverse_mod(g.mul(g.transpose()))
    except NotAUnit:
        for route in (projection_matrix, lambda c: projection_matrix_by_inverse(c, g)):
            with pytest.raises(NotLcd):
                route(c)
    else:
        assert projection_matrix(c) == projection_matrix_by_inverse(c, g)


@st.composite
def listable_codes(draw):
    """Codes over any modulus, k = 0 mod 4 and the zero code included,
    with at most 4096 words, spanned by 0 to n + 1 uniform rows."""
    k = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 25, 27]))
    n = draw(st.integers(0, 6))
    r = draw(st.integers(0, n + 1))
    rows = [[draw(st.integers(0, k - 1)) for _ in range(n)] for _ in range(r)]
    c = code_from_rows(k, rows, n)
    assume(howell_order(c.gen) <= 4096)
    return c


@settings(max_examples=400, deadline=None)
@given(listable_codes())
@example(code_from_rows(6, [[2, 0, 0]]))
@example(code_from_rows(15, [[5, 0, 0], [0, 3, 0], [0, 0, 3]]))
def test_projection_matches_the_word_listing(c):
    """The projector is the one found by listing C's words, on every LCD
    code, free or not, and NotLcd exactly on the codes that are not LCD."""
    if is_lcd(c):
        assert projection_matrix(c) == projection_matrix_by_words(c)
    else:
        for route in (projection_matrix, projection_matrix_by_words):
            with pytest.raises(NotLcd):
                route(c)


def test_projection_where_the_inverse_route_found_no_unit_pivot():
    # G.G^T = [[2, 3], [3, 2]] mod 6: no unit in its first column, so the
    # inverse route's Gauss-Jordan stalled and its adjugate decided.
    g = ModMatrix.from_rows(6, [[1, 1, 0], [1, 2, 3]])
    c = from_generator(g)
    gram = g.mul(g.transpose())
    assert gram.entries == ((2, 3), (3, 2))
    assert _inverse_by_elimination(gram) is None
    pi = projection_matrix(c)
    assert pi == projection_matrix_by_inverse(c, g)
    assert pi.mul(pi) == pi and from_generator(pi) == c


def test_projection_rejects_non_free_lcd():
    # Both codes meet their duals, so neither has a projector.
    with pytest.raises(NotLcd):
        projection_matrix(code_from_rows(2, [[1, 1]]))  # self-dual
    with pytest.raises(NotLcd):
        projection_matrix(code_from_rows(4, [[2, 0]]))  # not free, and in its dual


def _closure_projection_or_none(c: LinearCode):
    try:
        return closure_projection(c)
    except NotLcd:
        return None


@st.composite
def spep_codes(draw):
    """Codes over odd and 2 mod 4 moduli up to n = 10, free LCD or not."""
    k = draw(st.sampled_from([2, 3, 5, 6, 7, 9, 10, 14, 15]))
    n = draw(st.integers(1, 10))
    rows = draw(
        st.lists(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), min_size=1, max_size=n)
    )
    return code_from_rows(k, rows, n)


@settings(max_examples=200, deadline=None)
@given(spep_codes())
def test_closure_projection_matches_the_built_closure(c):
    assert _closure_projection_or_none(c) == _projection_or_none(closure(c))


def test_closure_projection_rejects_what_the_closure_rejects():
    self_orthogonal = code_from_rows(3, [[1, 1, 1]])
    self_dual = code_from_rows(10, [[5, 5, 0, 0], [0, 0, 5, 5]])
    for c in (self_orthogonal, self_dual):
        with pytest.raises(NotLcd):
            projection_matrix(closure(c))
        with pytest.raises(NotLcd):
            closure_projection(c)
    # LCD but not free: both closures have a projector.
    not_free = code_from_rows(6, [[2, 0, 0]])
    assert closure_projection(not_free) == projection_matrix(closure(not_free))
    with pytest.raises(BadModulus):
        closure_projection(code_from_rows(4, [[1, 0]]))


def test_projection_independent_of_generator_presentation():
    a = code_from_rows(5, [[1, 1, 0], [0, 2, 1]])
    b = code_from_rows(5, [[2, 2, 0], [1, 3, 1], [1, 1, 0]])
    if words(a) == words(b) and is_free_lcd(a):
        assert projection_matrix(a) == projection_matrix(b)


# --- signed permutations on codes ---


def test_apply_signed_perm_pinned():
    c = code_from_rows(3, [[1, 2]])
    swapped = apply_signed_perm(c, [1, 0], [1, 1])
    assert swapped == code_from_rows(3, [[2, 1]])
    c2 = code_from_rows(3, [[1, 1]])
    assert apply_signed_perm(c2, [0, 1], [1, -1]) == code_from_rows(3, [[1, 2]])


def test_apply_signed_perm_is_a_group_action():
    rng = random.Random(107)
    for _ in range(60):
        k = rng.choice([3, 4, 5, 6])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        s1 = list(range(n))
        rng.shuffle(s1)
        e1 = [rng.choice([1, -1]) for _ in range(n)]
        s2 = list(range(n))
        rng.shuffle(s2)
        e2 = [rng.choice([1, -1]) for _ in range(n)]
        once = apply_signed_perm(apply_signed_perm(c, s1, e1), s2, e2)
        comp_sigma = [s2[s1[i]] for i in range(n)]
        comp_signs = [e1[i] * e2[s1[i]] for i in range(n)]
        assert once == apply_signed_perm(c, comp_sigma, comp_signs)
    with pytest.raises(ParseError):
        apply_signed_perm(code_from_rows(3, [[1, 1]]), [0, 0], [1, 1])


def test_apply_signed_perm_matches_word_level_action():
    rng = random.Random(109)
    for _ in range(60):
        k = rng.choice([2, 3, 5, 6])
        n = rng.randrange(1, 4)
        c = random_code(rng, k, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        got = apply_signed_perm(c, sigma, signs)
        expect = set()
        for w in words(c):
            y = [0] * n
            for i in range(n):
                y[sigma[i]] = (signs[i] * w[i]) % k
            expect.add(tuple(y))
        assert words(got) == expect


def test_signed_perm_maps_agrees_with_apply_to():
    rng = random.Random(73)
    for _ in range(200):
        k = rng.choice([2, 3, 4, 6, 9, 10])
        n = rng.randrange(1, 5)
        c = random_code(rng, k, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        image = apply_signed_perm(c, sigma, signs)
        assert signed_perm_maps(c, sigma, signs, image)
        other = random_code(rng, k, n)
        assert signed_perm_maps(c, sigma, signs, other) == (image == other)


# --- sampling ---


def test_random_free_lcd_properties_and_determinism():
    for k, n, m in [(3, 4, 2), (5, 3, 1), (6, 4, 2), (2, 5, 2), (15, 4, 2), (9, 3, 3)]:
        c1 = random_free_lcd(k, n, m, seed=1234)
        c2 = random_free_lcd(k, n, m, seed=1234)
        assert c1 == c2
        assert howell_order(c1.gen) == k**m
        assert is_free_lcd(c1)
        assert c1.n == n and c1.k == k


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 6, 7, 9, 10, 14, 15, 18, 21, 25, 27]),
    st.integers(1, 6),
    st.data(),
)
def test_random_free_lcd_keeps_a_draw_on_a_unit_gram_determinant(k, n, data):
    # The one-determinant test keeps exactly the draws that build an LCD
    # code of k^m words, so the m drawn rows are a free basis of it.
    m = data.draw(st.integers(1, n))
    row = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=m, max_size=m))
    g = ModMatrix.from_rows(k, rows, n)
    c = from_generator(g)
    assert is_unit_det(g.mul(g.transpose())) == (howell_order(c.gen) == k**m and is_lcd(c))
    seed = data.draw(st.integers(0, 10**6))
    drawn = random_free_lcd(k, n, m, seed=seed)
    assert howell_order(drawn.gen) == k**m and is_free_lcd(drawn)


def test_random_free_lcd_draw_budget():
    with pytest.raises(Timeout):
        random_free_lcd(3, 2, 1, seed=0, max_draws=0)
    with pytest.raises(ValueError):
        random_free_lcd(3, 2, 3, seed=0)


def test_code_json_round_trip():
    c = random_free_lcd(6, 4, 2, seed=5)
    assert LinearCode.from_dict(c.to_dict()) == c
    bad = c.to_dict()
    bad["n"] = 3
    with pytest.raises(ParseError):
        LinearCode.from_dict(bad)


@pytest.mark.parametrize("field", ["k", "n"])
@pytest.mark.parametrize("value", [4.5, "4", True])
def test_code_shape_must_be_a_json_integer(field, value):
    d = random_free_lcd(6, 4, 2, seed=5).to_dict()
    d[field] = value
    with pytest.raises(ParseError, match=repr(field)):
        LinearCode.from_dict(d)
