"""Code equivalence: weighted GI solver, PEP, SPEP, extraction."""

import random
from itertools import islice, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hullattack import equiv, modring
from hullattack.codes import (
    LinearCode,
    apply_signed_perm,
    closure_mode,
    closure_projection,
    code_from_rows,
    is_lcd,
    projection_matrix,
    random_free_lcd,
    signed_closure,
)
from hullattack.equiv import (
    SignedPerm,
    extract_signed_perm,
    solve_weighted_gi,
    spep,
)
from hullattack.errors import (
    DimensionMismatch,
    ExtractionExhausted,
    NotLcd,
    ParseError,
    TooLarge,
)
from hullattack.modring import ModMatrix
from hullattack.selftest import brute_force_pep, brute_force_spep, pep
from oracles import refine_on_matrices, weighted_gi_by_full_refinement


def brute_gi(g1: ModMatrix, g2: ModMatrix) -> set:
    """All conjugating permutations by exhaustion."""
    a1, a2 = g1.entries, g2.entries
    n = g1.rows
    out = set()
    for p in permutations(range(n)):
        if all(a1[i][j] == a2[p[i]][p[j]] for i in range(n) for j in range(n)):
            out.add(p)
    return out


def random_symmetric(k: int, n: int, rng: random.Random) -> ModMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(k)
    return ModMatrix.from_rows(k, rows)


def conjugate(a: ModMatrix, p) -> ModMatrix:
    """B with A[i][j] == B[p(i)][p(j)]."""
    n = a.rows
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[p[i]][p[j]] = a.entries[i][j]
    return ModMatrix.from_rows(a.k, rows)


def circulant_graph(k: int, n: int, steps) -> ModMatrix:
    """Adjacency 1 between i and j exactly when j - i or i - j is a step mod n."""
    return ModMatrix.from_rows(
        k, [[int((j - i) % n in steps or (i - j) % n in steps) for j in range(n)] for i in range(n)]
    )


# One refinement round makes the colorings of these graphs (from their
# diagonals) discrete, but the bijection that coloring induces is not an
# isomorphism: the round that would confirm it rejects it.
DISCRETE_UNCONFIRMED = (
    ModMatrix.from_rows(
        2, [[0, 0, 1, 1, 0], [0, 0, 0, 0, 1], [1, 0, 0, 1, 1], [1, 0, 1, 1, 0], [0, 1, 1, 0, 0]]
    ),
    ModMatrix.from_rows(
        2, [[0, 1, 1, 0, 0], [1, 1, 0, 1, 0], [1, 0, 0, 1, 0], [0, 1, 1, 0, 1], [0, 0, 0, 1, 0]]
    ),
)


@st.composite
def graph_pairs(draw):
    """Symmetric matrices over few weights, so that refinement stalls and
    the search branches: random, or circulant (vertex-transitive, as are
    C6 and two triangles), paired with a conjugate, a conjugate with one
    symmetric pair changed, or an independent draw of the same kind."""
    k = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    weight = st.integers(0, min(k - 1, 2))
    circulant = draw(st.booleans())

    def matrix():
        rows = [[0] * n for _ in range(n)]
        if circulant:
            f = draw(st.lists(weight, min_size=n, max_size=n))
            for i in range(n):
                for j in range(n):
                    rows[i][j] = f[min((j - i) % n, (i - j) % n)]
        else:
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = draw(weight)
        return rows

    a = ModMatrix.from_rows(k, matrix())
    how = draw(st.sampled_from(["conjugate", "perturbed", "independent"]))
    if how == "independent":
        return k, a, ModMatrix.from_rows(k, matrix())
    p = draw(st.permutations(range(n)))
    b = [list(r) for r in conjugate(a, p).entries]
    if how == "perturbed":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        b[i][j] = b[j][i] = (b[i][j] + 1) % k
    return k, a, ModMatrix.from_rows(k, b)


def first_solutions(solver, a, b, **kw):
    """The first 30 solutions, in order (cliques have n! of them; 30 pin
    the order), and the nodes visited to reach them."""
    stats = {}
    solutions = list(islice(solver(a, b, stats, **kw), 30))
    return solutions, stats["nodes"]


@st.composite
def closure_projector_pairs(draw):
    """The closure projectors of an LCD code over Z_k, k in {2, 3, 5, 6,
    10}, and of a signed permutation of it or of an independent code,
    with their closure mode.  A code of random rows that is not LCD is
    replaced by a free LCD code of the same shape."""
    k = draw(st.sampled_from([2, 3, 5, 6, 10]))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))

    def code():
        row = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=m, max_size=m))
        c = code_from_rows(k, rows, n)
        return c if is_lcd(c) else random_free_lcd(k, n, m, seed=draw(st.integers(0, 2**32)))

    c1 = code()
    if draw(st.booleans()):
        sigma = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        c2 = apply_signed_perm(c1, sigma, signs)
    else:
        c2 = code()
    return closure_projection(c1), closure_projection(c2), closure_mode(k)


class TestRefinement:
    """The solver against the search that refines every node from
    scratch on the full matrices, and its refinement against the
    full-matrix rounds."""

    @settings(max_examples=300, deadline=None)
    @given(graph_pairs())
    @example((2, circulant_graph(2, 6, {1}), circulant_graph(2, 6, {2})))  # C6, two triangles
    @example((2, *DISCRETE_UNCONFIRMED))  # only the leaf check rejects this bijection
    def test_search_is_unchanged_under_the_oracle(self, pair):
        k, a, b = pair
        assert first_solutions(solve_weighted_gi, a, b) == first_solutions(
            weighted_gi_by_full_refinement, a, b
        )

    @settings(max_examples=150, deadline=None)
    @given(closure_projector_pairs())
    def test_closure_search_matches_the_full_refinement(self, pair):
        p1, p2, mode = pair
        assert first_solutions(solve_weighted_gi, p1, p2, closure=mode) == first_solutions(
            weighted_gi_by_full_refinement, p1, p2
        )

    @settings(max_examples=50, deadline=None)
    @given(closure_projector_pairs())
    def test_sign_flip_is_an_automorphism_of_closure_projectors(self, pair):
        p1, p2, mode = pair
        size = p1.rows
        orbits = equiv._flip_orbits(size, mode)
        flip = [
            next((w for w in range(size) if orbits[w] == orbits[v] and w != v), v)
            for v in range(size)
        ]
        assert sorted(flip) == list(range(size)) and flip != list(range(size))
        for a in (p1.entries, p2.entries):
            assert all(a[flip[i]][flip[j]] == a[i][j] for i in range(size) for j in range(size))

    def test_child_whose_first_split_is_not_final(self, monkeypatch):
        # In C6, individualizing 0 splits off its neighbours 1 and 5; only
        # the round after that separates 3 from 2 and 4.
        g = circulant_graph(2, 6, {1})
        rounds = []
        real = equiv._refine

        def counted(*args):
            rounds.append(args[2])
            return real(*args)

        monkeypatch.setattr(equiv, "_refine", counted)
        got = first_solutions(solve_weighted_gi, g, g)
        assert len(rounds) > 1 and rounds[1] == [0, 1, 2, 2, 2, 1]
        assert got == first_solutions(weighted_gi_by_full_refinement, g, g)
        assert len(got[0]) == 12  # the dihedral group of the hexagon

    @settings(max_examples=300, deadline=None)
    @given(graph_pairs(), st.data())
    def test_refine_matches_the_oracle(self, pair, data):
        k, a, b = pair
        n = a.rows
        palette = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        colors1 = data.draw(palette)
        colors2 = data.draw(st.permutations(colors1)) if data.draw(st.booleans()) else data.draw(palette)
        a1, a2 = a.entries, b.entries
        got = equiv._refine(
            equiv._neighbours(a1), equiv._neighbours(a2), colors1, colors2, k
        )
        expect = refine_on_matrices(a1, a2, colors1, colors2, n)
        if got == expect:
            return
        # Only a discrete coloring returns without its confirming round,
        # which may reject the bijection; the leaf's full-matrix check
        # rejects that bijection too.
        assert expect is None
        new1, new2 = got
        assert new1 == list(range(n))
        perm = [new2.index(c) for c in new1]
        assert any(a1[i][j] != a2[perm[i]][perm[j]] for i in range(n) for j in range(n))

    def test_signature_encoding_keeps_colors_apart(self):
        # Vertices 2 and 3 see (color 0, weight 2) and (color 1, weight 1):
        # different pairs whose color + weight would collide.
        a = ((0, 0, 2, 0), (0, 0, 0, 1), (2, 0, 0, 0), (0, 1, 0, 0))
        colors = [0, 1, 2, 2]
        nbrs = equiv._neighbours(a)
        got = equiv._refine(nbrs, nbrs, colors, colors, 3)
        assert got == refine_on_matrices(a, a, colors, colors, 4) == ([0, 1, 2, 3], [0, 1, 2, 3])

    def test_discrete_coloring_skips_the_confirming_round(self):
        a1, a2 = (m.entries for m in DISCRETE_UNCONFIRMED)
        colors1, colors2 = [0, 0, 0, 1, 0], [0, 1, 0, 0, 0]
        assert refine_on_matrices(a1, a2, colors1, colors2, 5) is None
        got = equiv._refine(equiv._neighbours(a1), equiv._neighbours(a2), colors1, colors2, 2)
        assert got == ([0, 1, 2, 3, 4], [0, 3, 4, 2, 1])
        stats = {}
        assert list(solve_weighted_gi(*DISCRETE_UNCONFIRMED, stats)) == []
        assert stats["nodes"] == 1


class TestWeightedGi:
    def test_solver_matches_brute_force_on_random_pairs(self):
        rng = random.Random(411)
        for _ in range(60):
            n = rng.randrange(1, 6)
            k = rng.choice([2, 3, 5, 6])
            g1 = random_symmetric(k, n, rng)
            if rng.randrange(2):
                p = list(range(n))
                rng.shuffle(p)
                g2 = conjugate(g1, p)
            else:
                g2 = random_symmetric(k, n, rng)
            found = set(solve_weighted_gi(g1, g2))
            assert found == brute_gi(g1, g2)

    def test_solutions_are_exact_even_with_zero_weights(self):
        # 0 is a non-edge during refinement but still a constraint.
        a = ModMatrix.from_rows(5, [[1, 0, 2], [0, 1, 2], [2, 2, 1]])
        b = ModMatrix.from_rows(5, [[1, 2, 2], [2, 1, 0], [2, 0, 1]])
        found = set(solve_weighted_gi(a, b))
        assert found == brute_gi(a, b)
        for p in found:
            assert a.entries[0][1] == b.entries[p[0]][p[1]]

    def test_deterministic_order(self):
        g = ModMatrix.from_rows(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        first = list(solve_weighted_gi(g, g))
        second = list(solve_weighted_gi(g, g))
        assert first == second
        assert len(first) == 6  # full symmetric group on a clique

    def test_stats_counts_nodes(self):
        g = ModMatrix.from_rows(3, [[0, 1], [1, 0]])
        stats = {}
        list(solve_weighted_gi(g, g, stats))
        assert stats["nodes"] >= 1

    def test_node_budget_ends_the_search(self, monkeypatch):
        # The clique's six automorphisms take more than five search nodes.
        g = ModMatrix.from_rows(3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        monkeypatch.setattr(equiv, "GI_NODE_BUDGET", 5)
        with pytest.raises(ExtractionExhausted):
            list(solve_weighted_gi(g, g))

    def test_mismatched_sizes_yield_nothing(self):
        g1 = ModMatrix.from_rows(3, [[1]])
        g2 = ModMatrix.from_rows(3, [[1, 0], [0, 1]])
        assert list(solve_weighted_gi(g1, g2)) == []


class TestSignedPerm:
    def test_validation(self):
        with pytest.raises(ParseError):
            SignedPerm((0, 0), (1, 1))
        with pytest.raises(ParseError):
            SignedPerm((0, 1), (1, 2))
        with pytest.raises(ParseError):
            SignedPerm((0, 1), (1,))

    def test_apply_matches_code_action(self):
        c = code_from_rows(5, [[1, 2, 3]])
        s = SignedPerm((1, 2, 0), (1, -1, 1))
        assert s.apply_to(c) == apply_signed_perm(c, s.sigma, s.signs)


class TestExtraction:
    def test_single_pair_swap_is_a_sign_flip(self):
        # Swapping the +x / -x slots of one coordinate negates it.
        s = extract_signed_perm((1, 0), 1, "signed")
        assert s == SignedPerm((0,), (-1,))

    def test_pair_exchange_is_a_plain_swap(self):
        s = extract_signed_perm((2, 3, 0, 1), 2, "signed")
        assert s == SignedPerm((1, 0), (1, 1))

    def test_identity_folds_to_identity(self):
        s = extract_signed_perm((0, 1, 2, 3), 2, "signed")
        assert s == SignedPerm((0, 1), (1, 1))

    def test_pair_breaking_permutation_is_structural_mismatch(self):
        assert extract_signed_perm((0, 2, 1, 3), 2, "signed") is None

    def test_extended_mode_requires_block_split(self):
        # Sends an interleaved slot into the tail block.
        assert extract_signed_perm((4, 1, 2, 3, 0, 5), 2, "extended") is None
        s = extract_signed_perm((0, 1, 2, 3, 4, 5), 2, "extended")
        assert s == SignedPerm((0, 1), (1, 1))

    def test_extended_pair_logic_uses_first_block(self):
        # w_0 reads slot 3 = -z_1 and w_1 reads slot 0 = +z_0.
        s = extract_signed_perm((3, 2, 0, 1, 5, 4), 2, "extended")
        assert s == SignedPerm((1, 0), (1, -1))

    def test_wrong_length_raises(self):
        with pytest.raises(DimensionMismatch):
            extract_signed_perm((0, 1, 2), 2, "signed")
        with pytest.raises(ValueError):
            extract_signed_perm((0, 1), 1, "nonsense")

    def test_fold_matches_closure_action(self):
        # Folding the closure image of a signed perm recovers that perm.
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randrange(1, 5)
            sigma = list(range(n))
            rng.shuffle(sigma)
            signs = [rng.choice([1, -1]) for _ in range(n)]
            # Closure coordinates: pair i holds (+x_i, -x_i), so coordinate
            # i feeding target j with sign e sends slot 2i to 2j (e = +1)
            # or 2j + 1 (e = -1).
            p = [0] * (2 * n)
            for i in range(n):
                j = sigma.index(i)
                off = 0 if signs[j] == 1 else 1
                p[2 * i] = 2 * j + off
                p[2 * i + 1] = 2 * j + 1 - off
            s = extract_signed_perm(tuple(p), n, "signed")
            assert s == SignedPerm(tuple(sigma), tuple(signs))


class TestPep:
    def test_coordinate_swap_is_found(self):
        c1 = code_from_rows(5, [[1, 0]])
        c2 = code_from_rows(5, [[0, 1]])
        res = pep(c1, c2)
        assert res.outcome == "found"
        assert res.perm.signs == (1, 1)
        assert res.perm.apply_to(c2) == c1

    def test_sign_flip_is_not_permutation_equivalence(self):
        c1 = code_from_rows(5, [[1, 1]])
        c2 = code_from_rows(5, [[1, 4]])
        assert pep(c1, c2).outcome == "not_equivalent"
        assert spep(c1, c2).outcome == "found"

    def test_matches_brute_force_on_corpus(self):
        rng = random.Random(2024)
        checked_found = checked_not = 0
        while checked_found < 25 or checked_not < 25:
            k = rng.choice([2, 3, 5, 6])
            n = rng.randrange(2, 5)
            m = rng.randrange(1, n + 1)
            try:
                c1 = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
            except Exception:
                continue
            if rng.randrange(2):
                sigma = list(range(n))
                rng.shuffle(sigma)
                c2 = apply_signed_perm(c1, sigma, [1] * n)
                c2 = LinearCode.from_dict(c2.to_dict())
            else:
                try:
                    c2 = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
                except Exception:
                    continue
            expected = brute_force_pep(c1, c2)
            got = pep(c1, c2)
            assert got.outcome == expected.outcome
            if got.outcome == "found":
                assert got.perm.apply_to(c2) == c1
                checked_found += 1
            else:
                checked_not += 1

    def test_requires_free_lcd(self):
        # <(1,2)> over Z_5 is self-orthogonal, so it has no projector.
        with pytest.raises(NotLcd):
            pep(code_from_rows(5, [[1, 2]]), code_from_rows(5, [[1, 0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pep(code_from_rows(5, [[1, 0]]), code_from_rows(5, [[1]]))
        with pytest.raises(DimensionMismatch):
            pep(code_from_rows(5, [[1, 0]]), code_from_rows(3, [[1, 0]]))


class TestSpep:
    def test_sign_flip_over_z3(self):
        c1 = code_from_rows(3, [[1, 1]])
        c2 = code_from_rows(3, [[1, 2]])
        res = spep(c1, c2)
        assert res.outcome == "found"
        assert res.perm.apply_to(c2) == c1
        assert -1 in res.perm.signs

    def test_sign_flip_over_z6_uses_extended_closure(self):
        c1 = code_from_rows(6, [[1, 2]])
        c2 = code_from_rows(6, [[1, 4]])
        stats = {}
        res = spep(c1, c2, stats)
        assert res.outcome == "found"
        assert stats["mode"] == "extended"
        assert res.perm.apply_to(c2) == c1
        assert pep(c1, c2).outcome == "not_equivalent"

    def test_k2_routes_through_extended_closure(self):
        # Odd-weight rows keep the Gram determinant a unit mod 2.
        c1 = code_from_rows(2, [[1, 0, 0]])
        c2 = code_from_rows(2, [[0, 0, 1]])
        stats = {}
        res = spep(c1, c2, stats)
        assert stats["mode"] == "extended"
        assert res.outcome == "found"
        assert res.perm.apply_to(c2) == c1

    def test_code_without_projector_is_inconclusive(self):
        # <(1,2)> over Z_5 is self-orthogonal: no projector, no graph.
        c = code_from_rows(5, [[1, 2]])
        res = spep(c, c)
        assert res.outcome == "inconclusive" and res.perm is None
        assert "meets its dual" in res.reason

    def test_multiple_of_four_is_rejected(self):
        from hullattack.errors import BadModulus

        c = code_from_rows(4, [[1, 0]])
        with pytest.raises(BadModulus):
            spep(c, c)

    def test_matches_brute_force_on_corpus(self):
        rng = random.Random(555)
        checked_found = checked_not = 0
        while checked_found < 25 or checked_not < 25:
            k = rng.choice([3, 5, 2, 6])
            n = rng.randrange(2, 5)
            m = rng.randrange(1, n + 1)
            try:
                c1 = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
            except Exception:
                continue
            if rng.randrange(2):
                sigma = list(range(n))
                rng.shuffle(sigma)
                signs = [rng.choice([1, -1]) for _ in range(n)]
                c2 = apply_signed_perm(c1, sigma, signs)
            else:
                try:
                    c2 = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
                except Exception:
                    continue
            expected = brute_force_spep(c1, c2)
            got = spep(c1, c2)
            assert got.outcome == expected.outcome
            if got.outcome == "found":
                assert got.perm.apply_to(c2) == c1
                checked_found += 1
            else:
                checked_not += 1

    @pytest.mark.parametrize("k", [15, 6])
    def test_builds_no_howell_form_as_wide_as_a_closure(self, monkeypatch, k):
        # The closure projectors are expanded from the n x n projectors,
        # each read off one Howell form of [g.g^T | g] for the r Howell
        # rows g of its code, of width r + n (r = 4 or 5 here), and the
        # fold check takes one Howell form of width n.  A closure would
        # take 2n or 3n.
        n, m = 8, 4
        c1 = random_free_lcd(k, n, m, seed=3)
        c2 = apply_signed_perm(c1, [3, 1, 7, 0, 2, 6, 5, 4], [1, -1, -1, 1, 1, -1, 1, 1])
        widths = []
        real = modring._howell_rows

        def counted(rows, cols, k):
            widths.append(cols)
            return real(rows, cols, k)

        monkeypatch.setattr(modring, "_howell_rows", counted)
        res = spep(c1, c2)
        assert res.outcome == "found"
        assert set(widths) == {n, c1.gen.rows + n, c2.gen.rows + n}
        assert max(widths) < 2 * n

    def test_self_equivalence_is_identity_friendly(self):
        c = random_free_lcd(5, 4, 2, seed=8)
        res = spep(c, c)
        assert res.outcome == "found"
        assert res.perm.apply_to(c) == c


class TestBruteForce:
    def test_first_match_is_lexicographic(self):
        # The all-zero code is fixed by everything; identity comes first.
        c = code_from_rows(3, [[0, 0]])
        res = brute_force_spep(c, c)
        assert res.perm == SignedPerm((0, 1), (1, 1))

    def test_size_guard(self):
        c = code_from_rows(3, [[1] * 7])
        with pytest.raises(TooLarge):
            brute_force_spep(c, c)
        with pytest.raises(TooLarge):
            brute_force_pep(c, c)

    def test_not_equivalent(self):
        c1 = code_from_rows(5, [[1, 1]])
        c2 = code_from_rows(5, [[1, 2]])
        assert brute_force_spep(c1, c2).outcome == "not_equivalent"


class TestProjectorInvariance:
    def test_projectors_of_equivalent_codes_are_conjugate(self):
        rng = random.Random(31)
        for _ in range(20):
            k = rng.choice([3, 5])
            n = rng.randrange(2, 5)
            m = rng.randrange(1, n + 1)
            try:
                c = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
            except Exception:
                continue
            sigma = list(range(n))
            rng.shuffle(sigma)
            c2 = apply_signed_perm(c, sigma, [1] * n)
            pi1 = projection_matrix(c)
            pi2 = projection_matrix(c2)
            # sigma sends coordinate i to sigma[i], so pi2 at
            # (sigma[i], sigma[j]) must match pi1 at (i, j).
            for i in range(n):
                for j in range(n):
                    assert pi1.entries[i][j] == pi2.entries[sigma[i]][sigma[j]]

    def test_closure_projectors_detect_signed_equivalence(self):
        c1 = code_from_rows(3, [[1, 1]])
        c2 = code_from_rows(3, [[1, 2]])
        g1 = projection_matrix(signed_closure(c1))
        g2 = projection_matrix(signed_closure(c2))
        assert len(list(solve_weighted_gi(g1, g2))) > 0
