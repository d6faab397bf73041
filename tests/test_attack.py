"""End-to-end hull attack: modulus recovery, pipeline, failure modes."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hullattack.attack import (
    AttackResult,
    _assemble,
    _certificate,
    _hull_det_matches,
    _integer_root,
    _right_side,
    hull_attack,
    recover_modulus,
    verify_isomorphism,
)
from hullattack import (
    attack,
    codes,
    equiv,
    errors,
    kernels,
    lattices,
    linalg,
    modring,
    selftest,
    zlip,
)
from hullattack.cli import main as cli_main
from hullattack.codes import code_from_rows, is_lcd, random_free_lcd
from hullattack.equiv import EquivResult, SignedPerm
from hullattack.errors import (
    BadModulus,
    DimensionMismatch,
    HullAttackError,
    HullNotTrivial,
    NoCandidate,
    NotARotation,
    NotIntegral,
    SpepFailed,
    VerificationFailed,
)
from hullattack.instances import generate_instance
from hullattack.lattices import (
    GramRecord,
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
from hullattack.linalg import (
    IntMatrix,
    RatMatrix,
    bareiss_det,
    gram_solves,
    gram_triangle,
    packed_rows,
    row_products,
)
from hullattack.modring import howell_order
from hullattack.selftest import brute_force_spep
from hullattack.zlip import solve_scaled_zlip
from oracles import (
    Singular,
    det,
    fractions,
    hull_attack_trying_every_modulus,
    hull_coefficients_by_kernel,
    hull_det_matches_by_kernel,
    int_product,
    integer_gram_schmidt,
    inv_int_rows,
    lattice_equal,
    mod_reduce_to_code,
    o_hat,
    rat_inverse,
    s_hull,
    same_lattice,
    verify_isomorphism_by_dot_products,
)


def diag_lattice(entries) -> LatticeBasis:
    n = len(entries)
    rows = [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return LatticeBasis(n, RatMatrix.from_rows(rows))


def make_instance(k, n, m, seed, depth=None):
    """Two rotations of the same Construction A lattice plus the secrets."""
    rng = random.Random(seed)
    code = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
    base = construction_a(code)
    o1 = random_rational_orthogonal(n, seed=rng.randrange(10**9), depth=depth)
    o2 = random_rational_orthogonal(n, seed=rng.randrange(10**9), depth=depth)
    return rotate(base, o1), rotate(base, o2), code


class TestIntegerRoot:
    def test_exact_roots(self):
        assert _integer_root(3**7, 7) == 3
        assert _integer_root(15**4, 4) == 15
        assert _integer_root(2**40, 40) == 2
        assert _integer_root(10, 1) == 10

    def test_inexact(self):
        assert _integer_root(10, 2) is None
        assert _integer_root(3**7 + 1, 7) is None


class TestRecoverModulus:
    def test_prime_power_example(self):
        # det 9 in dimension 4: 3^2 and 9^1 both fit.
        lat = diag_lattice([9, 1, 1, 1])
        assert recover_modulus(lat) == [(3, 2), (9, 3)]

    def test_unimodular_has_no_candidates(self):
        assert recover_modulus(diag_lattice([1, 1, 1])) == []

    def test_rational_determinant_has_no_candidates(self):
        lat = LatticeBasis(
            2, RatMatrix.from_rows([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]])
        )
        assert recover_modulus(lat) == []

    def test_candidates_increase(self):
        # det 64 in dimension 4: exponents are capped at n, so 2^6 is out.
        lat = diag_lattice([4, 4, 4, 1])
        assert recover_modulus(lat) == [(4, 1), (8, 2), (64, 3)]

    def test_matches_construction_a_determinant(self):
        rng = random.Random(7)
        for _ in range(15):
            k = rng.choice([2, 3, 5, 6, 9])
            n = rng.randrange(2, 5)
            m = rng.randrange(1, n)  # m < n keeps the determinant > 1
            code = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
            cands = recover_modulus(construction_a(code))
            assert (k, m) in cands


class TestHullAttack:
    @pytest.mark.parametrize("k", [3, 5, 9, 15, 2, 6])
    def test_recovers_isomorphism(self, k):
        n, m = 4, 2
        l1, l2, _ = make_instance(k, n, m, seed=100 + k, depth=6)
        res = hull_attack(l1, l2)
        assert verify_isomorphism(l1, l2, res.o_star.matrix)
        assert lattice_equal(rotate(l2, res.o_star), l1)

    def test_supplied_modulus_matches_recovery(self):
        l1, l2, _ = make_instance(5, 4, 2, seed=11, depth=6)
        auto = hull_attack(l1, l2)
        manual = hull_attack(l1, l2, k=5)
        assert auto.o_star == manual.o_star
        assert any(e.get("supplied") for e in manual.transcript if e["step"] == "modulus")

    def test_unrotated_instance(self):
        code = random_free_lcd(3, 4, 2, seed=4)
        lat = construction_a(code)
        res = hull_attack(lat, lat)
        assert verify_isomorphism(lat, lat, res.o_star.matrix)

    def test_verify_accepts_the_witness_type(self):
        l1, l2, _ = make_instance(5, 4, 2, seed=12, depth=6)
        res = hull_attack(l1, l2)
        assert verify_isomorphism(l1, l2, res.o_star)
        assert not verify_isomorphism(l1, l2, random_rational_orthogonal(4, seed=1))
        assert not verify_isomorphism(l1, l2, random_rational_orthogonal(5, seed=1))

    def test_orthonormality_checked_once_per_witness(self, monkeypatch):
        # Only the assembled o_star: ZLIP checks U.G.U^T = k^2.den.I on the
        # hull's Gram matrix instead of building o_hat.
        l1, l2, _ = make_instance(6, 4, 2, seed=13, depth=6)
        calls = []
        check = RationalOrthogonal.__post_init__
        monkeypatch.setattr(RationalOrthogonal, "__post_init__", lambda o: calls.append(check(o)))
        hull_attack(l1, l2)
        assert len(calls) == 1

    def test_assembly_orients_a_non_involutive_permutation(self):
        # Rotated instances recover involutive sigmas, for which P = P^T; an
        # unrotated lattice and a column-cycled copy of its code do not.
        c1 = random_free_lcd(5, 6, 3, seed=1)
        rows = [[r[(j + 1) % 6] for j in range(6)] for r in c1.gen.entries]
        l1, l2 = construction_a(c1), construction_a(code_from_rows(5, rows))
        res = hull_attack(l1, l2)
        sigma = next(e["sigma"] for e in res.transcript if e["step"] == "spep")
        assert any(sigma[sigma[i]] != i for i in range(6))
        assert verify_isomorphism(l1, l2, res.o_star.matrix)

    def test_enumeration_fallback_through_the_attack(self, monkeypatch):
        # LLL hands back the identity, so ZLIP must enumerate on both hulls.
        l1, l2, _ = make_instance(5, 4, 2, seed=11, depth=6)

        def identity_transform(gram, delta_num, delta_den):
            n = len(gram)
            return [[int(i == j) for j in range(n)] for i in range(n)], *integer_gram_schmidt(gram)

        monkeypatch.setattr(zlip, "lll_gram", identity_transform)
        res = hull_attack(l1, l2)
        methods = [e["method"] for e in res.transcript if e["step"] == "zlip"]
        assert methods == ["enumeration", "enumeration"]
        assert res.transcript[-1] == {"step": "verify", "ok": True}
        assert verify_isomorphism(l1, l2, res.o_star.matrix)

    def test_deterministic(self):
        l1, l2, _ = make_instance(3, 4, 2, seed=21, depth=6)
        assert hull_attack(l1, l2).o_star == hull_attack(l1, l2).o_star

    def test_transcript_is_json_safe_and_ordered(self):
        l1, l2, _ = make_instance(6, 4, 2, seed=31, depth=6)
        res = hull_attack(l1, l2)
        steps = [e["step"] for e in res.transcript]
        assert steps == ["modulus", "hull", "zlip", "zlip", "codes", "spep", "verify"]
        json.dumps(res.to_dict())
        spep_entry = next(e for e in res.transcript if e["step"] == "spep")
        assert spep_entry["closure"] == "extended"

    def test_transcript_determinants_are_the_computed_ones(self):
        l1, l2, _ = make_instance(15, 6, 3, seed=5, depth=8)
        modulus, hull_step = hull_attack(l1, l2).transcript[:2]
        assert modulus["determinant"] == str(abs(det(l1.basis)))
        k = modulus["k"]
        assert hull_step["hull_dets"] == [str(abs(det(s_hull(l, k).basis))) for l in (l1, l2)]
        with pytest.raises(NoCandidate) as exc_info:
            hull_attack(diag_lattice([1, Fraction(1, 2)]), diag_lattice([1, Fraction(1, 2)]))
        assert exc_info.value.transcript[0]["determinant"] == "1/2"

    def test_full_code_gives_no_candidate(self):
        # m = n makes the lattice unimodular: nothing to recover.
        code = random_free_lcd(3, 3, 3, seed=2)
        lat = construction_a(code)
        with pytest.raises(NoCandidate) as exc_info:
            hull_attack(lat, lat)
        assert isinstance(exc_info.value.transcript, list)

    def test_full_code_with_supplied_k(self):
        # The hull of the full code is kZ^n, so a supplied k still works.
        code = random_free_lcd(3, 3, 3, seed=2)
        lat = construction_a(code)
        res = hull_attack(lat, lat, k=3)
        assert verify_isomorphism(lat, lat, res.o_star.matrix)

    def test_non_lcd_code_fails_hull_signature(self):
        # <(1,2)> over Z_5 is self-orthogonal-ish: Gram 1+4 = 0 mod 5.
        code = code_from_rows(5, [[1, 2, 0, 0], [0, 0, 1, 2]])
        lat = construction_a(code)
        with pytest.raises(HullNotTrivial) as exc_info:
            hull_attack(lat, lat)
        steps = [e["step"] for e in exc_info.value.transcript]
        assert steps == ["modulus"]

    def test_non_lcd_code_fails_with_supplied_k(self):
        code = code_from_rows(5, [[1, 2, 0, 0], [0, 0, 1, 2]])
        lat = construction_a(code)
        with pytest.raises(HullNotTrivial):
            hull_attack(lat, lat, k=5)

    def test_multiple_of_four_modulus_rejected(self):
        lat = diag_lattice([4, 1, 1])
        with pytest.raises(BadModulus):
            hull_attack(lat, lat, k=4)

    def test_wrong_supplied_modulus(self):
        l1, l2, _ = make_instance(3, 4, 2, seed=41, depth=6)
        with pytest.raises(HullNotTrivial):
            hull_attack(l1, l2, k=7)

    # (k, n, m, seed, supplied k): perfbench's wrong_k reject items.
    @pytest.mark.parametrize(
        "k,n,m,seed,supplied", [(5, 12, 6, 1, 3), (10, 12, 6, 1, 6), (3, 16, 8, 1, 5)]
    )
    def test_wrong_supplied_modulus_takes_no_howell_form(
        self, monkeypatch, k, n, m, seed, supplied
    ):
        # k^n / |det L| is not an integer, so no hull index can match.
        inst = generate_instance(k, n, m, seed)
        l1, l2 = (LatticeBasis.from_dict(lat.to_dict()) for lat in (inst.l1, inst.l2))
        with pytest.raises(HullNotTrivial) as expected:
            hull_attack_trying_every_modulus(l1, l2, k=supplied)
        forms = []
        real = modring._howell_rows

        def counted(rows, cols, k):
            forms.append(cols)
            return real(rows, cols, k)

        monkeypatch.setattr(modring, "_howell_rows", counted)
        with pytest.raises(HullNotTrivial) as got:
            hull_attack(l1, l2, k=supplied)
        assert str(got.value) == str(expected.value)
        assert got.value.transcript == expected.value.transcript
        assert forms == []

    def test_non_equivalent_codes_fail_spep(self):
        rng = random.Random(77)
        found = False
        while not found:
            c1 = random_free_lcd(5, 4, 2, seed=rng.randrange(10**9))
            c2 = random_free_lcd(5, 4, 2, seed=rng.randrange(10**9))
            if brute_force_spep(c1, c2).outcome != "not_equivalent":
                continue
            found = True
        o1 = random_rational_orthogonal(4, seed=5, depth=6)
        o2 = random_rational_orthogonal(4, seed=6, depth=6)
        l1 = rotate(construction_a(c1), o1)
        l2 = rotate(construction_a(c2), o2)
        with pytest.raises(SpepFailed) as exc_info:
            hull_attack(l1, l2)
        steps = [e["step"] for e in exc_info.value.transcript]
        assert "spep" in steps

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hull_attack(diag_lattice([3, 1]), diag_lattice([3, 1, 1]))


class TestVerifyIsomorphism:
    def test_accepts_true_witness(self):
        l1, l2, _ = make_instance(3, 3, 1, seed=51, depth=4)
        res = hull_attack(l1, l2)
        assert verify_isomorphism(l1, l2, res.o_star.matrix)

    def test_rejects_non_orthogonal(self):
        lat = diag_lattice([3, 1])
        m = RatMatrix.from_rows([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])
        assert not verify_isomorphism(lat, lat, m)

    def test_rejects_wrong_lattice(self):
        l1 = diag_lattice([3, 1])
        l2 = diag_lattice([1, 3])
        ident = RatMatrix.identity(2)
        assert not verify_isomorphism(l1, l2, ident)
        swap = RatMatrix.from_rows([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        assert verify_isomorphism(l1, l2, swap)

    def test_rejects_an_orthonormal_map_that_is_no_symmetry(self):
        # O* = [[3/5, 4/5], [-4/5, 3/5]] maps Z^2 to a lattice with T = O*^T:
        # integral once the witness denominator 5 is dropped, yet not Z^2.
        lat = diag_lattice([1, 1])
        o = RatMatrix.from_rows([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
        assert not verify_isomorphism(lat, lat, o)

    def test_rejects_shape_mismatch(self):
        l1 = diag_lattice([3, 1])
        assert not verify_isomorphism(l1, diag_lattice([3, 1, 1]), RatMatrix.identity(2))
        assert not verify_isomorphism(l1, l1, RatMatrix.identity(3))

    def test_rejects_unimodular_change_of_basis_that_is_not_integral(self):
        # T = [[1, 1/2], [0, 1]] has det 1, but L2 holds (1, 1/2), which L1 = Z^2 does not.
        l1 = diag_lattice([1, 1])
        l2 = LatticeBasis(2, RatMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]]))
        assert not verify_isomorphism(l1, l2, RatMatrix.identity(2))
        assert not verify_isomorphism(l2, l1, RatMatrix.identity(2))

    def test_rejects_integral_change_of_basis_with_det_two(self):
        # T = diag(1, 2) . I . I^-1 is integral, but L2 has index 2 in L1.
        l1, l2 = diag_lattice([1, 1]), diag_lattice([1, 2])
        assert not verify_isomorphism(l1, l2, RatMatrix.identity(2))
        assert not verify_isomorphism(l2, l1, RatMatrix.identity(2))

    def test_singular_l1_is_rejected_without_raising(self):
        # Only parsing checks rank, so a directly built L1 may be singular.
        l1 = LatticeBasis(2, RatMatrix.from_rows([[1, 2], [2, 4]]))
        assert not verify_isomorphism(l1, diag_lattice([1, 1]), RatMatrix.identity(2))
        assert not verify_isomorphism(l1, l1, RatMatrix.identity(2))

    def test_calls_no_hnf(self, monkeypatch):
        # The HNF by elimination left the library (tests/oracles.py keeps
        # it as an oracle), so no path can reach it; the Howell kernel that
        # replaced it is refused inside verify.  The other routes to
        # lattice membership and equality left too (the oracles keep them
        # as well), so `verify_isomorphism` is the one left, and so did
        # the API that no command called.  The projector reads (G.G^T)^-1.G
        # off one Howell form, so the inverse mod k left with its two paths.
        # ZLIP enumerates on LLL's integer Gram-Schmidt data, so the
        # Fraction Gram-Schmidt and enumeration left.  The verifier solves
        # on the Gram elimination parsing keeps, so the Bareiss inverse left.
        # One coordinate list defines the closure, so its matrices left.
        gone = {
            "hnf_rows", "hnf", "canonical_basis", "same_lattice", "rat_inverse", "dual_basis",
            "det", "mod_reduce_to_code", "integral_rotation", "s_hull", "lattice_equal",
            "DoesNotContainKZn", "NotSymmetric", "WeightedGraph", "graph_from_projection",
            "inverse_mod", "_inverse_by_elimination", "NotAUnit",
            "gram_schmidt", "enumerate_short_vectors", "inv_int_rows", "gram_det",
            "ClosureMatrices", "closure_matrices", "_inherit_closure", "signed_closure",
            "extended_signed_closure",
        }
        modules = (attack, codes, equiv, errors, kernels, lattices, linalg, modring, selftest, zlip)
        for mod in modules:
            assert not gone & set(vars(mod)), mod.__name__
        gone_attributes = {
            LatticeBasis: ("_inverse", "contains"),
            GramRecord: ("inverse",),
            RatMatrix: ("scale", "is_integral", "to_int", "clear_denominators"),
            IntMatrix: ("to_dict", "from_dict", "to_rat"),
            SignedPerm: ("identity", "to_dict", "from_dict"),
            EquivResult: ("to_dict", "from_dict"),
            modring.ModMatrix: ("identity", "stack"),
        }
        for cls, names in gone_attributes.items():
            assert not [name for name in names if hasattr(cls, name)], cls.__name__
        l1, l2, _ = make_instance(15, 6, 3, seed=71, depth=8)
        res = hull_attack(l1, l2)

        def refuse(*args):
            raise AssertionError("verify_isomorphism reached the Howell kernel")

        monkeypatch.setattr(modring, "_howell_rows", refuse)
        assert verify_isomorphism(l1, l2, res.o_star.matrix)
        assert verify_isomorphism(l1, l2, res.o_star)
        assert not verify_isomorphism(l1, l2, random_rational_orthogonal(6, seed=3))


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def verify_cases(draw):
    """(L1, L2, O) with L2 = U . B1 . O'.  U is unimodular, unimodular with
    a non-integral entry, or of det +-2; B1 is rational and may be
    singular; O' is orthonormal, and O is O' or another orthonormal
    matrix, or O' spoiled so that it is not orthonormal."""
    n = draw(st.integers(1, 4))
    b1 = RatMatrix.from_rows([[draw(small_rationals) for _ in range(n)] for _ in range(n)])
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-2, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    kind = draw(st.sampled_from(["unimodular", "non_integral", "det2"]))
    if kind == "non_integral" and n > 1:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        j += j >= i
        u[i] = [x + Fraction(1, 2) * y for x, y in zip(u[i], u[j])]
    elif kind == "det2":
        i = draw(st.integers(0, n - 1))
        u[i] = [draw(st.sampled_from([2, -2])) * x for x in u[i]]
    o_true = random_rational_orthogonal(n, seed=draw(st.integers(0, 99)), depth=2 * n).matrix
    l1 = LatticeBasis(n, b1)
    l2 = LatticeBasis(n, RatMatrix.from_rows(u).mul(b1).mul(o_true))
    witness = draw(st.sampled_from(["true", "other", "scaled", "sheared"]))
    if witness == "other":
        o = random_rational_orthogonal(n, seed=draw(st.integers(100, 199))).matrix
    elif witness == "scaled":
        o = RatMatrix.over([[2 * x for x in row] for row in o_true.num], o_true.den)
    elif witness == "sheared":
        rows = [list(r) for r in fractions(o_true)]
        rows[0][0] += 1
        o = RatMatrix.from_rows(rows)
    else:
        o = o_true
    return l1, l2, o


def rational_product_verdict(l1, l2, o) -> bool:
    """The verifier that formed B2 . o^T . B1^T as two `RatMatrix`
    products before testing T = (B2 . o^T . B1^T) . den . G1^-1, with
    G1^-1 from the reference Bareiss inverse."""
    try:
        o = RationalOrthogonal(o)
    except NotARotation:
        return False
    if not l1.n == l2.n == o.n or l1.abs_det == 0 or l1.abs_det != l2.abs_det:
        return False
    image = l2.basis.mul(o.matrix.transpose()).mul(l1.basis.transpose())
    p, dp = image.num, image.den
    g, den = l1.gram_record.cleared
    ginv, q = inv_int_rows(g)
    return all(
        den * sum(x * y for x, y in zip(row, col)) % (dp * q) == 0 for row in p for col in ginv
    )


def old_verdict(l1, l2, o) -> bool:
    """The verifier before Gram records: o orthonormal and
    T = (B2 . o^T) . B1^-1 integral with |det T| = 1 (`same_lattice`)."""
    try:
        RationalOrthogonal(o)
        return same_lattice(l2.basis.mul(o.transpose()), l1.basis)
    except (NotARotation, Singular):
        return False


class TestVerifierEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(verify_cases())
    def test_matches_same_lattice_verdict(self, case):
        # Also the verdict of the rational-product verifier it replaced.
        l1, l2, o = case
        verdict = verify_isomorphism(l1, l2, o)
        assert verdict is old_verdict(l1, l2, o)
        assert verdict is rational_product_verdict(l1, l2, o)


class TestCertificateFreeVerify:
    """The solve at the sizes benchmarked: large-verify's n = 16 items
    (k = 15, seeds 1 and 3) and n = 32, on lattices parsed from the
    public JSON, as `hullattack verify` reads them."""

    @pytest.mark.parametrize("k,n,m,seed", [(15, 16, 8, 1), (15, 16, 8, 3), (3, 32, 16, 1)])
    def test_accepts_the_witness_and_rejects_wrong_ones(self, k, n, m, seed):
        inst = generate_instance(k, n, m, seed)
        l1, l2 = parsed_public(inst)
        o_star = hull_attack(l1, l2).o_star.matrix
        assert verify_isomorphism(l1, l2, o_star)
        turned = o_star.mul(random_rational_orthogonal(n, seed=seed + 100).matrix)
        assert not verify_isomorphism(l1, l2, turned)
        # The secrets of two independent codes: O1 of this instance and
        # O2 of another, whose |det L| is the same k^(n - m).
        other = generate_instance(k, n, m, seed + 1)
        _, l2_other = parsed_public(other)
        assert l2_other.abs_det == l1.abs_det
        assert verify_isomorphism(l1, l2, inst.o1.matrix.mul(inst.o2.matrix.transpose()))
        crossed = inst.o1.matrix.mul(other.o2.matrix.transpose())
        assert not verify_isomorphism(l1, l2_other, crossed)


def perm_rotation(s: SignedPerm) -> RatMatrix:
    """M_s^T for the signed permutation matrix M_s[i][sigma[i]] = signs[i]."""
    rows = [[0] * s.n for _ in range(s.n)]
    for i in range(s.n):
        rows[s.sigma[i]][i] = s.signs[i]
    return RatMatrix.from_rows(rows)


@st.composite
def transform_cases(draw):
    """An instance over one of k = 2, 6, 9, 15, 3, 5 at n = 3 to 7 and a
    random signed permutation.  k = 9 proposes the losing modulus 3
    first, and every candidate's hull is compared."""
    k = draw(st.sampled_from([2, 6, 9, 15, 3, 5]))
    n = draw(st.integers(3, 7))
    m = draw(st.integers(1, n - 1))
    inst = generate_instance(k, n, m, seed=draw(st.integers(0, 10**6)))
    sigma = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return inst, SignedPerm(tuple(sigma), tuple(signs))


class TestIntegerTransformEquivalence:
    """Each integer transform of the attack equals the rational matrix
    product it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(transform_cases())
    def test_integer_transforms_match_rational_products(self, case):
        inst, s = case
        k = inst.k
        frames, o_hats = [], []
        for lattice in (inst.l1, inst.l2):
            for cand, _m in recover_modulus(lattice):
                coeff = hull_coefficients(lattice, cand)
                assert sublattice_gram(lattice, coeff) == s_hull(lattice, cand).gram_record.cleared
            coeff = _hull_det_matches(lattice, k, [], "")
            sol = solve_scaled_zlip(sublattice_gram(lattice, coeff), k)
            o = o_hat(sol, s_hull(lattice, k).basis)  # passes RationalOrthogonal
            frame = sol.u.mul(coeff)
            assert RatMatrix(rotated_rows(lattice, frame, k).entries) == rotate(lattice, o).basis
            frames.append(frame)
            o_hats.append(o.matrix)
        old = o_hats[0].transpose().mul(perm_rotation(s)).mul(o_hats[1])
        assert _assemble(inst.l1, inst.l2, *frames, s, k).matrix == old


@st.composite
def hull_test_lattices(draw, moduli=(2, 3, 5, 6, 9, 10, 15), generated=True):
    """(k, [L1, L2]) for a generated instance over k, or for a code of
    random rows over Z_k that is not LCD, rotated twice."""
    k = draw(st.sampled_from(moduli))
    n = draw(st.integers(3, 7))
    m = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 10**6))
    if generated and draw(st.booleans()):
        inst = generate_instance(k, n, m, seed=seed)
        return k, [inst.l1, inst.l2]
    rng = random.Random(seed)
    for _ in range(200):
        code = code_from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(m)], n)
        if not is_lcd(code):
            break
    else:
        assume(False)
    base = construction_a(code)
    return k, [rotate(base, random_rational_orthogonal(n, seed=rng.randrange(10**9))) for _ in "12"]


@settings(max_examples=150, deadline=None)
@given(hull_test_lattices())
def test_hull_test_matches_the_kernel_route(case):
    # Every modulus the attack could try, and k itself where the
    # determinant does not propose it: the same verdict and the same C,
    # and a refusal exactly where the hull determinant falls below q^n.
    k, lats = case
    for lattice in lats:
        for q in {cand for cand, _m in recover_modulus(lattice)} | {k}:
            coeff = hull_coefficients_by_kernel(lattice, q)
            hull_det = prod(row[i] for i, row in enumerate(coeff.entries)) * lattice.abs_det
            if hull_det < q**lattice.n:
                with pytest.raises(HullNotTrivial, match="^refused$") as info:
                    _hull_det_matches(lattice, q, [{"step": "modulus"}], "refused")
                assert info.value.transcript == [{"step": "modulus"}]
            else:
                got = _hull_det_matches(lattice, q, [], "")
                assert got == hull_det_matches_by_kernel(lattice, q)


@st.composite
def attack_inputs(draw):
    """(L1, L2, k) for `hull_attack`: a pair of `hull_test_lattices`, or
    of a code over k = 9, 25 or 27 that is not LCD, so that a candidate
    below k is proposed; each lattice shrunk by 1 or by the least prime
    p of k, which divides its Gram matrix by p^2 (a record over den > 1)
    and keeps |det L| an integer when p^n divides it; k supplied or not."""
    k, lats = draw(
        st.one_of(
            hull_test_lattices(),
            hull_test_lattices(moduli=(9, 25, 27), generated=False),
        )
    )
    p = next(d for d in range(2, k + 1) if k % d == 0)
    shrinks = draw(st.lists(st.sampled_from([1, p]), min_size=2, max_size=2))
    l1, l2 = (
        LatticeBasis(lat.n, RatMatrix.over(lat.basis.num, lat.basis.den * c))
        for lat, c in zip(lats, shrinks)
    )
    return l1, l2, draw(st.one_of(st.none(), st.just(k), st.integers(2, 30)))


def attack_outcome(attack_fn, l1, l2, k):
    """The result and certificate of an attack, or its error's type,
    message and transcript."""
    try:
        res = attack_fn(l1, l2, k)
    except HullAttackError as exc:
        return type(exc), str(exc), exc.transcript
    return res.to_dict(), res.certificate


def cut_at_hull_of_multiple_of_four(outcome):
    """An error outcome whose transcript accepted a hull at k = 0 mod 4,
    with the transcript cut after that hull step, where the attack now
    refuses; any other outcome as it is."""
    if isinstance(outcome[0], type):
        steps = outcome[2]
        at = next((i for i, e in enumerate(steps) if e["step"] == "hull"), None)
        if at is not None and steps[at]["k"] % 4 == 0:
            return outcome[:2] + (steps[: at + 1],)
    return outcome


@settings(max_examples=200, deadline=None)
@given(attack_inputs())
def test_attack_matches_the_attack_trying_every_modulus(case):
    # Ending the search at the first hull index too large for its
    # candidate never changes what the attack returns or raises.
    l1, l2, k = case
    assert attack_outcome(hull_attack, l1, l2, k) == cut_at_hull_of_multiple_of_four(
        attack_outcome(hull_attack_trying_every_modulus, l1, l2, k)
    )


@st.composite
def lcd_pairs_over_multiples_of_four(draw):
    """Two rotated Construction A lattices of free LCD codes of one rank
    over Z_k, k = 4, 8 or 12: the same code or two independent draws."""
    k = draw(st.sampled_from([4, 8, 12]))
    n = draw(st.integers(4, 8))
    m = draw(st.integers(1, n - 1))
    rng = random.Random(draw(st.integers(0, 10**6)))
    c1 = random_free_lcd(k, n, m, seed=rng.randrange(10**9))
    c2 = c1 if draw(st.booleans()) else random_free_lcd(k, n, m, seed=rng.randrange(10**9))
    return tuple(
        rotate(construction_a(c), random_rational_orthogonal(n, seed=rng.randrange(10**9)))
        for c in (c1, c2)
    )


@settings(max_examples=60, deadline=None)
@given(lcd_pairs_over_multiples_of_four())
def test_multiple_of_four_refused_before_zlip(pair):
    # An accepted candidate k = 0 mod 4 ends in the error SPEP raised when
    # ZLIP and code extraction ran before it, with a transcript that
    # stops at the hull.
    l1, l2 = pair
    got = attack_outcome(hull_attack, l1, l2, None)
    expected = attack_outcome(hull_attack_trying_every_modulus, l1, l2, None)
    assert got == cut_at_hull_of_multiple_of_four(expected)
    assert got[0] is SpepFailed and [e["step"] for e in got[2]] == ["modulus", "hull"]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(1, 12), st.integers(1, 8))
def test_candidate_moduli_divide_each_other(base, power, n):
    # q^e = q'^e' = |det L| makes q and q' powers of one integer, so
    # each candidate divides the next.
    qs = [q for q, _m in recover_modulus(diag_lattice([base**power] + [1] * (n - 1)))]
    assert qs and all(b % a == 0 for a, b in zip(qs, qs[1:]))


@settings(max_examples=150, deadline=None)
@given(attack_inputs())
def test_gcd_product_never_falls_along_the_candidates(case):
    # (q.den)^n / [L : hull] = prod gcd(s_i, q.den) over the Smith
    # invariants s_i of G, on either lattice at the candidates of L1; the
    # hull test asks it to equal den^n.|det L| at every q, so once it is
    # larger no later candidate can pass.
    l1, l2, _k = case
    qs = [q for q, _m in recover_modulus(l1)]
    for lattice in (l1, l2):
        den = lattice.gram_record.cleared[1]
        products = []
        for q in qs:
            big, index = (q * den) ** lattice.n, howell_order(gram_row_module(lattice, q))
            assert big % index == 0
            products.append(big // index)
        assert products == sorted(products)


def frame(lattice, k):
    """T = U.C: the frame T.B of k Z^n found by the attack's hull and ZLIP."""
    coeff = _hull_det_matches(lattice, k, [], "")
    return solve_scaled_zlip(sublattice_gram(lattice, coeff), k).u.mul(coeff)


def exact_change_of_basis(l1, l2, o) -> RatMatrix:
    """T = B2 . o^T . B1^-1 in rationals, for a nonsingular B1."""
    return l2.basis.mul(o.transpose()).mul(rat_inverse(l1.basis))


class TestChangeOfBasisCertificate:
    @pytest.mark.parametrize("k", [2, 3, 5, 6, 9, 10, 15])
    @pytest.mark.parametrize("n,m,seed", [(8, 4, 1), (12, 6, 2)])
    def test_rotated_basis_inverts_to_frame_over_k(self, k, n, m, seed):
        # R.(T/k) = (T/k).R = I, so the rotated lattice contains k Z^n and
        # its code reads the same as through the kZ^n check on B^-1.
        inst = generate_instance(k, n, m, seed=seed)
        k_identity = IntMatrix.from_rows([[k * int(i == j) for j in range(n)] for i in range(n)])
        for lattice in (inst.l1, inst.l2):
            t = frame(lattice, k)
            r = rotated_rows(lattice, t, k)
            assert r.mul(t) == t.mul(r) == k_identity
            code = codes.from_generator(modring.ModMatrix.from_rows(k, r.entries, n))
            assert code == mod_reduce_to_code(LatticeBasis(n, RatMatrix(r.entries)), k)

    @pytest.mark.parametrize("k", [2, 6, 9, 15])
    def test_certificate_is_the_unimodular_change_of_basis(self, k):
        inst = generate_instance(k, 8, 4, seed=3)
        res = hull_attack(inst.l1, inst.l2)
        cert = res.certificate
        assert RatMatrix(cert.entries) == exact_change_of_basis(inst.l1, inst.l2, res.o_star.matrix)
        assert abs(bareiss_det(cert.entries)) == 1
        assert verify_isomorphism(inst.l1, inst.l2, res.o_star, cert)

    def test_rejects_a_certificate_off_by_one(self):
        inst = generate_instance(15, 8, 4, seed=1)
        res = hull_attack(inst.l1, inst.l2)
        rng = random.Random(5)
        for _ in range(8):
            rows = [list(r) for r in res.certificate.entries]
            rows[rng.randrange(8)][rng.randrange(8)] += rng.choice([1, -1])
            spoiled = IntMatrix.from_rows(rows)
            assert not verify_isomorphism(inst.l1, inst.l2, res.o_star, spoiled)

    def test_rejects_a_certificate_of_the_wrong_shape(self):
        inst = generate_instance(15, 8, 4, seed=1)
        res = hull_attack(inst.l1, inst.l2)
        short = IntMatrix(res.certificate.entries[:7])
        assert not verify_isomorphism(inst.l1, inst.l2, res.o_star, short)

    def test_rejects_a_non_integral_certificate(self):
        # L1 = 2Z x Z and L2 = Z x 2Z: under o = I the exact change of
        # basis is diag(1/2, 2), which satisfies T.B1 = B2 and has det 1.
        # A certificate is an integer matrix, so this T cannot be passed;
        # its numerator diag(1, 4) fails T.B1 = B2.
        l1, l2 = diag_lattice([2, 1]), diag_lattice([1, 2])
        ident = RatMatrix.identity(2)
        t = exact_change_of_basis(l1, l2, ident)
        assert t == RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
        assert not verify_isomorphism(l1, l2, ident, IntMatrix(t.num))
        assert not verify_isomorphism(l1, l2, ident)
        swap = RatMatrix.from_rows([[0, 1], [1, 0]])
        t = exact_change_of_basis(l1, l2, swap)
        assert t.den == 1
        assert verify_isomorphism(l1, l2, swap, IntMatrix(t.num))

    def test_rejects_lattices_of_unequal_determinant(self):
        # T = diag(1, 2) is integral and T.B1 = B2 . I^T, but L2 has index 2.
        l1, l2 = diag_lattice([1, 1]), diag_lattice([1, 2])
        cert = IntMatrix.from_rows([[1, 0], [0, 2]])
        assert not verify_isomorphism(l1, l2, RatMatrix.identity(2), cert)

    def test_rejects_a_non_orthonormal_map(self):
        # o = 2I with T = 2I: integral, equal determinants, T.B1 = B2.o^T.
        lat = diag_lattice([1, 1])
        double = RatMatrix.from_rows([[2, 0], [0, 2]])
        cert = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert not verify_isomorphism(lat, lat, double, cert)

    @settings(max_examples=300, deadline=None)
    @given(verify_cases())
    def test_matches_the_inverse_verifier(self, case):
        # Given the exact change of basis as its certificate, the verifier
        # agrees with the one that computes it through G1^-1; when that
        # change of basis is not integral, there is no certificate and the
        # verdict is False.
        l1, l2, o = case
        verdict = verify_isomorphism(l1, l2, o)
        cert = exact_change_of_basis(l1, l2, o) if l1.abs_det else RatMatrix.identity(l1.n)
        if cert.den != 1:
            assert verdict is False
        else:
            assert verify_isomorphism(l1, l2, o, IntMatrix(cert.num)) is verdict

    def test_certificate_refuses_a_wrong_sign(self):
        inst = generate_instance(15, 8, 4, seed=1)
        t1 = frame(inst.l1, 15)
        r2 = rotated_rows(inst.l2, frame(inst.l2, 15), 15)
        res = hull_attack(inst.l1, inst.l2)
        s = next(e for e in res.transcript if e["step"] == "spep")
        right = SignedPerm(tuple(s["sigma"]), tuple(s["signs"]))
        assert _certificate(r2, t1, right, 15) == res.certificate
        wrong = SignedPerm(right.sigma, (-right.signs[0],) + right.signs[1:])
        with pytest.raises(NotIntegral):
            _certificate(r2, t1, wrong, 15)


def flip_first_sign(monkeypatch):
    """Make the attack's SPEP answer with the sign of coordinate 0 flipped."""
    real = attack.spep

    def wrong_sign(c1, c2, stats=None):
        res = real(c1, c2, stats)
        p = res.perm
        return EquivResult(res.outcome, SignedPerm(p.sigma, (-p.signs[0],) + p.signs[1:]))

    monkeypatch.setattr(attack, "spep", wrong_sign)


class TestVerificationFailure:
    def test_wrong_sign_fails_verification(self, monkeypatch, lattice_solves):
        # k does not divide R2.P^T.T1, so no certificate exists and the
        # attack fails without falling back to the verifier's solve on G1.
        inst = generate_instance(15, 8, 4, seed=1)
        flip_first_sign(monkeypatch)
        with pytest.raises(VerificationFailed) as exc_info:
            hull_attack(inst.l1, inst.l2)
        assert exc_info.value.transcript[-1] == {"step": "verify", "ok": False}
        assert lattice_solves == []

    def test_cli_attack_exits_four_without_traceback(self, monkeypatch, tmp_path, capsys):
        inst, res = tmp_path / "inst.json", tmp_path / "res.json"
        argv = ["gen", "--k", "15", "--n", "8", "--m", "4", "--seed", "1", "--out", str(inst)]
        assert cli_main(argv) == 0
        flip_first_sign(monkeypatch)
        assert cli_main(["attack", "--in", str(inst), "--out", str(res)]) == 4
        d = json.loads(res.read_text())
        assert d["error"]["type"] == "VerificationFailed"
        assert d["transcript"][-1] == {"step": "verify", "ok": False}
        assert "Traceback" not in capsys.readouterr().err


@pytest.fixture()
def lattice_dets(monkeypatch):
    """Sizes of the determinants taken on lattice data, by Bareiss or by
    the elimination of a Gram matrix's upper triangle, counted in every
    module that binds `bareiss_det` or `gram_triangle` except modring,
    whose determinants are of m x m code Gram matrices mod k."""
    sizes = []

    def counting(det):
        def counted(rows):
            sizes.append(len(rows))
            return det(rows)

        return counted

    for mod in (attack, lattices, linalg, zlip):
        for det in (bareiss_det, gram_triangle):
            if getattr(mod, det.__name__, None) is det:
                monkeypatch.setattr(mod, det.__name__, counting(det))
    return sizes


class TestDeterminantCount:
    def test_generation_takes_none(self, lattice_dets):
        generate_instance(15, 8, 4, seed=1)
        assert lattice_dets == []

    @pytest.mark.parametrize("k", [None, 15])
    def test_parse_takes_one_per_lattice_and_attack_two(self, lattice_dets, k):
        pub = generate_instance(15, 8, 4, seed=1).to_dict()["public"]
        l1, l2 = LatticeBasis.from_dict(pub["L1"]), LatticeBasis.from_dict(pub["L2"])
        # det G of each parsed lattice's Gram matrix.
        assert lattice_dets == [8, 8]
        o_star = hull_attack(l1, l2, k=k).o_star
        # |det H| of each ZLIP transform; verify reads |det L1| = |det L2|
        # off the Gram records and takes no det T.
        assert lattice_dets == [8, 8, 8, 8]
        # Without a certificate, verify solves on L1's cached triangle.
        assert verify_isomorphism(l1, l2, o_star.matrix)
        assert lattice_dets == [8, 8, 8, 8]


@pytest.fixture()
def lattice_solves(monkeypatch):
    """The triangles handed to `gram_solves`, recorded in every loaded
    hullattack module that binds it."""
    seen = []

    def counted(u, rows, q):
        seen.append(u)
        return gram_solves(u, rows, q)

    loaded = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "hullattack"]
    for mod in loaded:
        if getattr(mod, "gram_solves", None) is gram_solves:
            monkeypatch.setattr(mod, "gram_solves", counted)
    return seen


def refuse_packed_products(monkeypatch):
    """Make `row_products` raise in every loaded hullattack module that
    binds it."""

    def refused(a, b):
        raise RuntimeError("row_products reached")

    loaded = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "hullattack"]
    for mod in loaded:
        if getattr(mod, "row_products", None) is row_products:
            monkeypatch.setattr(mod, "row_products", refused)


def parsed_public(inst):
    pub = inst.to_dict()["public"]
    return LatticeBasis.from_dict(pub["L1"]), LatticeBasis.from_dict(pub["L2"])


class TestInverseCount:
    @pytest.mark.parametrize("k", [None, 15])
    def test_attack_inverts_nothing(self, lattice_solves, k):
        # Code extraction knows R^-1 = T/k, and verify checks the
        # change-of-basis certificate instead of solving against G1.
        l1, l2 = parsed_public(generate_instance(15, 8, 4, seed=1))
        hull_attack(l1, l2, k=k)
        assert lattice_solves == []

    @pytest.mark.parametrize("k", [None, 15])
    def test_attack_verify_runs_on_products_only(self, monkeypatch, k):
        """The attack's verify step gets a certificate and reaches no
        solve, determinant, Howell form or LLL kernel, in any module
        (the HNF kernel and the inverse are gone: `test_calls_no_hnf`),
        nor the packed product the solver's own products run on."""
        l1, l2 = parsed_public(generate_instance(15, 8, 4, seed=1))
        kernel_names = (
            "gram_solves",
            "bareiss_det",
            "gram_triangle",
            "_howell_rows",
            "lll_gram",
            "row_products",
        )
        in_verify, reached, certificates = [False], [], []

        def watched(name, fn):
            def call(*args, **kwargs):
                if in_verify[0]:
                    reached.append(name)
                return fn(*args, **kwargs)

            return call

        for mod in (attack, codes, kernels, lattices, linalg, modring, zlip):
            for name in kernel_names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    monkeypatch.setattr(mod, name, watched(name, fn))
        real_verify = attack.verify_isomorphism

        def verify(*args, **kwargs):
            certificates.append(kwargs.get("certificate", args[3] if len(args) > 3 else None))
            in_verify[0] = True
            try:
                return real_verify(*args, **kwargs)
            finally:
                in_verify[0] = False

        monkeypatch.setattr(attack, "verify_isomorphism", verify)
        res = hull_attack(l1, l2, k=k)
        assert res.transcript[-1] == {"step": "verify", "ok": True}
        assert len(certificates) == 1 and certificates[0] is res.certificate is not None
        assert reached == []

    def test_standalone_verify_solves_once(self, monkeypatch, lattice_solves):
        # One solve, on the triangle that parsing L1 left in its record.
        inst = generate_instance(15, 8, 4, seed=1)
        res = hull_attack(inst.l1, inst.l2)
        o_star, certificate = res.o_star, res.certificate
        l1, l2 = parsed_public(inst)
        triangle = l1.gram_record.triangle
        turned = o_star.matrix.mul(random_rational_orthogonal(8, seed=101).matrix)
        forged = [list(r) for r in certificate.entries]
        forged[0][0] += 1
        forged = IntMatrix.from_rows(forged)
        # A fault in the packed product the solver builds witnesses with
        # cannot reach the verifier: with it raising, both paths still
        # accept the witness and refuse wrong ones.
        refuse_packed_products(monkeypatch)
        with pytest.raises(RuntimeError, match="row_products reached"):
            o_star.matrix.mul(turned)
        lattice_solves.clear()
        assert verify_isomorphism(l1, l2, RatMatrix.from_dict(o_star.to_dict()))
        assert len(lattice_solves) == 1 and lattice_solves[0] is triangle
        assert not verify_isomorphism(l1, l2, turned)
        assert verify_isomorphism(l1, l2, o_star, certificate)
        assert not verify_isomorphism(l1, l2, o_star, forged)
        assert not verify_isomorphism(l1, l2, turned, certificate)


@lru_cache(maxsize=None)
def attacked(k, n, m, seed):
    """(L1, L2, o_star, T*) of the attack on a generated instance, with
    the lattices parsed from its public JSON; None where it fails."""
    l1, l2 = parsed_public(generate_instance(k, n, m, seed))
    try:
        res = hull_attack(l1, l2)
    except HullAttackError:
        return None
    return l1, l2, res.o_star.matrix, res.certificate


def certificate_width(l1, l2, o, t) -> int:
    """The field width of the verifier's certificate comparison."""
    (a1, e1), (a2, e2) = (l1.basis.num, l1.basis.den), (l2.basis.num, l2.basis.den)
    top = [max(map(abs, chain.from_iterable(x))) for x in (t, a1, a2, o.num)]
    return (l1.n * (e2 * o.den * top[0] * top[1] + e1 * top[2] * top[3])).bit_length()


@st.composite
def packed_verify_cases(draw):
    """(L1, L2, O, T*): an attack's witness over k in {2, 3, 5, 6, 9, 15}
    at n <= 16, or L2 = U . B1 . O for B1 with entries near 2^300, a
    unimodular U (its certificate) and an orthonormal O; then O and T*
    as they are, O turned by another transform, O with two rows swapped
    or one negated, T* forged by +-1 or by +-2^j with j near the field
    width of the certificate comparison, or O replaced by a matrix of
    tiny entries over a huge denominator."""
    if draw(st.booleans()):
        k = draw(st.sampled_from([2, 3, 5, 6, 9, 15]))
        n = draw(st.integers(2, 16))
        case = attacked(k, n, draw(st.integers(1, n - 1)), draw(st.integers(0, 3)))
        assume(case is not None)
        l1, l2, o, t = case
    else:
        n = draw(st.integers(1, 6))
        big = st.integers(-(1 << 300), 1 << 300)
        b1 = [[draw(big) for _ in range(n)] for _ in range(n)]
        assume(bareiss_det(b1) != 0)
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 3 * n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            c = -1 if i == j else draw(st.integers(-2, 2))
            u[i] = [c * x for x in u[i]] if i == j else [x + c * y for x, y in zip(u[i], u[j])]
        depth = draw(st.integers(0, 64 * n))
        o = random_rational_orthogonal(n, seed=draw(st.integers(0, 99)), depth=depth).matrix
        l1 = LatticeBasis(n, RatMatrix(tuple(map(tuple, b1))))
        l2 = LatticeBasis(n, RatMatrix(tuple(map(tuple, int_product(u, b1)))).mul(o))
        t = IntMatrix.from_rows(u)
    kind = draw(st.sampled_from(["true", "turned", "swapped", "negated", "forged", "huge_den"]))
    rows = [list(r) for r in o.num]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "turned":
        o = o.mul(random_rational_orthogonal(n, seed=draw(st.integers(100, 199))).matrix)
    elif kind == "swapped":
        rows[i], rows[j] = rows[j], rows[i]
        o = RatMatrix.over(rows, o.den)
    elif kind == "negated":
        rows[i] = [-x for x in rows[i]]
        o = RatMatrix.over(rows, o.den)
    elif kind == "forged":
        s = certificate_width(l1, l2, o, t.entries)
        step = draw(st.sampled_from([1, 1 << draw(st.integers(max(s - 3, 0), s + 2))]))
        forged = [list(r) for r in t.entries]
        forged[i][j] += draw(st.sampled_from([1, -1])) * step
        t = IntMatrix.from_rows(forged)
    elif kind == "huge_den":
        tiny = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)]
        o = RatMatrix.over(tiny, (1 << 300) + draw(st.integers(0, 1 << 20)))
    return l1, l2, o, t


class TestPackedVerifier:
    """The verifier's packed checks give the verdicts of the dot-product
    verifier they replaced, on both paths."""

    @settings(max_examples=250, deadline=None)
    @given(packed_verify_cases())
    def test_matches_the_dot_product_verifier(self, case):
        l1, l2, o, t = case
        assert verify_isomorphism(l1, l2, o) is verify_isomorphism_by_dot_products(l1, l2, o)
        verdict = verify_isomorphism_by_dot_products(l1, l2, o, t)
        assert verify_isomorphism(l1, l2, o, t) is verdict

    @pytest.mark.parametrize("t,p", [(3, 0), (3, 300), (11, 64), (43, 5)])
    def test_certificate_comparison_at_the_field_bound(self, t, p):
        # Column 0 of A1 is all a = 2^p and row 0 of T* all t = (2^q + 1)/3,
        # so row 0 of T*.A1 starts at 3.t.a, the left side's field bound,
        # while A2.M^T = A1 starts at a: the two differ by (2^q.a, -1, 0),
        # which packs to 0 in fields of log2(2^q.a) bits.  The width is
        # bits(3.(t.a + a)), one bit more, so the forgery is refused.
        a = 1 << p
        lat = LatticeBasis(3, RatMatrix(((a, 1, 0), (a, -1, 1), (a, 0, -1))))
        ident = RatMatrix.identity(3)
        forged = IntMatrix(((t, t, t), (0, 1, 0), (0, 0, 1)))
        assert certificate_width(lat, lat, ident, forged.entries) == (3 * t - 1).bit_length() + p
        assert not verify_isomorphism_by_dot_products(lat, lat, ident, forged)
        assert not verify_isomorphism(lat, lat, ident, forged)
        assert verify_isomorphism(lat, lat, ident, IntMatrix.identity(3))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "bits,n,den",
        [((1, 1, 1), 1, 1), ((1, 1, 1), 7, 1), ((3, 5, 2), 8, 3), ((64, 100, 64), 16, 5), ((300, 2, 1), 6, 1)],
    )
    def test_right_side_at_the_field_bound(self, bits, n, den, sign):
        # Every |X[i][j]| = den.n^2.max|A2|.max|M|.max|A1|, the bound the
        # decoded fields must hold.
        x, y, z = ((1 << b) - 1 for b in bits)
        a2, m, a1 = [[x] * n] * n, [[sign * y] * n] * n, [[z] * n] * n
        expected = int_product(int_product(a2, list(zip(*m))), list(zip(*a1)))
        assert _right_side(a2, m, a1, den) == [tuple(den * v for v in row) for row in expected]
        assert expected[0][0] == sign * n * n * x * y * z


class TestVerifierIndependence:
    def test_solver_runs_with_the_verifier_packing_refused(self, monkeypatch):
        """With `packed_rows` raising, the attack runs up to the witness's
        orthonormality check, after the three products of `_assemble`;
        `_certificate` still runs, and verify raises from its own packing
        only."""
        l1, l2 = parsed_public(generate_instance(15, 8, 4, seed=1))
        res = hull_attack(l1, l2)
        spep_step = next(e for e in res.transcript if e["step"] == "spep")
        s = SignedPerm(tuple(spep_step["sigma"]), tuple(spep_step["signs"]))
        t1, t2 = frame(l1, 15), frame(l2, 15)
        r2 = rotated_rows(l2, t2, 15)
        packers, products = [], []

        def refused(rows, s):
            packers.append(sys._getframe(1).f_code.co_name)
            raise RuntimeError("verifier packing reached")

        def counted(a, b):
            products.append(sys._getframe(1).f_code.co_name)
            return row_products(a, b)

        loaded = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "hullattack"]
        for mod in loaded:
            if getattr(mod, "packed_rows", None) is packed_rows:
                monkeypatch.setattr(mod, "packed_rows", refused)
        monkeypatch.setattr(attack, "row_products", counted)
        with pytest.raises(RuntimeError, match="verifier packing reached"):
            hull_attack(l1, l2)
        assert packers == ["rows_orthonormal"]
        assert products[-3:] == ["_assemble"] * 3
        products.clear()
        with pytest.raises(RuntimeError, match="verifier packing reached"):
            _assemble(l1, l2, t1, t2, s, 15)
        assert _certificate(r2, t1, s, 15) == res.certificate
        assert products == ["_assemble"] * 3 + ["_certificate"]
        for args in ((res.o_star, res.certificate), (res.o_star,), (res.o_star.matrix,)):
            with pytest.raises(RuntimeError, match="verifier packing reached"):
                verify_isomorphism(l1, l2, *args)
        assert packers == ["rows_orthonormal"] * 2 + ["verify_isomorphism", "_right_side"] + [
            "rows_orthonormal"
        ]


@pytest.fixture()
def kernel_moduli(monkeypatch):
    """The modulus of every `kernel_mod` call, in every module that binds it."""
    seen = []
    real = modring.kernel_mod

    def counted(m):
        seen.append(m.k)
        return real(m)

    for mod in (attack, codes, lattices, modring):
        if getattr(mod, "kernel_mod", None) is real:
            monkeypatch.setattr(mod, "kernel_mod", counted)
    return seen


@pytest.fixture()
def row_modules(monkeypatch):
    """(lattice, scale) of every `gram_row_module` call, in every module
    that binds it."""
    seen = []
    real = lattices.gram_row_module

    def counted(lattice, s):
        seen.append((lattice, s))
        return real(lattice, s)

    for mod in (attack, lattices):
        if getattr(mod, "gram_row_module", None) is real:
            monkeypatch.setattr(mod, "gram_row_module", counted)
    return seen


class TestKernelCount:
    def test_non_lcd_attack_takes_none(self, kernel_moduli):
        # The first candidate's hull index is too large, which ends the
        # search before any kernel is taken.
        code = code_from_rows(5, [[1, 2, 0, 0], [0, 0, 1, 2]])
        lat = rotate(construction_a(code), random_rational_orthogonal(4, seed=3))
        with pytest.raises(HullNotTrivial):
            hull_attack(lat, lat)
        assert kernel_moduli == []

    def test_losing_modulus_takes_none(self, kernel_moduli):
        # k = 9 proposes 3 first; only the accepted 9 takes a kernel, one
        # per lattice, over Z_{9.den}.
        l1, l2 = parsed_public(generate_instance(9, 12, 6, seed=1))
        kernel_moduli.clear()
        res = hull_attack(l1, l2)
        assert res.transcript[0]["candidates"][0][0] == 3 and res.transcript[0]["k"] == 9
        dens = [lat.gram_record.cleared[1] for lat in (l1, l2)]
        assert kernel_moduli == [9 * d for d in dens]


class TestRowModuleCount:
    def test_overshooting_first_candidate_ends_the_search(self, row_modules):
        # Over Z_5 the code is self-orthogonal, so at q = 5 the hull index
        # is too large on L1 and q = 25 is never tried; L2 is never tested.
        code = code_from_rows(5, [[1, 2, 0, 0], [0, 0, 1, 2]])
        base = construction_a(code)
        l1, l2 = (rotate(base, random_rational_orthogonal(4, seed=s)) for s in (3, 4))
        assert [q for q, _m in recover_modulus(l1)] == [5, 25]
        with pytest.raises(HullNotTrivial) as info:
            hull_attack(l1, l2)
        assert info.value.transcript[0]["candidates"] == [[5, 2], [25, 3]]
        assert [(lat is l1, s) for lat, s in row_modules] == [(True, 5)]

    def test_losing_modulus_goes_on(self, row_modules):
        # k = 9: L1's hull index is too small at q = 3, so the search goes
        # on to 9, where L1 and then L2 match.
        l1, l2 = parsed_public(generate_instance(9, 12, 6, seed=1))
        hull_attack(l1, l2)
        calls = [(1 if lat is l1 else 2 if lat is l2 else 0, s) for lat, s in row_modules]
        assert calls == [(1, 3), (1, 9), (2, 9)]


@pytest.fixture()
def rational_products(monkeypatch):
    """Shapes of the `RatMatrix.mul` calls made while the fixture is active."""
    shapes = []
    real = RatMatrix.mul

    def counted(a, b):
        shapes.append((a.rows, a.cols, b.cols))
        return real(a, b)

    monkeypatch.setattr(RatMatrix, "mul", counted)
    return shapes


class TestRationalProductCount:
    @pytest.mark.parametrize("k,supplied", [(15, None), (15, 15), (6, None)])
    def test_attack_on_parsed_lattices_takes_none(self, rational_products, k, supplied):
        # Hull, ZLIP, rotation, assembly and verify run on integer
        # transforms; o_star is the one rational matrix built.
        l1, l2 = parsed_public(generate_instance(k, 8, 4, seed=1))
        rational_products.clear()
        res = hull_attack(l1, l2, k=supplied)
        assert res.transcript[-1]["ok"]
        assert rational_products == []

    def test_standalone_verify_takes_none(self, rational_products):
        inst = generate_instance(15, 8, 4, seed=1)
        o_star = hull_attack(inst.l1, inst.l2).o_star
        l1, l2 = parsed_public(inst)
        rational_products.clear()
        assert verify_isomorphism(l1, l2, RatMatrix.from_dict(o_star.to_dict()))
        assert rational_products == []


@pytest.fixture()
def fractions_built(monkeypatch):
    """Count of the Fractions constructed while the fixture is active."""
    built = [0]
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


class TestFractionCount:
    @pytest.mark.parametrize("k", [15, 6])
    def test_no_fraction_per_matrix_entry(self, fractions_built, k):
        # Matrices are integers over one denominator: generation and the
        # verifier build no Fraction, and parsing and the attack build a
        # few scalars (|det L| from each Gram record), not one per entry.
        n = 8
        d = generate_instance(k, n, 4, seed=1).to_dict()
        assert fractions_built[0] == 0
        l1, l2 = LatticeBasis.from_dict(d["public"]["L1"]), LatticeBasis.from_dict(d["public"]["L2"])
        res = hull_attack(l1, l2).to_dict()
        assert fractions_built[0] < n
        fractions_built[0] = 0
        assert verify_isomorphism(l1, l2, RatMatrix.from_dict(res["o_star"]))
        assert fractions_built[0] == 0


class TestClosureCount:
    @pytest.mark.parametrize("k", [15, 6])
    def test_attack_builds_no_closure(self, monkeypatch, k):
        """SPEP reads the closures' projectors off the codes' own, so an
        attack ends verified with every way to build a closure code
        refusing to run."""
        inst = generate_instance(k, 8, 4, seed=1)

        def refuse(*args):
            raise AssertionError("a closure code was built")

        monkeypatch.setattr(codes, "closure", refuse)
        res = hull_attack(inst.l1, inst.l2)
        assert res.transcript[-1] == {"step": "verify", "ok": True}


def crt_lcd_pair(seed):
    """Two rotations of Construction A of the CRT sum of a rank-2 LCD
    code over Z_3 and a rank-4 LCD code over Z_5 at n = 8: LCD over
    Z_15 but not free, with |det L| = 3^6 . 5^4."""
    rng = random.Random(seed)
    c3 = random_free_lcd(3, 8, 2, seed=rng.randrange(10**9))
    c5 = random_free_lcd(5, 8, 4, seed=rng.randrange(10**9))
    rows = [[5 * x for x in r] for r in c3.gen.entries]
    rows += [[3 * x for x in r] for r in c5.gen.entries]
    code = code_from_rows(15, rows, 8)
    base = construction_a(code)
    o1 = random_rational_orthogonal(8, seed=rng.randrange(10**9))
    o2 = random_rational_orthogonal(8, seed=rng.randrange(10**9))
    return rotate(base, o1), rotate(base, o2), code


class TestNonFreeLcd:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_supplied_modulus_ends_verified(self, seed):
        l1, l2, code = crt_lcd_pair(seed)
        assert is_lcd(code) and not codes.is_free_lcd(code)
        res = hull_attack(l1, l2, k=15)
        spep_step = next(e for e in res.transcript if e["step"] == "spep")
        assert spep_step["closure"] == "signed"
        assert verify_isomorphism(l1, l2, res.o_star.matrix)
        assert verify_isomorphism(l1, l2, res.o_star, res.certificate)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cli_attack_and_verify_with_supplied_modulus(self, tmp_path, seed):
        l1, l2, _ = crt_lcd_pair(seed)
        inst, res = tmp_path / "inst.json", tmp_path / "res.json"
        inst.write_text(json.dumps({"public": {"L1": l1.to_dict(), "L2": l2.to_dict()}}))
        assert cli_main(["attack", "--in", str(inst), "--out", str(res), "--k", "15"]) == 0
        assert cli_main(["verify", "--instance", str(inst), "--result", str(res)]) == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refusal_without_modulus_is_unchanged(self, seed):
        # The transcript recorded from the SPEP that refused non-free codes.
        l1, l2, _ = crt_lcd_pair(seed)
        with pytest.raises(HullNotTrivial) as info:
            hull_attack(l1, l2)
        assert str(info.value) == "no candidate modulus carries the trivial-hull signature"
        assert info.value.transcript == [
            {
                "step": "modulus",
                "determinant": "455625",
                "candidates": [[675, 6], [455625, 7]],
                "supplied": False,
            }
        ]


class TestResultSerialization:
    def test_round_trip(self):
        l1, l2, _ = make_instance(3, 3, 1, seed=61, depth=4)
        res = hull_attack(l1, l2)
        again = AttackResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert again.o_star == res.o_star
        assert again.transcript == res.transcript


# sha256 of the `hullattack attack --out` file bytes, recorded from the
# assembly that re-checked orthonormality on every inverse and compose;
# the n = 16 and n = 20 rows were recorded from the verifier that
# compared two canonical HNFs, and the k = 2, 10 and 9 rows and the
# n = 24 and n = 32 rows from the SPEP that rebuilt every closure with an
# integer Smith form.
# (k, n, m, seed, gen depth or None for the default 2n, supplied k or None, digest)
ATTACK_DIGESTS = [
    (3, 8, 4, 1, None, None, "41b4b697827df99cc67009222d12765cd5a1068a43dcf9b103ead134e86ddd15"),
    (3, 12, 6, 1, None, None, "adb56a766454d1cbb9c287a54dee97f836eef39961e6951670f174c4d2931afd"),
    (6, 8, 4, 1, None, None, "4a30ae941805f94b9d051e8823190fc1ad5ed23fa7a984b669696f9701c347e3"),
    (6, 12, 6, 2, None, None, "8ece9dafc56b017e699c810dd5b1b0e0021d7a1d11c0a4dfc0a49055aab5e33c"),
    (6, 12, 6, 2, None, 6, "c10111a12dc241f52ec8e5e798e17e10bd682fe14531933e401d6bf4f53450d2"),
    (15, 8, 4, 1, None, None, "4e28392c1537609189555abe8ef7e7b150a71e8ea2b6ed26b53be2d661b41d8f"),
    (15, 12, 6, 1, None, None, "2f5d61eef2c1c09533d27ffef5abe5ad768556acb3d8831b8a0ca2576a3ca871"),
    (15, 12, 6, 4, 40, None, "10acfb5822d6271ffd352050c01650f24a3ef3ad8ee57d9b6e8b7ad0f04aa9a2"),
    (5, 12, 6, 3, 1, None, "21dc35749ba6194c27aea763123bbedeabec8f4de4729df24a1589f436a008c1"),
    (15, 16, 8, 1, None, None, "9945cd91a5aeb737647594b17632061299025e1336166ba10b7bf70e73d4724e"),
    (15, 16, 8, 3, None, None, "8176d8bcf2d2600b9e37fd440657b1511e88189b675d8324e1963f7420d5f579"),
    (15, 20, 10, 1, None, None, "6b24e63eed1910757f67a39f6d73ac1937a282840c8b06582c46089409571b46"),
    (2, 12, 6, 1, None, None, "4fe26a98aef725cfce1e6b0a1f7756ce84f8591ea230d1ebd9525ba087e86212"),
    (10, 12, 6, 1, None, None, "f79c6dfc00b5501a4b1261957d44f288abe314a82a8d74f51f94079191e09037"),
    (9, 12, 6, 1, None, None, "06385cc42a78a0c1990164f8172661c43dcbc8183e784736d9f153b91d80cc2e"),
    (6, 24, 12, 1, None, None, "895ab4d8b7710a59ca90fe23078913a92547e9bec8d665df0744475f81a9118e"),
    (3, 32, 16, 1, None, None, "b12ce84f8b6707c3449446d9c5d8b738c5d18837583d02acf39a60dbbcbb6180"),
]


@pytest.mark.parametrize("k,n,m,seed,depth,supplied_k,digest", ATTACK_DIGESTS)
def test_attack_bytes_match_recorded_digest(tmp_path, k, n, m, seed, depth, supplied_k, digest):
    inst, res = tmp_path / "inst.json", tmp_path / "res.json"
    argv = ["gen", "--k", str(k), "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", str(inst)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    assert cli_main(argv) == 0
    argv = ["attack", "--in", str(inst), "--out", str(res)]
    if supplied_k is not None:
        argv += ["--k", str(supplied_k)]
    assert cli_main(argv) == 0
    assert hashlib.sha256(res.read_bytes()).hexdigest() == digest
