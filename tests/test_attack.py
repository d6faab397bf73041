"""End-to-end hull attack: modulus recovery, pipeline, failure modes."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullattack.attack import (
    AttackResult,
    _assemble,
    _certificate,
    _hull_det_matches,
    _integer_root,
    hull_attack,
    recover_modulus,
    verify_isomorphism,
)
from hullattack import attack, codes, kernels, lattices, linalg, modring, zlip
from hullattack.cli import main as cli_main
from hullattack.codes import code_from_rows, random_free_lcd
from hullattack.equiv import EquivResult, SignedPerm, brute_force_spep
from hullattack.errors import (
    BadModulus,
    DimensionMismatch,
    HullNotTrivial,
    NoCandidate,
    NotARotation,
    NotIntegral,
    Singular,
    SpepFailed,
    VerificationFailed,
)
from hullattack.instances import generate_instance
from hullattack.lattices import (
    LatticeBasis,
    RationalOrthogonal,
    construction_a,
    hull_coefficients,
    integral_rotation,
    lattice_equal,
    mod_reduce_to_code,
    random_rational_orthogonal,
    rotate,
    rotated_rows,
    s_hull,
    sublattice_gram,
)
from hullattack.linalg import IntMatrix, RatMatrix, bareiss_det, det, inv_int_rows, same_lattice
from hullattack.zlip import solve_scaled_zlip


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
            return [[int(i == j) for j in range(n)] for i in range(n)], gram

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
        l1, l2, _ = make_instance(15, 6, 3, seed=71, depth=8)
        res = hull_attack(l1, l2)

        def refuse(*args):
            raise AssertionError("verify_isomorphism reached the HNF kernel")

        monkeypatch.setattr(kernels, "hnf_rows", refuse)
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
        o = o_true.scale(Fraction(2))
    elif witness == "sheared":
        rows = [list(r) for r in o_true.entries]
        rows[0][0] += 1
        o = RatMatrix.from_rows(rows)
    else:
        o = o_true
    return l1, l2, o


def rational_product_verdict(l1, l2, o) -> bool:
    """The verifier that formed B2 . o^T . B1^T as two `RatMatrix`
    products before testing T = (B2 . o^T . B1^T) . den . G1^-1."""
    try:
        o = RationalOrthogonal(o)
    except NotARotation:
        return False
    if not l1.n == l2.n == o.n or l1.abs_det == 0 or l1.abs_det != l2.abs_det:
        return False
    p, dp = l2.basis.mul(o.matrix.transpose()).mul(l1.basis.transpose()).clear_denominators()
    (_, den), (ginv, q) = l1.gram_record.cleared, l1.gram_record.inverse
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
            coeff = _hull_det_matches(lattice, k)
            sol = solve_scaled_zlip(sublattice_gram(lattice, coeff), k)
            o_hat = sol.o_hat(s_hull(lattice, k).basis)  # passes RationalOrthogonal
            frame = sol.u.mul(coeff)
            assert integral_rotation(lattice, frame, k).basis == rotate(lattice, o_hat).basis
            frames.append(frame)
            o_hats.append(o_hat.matrix)
        old = o_hats[0].transpose().mul(perm_rotation(s)).mul(o_hats[1])
        assert _assemble(inst.l1, inst.l2, *frames, s, k).matrix == old


def frame(lattice, k):
    """T = U.C: the frame T.B of k Z^n found by the attack's hull and ZLIP."""
    coeff = _hull_det_matches(lattice, k)
    return solve_scaled_zlip(sublattice_gram(lattice, coeff), k).u.mul(coeff)


def exact_change_of_basis(l1, l2, o) -> RatMatrix:
    """T = B2 . o^T . B1^-1 in rationals, for a nonsingular B1."""
    return l2.basis.mul(o.transpose()).mul(linalg.rat_inverse(l1.basis))


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
            assert code == mod_reduce_to_code(integral_rotation(lattice, t, k), k)

    @pytest.mark.parametrize("k", [2, 6, 9, 15])
    def test_certificate_is_the_unimodular_change_of_basis(self, k):
        inst = generate_instance(k, 8, 4, seed=3)
        res = hull_attack(inst.l1, inst.l2)
        cert = res.certificate
        assert cert.to_rat() == exact_change_of_basis(inst.l1, inst.l2, res.o_star.matrix)
        assert abs(bareiss_det(cert.entries)) == 1
        assert verify_isomorphism(inst.l1, inst.l2, res.o_star, cert)
        assert verify_isomorphism(inst.l1, inst.l2, res.o_star, cert.to_rat())

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
        l1, l2 = diag_lattice([2, 1]), diag_lattice([1, 2])
        ident = RatMatrix.identity(2)
        t = exact_change_of_basis(l1, l2, ident)
        assert t == RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
        assert not verify_isomorphism(l1, l2, ident, t)
        assert not verify_isomorphism(l1, l2, ident)
        swap = RatMatrix.from_rows([[0, 1], [1, 0]])
        assert verify_isomorphism(l1, l2, swap, exact_change_of_basis(l1, l2, swap))

    def test_rejects_lattices_of_unequal_determinant(self):
        # T = diag(1, 2) is integral and T.B1 = B2 . I^T, but L2 has index 2.
        l1, l2 = diag_lattice([1, 1]), diag_lattice([1, 2])
        cert = IntMatrix.from_rows([[1, 0], [0, 2]])
        assert not verify_isomorphism(l1, l2, RatMatrix.identity(2), cert)

    def test_rejects_a_non_orthonormal_map(self):
        # o = 2I with T = 2I: integral, equal determinants, T.B1 = B2.o^T.
        lat = diag_lattice([1, 1])
        double = RatMatrix.identity(2).scale(Fraction(2))
        cert = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert not verify_isomorphism(lat, lat, double, cert)

    @settings(max_examples=300, deadline=None)
    @given(verify_cases())
    def test_matches_the_inverse_verifier(self, case):
        # Given the exact change of basis as its certificate, the verifier
        # agrees with the one that computes it through G1^-1.
        l1, l2, o = case
        verdict = verify_isomorphism(l1, l2, o)
        cert = exact_change_of_basis(l1, l2, o) if l1.abs_det else RatMatrix.identity(l1.n)
        assert verify_isomorphism(l1, l2, o, cert) is verdict

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
    def test_wrong_sign_fails_verification(self, monkeypatch, lattice_inverses):
        # k does not divide R2.P^T.T1, so no certificate exists and the
        # attack fails without falling back to the verifier's G1^-1.
        inst = generate_instance(15, 8, 4, seed=1)
        flip_first_sign(monkeypatch)
        with pytest.raises(VerificationFailed) as exc_info:
            hull_attack(inst.l1, inst.l2)
        assert exc_info.value.transcript[-1] == {"step": "verify", "ok": False}
        assert lattice_inverses == []

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
    """Sizes of the Bareiss determinants taken on lattice data, counted in
    every module that binds `bareiss_det` except modring, whose
    determinants are of m x m code Gram matrices mod k."""
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return bareiss_det(rows)

    for mod in (attack, lattices, linalg, zlip):
        if getattr(mod, "bareiss_det", None) is bareiss_det:
            monkeypatch.setattr(mod, "bareiss_det", counted)
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
        hull_attack(l1, l2, k=k)
        # |det H| of each ZLIP transform; verify reads |det L1| = |det L2|
        # off the Gram records and takes no det T.
        assert lattice_dets == [8, 8, 8, 8]


@pytest.fixture()
def lattice_inverses(monkeypatch):
    """Matrices handed to the Bareiss inverse on lattice data, recorded in
    every module that binds `inv_int_rows` except modring, whose inverses
    are of m x m code matrices mod k."""
    seen = []

    def counted(rows):
        seen.append([list(r) for r in rows])
        return inv_int_rows(rows)

    for mod in (attack, lattices, linalg, zlip):
        if getattr(mod, "inv_int_rows", None) is inv_int_rows:
            monkeypatch.setattr(mod, "inv_int_rows", counted)
    return seen


def parsed_public(inst):
    pub = inst.to_dict()["public"]
    return LatticeBasis.from_dict(pub["L1"]), LatticeBasis.from_dict(pub["L2"])


class TestInverseCount:
    @pytest.mark.parametrize("k", [None, 15])
    def test_attack_inverts_nothing(self, lattice_inverses, k):
        # Code extraction knows R^-1 = T/k, and verify checks the
        # change-of-basis certificate instead of inverting G1.
        l1, l2 = parsed_public(generate_instance(15, 8, 4, seed=1))
        hull_attack(l1, l2, k=k)
        assert lattice_inverses == []

    @pytest.mark.parametrize("k", [None, 15])
    def test_attack_verify_runs_on_products_only(self, monkeypatch, k):
        """The attack's verify step gets a certificate and reaches no
        inverse, determinant, HNF or LLL kernel, in any module."""
        l1, l2 = parsed_public(generate_instance(15, 8, 4, seed=1))
        kernel_names = ("inv_int_rows", "bareiss_det", "hnf_rows", "lll_gram")
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

    def test_standalone_verify_inverts_one(self, lattice_inverses):
        inst = generate_instance(15, 8, 4, seed=1)
        o_star = hull_attack(inst.l1, inst.l2).o_star
        l1, l2 = parsed_public(inst)
        lattice_inverses.clear()
        assert verify_isomorphism(l1, l2, RatMatrix.from_dict(o_star.to_dict()))
        assert len(lattice_inverses) == 1
        assert lattice_inverses == [l1.gram_record.cleared[0]]


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


class TestModuleStructureCount:
    @pytest.mark.parametrize("k", [15, 6])
    def test_attack_takes_two_and_closures_none(self, monkeypatch, k):
        """Column counts of the module-structure passes of one attack: the
        two extracted codes, of length n.  SPEP never builds a closure, and
        its fold check compares Howell forms only."""
        inst = generate_instance(k, 8, 4, seed=1)
        widths = []
        real = codes.row_module_structure

        def counted(m):
            widths.append(m.cols)
            return real(m)

        monkeypatch.setattr(codes, "row_module_structure", counted)
        hull_attack(inst.l1, inst.l2)
        assert widths == [8, 8]


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
