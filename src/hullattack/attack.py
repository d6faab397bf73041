"""End-to-end hull attack on Construction A lattice isomorphism.

Pipeline: recover the modulus k from the determinant, take the k-hull of
both lattices (which is a rotation of k Z^n exactly when the underlying
code is LCD), solve scaled ZLIP on each hull, pull the codes back through
the recovered rotations, solve signed permutation equivalence, and
compose the three maps into a single orthonormal witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import mul

from .equiv import SignedPerm, spep
from .errors import (
    BadModulus,
    DimensionMismatch,
    DoesNotContainKZn,
    ExtractionExhausted,
    HullAttackError,
    HullNotTrivial,
    NoCandidate,
    NotARotation,
    NotFreeLcd,
    NotIntegral,
    ParseError,
    SpepFailed,
    VerificationFailed,
    ZlipFailed,
)
from .lattices import (
    LatticeBasis,
    RationalOrthogonal,
    hull_coefficients,
    mod_reduce_to_code,
    rotate,
)
from .linalg import RatMatrix
from .zlip import solve_scaled_zlip


def _integer_root(d: int, e: int) -> int | None:
    """Exact e-th root of d >= 1, or None."""
    if e == 1:
        return d
    lo, hi = 1, 1 << (d.bit_length() // e + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**e < d:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**e == d else None


def recover_modulus(lattice: LatticeBasis) -> list[tuple[int, int]]:
    """Candidate (k, m) pairs with k^(n-m) = |det L|, by increasing k.

    A rank-m free code over Z_k gives a Construction A determinant of
    exactly k^(n-m), so every exact integer root of the determinant
    proposes a modulus.  Determinant 1 (or a non-integer determinant)
    admits no candidates.
    """
    d = lattice.abs_det
    if d.denominator != 1 or d <= 1:
        return []
    d = int(d)
    n = lattice.n
    out = []
    for e in range(n, 0, -1):
        k = _integer_root(d, e)
        if k is not None and k >= 2:
            out.append((k, n - e))
    return out


@dataclass
class AttackResult:
    o_star: RationalOrthogonal
    transcript: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "o_star": self.o_star.to_dict(),
            "verified": True,
            "transcript": self.transcript,
        }

    @staticmethod
    def from_dict(d: dict) -> "AttackResult":
        try:
            o = RationalOrthogonal.from_dict(d["o_star"])
            transcript = list(d.get("transcript", []))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad result JSON: {exc}") from None
        return AttackResult(o_star=o, transcript=transcript)


def _fail(transcript: list[dict], exc: HullAttackError):
    """Attach the partial transcript so callers can report progress."""
    exc.transcript = list(transcript)
    raise exc


def _perm_rotation(s: SignedPerm) -> RatMatrix:
    """M_s^T for the signed permutation matrix M_s[i][sigma[i]] = signs[i]."""
    n = s.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[s.sigma[i]][i] = Fraction(s.signs[i])
    return RatMatrix.from_rows(rows)


def _hull_det_matches(lattice: LatticeBasis, k: int) -> LatticeBasis | None:
    """The k-hull, when its determinant carries the trivial-hull signature.

    det(hull) = k^n / |C intersect C_dual|, so equality with k^n holds
    exactly for LCD codes.  The hull basis is C . B with C the triangular
    coefficient HNF, so |det hull| = |det C| . |det L| takes no second
    elimination; |det L| is the lattice's cached `abs_det`.
    """
    n = lattice.n
    coeff = hull_coefficients(lattice, k)
    if prod(coeff.entries[i][i] for i in range(n)) * lattice.abs_det != k**n:
        return None
    return LatticeBasis(n, coeff.to_rat().mul(lattice.basis))


def verify_isomorphism(
    l1: LatticeBasis, l2: LatticeBasis, o_star: RatMatrix | RationalOrthogonal
) -> bool:
    """o_star is orthonormal and maps L2 onto L1 (no exceptions).

    A RatMatrix is checked for M . M^T = I here; a RationalOrthogonal
    passed that check when it was built.  The image B2 . o_star^T then
    spans L1 exactly when T = (B2 . o_star^T) . B1^-1 is integral with
    |det T| = 1.  As o_star is orthonormal, |det T| = |det L2| / |det L1|,
    so the determinant half is |det L1| = |det L2| != 0, read off the
    two Gram records.  B1^-1 = B1^T . G1^-1 with B1 . B1^T = G1/den, so
    T = (B2 . o_star^T . B1^T) . den . G1^-1, tested entry by entry
    against the Bareiss inverse of G1; the first non-integral entry ends
    the test.  A singular B1 spans no full-rank lattice, so the answer is
    False.  No HNF runs here, so the verifier shares no kernel with the
    canonical forms the solver builds.
    """
    if isinstance(o_star, RatMatrix):
        if o_star.rows != l1.n or o_star.cols != l1.n:
            return False
        try:
            o_star = RationalOrthogonal(o_star)
        except NotARotation:
            return False
    if not l1.n == l2.n == o_star.n or l1.abs_det == 0 or l1.abs_det != l2.abs_det:
        return False
    image = l2.basis.mul(o_star.matrix.transpose())
    p, dp = image.mul(l1.basis.transpose()).clear_denominators()
    (_, den), (ginv, q) = l1.gram_record.cleared, l1.gram_record.inverse
    # G1^-1 is symmetric, so its rows are its columns.
    return all(den * sum(map(mul, row, col)) % (dp * q) == 0 for row in p for col in ginv)


def hull_attack(l1: LatticeBasis, l2: LatticeBasis, k: int | None = None) -> AttackResult:
    """Recover an orthonormal o_star with o_star . L2 = L1.

    When k is None the modulus is recovered from the determinant and
    validated by the hull signature on both inputs.  Raises NoCandidate,
    HullNotTrivial, BadModulus, ZlipFailed, SpepFailed or
    VerificationFailed; each failure carries the partial transcript on
    the exception's .transcript attribute.
    """
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    n = l1.n
    transcript: list[dict] = []

    hulls: tuple[LatticeBasis, LatticeBasis] | None = None
    if k is not None:
        if k < 2 or k % 4 == 0:
            _fail(transcript, BadModulus(f"modulus must be >= 2 and not 0 mod 4, got {k}"))
        transcript.append({"step": "modulus", "k": k, "supplied": True})
        h1 = _hull_det_matches(l1, k)
        h2 = _hull_det_matches(l2, k) if h1 is not None else None
        if h1 is None or h2 is None:
            _fail(
                transcript,
                HullNotTrivial(f"k-hull determinant is not {k}^{n} for the supplied modulus"),
            )
        hulls = (h1, h2)
    else:
        candidates = recover_modulus(l1)
        transcript.append(
            {
                "step": "modulus",
                "determinant": str(l1.abs_det),
                "candidates": [[c, m] for c, m in candidates],
                "supplied": False,
            }
        )
        if not candidates:
            _fail(
                transcript,
                NoCandidate(f"determinant {l1.abs_det} admits no modulus candidate"),
            )
        for cand, _m in candidates:
            h1 = _hull_det_matches(l1, cand)
            if h1 is None:
                continue
            h2 = _hull_det_matches(l2, cand)
            if h2 is None:
                continue
            k = cand
            hulls = (h1, h2)
            transcript[-1]["k"] = k
            break
        if hulls is None:
            _fail(
                transcript,
                HullNotTrivial("no candidate modulus carries the trivial-hull signature"),
            )

    h1, h2 = hulls
    # _hull_det_matches accepted both hulls, so each |det| is exactly k^n.
    transcript.append({"step": "hull", "k": k, "hull_dets": [str(k**n)] * 2})

    sols = []
    for idx, hull in ((1, h1), (2, h2)):
        try:
            sol = solve_scaled_zlip(hull, k)
        except NotARotation as exc:
            _fail(transcript, ZlipFailed(f"hull of lattice {idx} is not a rotation of kZ^n: {exc}"))
        transcript.append({"step": "zlip", "lattice": idx, "method": sol.method})
        sols.append(sol)
    sol1, sol2 = sols

    codes = []
    for idx, lattice, sol in ((1, l1, sol1), (2, l2, sol2)):
        try:
            code = mod_reduce_to_code(rotate(lattice, sol.o_hat), k)
        except (NotIntegral, DoesNotContainKZn) as exc:
            _fail(transcript, SpepFailed(f"lattice {idx} does not reduce to a code mod k: {exc}"))
        codes.append(code)
    c1, c2 = codes
    transcript.append(
        {
            "step": "codes",
            "c1": [list(r) for r in c1.gen.entries],
            "c2": [list(r) for r in c2.gen.entries],
        }
    )

    stats: dict = {}
    try:
        res = spep(c1, c2, stats)
    except (ExtractionExhausted, NotFreeLcd, BadModulus) as exc:
        _fail(transcript, SpepFailed(f"signed equivalence failed: {exc}"))
    transcript.append(
        {
            "step": "spep",
            "outcome": res.outcome,
            "closure": stats.get("mode"),
            "gi_nodes": stats.get("nodes"),
        }
    )
    if res.outcome != "found":
        _fail(transcript, SpepFailed("extracted codes are not signed-permutation equivalent"))
    s = res.perm
    transcript[-1]["sigma"] = list(s.sigma)
    transcript[-1]["signs"] = list(s.signs)

    # The product of orthonormal factors is checked once, as the witness.
    o_star = RationalOrthogonal(
        sol1.o_hat.matrix.transpose().mul(_perm_rotation(s)).mul(sol2.o_hat.matrix)
    )
    ok = verify_isomorphism(l1, l2, o_star)
    transcript.append({"step": "verify", "ok": ok})
    if not ok:
        _fail(transcript, VerificationFailed("composed map does not send L2 to L1"))
    return AttackResult(o_star=o_star, transcript=transcript)
