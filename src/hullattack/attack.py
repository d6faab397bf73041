"""End-to-end hull attack on Construction A lattice isomorphism.

Pipeline: recover the modulus k from the determinant, take the k-hull of
both lattices (which is a rotation of k Z^n exactly when the underlying
code is LCD), solve scaled ZLIP on each hull, pull the codes back through
the recovered rotations, solve signed permutation equivalence, and
compose the three maps into a single orthonormal witness.
A candidate modulus is tested on the order of the Gram matrix's row
module mod k.den, one Howell form of width n; a hull index too large for
it ends the search, and only an accepted candidate takes a kernel.

Every map before the witness is an integer transform of a lattice's
basis B, read through its Gram record B.B^T = G/den: the hull is C.B
for the coefficient HNF C (the lifted Howell form of the kernel of
that row module), with Gram matrix C.G.C^T/den; ZLIP returns a
unimodular U on that Gram matrix, so the frame of k Z^n is T.B with
T = U.C; and the rotated basis R = B.o_hat^T is the integer product
G.T^T/(den.k), whose inverse is T/k, so each code is read off R mod k
with no inverse taken.  The one rational matrix built is o_star, one
integer matrix over one denominator from the two frames and the signed
permutation P, and it is checked once.
The witness comes with a change-of-basis certificate, the integer
matrix T* = R2.P^T.T1/k with T*.B1 = B2.o_star^T, and the verifier
accepts it from integer products alone: the attack takes no matrix
inverse, determinant, HNF or LLL after ZLIP.
"""

from __future__ import annotations

from operator import mul

from .codes import from_generator
from .equiv import SignedPerm, closure_mode, spep
from .errors import (
    BadModulus,
    DimensionMismatch,
    ExtractionExhausted,
    HullAttackError,
    HullNotTrivial,
    NoCandidate,
    NotARotation,
    NotIntegral,
    ParseError,
    SpepFailed,
    VerificationFailed,
    ZlipFailed,
)
from .lattices import (
    LatticeBasis,
    RationalOrthogonal,
    gram_row_module,
    hull_coefficients_from,
    rotated_rows,
    sublattice_gram,
)
from .linalg import IntMatrix, RatMatrix, Value, gram_solves, row_products
from .modring import ModMatrix, howell_order
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


class AttackResult(Value, frozen=False, uncompared=("certificate",)):
    __slots__ = ("o_star", "transcript", "certificate")

    def __init__(
        self,
        o_star: RationalOrthogonal,
        transcript: list[dict] | None = None,
        certificate: IntMatrix | None = None,
    ):
        self.o_star = o_star
        self.transcript = [] if transcript is None else transcript
        # T* with T*.B1 = B2.o_star^T, which the attack verified; not
        # serialized, so None on a result read back from JSON.
        self.certificate = certificate

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


def _hull_det_matches(
    lattice: LatticeBasis, k: int, transcript: list[dict], refusal: str
) -> IntMatrix | None:
    """The coefficient HNF C of the k-hull (basis C . B) when |det hull|
    = k^n, which holds exactly for LCD codes; None when it is larger, and
    HullNotTrivial(refusal) with the transcript when it is smaller.

    |det hull| = [L : hull] . |det L|, the index being the order of G's
    row module mod k.den (`gram_row_module`): (k.den)^n / prod gcd(s_i,
    k.den) over G's Smith invariants s_i.  Each candidate divides the
    next, so that product never falls and |det hull| < k^n stays below.

    No index matches when k^n/|det L| is not an integer (a wrong
    supplied k; a recovered one has k^e = |det L1|), so then None comes
    before any Howell form.  The outcome is the one the index would
    give: where |det hull| would be smaller, no later candidate passes
    either, and the search ends in the same refusal.
    """
    d, target = lattice.abs_det, k**lattice.n
    if d and target * d.denominator % d.numerator:
        return None
    module = gram_row_module(lattice, k)
    hull_det = howell_order(module) * d
    if hull_det < target:
        _fail(transcript, HullNotTrivial(refusal))
    return None if hull_det > target else hull_coefficients_from(module)


def _assemble(
    l1: LatticeBasis, l2: LatticeBasis, t1: IntMatrix, t2: IntMatrix, s: SignedPerm, k: int
) -> RationalOrthogonal:
    """o_star = o_hat1^T . P . o_hat2 with o_hat_i = T_i . B_i / k and P
    the transpose of the signed permutation matrix of s.

    With B_i = A_i / db_i and F_i = T_i . A_i that is
    F1^T . P . F2 / (k^2 . db1 . db2): P moves row i of F2 to row
    sigma[i] with sign signs[i], and the three integer products (F1, F2
    and F1^T times the moved F2) run on `row_products`; one gcd brings
    the quotient to lowest terms.  The product of orthonormal factors is
    checked once, as the witness.
    """
    (a1, db1), (a2, db2) = (l1.basis.num, l1.basis.den), (l2.basis.num, l2.basis.den)
    f1 = list(row_products(t1.entries, a1))
    f2 = list(row_products(t2.entries, a2))
    moved = [None] * s.n
    for i, (j, sign) in enumerate(zip(s.sigma, s.signs)):
        moved[j] = f2[i] if sign == 1 else [-x for x in f2[i]]
    rows = list(row_products(list(zip(*f1)), moved))
    return RationalOrthogonal(RatMatrix.over(rows, k * k * db1 * db2))


def _certificate(r2: IntMatrix, t1: IntMatrix, s: SignedPerm, k: int) -> IntMatrix:
    """T* = R2 . P^T . T1 / k, the change of basis with T* . B1 = B2 . o_star^T
    for the o_star of `_assemble`: B2 . o_star^T = R2 . P^T . o_hat1 and
    o_hat1 = T1 . B1 / k.  Row j of P^T . T1 is signs[j] times row
    sigma[j] of T1, and R2 times those rows runs on `row_products`, read
    one row at a time.  Raises NotIntegral, at the first row with an
    entry that k does not divide, unless k divides every entry, which is
    when L2 . o_star^T lies in L1.
    """
    rows = t1.entries
    moved = [rows[j] if sign == 1 else [-x for x in rows[j]] for j, sign in zip(s.sigma, s.signs)]
    out = []
    for row in row_products(r2.entries, moved):
        qs = [divmod(x, k) for x in row]
        if any(rem for _, rem in qs):
            raise NotIntegral("the change of basis of the witness is not integral")
        out.append(tuple(q for q, _ in qs))
    return IntMatrix(tuple(out))


def verify_isomorphism(
    l1: LatticeBasis,
    l2: LatticeBasis,
    o_star: RatMatrix | RationalOrthogonal,
    certificate: IntMatrix | None = None,
) -> bool:
    """o_star is orthonormal and maps L2 onto L1 (no exceptions).

    A RatMatrix is checked for M . M^T = I here; a RationalOrthogonal
    passed that check when it was built.  The image B2 . o_star^T then
    spans L1 exactly when T = (B2 . o_star^T) . B1^-1 is integral with
    |det T| = 1.  As o_star is orthonormal, |det T| = |det L2| / |det L1|,
    so the determinant half is |det L1| = |det L2| != 0, read off the
    two Gram records.  With B_i = A_i / e_i and o_star = M / D as stored,
    the image is A2 . M^T / (e2 . D), formed over the integers.

    With a `certificate` T*, an integer matrix, T is not computed but
    checked: T* . B1 = B2 . o_star^T, i.e. T* . A1 . e2 . D = A2 . M^T . e1,
    row by row.  Products only, no inverse, determinant, HNF or LLL once
    the two |det L| are cached.
    Without one, B1^-1 = B1^T . G1^-1 with B1 . B1^T = G1/den, so T is
    the solution of T . G1 = (A2 . M^T . A1^T) . den / (e1 . e2 . D).  Row
    by row, that right side is checked integral (T . G1 is, when T is)
    and T solved for on the fraction-free elimination of G1 that
    |det L1| was read off (`gram_solves`); the first row of T that is
    not integral ends the test.  A singular B1 spans no full-rank
    lattice, so the answer is False.  No Howell form runs on either
    path, so the verifier shares no kernel with the canonical forms the
    solver builds; and its products are its own dot products, not the
    solver's `row_products`, so a fault in that packed product cannot
    both build a witness and approve it.
    """
    n = l1.n
    if isinstance(o_star, RatMatrix):
        if o_star.rows != n or o_star.cols != n:
            return False
        try:
            o_star = RationalOrthogonal(o_star)
        except NotARotation:
            return False
    if not n == l2.n == o_star.n or l1.abs_det == 0 or l1.abs_det != l2.abs_det:
        return False
    if certificate is not None and (certificate.rows != n or certificate.cols != n):
        return False
    m, d = o_star.matrix.num, o_star.matrix.den
    (a1, e1), (a2, e2) = (l1.basis.num, l1.basis.den), (l2.basis.num, l2.basis.den)
    # The rows of M are the columns of M^T, and likewise for A1.
    if certificate is not None:
        f, cols = e2 * d, list(zip(*a1))
        return all(
            [f * sum(map(mul, t, col)) for col in cols] == [e1 * sum(map(mul, b, mr)) for mr in m]
            for t, b in zip(certificate.entries, a2)
        )
    den = l1.gram_record.cleared[1]
    images = ([sum(map(mul, row, mr)) for mr in m] for row in a2)
    x = ([den * sum(map(mul, image, ar)) for ar in a1] for image in images)
    return gram_solves(l1.gram_record.triangle, x, e1 * e2 * d)


def hull_attack(l1: LatticeBasis, l2: LatticeBasis, k: int | None = None) -> AttackResult:
    """Recover an orthonormal o_star with o_star . L2 = L1.

    A supplied k is the one candidate modulus; when k is None the
    candidates are recovered from the determinant.  Each is validated by
    the hull signature on both inputs, in increasing order, until one
    passes on both or `_hull_det_matches` ends the search.  Raises
    NoCandidate, HullNotTrivial, BadModulus, ZlipFailed, SpepFailed or
    VerificationFailed; each failure carries the partial transcript on
    the exception's .transcript attribute.
    """
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    n = l1.n
    transcript: list[dict] = []

    if k is not None:
        if k < 2 or k % 4 == 0:
            _fail(transcript, BadModulus(f"modulus must be >= 2 and not 0 mod 4, got {k}"))
        transcript.append({"step": "modulus", "k": k, "supplied": True})
        candidates = [k]
        refusal = f"k-hull determinant is not {k}^{n} for the supplied modulus"
    else:
        found = recover_modulus(l1)
        transcript.append(
            {
                "step": "modulus",
                "determinant": str(l1.abs_det),
                "candidates": [[c, m] for c, m in found],
                "supplied": False,
            }
        )
        if not found:
            _fail(
                transcript,
                NoCandidate(f"determinant {l1.abs_det} admits no modulus candidate"),
            )
        candidates = [c for c, _m in found]
        refusal = "no candidate modulus carries the trivial-hull signature"
    for k in candidates:
        h1 = _hull_det_matches(l1, k, transcript, refusal)
        h2 = None if h1 is None else _hull_det_matches(l2, k, transcript, refusal)
        if h2 is not None:
            break
    else:
        _fail(transcript, HullNotTrivial(refusal))
    transcript[-1]["k"] = k

    # _hull_det_matches accepted both hulls, so each |det| is exactly k^n.
    transcript.append({"step": "hull", "k": k, "hull_dets": [str(k**n)] * 2})
    # SPEP has no closure for k = 0 mod 4: refuse with its error before
    # ZLIP and code extraction run.
    try:
        closure_mode(k)
    except BadModulus as exc:
        _fail(transcript, SpepFailed(f"signed equivalence failed: {exc}"))

    # T_i = U_i . C_i: the frame T_i . B_i of k Z^n in L_i's basis coordinates.
    frames = []
    for idx, lattice, coeff in ((1, l1, h1), (2, l2, h2)):
        try:
            sol = solve_scaled_zlip(sublattice_gram(lattice, coeff), k)
        except NotARotation as exc:
            _fail(transcript, ZlipFailed(f"hull of lattice {idx} is not a rotation of kZ^n: {exc}"))
        transcript.append({"step": "zlip", "lattice": idx, "method": sol.method})
        frames.append(sol.u.mul(coeff))
    t1, t2 = frames

    # R_i = B_i . o_hat_i^T contains k Z^n, as R_i^-1 = T_i / k: its rows
    # mod k generate the code.
    rotated, codes = [], []
    for idx, lattice, t in ((1, l1, t1), (2, l2, t2)):
        try:
            r = rotated_rows(lattice, t, k)
        except NotIntegral as exc:
            _fail(transcript, SpepFailed(f"lattice {idx} does not reduce to a code mod k: {exc}"))
        rotated.append(r)
        codes.append(from_generator(ModMatrix.from_rows(k, r.entries, n)))
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
    except ExtractionExhausted as exc:
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

    o_star = _assemble(l1, l2, t1, t2, s, k)
    try:
        certificate = _certificate(rotated[1], t1, s, k)
    except NotIntegral:
        certificate = None
    ok = certificate is not None and verify_isomorphism(l1, l2, o_star, certificate)
    transcript.append({"step": "verify", "ok": ok})
    if not ok:
        _fail(transcript, VerificationFailed("composed map does not send L2 to L1"))
    return AttackResult(o_star=o_star, transcript=transcript, certificate=certificate)
