"""Reference implementations the library no longer carries.

The row HNF by elimination, the canonical basis built on it, the LLL
that keeps the whole transformed Gram matrix current, and the
Fraction-per-entry forms of rational matrices serve as oracles for the
integer code that replaced them.  The rational inverse, determinant and
dual basis, lattice equality by a unimodular change of basis, and
membership and code reading through B^-1 are the side routes the library
dropped for `attack.verify_isomorphism`; they stay here as independent
checks of it.  So does the Bareiss inverse of G1 that the verifier run
without a certificate tested T against, before it solved for T on G1's
own elimination.  The hull test that took the kernel of the Gram matrix for
every candidate modulus checks the one that reads the Gram matrix's row
module, and the attack that tried every candidate modulus checks the one
that stops at the first hull index too large for its candidate.  The
ZLIP solver that reduced the Gram matrix G itself, with its checks
against k^2.den.I, checks the one that reduces the unit form
G/(k^2.den).  The projector through the inverse of G.G^T mod k, by
Gauss-Jordan on unit pivots with an integer adjugate when those stall,
checks the one read off a single Howell form, on a free basis the
caller supplies; listing every word of a code checks it on every LCD
code, free or not.  The Gram-Schmidt data
and the short-vector enumeration with one Fraction per mu[i][j] and per
norm check the enumeration on LLL's own integers d and lam;
`integer_gram_schmidt` reads those integers off the Fractions.  The
graph-isomorphism search that refined every node's coloring from
scratch, on the full matrices, checks the one whose children split their
parent's stable coloring by the individualized vertex.  The
orthogonal assembly that listed every short vector of the target norm
and backtracked over them checks the ZLIP fallback that takes the first
n norm-1 vectors, and still serves the solver on G, whose target norm
is k^2.den.  `gram`,
`o_hat`, `s_hull` and `lll_rows` are the test-only conveniences that
used to live in the library.  The plain integer product, one dot
product per entry, checks the packed one every general product in the
library now runs on.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import mul

from hullattack import kernels, zlip
from hullattack.attack import (
    AttackResult,
    _assemble,
    _certificate,
    _fail,
    recover_modulus,
    verify_isomorphism,
)
from hullattack.codes import LinearCode, from_generator
from hullattack.equiv import spep
from hullattack.errors import (
    BadModulus,
    DimensionMismatch,
    ExtractionExhausted,
    HullAttackError,
    HullNotTrivial,
    NoCandidate,
    NonSquare,
    NotARotation,
    NotLcd,
    NotIntegral,
    Singular,
    SpepFailed,
    VerificationFailed,
    ZlipFailed,
)
from hullattack.kernels import xgcd
from hullattack.lattices import (
    LatticeBasis,
    RationalOrthogonal,
    _hermite_lift,
    hull_coefficients,
    rotated_rows,
    sublattice_gram,
)
from hullattack.linalg import IntMatrix, RatMatrix, bareiss_det, congruence
from hullattack.modring import ModMatrix, kernel_mod
from hullattack.zlip import ZlipSolution, solve_scaled_zlip


def hnf_rows(rows, ncols):
    """Row-style Hermite normal form.

    Returns the nonzero rows: echelon shape, positive pivots, entries
    above each pivot reduced into [0, pivot).  Zero rows are dropped, so
    the result is the canonical basis of the row lattice.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if not m[i][c]:
                continue
            a, b = m[r][c], m[i][c]
            g, x, y = xgcd(a, b)
            u, v = -(b // g), a // g
            ri, rj = m[r], m[i]
            for t in range(c, ncols):
                rt, it = ri[t], rj[t]
                ri[t] = x * rt + y * it
                rj[t] = u * rt + v * it
        if m[r][c] < 0:
            m[r] = [-t for t in m[r]]
        p = m[r][c]
        rr = m[r]
        for i in range(r):
            q = m[i][c] // p
            if q:
                ri = m[i]
                for t in range(c, ncols):
                    ri[t] -= q * rr[t]
        r += 1
        if r == nrows:
            break
    return m[:r]


def hnf(m: IntMatrix) -> IntMatrix:
    """Canonical row Hermite normal form; zero rows dropped."""
    return IntMatrix.from_rows(hnf_rows([list(r) for r in m.entries], m.cols))


def canonical_basis(b: RatMatrix) -> RatMatrix:
    """Canonical representative of the row lattice of b: clear the common
    denominator, take the HNF, scale back.  Unique per lattice."""
    return RatMatrix.over(hnf_rows(b.num, b.cols), b.den)


def lll_gram(gram, delta_num, delta_den):
    """All-integer LLL reduction of a quadratic form, with its transform.

    gram is the integer Gram matrix G of some basis b (symmetric and
    positive definite).  Returns (H, G') where H is the transform that
    LLL-reduces b, so H.b is the reduced basis, and G' = H.G.H^T is its
    Gram matrix.  Every size reduction and swap is applied to the rows of
    H and to the rows and columns of G' alike; H is unimodular by
    construction and the basis itself is never touched (Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 2.6.7).

    Gram-Schmidt data is kept as the integers d[i] (leading principal
    Gram determinants) and lam[i][j] = mu[i][j] * d[j+1], so every
    division below is exact.  delta = delta_num/delta_den is the Lovász
    constant, 1/4 < delta <= 1.  Every decision depends only on ratios of
    inner products, so scaling G by a positive constant changes no step.
    Raises ValueError when G is not positive definite (dependent rows).
    """
    g = [list(r) for r in gram]
    n = len(g)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 0:
        return h, g

    d = [0] * (n + 1)
    d[0] = 1
    d[1] = g[0][0]
    if d[1] <= 0:
        raise ValueError("dependent rows")
    lam = [[0] * n for _ in range(n)]

    def gram_row(i):
        gi = g[i]
        for j in range(i + 1):
            u = gi[j]
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise ValueError("dependent rows")
                d[i + 1] = u

    def reduce_row(k, j):
        lkj = lam[k][j]
        djj = d[j + 1]
        if 2 * lkj > djj or 2 * lkj < -djj:
            q = (2 * lkj + djj) // (2 * djj)
            hk, hj = h[k], h[j]
            gk, gj = g[k], g[j]
            for t in range(n):
                hk[t] -= q * hj[t]
                gk[t] -= q * gj[t]
            # column k after row k, so G'[k][k] picks up -2q.G[k][j] + q^2.G[j][j]
            for gt in g:
                gt[k] -= q * gt[j]
            lam[k][j] -= q * djj
            lk, lj = lam[k], lam[j]
            for t in range(j):
                lk[t] -= q * lj[t]

    def swap_rows(k, kmax):
        h[k], h[k - 1] = h[k - 1], h[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for gt in g:
            gt[k], gt[k - 1] = gt[k - 1], gt[k]
        lk, lk1 = lam[k], lam[k - 1]
        for t in range(k - 1):
            lk[t], lk1[t] = lk1[t], lk[t]
        l = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + l * l) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - l * t) // d[k]
            lam[i][k - 1] = (bb * t + l * lam[i][k]) // d[k + 1]
        d[k] = bb

    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gram_row(k)
        reduce_row(k, k - 1)
        l = lam[k][k - 1]
        if delta_den * (d[k + 1] * d[k - 1] + l * l) < delta_num * d[k] * d[k]:
            swap_rows(k, kmax)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce_row(k, j)
            k += 1
    return h, g


def lll_rows(rows, delta_num, delta_den):
    """All-integer LLL reduction of a full-rank integer basis: `lll_gram`
    on the Gram matrix of the rows, its transform applied to the rows.
    Raises ValueError on dependent rows."""
    if not rows:
        return []
    gram = [[sum(map(mul, u, v)) for v in rows] for u in rows]
    h, _ = lll_gram(gram, delta_num, delta_den)
    cols = list(zip(*rows))
    return [[sum(map(mul, hr, col)) for col in cols] for hr in h]


def gram_schmidt(gram) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact Gram-Schmidt data of a basis, read off its Gram matrix
    G = B.B^T (square rows of rationals): (mu, squared norms of the b*
    vectors).  <b_i, b*_j> = G[i][j] - sum_t mu[j][t].mu[i][t].|b*_t|^2,
    so the basis itself is never needed.  Raises Singular on dependent
    rows."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms: list[Fraction] = []
    for i in range(n):
        mi = mu[i]
        for j in range(i):
            mj = mu[j]
            r = gram[i][j] - sum((mj[t] * mi[t] * norms[t] for t in range(j)), Fraction(0))
            mi[j] = r / norms[j]
        norm = gram[i][i] - sum((mi[t] * mi[t] * norms[t] for t in range(i)), Fraction(0))
        if norm == 0:
            raise Singular("dependent rows")
        norms.append(Fraction(norm))
    return mu, norms


def enumerate_short_vectors(gram, bound: Fraction) -> list[tuple[int, ...]]:
    """All coefficient vectors x != 0 with x . G . x^T <= bound, for the
    Gram matrix G = B.B^T of a basis (so ||x . B||^2 <= bound), one per
    +-pair (representative: first nonzero coefficient positive).

    Depth-first search over the exact Gram-Schmidt triangle; interval
    endpoints come from integer square roots, so the output is exact.
    Vectors appear in discovery order, which is deterministic.
    """
    bound = Fraction(bound)
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise NonSquare("enumeration needs a square Gram matrix")
    if bound < 0:
        return []
    mu, norms = gram_schmidt(gram)
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(i: int, remaining: Fraction) -> None:
        # (x_i + t)^2 * norms[i] <= remaining, t = sum_{j>i} x_j mu[j][i]
        t = sum((x[j] * mu[j][i] for j in range(i + 1, n)), Fraction(0))
        q = remaining / norms[i]
        # |x_i + t| <= sqrt(q): with t = a/bb, u = x_i*bb + a must satisfy
        # u^2 * q.den <= q.num * bb^2
        a, bb = t.numerator, t.denominator
        cap = q.numerator * bb * bb
        if cap < 0:
            return
        s = isqrt(cap // q.denominator)
        while (s + 1) * (s + 1) * q.denominator <= cap:
            s += 1
        while s * s * q.denominator > cap:
            s -= 1
        lo = -(-(-s - a) // bb)  # ceil((-s - a) / bb)
        hi = (s - a) // bb
        for xi in range(lo, hi + 1):
            x[i] = xi
            used = (xi + t) * (xi + t) * norms[i]
            if i == 0:
                if any(x):
                    out.append(tuple(x))
            else:
                descend(i - 1, remaining - used)
        x[i] = 0

    if n:
        descend(n - 1, bound)
    result = []
    for v in out:
        lead = next((c for c in v if c), 0)
        if lead > 0:
            result.append(v)
    return result


def integer_gram_schmidt(gram) -> tuple[list[int], list[list[int]]]:
    """The integers (d, lam) that `kernels.lll_gram` keeps, read off the
    Fraction data of `gram_schmidt` for an integer Gram matrix:
    d[i+1] = |b*_0|^2 ... |b*_i|^2 with d[0] = 1, and lam[i][j] =
    mu[i][j].d[j+1] below the diagonal, 0 elsewhere."""
    mu, norms = gram_schmidt(gram)
    d = [Fraction(1)]
    for norm in norms:
        d.append(d[-1] * norm)
    n = len(gram)
    lam = [[mu[i][j] * d[j + 1] if j < i else 0 for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for x in d + [y for row in lam for y in row if y])
    return [int(x) for x in d], [[int(x) for x in row] for row in lam]


def assemble_orthogonal_basis_listing_first(
    gram, d, lam, target: int
) -> list[tuple[int, ...]] | None:
    """Coefficient rows K of n pairwise orthogonal vectors of squared norm
    `target` in the lattice with integer Gram matrix `gram`, whose integer
    Gram-Schmidt data are d and lam, so that K.G.K^T = target.I; None when
    no such family exists.  Every vector of norm `target` is listed, under
    the enumeration's budget, before backtracking picks the first family
    in discovery order; the backtracking stops after as many nodes again.
    At target 1 the family, when there is one, is the first n vectors,
    which is what `zlip.solve_scaled_zlip` takes without a search.  The
    budget is read from `zlip` at call time, so a test can lower it
    there."""
    n = len(gram)
    vecs = []  # (x, G.x) for every x with x.G.x = target
    for x in zlip.short_vectors(d, lam, target):
        gx = [sum(map(mul, row, x)) for row in gram]
        if sum(map(mul, gx, x)) == target:
            vecs.append((x, gx))
    chosen: list[tuple] = []
    nodes = 0

    def extend(start: int) -> bool:
        nonlocal nodes
        if len(chosen) == n:
            return True
        for idx in range(start, len(vecs)):
            nodes += 1
            if nodes > zlip.NODE_BUDGET:
                raise NotARotation(f"orthogonal assembly exceeded {zlip.NODE_BUDGET} nodes")
            x, gx = vecs[idx]
            if all(sum(map(mul, gx, y)) == 0 for y, _ in chosen):
                chosen.append(vecs[idx])
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    return [x for x, _ in chosen]


def _is_scalar(m: list[list[int]], c: int) -> bool:
    return all(x == (c if i == j else 0) for i, row in enumerate(m) for j, x in enumerate(row))


def solve_scaled_zlip_on_gram(gram: tuple[list[list[int]], int], k: int) -> ZlipSolution:
    """Unimodular U with U.G.U^T = k^2.den.I for the Gram record
    (G, den) of a lattice, so that U.B/k carries it onto k*Z^n.
    LLL runs on G itself; the kernel is looked up in `kernels` at call
    time, so a test can replace it there."""
    if k < 1:
        raise ValueError(f"scale must be positive, got {k}")
    g, den = gram
    try:
        h, d, lam = kernels.lll_gram(g, 99, 100)
    except ValueError as exc:
        raise NotARotation(str(exc)) from None
    target = k * k * den
    u, method = IntMatrix.from_rows(h), "lll"
    # The kernel's d and lam steer the enumeration only: every check is
    # computed here from G.
    reduced = congruence(u.entries, g)
    if not _is_scalar(reduced, target):
        coeffs = assemble_orthogonal_basis_listing_first(reduced, d, lam, target)
        if coeffs is None:
            raise NotARotation("no orthogonal family of norm-k vectors")
        u, method = IntMatrix.from_rows(coeffs).mul(u), "enumeration"
        reduced = congruence(u.entries, g)
    if not _is_scalar(reduced, target):
        raise NotARotation("transform does not carry the Gram matrix to k^2.den.I")
    if abs(bareiss_det(u.entries)) != 1:
        raise NotARotation("transform is not unimodular")
    return ZlipSolution(u=u, k=k, method=method)


def construction_a_by_hnf(k: int, gen: ModMatrix) -> IntMatrix:
    """The HNF of the lifted generator stacked over k.I."""
    n = gen.cols
    rows = [list(r) for r in gen.entries]
    rows += [[k * int(i == j) for j in range(n)] for i in range(n)]
    return hnf(IntMatrix.from_rows(rows))


def hull_coefficients_by_hnf(lattice: LatticeBasis, s: int) -> IntMatrix:
    """The HNF of the lifted kernel of G mod s.den stacked over s.den.I."""
    n = lattice.n
    g, den = lattice.gram_record.cleared
    big = s * den
    rows = [[big * int(i == j) for j in range(n)] for i in range(n)]
    if big > 1:
        rows = [list(r) for r in kernel_mod(ModMatrix.from_rows(big, g)).entries] + rows
    return hnf(IntMatrix.from_rows(rows))


def hull_coefficients_by_kernel(lattice: LatticeBasis, s: int) -> IntMatrix:
    """The lifted Howell form of the kernel of G mod s.den, taken from G
    itself."""
    if s < 1:
        raise ValueError(f"scale must be positive, got {s}")
    scaled, den = lattice.gram_record.cleared
    big = s * den
    if big == 1:
        # Every c satisfies c.G = 0 mod 1 (and Z_1 is no ModMatrix modulus).
        return IntMatrix.identity(lattice.n)
    return IntMatrix(_hermite_lift(kernel_mod(ModMatrix.from_rows(big, scaled))))


def hull_det_matches_by_kernel(lattice: LatticeBasis, k: int) -> IntMatrix | None:
    """The attack's hull test as it took a kernel for every candidate:
    C from the kernel of G mod k.den, accepted when the product of its
    pivots times |det L| is k^n."""
    n = lattice.n
    coeff = hull_coefficients_by_kernel(lattice, k)
    if prod(coeff.entries[i][i] for i in range(n)) * lattice.abs_det != k**n:
        return None
    return coeff


def hull_attack_trying_every_modulus(
    l1: LatticeBasis, l2: LatticeBasis, k: int | None = None
) -> AttackResult:
    """`attack.hull_attack` as it tried every candidate modulus in turn,
    with the two-sided hull test of `hull_det_matches_by_kernel` (None on
    a miss from either side): a candidate whose hull index overshoots
    does not end the search."""
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
        h1 = hull_det_matches_by_kernel(l1, k)
        h2 = None if h1 is None else hull_det_matches_by_kernel(l2, k)
        if h2 is not None:
            break
    else:
        _fail(transcript, HullNotTrivial(refusal))
    transcript[-1]["k"] = k

    # hull_det_matches_by_kernel accepted both hulls, so each |det| is exactly k^n.
    transcript.append({"step": "hull", "k": k, "hull_dets": [str(k**n)] * 2})

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
    except (ExtractionExhausted, NotLcd, BadModulus) as exc:
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


class NotAUnit(HullAttackError):
    """Element or determinant is not invertible modulo k."""


def _inverse_by_elimination(m: ModMatrix) -> ModMatrix | None:
    """Gauss-Jordan restricted to unit pivots; None when it stalls."""
    n, k = m.rows, m.k
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    for p in range(n):
        piv = next((r for r in range(p, n) if gcd(a[r][p], k) == 1), None)
        if piv is None:
            return None
        a[p], a[piv] = a[piv], a[p]
        inv = pow(a[p][p], -1, k)
        a[p] = [(inv * x) % k for x in a[p]]
        for i in range(n):
            if i != p and a[i][p]:
                f = a[i][p]
                ai, ap = a[i], a[p]
                for t in range(2 * n):
                    ai[t] = (ai[t] - f * ap[t]) % k
    return ModMatrix(k, n, tuple(tuple(row[n:]) for row in a))


def inverse_mod(m: ModMatrix) -> ModMatrix:
    """Exact inverse over Z/kZ; raises NotAUnit when det is not a unit.

    Gauss-Jordan on unit pivots succeeds only for a unit determinant.
    When it stalls, the integer adjugate decides: its denominator is
    +-det, and the inverse exists exactly when that is a unit mod k.
    """
    if m.rows != m.cols:
        raise NonSquare("inverse needs a square matrix")
    got = _inverse_by_elimination(m)
    if got is not None:
        return got
    k = m.k
    try:
        num, den = inv_int_rows([list(r) for r in m.entries])
    except Singular:
        den = 0
    if gcd(den, k) != 1:
        raise NotAUnit(f"determinant {abs(den) % k} (up to sign) is not a unit mod {k}")
    f = pow(den % k, -1, k)
    return ModMatrix(k, m.cols, tuple(tuple((x * f) % k for x in row) for row in num))


def projection_matrix_by_inverse(c: LinearCode, g: ModMatrix) -> ModMatrix:
    """The canonical projector onto C: Pi = G^T (G G^T)^-1 G for a free
    basis G of C, given by the caller.  Independent of the choice of G.

    Pi is symmetric, so after H = (G G^T)^-1 G only the upper triangle
    of G^T H is formed, and mirrored.
    """
    try:
        h = inverse_mod(g.mul(g.transpose())).mul(g)
    except NotAUnit as exc:
        raise NotLcd(f"Gram determinant is not a unit: {exc}") from None
    k, n = c.k, c.n
    gcols = list(zip(*g.entries))
    hcols = list(zip(*h.entries))
    pi = [[0] * n for _ in range(n)]
    for i, gi in enumerate(gcols):
        row = pi[i]
        for j in range(i, n):
            row[j] = pi[j][i] = sum(map(mul, gi, hcols[j])) % k
    return ModMatrix(k, n, tuple(map(tuple, pi)))


def code_words(c: LinearCode) -> list[tuple[int, ...]]:
    """Every word of C, once each: the combinations sum a_i . h_i of its
    Howell rows with 0 <= a_i < k/pivot_i."""
    k, n = c.k, c.n
    out = [(0,) * n]
    for row in c.gen.entries:
        pivot = next(filter(None, row))
        out = [
            tuple((x + a * y) % k for x, y in zip(w, row)) for a in range(k // pivot) for w in out
        ]
    return out


def projection_matrix_by_words(c: LinearCode) -> ModMatrix:
    """The projector onto C along C^perp by listing C: row i is the one
    word x of C with e_i - x orthogonal to every generator row.  NotLcd
    when some row has no such word or more than one, which happens
    exactly when C meets its dual."""
    k, n = c.k, c.n
    words = code_words(c)
    rows = []
    for i in range(n):
        hits = [
            x
            for x in words
            if all((row[i] - sum(map(mul, x, row))) % k == 0 for row in c.gen.entries)
        ]
        if len(hits) != 1:
            raise NotLcd(f"{len(hits)} words of C differ from e_{i} by a dual word")
        rows.append(hits[0])
    return ModMatrix(k, n, tuple(rows))


def refine_on_matrices(a1, a2, colors1, colors2, n):
    """Joint color refinement read off the full matrices, every round
    from scratch; None when the color histograms split."""
    while True:
        sig_ids: dict = {}
        new1 = [0] * n
        new2 = [0] * n
        for a, colors, new in ((a1, colors1, new1), (a2, colors2, new2)):
            for v in range(n):
                row = a[v]
                sig = (
                    colors[v],
                    tuple(sorted((colors[u], row[u]) for u in range(n) if u != v and row[u])),
                )
                if sig not in sig_ids:
                    sig_ids[sig] = len(sig_ids)
                new[v] = sig_ids[sig]
        hist1: dict = {}
        hist2: dict = {}
        for c in new1:
            hist1[c] = hist1.get(c, 0) + 1
        for c in new2:
            hist2[c] = hist2.get(c, 0) + 1
        if hist1 != hist2:
            return None
        if len(set(new1)) == len(set(colors1)):
            return new1, new2
        colors1, colors2 = new1, new2


def weighted_gi_by_full_refinement(pi1: ModMatrix, pi2: ModMatrix, stats: dict | None = None):
    """All isomorphisms p with A1[i][j] == A2[p(i)][p(j)], lazily, by the
    same individualization-refinement search as `equiv.solve_weighted_gi`,
    but every node refines its whole coloring from scratch: a child
    individualizes v and u with one fresh color and runs full rounds."""
    if stats is not None:
        stats.setdefault("nodes", 0)
    if pi1.k != pi2.k or pi1.rows != pi2.rows:
        return
    n = pi1.rows
    if n == 0:
        yield ()
        return
    a1, a2 = pi1.entries, pi2.entries
    init_ids: dict = {}
    c1 = [init_ids.setdefault(a1[v][v], len(init_ids)) for v in range(n)]
    c2 = [init_ids.setdefault(a2[v][v], len(init_ids)) for v in range(n)]

    def search(colors1, colors2):
        if stats is not None:
            stats["nodes"] += 1
        refined = refine_on_matrices(a1, a2, colors1, colors2, n)
        if refined is None:
            return
        colors1, colors2 = refined
        cells1: dict = {}
        cells2: dict = {}
        for v in range(n):
            cells1.setdefault(colors1[v], []).append(v)
            cells2.setdefault(colors2[v], []).append(v)
        target = min((c for c in cells1 if len(cells1[c]) > 1), default=None)
        if target is None:
            perm = [0] * n
            for color, vs in cells1.items():
                perm[vs[0]] = cells2[color][0]
            if all(a1[i][j] == a2[perm[i]][perm[j]] for i in range(n) for j in range(n)):
                yield tuple(perm)
            return
        v = cells1[target][0]
        fresh = n + max(colors1) + 1
        for u in cells2[target]:
            nc1, nc2 = list(colors1), list(colors2)
            nc1[v] = nc2[u] = fresh
            yield from search(nc1, nc2)

    yield from search(c1, c2)


def gram(lattice: LatticeBasis) -> RatMatrix:
    """B . B^T as a rational matrix product."""
    return lattice.basis.mul(lattice.basis.transpose())


def o_hat(sol, basis: RatMatrix) -> RationalOrthogonal:
    """U.B/k for the ZLIP solution of the basis B whose Gram matrix was
    solved: the orthonormal transform with rotate(lattice, o_hat) = k*Z^n."""
    frame = sol.u.to_rat().mul(basis)
    return RationalOrthogonal(RatMatrix.over(frame.num, frame.den * sol.k))


def s_hull(lattice: LatticeBasis, s: int) -> LatticeBasis:
    """The s-hull as a basis: the rows C.B for C = hull_coefficients."""
    return LatticeBasis(lattice.n, hull_coefficients(lattice, s).to_rat().mul(lattice.basis))


def inv_int_rows(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Exact inverse of a square integer matrix as (numerators, den).

    Fraction-free Gauss-Jordan (Bareiss/Montante) on [M | I]: after the
    sweep the left block is den * I and the right block is den * inverse,
    with den = +-det.  Every interior division is exact.

    At pivot p only the columns that can be nonzero off their own row
    are swept: the left columns after p, and the identity columns owned
    by the rows already used as pivots (a row swap swaps owners).  The
    left columns before p hold only their row's diagonal entry, and an
    identity column not yet reached only its owner's entry, so the
    skipped updates would compute 0 from 0; those two entries of each
    row are updated on their own, so the diagonal invariant is checked
    on computed values.
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    owner = list(range(n, 2 * n))  # owner[i]: the identity column that row i holds
    prev = 1
    for p in range(n):
        if m[p][p] == 0:
            for r in range(p + 1, n):
                if m[r][p]:
                    m[p], m[r] = m[r], m[p]
                    owner[p], owner[r] = owner[r], owner[p]
                    break
            else:
                raise Singular("matrix is singular")
        piv = m[p][p]
        rp = m[p]
        swept = list(range(p + 1, n)) + owner[: p + 1]
        for i in range(n):
            if i == p:
                continue
            f = m[i][p]
            ri = m[i]
            for j in swept:
                q, rem = divmod(piv * ri[j] - f * rp[j], prev)
                if rem:
                    raise AssertionError("inexact division in fraction-free elimination")
                ri[j] = q
            # Row i's own entry: its diagonal once eliminated, else its identity entry.
            j = i if i < p else owner[i]
            q, rem = divmod(piv * ri[j], prev)
            if rem:
                raise AssertionError("inexact division in fraction-free elimination")
            ri[j] = q
            ri[p] = 0
        prev = piv
    den = m[0][0] if n else 1
    for i in range(n):
        if m[i][i] != den:
            raise AssertionError("fraction-free elimination lost its diagonal invariant")
    return [m[i][n:] for i in range(n)], den


def det(m: RatMatrix) -> Fraction:
    """Exact determinant of a square rational matrix."""
    if m.rows != m.cols:
        raise NonSquare("determinant needs a square matrix")
    return Fraction(bareiss_det(m.num), m.den**m.rows)


def rat_inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse of a square rational matrix: (N/den)^-1 = den.N^-1."""
    if m.rows != m.cols:
        raise NonSquare("inverse needs a square matrix")
    inv, idet = inv_int_rows(m.num)
    return RatMatrix.over([[m.den * x for x in row] for row in inv], idet)


def dual_basis(b: RatMatrix) -> RatMatrix:
    """Basis D of the dual lattice: D . B^T = I."""
    return rat_inverse(b.transpose())


def same_lattice(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether the rows of a and of a nonsingular b span the same lattice:
    T = a . b^-1 is an integer matrix with |det T| = 1.  Raises NonSquare
    unless both are n x n, Singular when b is singular."""
    n = b.rows
    if b.cols != n or a.rows != n or a.cols != n:
        raise NonSquare(f"cannot compare {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    t = a.mul(rat_inverse(b))
    return t.den == 1 and abs(bareiss_det(t.num)) == 1


def lattice_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Set-level equality of two lattices (see `same_lattice`)."""
    return a.n == b.n and same_lattice(a.basis, b.basis)


_inverse = lru_cache(maxsize=16)(rat_inverse)


def contains(lattice: LatticeBasis, v) -> bool:
    """Exact membership of a rational vector: v . B^-1 is integral."""
    return RatMatrix.from_rows([v]).mul(_inverse(lattice.basis)).den == 1


def mod_reduce_to_code(lattice: LatticeBasis, k: int) -> LinearCode | None:
    """The code C with L = C + kZ^n, read off an integral basis mod k;
    None unless the basis is integral and contains kZ^n, i.e. k.B^-1 is
    integral."""
    if lattice.basis.den != 1 or k % rat_inverse(lattice.basis).den:
        return None
    return from_generator(ModMatrix.from_rows(k, lattice.basis.num, lattice.n))


def fractions(m: RatMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The entries of m, one Fraction each."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.num)


def fraction_str(x: Fraction) -> str:
    """The entry format of the matrix files: "p" or "p/q"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def int_product(a, b):
    """a . b for integer rows, one dot product per entry: the plain
    product that `linalg.row_products` packs."""
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def fraction_product(a, b):
    """a . b for rows of Fractions, term by term."""
    cols = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a
    )


def fraction_rows_orthonormal(rows) -> bool:
    """rows . rows^T = I for rows of Fractions, entry by entry."""
    n = len(rows)
    prod = fraction_product(rows, list(zip(*rows)))
    return all(prod[i][j] == (i == j) for i in range(n) for j in range(n))
