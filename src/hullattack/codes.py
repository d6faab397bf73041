"""Linear codes over Z/kZ: duals, hulls, LCD tests, signed closures.

A code is stored by the Howell form g of its generator, which makes code
equality a tuple comparison, and g serves every computation below, free
or not.  A code's projector is read off the Howell form of [g.g^T | g];
the signed closures are never built for SPEP, because their projectors
expand from the code's own.

The LCD test needs neither the dual nor the hull.  For the Howell
generator g of C, x -> x.g^T maps C onto the row module of g.g^T, and
its kernel is C intersect C^perp.  So |C| = |hull| . |row module of
g.g^T|, and C is LCD exactly when that row module is as large as C:
one r x r product and one Howell form for r rows, for every k and every
code, free or not (over a field, det(G.G^T) != 0; Massey, "Linear codes
with complementary duals", 1992).
"""

from __future__ import annotations

import random
from operator import mul

from .errors import BadModulus, NotLcd, ParseError, Timeout
from .linalg import IntMatrix, Value, _set, json_int
from .modring import ModMatrix, howell_form, howell_order, is_unit_det, kernel_mod


class LinearCode(Value):
    """A linear code C <= Z_k^n, identified by its canonical generator."""

    __slots__ = ("k", "n", "gen")

    def __init__(self, k: int, n: int, gen: ModMatrix):
        _set(self, "k", k)
        _set(self, "n", n)
        _set(self, "gen", gen)

    def to_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "gen": self.gen.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "LinearCode":
        if not isinstance(d, dict):
            raise ParseError("code JSON must be an object")
        k, n = json_int(d, "k"), json_int(d, "n")
        gen = ModMatrix.from_dict(d.get("gen"))
        if gen.k != k or gen.cols != n:
            raise ParseError("code generator does not match declared (k, n)")
        return from_generator(gen)


def from_generator(gen: ModMatrix) -> LinearCode:
    """Build a code from any generator matrix (rows need not be free)."""
    return LinearCode(gen.k, gen.cols, howell_form(gen))


def code_from_rows(k: int, rows, n: int | None = None) -> LinearCode:
    return from_generator(ModMatrix.from_rows(k, rows, n))


def dual(c: LinearCode) -> LinearCode:
    """The dual code: all words orthogonal to C under the standard dot."""
    return from_generator(kernel_mod(c.gen))


def hull(c: LinearCode) -> LinearCode:
    """C intersect its dual, computed as the kernel of the stacked
    generators of C and its dual."""
    return from_generator(kernel_mod(c.gen.stack(dual(c).gen)))


def is_lcd(c: LinearCode) -> bool:
    """Linear complementary dual: the hull is the zero code.

    x -> x.g^T, for the Howell generator g, maps C onto the row module
    of g.g^T with kernel the hull, so the hull is zero exactly when that
    module has |C| elements.
    """
    g = c.gen
    return howell_order(howell_form(g.mul(g.transpose()))) == howell_order(g)


def is_free_lcd(c: LinearCode) -> bool:
    """LCD, and free: |C| is a power of k.

    An LCD code is a direct summand of Z_k^n (Z_k^n = C + C^perp), so it
    is projective, hence free of some rank r_p over each prime-power
    factor p^e of k, and |C| is the product of the p^(e.r_p).  It is
    free over Z_k exactly when those local ranks agree, which is exactly
    when |C| = k^r for some r.
    """
    if not is_lcd(c):
        return False
    order = howell_order(c.gen)
    while order % c.k == 0:
        order //= c.k
    return order == 1


class ClosureMatrices(Value):
    """Integer matrices behind the signed closures.

    interleave maps x to (x_1, -x_1, ..., x_n, -x_n); reading back every
    other coordinate is a right inverse over Z.  For k = 2m with m odd,
    extended appends the block m*I, mapping x to
    (x_1, -x_1, ..., x_n, -x_n, m*x_1, ..., m*x_n).
    """

    __slots__ = ("n", "interleave", "extended")

    def __init__(self, n: int, interleave: IntMatrix, extended: IntMatrix | None):
        _set(self, "n", n)
        _set(self, "interleave", interleave)
        _set(self, "extended", extended)


def closure_matrices(n: int, k: int | None = None) -> ClosureMatrices:
    inter = [[0] * (2 * n) for _ in range(n)]
    for i in range(n):
        inter[i][2 * i] = 1
        inter[i][2 * i + 1] = -1
    ext = None
    if k is not None:
        if k % 2 or k % 4 == 0:
            raise BadModulus(f"extended closure needs k = 2m with m odd, got k={k}")
        m = k // 2
        ext = [row + [m * int(i == j) for j in range(n)] for i, row in enumerate(inter)]
        ext = IntMatrix.from_rows(ext)
    return ClosureMatrices(n=n, interleave=IntMatrix.from_rows(inter), extended=ext)


def closure_mode(k: int) -> str:
    """The closure SPEP runs on for modulus k: "signed", of length 2n, for
    odd k, "extended", of length 3n, for k = 2 mod 4 (k = 2 included);
    BadModulus for k = 0 mod 4, which neither closure supports."""
    if k % 2 == 1:
        return "signed"
    if k % 4 == 2:
        return "extended"
    raise BadModulus(f"signed equivalence needs k odd or k = 2 mod 4, got k={k}")


def _inherit_closure(c: LinearCode, t: IntMatrix) -> LinearCode:
    """The code generated by the rows of C's generator times T.

    T has a right inverse over Z, so x -> x . T is injective on Z_k^n and
    the closure is isomorphic to C as a module.
    """
    return from_generator(c.gen.mul(ModMatrix.from_rows(c.k, t.entries)))


def signed_closure(c: LinearCode) -> LinearCode:
    """Length-2n code generated by the signed interleavings of C's words.

    For odd k the closure doubles every inner product (2 is a unit), so
    it preserves freeness and LCD in both directions.
    """
    return _inherit_closure(c, closure_matrices(c.n).interleave)


def extended_signed_closure(c: LinearCode) -> LinearCode:
    """Length-3n closure for k = 2m with m odd: interleavings plus an
    m-scaled copy.  Inner products scale by m^2 + 2, a unit mod 2m."""
    if c.k % 2 or c.k % 4 == 0:
        raise BadModulus(f"extended closure needs k = 2m with m odd, got k={c.k}")
    return _inherit_closure(c, closure_matrices(c.n, c.k).extended)


def projection_matrix(c: LinearCode) -> ModMatrix:
    """The projector Pi onto C along C^perp; NotLcd unless C is LCD.

    For the Howell generator g (r rows, free or not), the rows of
    [g.g^T | g] span the graph {(x.g^T, x) : x in C} of a map whose
    kernel is the hull, so its Howell form has a row with a zero first
    block exactly when C is not LCD.  Otherwise row i of Pi is the one x
    in C with e_i - x in C^perp, that is with x.g^T = e_i.g^T, column i
    of g: reducing that column against the first block gives the
    coefficients q_i of x on the form's rows (a residue would mean there
    is no such x, which LCD rules out).  Pi is symmetric, so only the upper triangle of
    q.B, for the second block B, is formed, and mirrored.
    """
    g = c.gen
    k, n, r = c.k, c.n, g.rows
    gt = g.transpose()
    gram = g.mul(gt)
    form = howell_form(ModMatrix(k, r + n, tuple(a + b for a, b in zip(gram.entries, g.entries))))
    pivots = []
    for row in form.entries:
        p = next((j for j in range(r) if row[j]), None)
        if p is None:
            raise NotLcd(f"the code meets its dual mod {k}")
        pivots.append((p, row[p], row[:r]))
    coeffs = []
    for t in gt.entries:
        q = []
        for p, d, a in pivots:
            x = t[p] // d
            if x:
                t = [(ti - x * ai) % k for ti, ai in zip(t, a)]
            q.append(x)
        if any(t):
            raise NotLcd(f"the code and its dual do not span Z_{k}^{n}")
        coeffs.append(q)
    bcols = ModMatrix(k, n, tuple(row[r:] for row in form.entries)).transpose().entries
    pi = [[0] * n for _ in range(n)]
    for i, qi in enumerate(coeffs):
        row = pi[i]
        for j in range(i, n):
            row[j] = pi[j][i] = sum(map(mul, qi, bcols[j])) % k
    return ModMatrix(k, n, tuple(map(tuple, pi)))


def closure_projection(c: LinearCode) -> ModMatrix:
    """The projector of the closure SPEP runs on for C's modulus
    (`closure_mode`): `signed_closure(c)` for odd k,
    `extended_signed_closure(c)` for k = 2 mod 4.  It is read off C's
    own projector without building the closure, and NotLcd is raised
    exactly when the closure's projector would raise it.

    The closure is generated by G.T, where column a of T holds a single
    coefficient c_a in {1, -1, h} on row i_a (h = k/2 for the extended
    tail), and T.T^T = t.I with t = 2 for odd k, or t = h^2 + 2, odd and
    prime to h, for k = 2h.  t is a unit, so the closure is LCD exactly
    when C is, and its projector is t^-1 . T^T . Pi . T, whose entry
    (a, b) is t^-1 . c_a . c_b . Pi[i_a][i_b].
    """
    k, n = c.k, c.n
    coords = [(i, s) for i in range(n) for s in (1, -1)]
    t = 2
    if closure_mode(k) == "extended":
        h = k // 2
        coords += [(i, h) for i in range(n)]
        t += h * h
    pi = projection_matrix(c).entries
    u = pow(t, -1, k)
    wide = [[u * cb * row[j] for j, cb in coords] for row in pi]
    rows = tuple(tuple([(ca * x) % k for x in wide[i]]) for i, ca in coords)
    return ModMatrix(k, len(coords), rows)


def _signed_image(c: LinearCode, sigma, signs) -> ModMatrix:
    """Generator rows of {y : y_sigma(i) = signs_i * x_i, x in C}."""
    n = c.n
    sigma = list(sigma)
    signs = list(signs)
    if len(sigma) != n or len(signs) != n:
        raise ParseError(f"signed permutation must have length {n}")
    if sorted(sigma) != list(range(n)):
        raise ParseError("sigma is not a permutation")
    if any(s not in (1, -1) for s in signs):
        raise ParseError("signs must be +1 or -1")
    rows = []
    for row in c.gen.entries:
        out = [0] * n
        for i in range(n):
            out[sigma[i]] = (signs[i] * row[i]) % c.k
        rows.append(out)
    return ModMatrix.from_rows(c.k, rows, n)


def apply_signed_perm(c: LinearCode, sigma, signs) -> LinearCode:
    """The code {y : y_sigma(i) = signs_i * x_i, x in C}."""
    return from_generator(_signed_image(c, sigma, signs))


def signed_perm_maps(c: LinearCode, sigma, signs, target: LinearCode) -> bool:
    """Whether `apply_signed_perm(c, sigma, signs) == target`.

    Code equality compares the canonical generators (whose k and width
    are the code's), so one Howell form of width n decides it; the
    image's module structure is not needed.
    """
    return howell_form(_signed_image(c, sigma, signs)) == target.gen


def random_free_lcd(
    k: int, n: int, m: int, seed: int | random.Random, max_draws: int = 10_000
) -> LinearCode:
    """Rejection-sample a free LCD code of rank m by uniform generators.

    A draw g (m rows) is kept exactly when det(g.g^T) is a unit mod k.
    Then x.g = 0 forces x.g.g^T = 0, so x = 0: the rows are independent,
    the code is free of rank m with g as a free basis, and its Gram
    determinant is a unit, which is free LCD (`is_free_lcd`).  Conversely
    m rows spanning a free rank-m code differ from any free basis f by an
    invertible matrix V, and det(g.g^T) = det(V)^2 . det(f.f^T).  So a
    draw costs one m x m determinant, and only the kept one a Howell form.
    """
    if not 1 <= m <= n:
        raise ValueError(f"rank must satisfy 1 <= m <= n, got m={m}, n={n}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    for _ in range(max_draws):
        g = ModMatrix.from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(m)], n)
        if is_unit_det(g.mul(g.transpose())):
            return from_generator(g)
    raise Timeout(f"no free LCD code of rank {m} found in {max_draws} draws")
