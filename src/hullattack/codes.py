"""Linear codes over Z/kZ: duals, hulls, LCD tests, signed closures.

A code is stored by the Howell form g of its generator, which makes code
equality a tuple comparison, and g serves every computation below, free
or not.  A code's projector is read off the Howell form of [g.g^T | g].

SPEP runs on a closure of C: 2n signed interleaved columns for odd k,
and an h-scaled tail of n more for k = 2h.  One coordinate list
(`_closure_coords`) defines it, column a holding c_a . x[i_a].  `closure`
builds the code from that list, and `closure_projection` expands C's own
projector through it, so the attack never builds a closure code.

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
from .linalg import Value, _set, json_int
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
    stacked = ModMatrix(c.k, c.n, c.gen.entries + dual(c).gen.entries)
    return from_generator(kernel_mod(stacked))


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


def closure_mode(k: int) -> str:
    """The closure SPEP runs on for modulus k: "signed", of length 2n, for
    odd k, "extended", of length 3n, for k = 2 mod 4 (k = 2 included);
    BadModulus for k = 0 mod 4, which neither closure supports."""
    if k % 2 == 1:
        return "signed"
    if k % 4 == 2:
        return "extended"
    raise BadModulus(f"signed equivalence needs k odd or k = 2 mod 4, got k={k}")


def _closure_coords(k: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """The closure for modulus k (`closure_mode`) as a coordinate list, and
    the unit t.

    Column a of the closure holds c_a . x[i_a] for the pair (i_a, c_a):
    (i, 1) and (i, -1) for every i, the signed interleaving, then, for
    k = 2h, (i, h) for every i, the h-scaled tail.  So the closure is
    generated by G.T, where column a of T holds c_a on row i_a, and
    T.T^T = t.I with t = 2 for odd k, or t = h^2 + 2, odd and prime to h,
    for k = 2h: inner products scale by the unit t.  Reading back every
    other coordinate inverts x -> x.T, so the closure is isomorphic to C
    as a module, and it is LCD (and free) exactly when C is.
    """
    coords = [(i, s) for i in range(n) for s in (1, -1)]
    t = 2
    if closure_mode(k) == "extended":
        h = k // 2
        coords += [(i, h) for i in range(n)]
        t += h * h
    return coords, t


def closure(c: LinearCode) -> LinearCode:
    """The closure SPEP runs on for C's modulus: the code of length 2n
    (odd k) or 3n (k = 2 mod 4) whose words are C's words read through
    `_closure_coords`."""
    coords, _ = _closure_coords(c.k, c.n)
    rows = [[s * row[i] for i, s in coords] for row in c.gen.entries]
    return code_from_rows(c.k, rows, len(coords))


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
    """The projector of `closure(c)`, read off C's own projector without
    building the closure; NotLcd is raised exactly when the closure's
    projector would raise it.

    The closure is generated by G.T with T.T^T = t.I for a unit t
    (`_closure_coords`), so it is LCD exactly when C is, and its projector
    is t^-1 . T^T . Pi . T, whose entry (a, b) is
    t^-1 . c_a . c_b . Pi[i_a][i_b].
    """
    k = c.k
    coords, t = _closure_coords(k, c.n)
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
