"""Linear codes over Z/kZ: duals, hulls, LCD tests, signed closures.

A code is stored by the Howell form of its generator, which makes code
equality a tuple comparison.  Freeness bookkeeping rides along: a free
rank-m code keeps a minimal generator with m independent rows, the shape
every projection and closure argument below needs.  `from_generator`
finds it with one module-structure pass over Z/kZ; the signed closures
take none, because they inherit it from the code they close.  A code's
projector comes from the Howell form of [G.G^T | G], which is [I | H]
with H = (G.G^T)^-1.G exactly when G.G^T is invertible mod k.

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
from math import gcd
from operator import mul

from .errors import BadModulus, NotFreeLcd, ParseError, Timeout
from .linalg import IntMatrix, Value, _set, json_int
from .modring import (
    ModMatrix,
    howell_form,
    howell_order,
    is_unit_det,
    kernel_mod,
    row_module_structure,
)


class LinearCode(Value, uncompared=("free_rank", "free_gen"), hidden=("free_gen",)):
    """A linear code C <= Z_k^n, identified by its canonical generator."""

    __slots__ = ("k", "n", "gen", "free_rank", "free_gen")

    def __init__(
        self, k: int, n: int, gen: ModMatrix, free_rank: int | None, free_gen: ModMatrix | None
    ):
        _set(self, "k", k)
        _set(self, "n", n)
        _set(self, "gen", gen)
        _set(self, "free_rank", free_rank)
        _set(self, "free_gen", free_gen)

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
    canon = howell_form(gen)
    diag, minimal = row_module_structure(canon)
    free = all(d in (1, gen.k) for d in diag)
    rank = sum(1 for d in diag if d == 1)
    return LinearCode(
        k=gen.k,
        n=gen.cols,
        gen=canon,
        free_rank=rank if free else None,
        free_gen=minimal if free else None,
    )


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
    """Free with a unit Gram determinant; agrees with free + LCD."""
    if c.free_gen is None:
        return False
    g = c.free_gen
    return is_unit_det(g.mul(g.transpose()))


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


def _inherit_closure(c: LinearCode, t: IntMatrix) -> LinearCode:
    """The code generated by the rows of C's generator times T.

    T has a right inverse over Z, so x -> x . T is injective on Z_k^n and
    the closure is isomorphic to C as a module: the same freeness and
    rank, with free_gen . T a free basis.  Only its Howell form is new.
    """
    tk = ModMatrix.from_rows(c.k, t.entries)
    free_gen = None if c.free_gen is None else c.free_gen.mul(tk)
    return LinearCode(
        k=c.k,
        n=t.cols,
        gen=howell_form(c.gen.mul(tk)),
        free_rank=c.free_rank,
        free_gen=free_gen,
    )


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
    """The canonical projector onto C: Pi = G^T (G G^T)^-1 G for a
    minimal free generator G.  Independent of the choice of G.

    H = (G G^T)^-1 G is read off the Howell form of the m x (m + n)
    matrix [G G^T | G]: when G G^T is invertible mod k its rows span the
    same module as [I_m | H], which is already in Howell form, and any
    other form means G G^T is singular.  Pi is symmetric, so only the
    upper triangle of G^T H is formed, and mirrored.
    """
    if c.free_gen is None:
        raise NotFreeLcd("projection needs a free LCD code")
    g = c.free_gen
    k, n, m = c.k, c.n, g.rows
    gram = g.mul(g.transpose())
    form = howell_form(ModMatrix(k, m + n, tuple(a + b for a, b in zip(gram.entries, g.entries))))
    if tuple(row[:m] for row in form.entries) != tuple(
        tuple(int(i == j) for j in range(m)) for i in range(m)
    ):
        raise NotFreeLcd(f"Gram matrix G G^T is not invertible mod {k}")
    gcols = list(zip(*g.entries))
    hcols = list(zip(*form.entries))[m:]
    pi = [[0] * n for _ in range(n)]
    for i, gi in enumerate(gcols):
        row = pi[i]
        for j in range(i, n):
            row[j] = pi[j][i] = sum(map(mul, gi, hcols[j])) % k
    return ModMatrix(k, n, tuple(map(tuple, pi)))


def closure_projection(c: LinearCode, mode: str) -> ModMatrix:
    """The projector of `signed_closure(c)` (mode "signed") or of
    `extended_signed_closure(c)` (mode "extended"), read off C's own
    projector without building the closure.

    The closure is generated by G.T, where column a of T holds a single
    coefficient c_a in {1, -1, h} on row i_a (h = k/2 for the extended
    tail), and T.T^T = t.I with t = 2, or t = h^2 + 2 when extended.  So
    its projector is t^-1 . T^T . Pi . T, whose entry (a, b) is
    t^-1 . c_a . c_b . Pi[i_a][i_b].  The closure's Gram determinant is
    t^m . det(G G^T) for rank m, so when t is not a unit mod k a nonzero
    code's closure is not free LCD, and NotFreeLcd is raised as
    `projection_matrix` of the closure would raise it.
    """
    k, n = c.k, c.n
    coords = [(i, s) for i in range(n) for s in (1, -1)]
    t = 2
    if mode == "extended":
        if k % 2 or k % 4 == 0:
            raise BadModulus(f"extended closure needs k = 2m with m odd, got k={k}")
        h = k // 2
        coords += [(i, h) for i in range(n)]
        t += h * h
    elif mode != "signed":
        raise ValueError(f"unknown closure mode {mode!r}")
    pi = projection_matrix(c).entries
    if not c.free_rank:
        return ModMatrix(k, len(coords), tuple((0,) * len(coords) for _ in coords))
    if gcd(t, k) != 1:
        raise NotFreeLcd(f"the closure scales inner products by {t}, not a unit mod {k}")
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
            return LinearCode(k=k, n=n, gen=howell_form(g), free_rank=m, free_gen=g)
    raise Timeout(f"no free LCD code of rank {m} found in {max_draws} draws")
