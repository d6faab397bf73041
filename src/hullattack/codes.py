"""Linear codes over Z/kZ: duals, hulls, LCD tests, signed closures.

A code is stored by the Howell form of its generator, which makes code
equality a tuple comparison.  Freeness bookkeeping rides along: a free
rank-m code keeps a minimal generator with m independent rows, the shape
every projection and closure argument below needs.  `from_generator`
finds it with one module-structure pass over Z/kZ; the signed closures
take none, because they inherit it from the code they close.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from operator import mul

from .errors import BadModulus, NotAUnit, NotFreeLcd, ParseError, Timeout
from .linalg import IntMatrix, json_int
from .modring import (
    ModMatrix,
    howell_form,
    inverse_mod,
    is_unit_det,
    kernel_mod,
    row_module_structure,
)


@dataclass(frozen=True)
class LinearCode:
    """A linear code C <= Z_k^n, identified by its canonical generator."""

    k: int
    n: int
    gen: ModMatrix
    free_rank: int | None = field(compare=False)
    free_gen: ModMatrix | None = field(compare=False, repr=False)

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
    """Linear complementary dual: the hull is the zero code."""
    return hull(c).gen.rows == 0


def is_free_lcd(c: LinearCode) -> bool:
    """Free with a unit Gram determinant; agrees with free + LCD."""
    if c.free_gen is None:
        return False
    g = c.free_gen
    return is_unit_det(g.mul(g.transpose()))


@dataclass(frozen=True)
class ClosureMatrices:
    """Integer matrices behind the signed closures.

    interleave maps x to (x_1, -x_1, ..., x_n, -x_n); deinterleave is its
    right inverse (interleave . deinterleave = identity over Z).  For
    k = 2m with m odd, extended appends the block m*I, mapping x to
    (x_1, -x_1, ..., x_n, -x_n, m*x_1, ..., m*x_n).
    """

    n: int
    interleave: IntMatrix
    deinterleave: IntMatrix
    extended: IntMatrix | None


def closure_matrices(n: int, k: int | None = None) -> ClosureMatrices:
    inter = [[0] * (2 * n) for _ in range(n)]
    deinter = [[0] * n for _ in range(2 * n)]
    for i in range(n):
        inter[i][2 * i] = 1
        inter[i][2 * i + 1] = -1
        deinter[2 * i][i] = 1
    ext = None
    if k is not None:
        if k % 2 or k % 4 == 0:
            raise BadModulus(f"extended closure needs k = 2m with m odd, got k={k}")
        m = k // 2
        ext = [row + [m * int(i == j) for j in range(n)] for i, row in enumerate(inter)]
        ext = IntMatrix.from_rows(ext)
    return ClosureMatrices(
        n=n,
        interleave=IntMatrix.from_rows(inter),
        deinterleave=IntMatrix.from_rows(deinter),
        extended=ext,
    )


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

    Pi is symmetric, so after H = (G G^T)^-1 G only the upper triangle
    of G^T H is formed, and mirrored.
    """
    if c.free_gen is None:
        raise NotFreeLcd("projection needs a free LCD code")
    g = c.free_gen
    try:
        h = inverse_mod(g.mul(g.transpose())).mul(g)
    except NotAUnit as exc:
        raise NotFreeLcd(f"Gram determinant is not a unit: {exc}") from None
    k, n = c.k, c.n
    gcols = list(zip(*g.entries))
    hcols = list(zip(*h.entries))
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
    """Rejection-sample a free LCD code of rank m by uniform generators."""
    if not 1 <= m <= n:
        raise ValueError(f"rank must satisfy 1 <= m <= n, got m={m}, n={n}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    for _ in range(max_draws):
        g = ModMatrix.from_rows(k, [[rng.randrange(k) for _ in range(n)] for _ in range(m)], n)
        c = from_generator(g)
        if c.free_rank == m and is_free_lcd(c):
            return c
    raise Timeout(f"no free LCD code of rank {m} found in {max_draws} draws")
