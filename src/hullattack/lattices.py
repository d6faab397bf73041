"""Full-rank rational lattices, Construction A, hulls, and rotations.

A LatticeBasis keeps the literal basis rows it was built with (rotations
must preserve the Gram matrix, so rows are never silently rebased).
Its one determinant, |det B|, is a cached property taken with a single
Bareiss pass.  Rows are checked independent only where outside data
enters, in `LatticeBasis.from_dict`; the bases built here are
nonsingular by construction (Construction A checks its HNF rank, a
rotation is an orthonormal image, a hull is full-rank integer
coefficients times the lattice's basis).
Set-level questions need no canonical form: two bases span the same
lattice when one is a unimodular recombination of the other, and a
vector lies in the lattice when its coordinates in the basis are
integers.  Both are decided with fraction-free (Bareiss) inverses and
determinants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .codes import LinearCode, from_generator
from .errors import (
    DimensionMismatch,
    DoesNotContainKZn,
    NotARotation,
    NotIntegral,
    ParseError,
    Singular,
)
from .linalg import IntMatrix, RatMatrix, det, hnf, inv_int_rows, json_int, same_lattice
from .modring import ModMatrix, kernel_mod

PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a lattice in Q^n, kept exactly as given.  Full rank is
    checked by `from_dict`, not here (see the module docstring)."""

    n: int
    basis: RatMatrix

    def __post_init__(self):
        if self.basis.rows != self.n or self.basis.cols != self.n:
            raise DimensionMismatch(
                f"basis must be {self.n}x{self.n}, got {self.basis.rows}x{self.basis.cols}"
            )

    @cached_property
    def abs_det(self) -> Fraction:
        """|det B|, from one Bareiss pass over the cleared basis; 0 when
        the rows are dependent."""
        return abs(det(self.basis))

    @cached_property
    def _inverse(self) -> tuple[list[list[int]], int]:
        """(N, q) with B^-1 = N / q, from the Bareiss inverse."""
        scaled, den = self.basis.clear_denominators()
        inv, q = inv_int_rows(scaled)
        return [[den * x for x in row] for row in inv], q

    def gram(self) -> RatMatrix:
        return self.basis.mul(self.basis.transpose())

    def contains(self, v) -> bool:
        """Exact membership of a rational vector: v . B^-1 is integral."""
        v = [Fraction(x) for x in v]
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} != {self.n}")
        dv = lcm(*(x.denominator for x in v))
        w = [x.numerator * (dv // x.denominator) for x in v]
        inv, q = self._inverse
        return all(sum(map(mul, w, col)) % (dv * q) == 0 for col in zip(*inv))

    def to_dict(self) -> dict:
        d = self.basis.to_dict()
        d["n"] = self.n
        return d

    @staticmethod
    def from_dict(d: dict) -> "LatticeBasis":
        """Parse a basis and check its rows independent: the one place
        outside data enters, so the one singularity check."""
        m = RatMatrix.from_dict(d)
        n = json_int(d, "n")
        if m.rows != n or m.cols != n:
            raise ParseError(f"lattice basis must be {n}x{n}")
        lattice = LatticeBasis(n, m)
        if lattice.abs_det == 0:
            raise ParseError("basis rows are dependent")
        return lattice


@dataclass(frozen=True)
class RationalOrthogonal:
    """Exactly orthonormal rational matrix: M . M^T = I."""

    matrix: RatMatrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != m.cols:
            raise NotARotation("orthonormal matrix must be square")
        if m.mul(m.transpose()) != RatMatrix.identity(m.rows):
            raise NotARotation("matrix rows are not orthonormal")

    @property
    def n(self) -> int:
        return self.matrix.rows

    def to_dict(self) -> dict:
        return self.matrix.to_dict()

    @staticmethod
    def from_dict(d: dict) -> "RationalOrthogonal":
        try:
            return RationalOrthogonal(RatMatrix.from_dict(d))
        except NotARotation as exc:
            raise ParseError(str(exc)) from None


def construction_a(c: LinearCode) -> LatticeBasis:
    """The lattice {x in Z^n : x mod k in C}, as the HNF of the lifted
    generator stacked over k*I."""
    k, n = c.k, c.n
    rows = [list(r) for r in c.gen.entries]
    rows += [[k * int(i == j) for j in range(n)] for i in range(n)]
    h = hnf(IntMatrix.from_rows(rows))
    if h.rows != n:
        raise Singular("construction lattice is not full rank")
    return LatticeBasis(n, h.to_rat())


def hull_coefficients(lattice: LatticeBasis, s: int) -> IntMatrix:
    """Coefficients of the s-hull, the intersection of L with s times its
    dual: the square HNF C whose rows C . B form a basis of the hull.

    In basis coordinates x = c.B the dual condition x.y in sZ for all
    y in L reads c.G = 0 mod s*den (G the Gram matrix cleared of its
    denominator den), so the coefficient lattice is a kernel over
    Z_{s*den} plus (s*den)Z^n.  An explicit dual basis would square the
    entry denominators of a rotated basis; this stays small.  C is upper
    triangular, so |det hull| is the product of its pivots times |det L|.
    """
    if s < 1:
        raise ValueError(f"scale must be positive, got {s}")
    n = lattice.n
    scaled, den = lattice.gram().clear_denominators()
    big = s * den
    ker = kernel_mod(ModMatrix.from_rows(big, scaled))
    rows = [list(r) for r in ker.lift().entries]
    rows += [[big * int(i == j) for j in range(n)] for i in range(n)]
    coeff = hnf(IntMatrix.from_rows(rows))
    if coeff.rows != n:
        raise Singular("hull coefficient lattice is not full rank")
    return coeff


def s_hull(lattice: LatticeBasis, s: int) -> LatticeBasis:
    """The s-hull: the intersection of L with s times its dual (see
    `hull_coefficients`)."""
    return LatticeBasis(lattice.n, hull_coefficients(lattice, s).to_rat().mul(lattice.basis))


def rotate(lattice: LatticeBasis, o: RationalOrthogonal) -> LatticeBasis:
    """Apply the orthonormal transform row-wise: rows become row . O^T.

    The Gram matrix of the returned basis equals the input's exactly.
    """
    if o.n != lattice.n:
        raise DimensionMismatch(f"transform is {o.n}-dimensional, lattice is {lattice.n}")
    return LatticeBasis(lattice.n, lattice.basis.mul(o.matrix.transpose()))


def lattice_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Set-level equality: each basis is a unimodular recombination of
    the other (see `same_lattice`)."""
    return a.n == b.n and same_lattice(a.basis, b.basis)


def mod_reduce_to_code(lattice: LatticeBasis, k: int) -> LinearCode:
    """Recover the code C with L = C + k*Z^n from an integral lattice
    containing k*Z^n.

    Row i of k . B^-1 holds the coordinates of k*e_i in the basis, so
    k*Z^n lies in L exactly when k . B^-1 is integral; the check runs on
    the lattice's cached Bareiss inverse.
    """
    if not lattice.basis.is_integral():
        raise NotIntegral("lattice basis has non-integer entries")
    n = lattice.n
    inv, q = lattice._inverse
    for i, row in enumerate(inv):
        if any(k * x % q for x in row):
            raise DoesNotContainKZn(f"k*e_{i + 1} is not in the lattice")
    rows = [[int(x) % k for x in row] for row in lattice.basis.entries]
    return from_generator(ModMatrix.from_rows(k, rows, n))


def random_rational_orthogonal(n: int, seed: int, depth: int | None = None) -> RationalOrthogonal:
    """Exact orthonormal transform: a product of `depth` Pythagorean
    Givens rotations followed by a random signed permutation.

    Each column is kept as integers over its own denominator.  A rotation
    touches two columns only: both are brought to the lcm of their
    denominators, which is then multiplied by the triple's hypotenuse, an
    O(n) update.  The signed permutation moves and negates columns.
    Fractions are built once, at the end.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if depth is None:
        depth = 2 * n
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    rng = random.Random(seed)
    cols = [[int(r == t) for r in range(n)] for t in range(n)]
    dens = [1] * n
    if n >= 2:
        for _ in range(depth):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            a, b, c = PYTHAGOREAN_TRIPLES[rng.randrange(len(PYTHAGOREAN_TRIPLES))]
            if rng.randrange(2):
                b = -b
            # (M G) with G[i][i] = G[j][j] = a/c, G[i][j] = b/c, G[j][i] = -b/c
            d = lcm(dens[i], dens[j])
            fi, fj = d // dens[i], d // dens[j]
            ci = [x * fi for x in cols[i]]
            cj = [x * fj for x in cols[j]]
            cols[i] = [a * x - b * y for x, y in zip(ci, cj)]
            cols[j] = [b * x + a * y for x, y in zip(ci, cj)]
            dens[i] = dens[j] = d * c
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [None] * n
    for t in range(n):
        sign = rng.choice((1, -1))
        out[sigma[t]] = [Fraction(sign * x, dens[t]) for x in cols[t]]
    return RationalOrthogonal(RatMatrix(tuple(zip(*out))))
