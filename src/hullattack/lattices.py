"""Full-rank rational lattices, Construction A, hulls, and rotations.

A LatticeBasis keeps the literal basis rows it was built with (rotations
must preserve the Gram matrix, so rows are never silently rebased), as
one integer matrix over one denominator (`RatMatrix`).
Its determinant comes from one integer Gram record, B.B^T = G/den in
lowest terms, whose entries stay small where the basis entries of a
rotated lattice do not: |det B| is sqrt(det G), taken exactly, the last
pivot of G's fraction-free elimination.  The record keeps that
elimination, on which the verifier run without a certificate solves
against G on a lattice that comes from outside; nothing takes an
inverse.  A rotation is an orthonormal image with the same G, so it
shares the record of the lattice it came from.
The attack moves between lattices by integer transforms of a basis,
and reads each through the Gram record instead of forming the new
basis: the rows C.B of an integer C have Gram matrix C.G.C^T/den
(`sublattice_gram`), and when the frame T.B is a scaled orthonormal
family the rotated basis B.(T.B/s)^T is the integer product
R = G.T^T/(den.s) (`rotated_rows`).  The frame gives T.R = s.I, so
R^-1 = T/s is known without an inverse, and for s = k it proves that
the rotated lattice contains kZ^n.
Rows are checked independent only where outside data enters, in
`LatticeBasis.from_dict`; the bases built here are nonsingular by
construction (Construction A is an HNF with nonzero pivots, lifted from
the code's Howell form, a rotation is an orthonormal image, a hull is
full-rank integer coefficients times the lattice's basis).
Whether two bases span the same lattice is decided in one place,
`attack.verify_isomorphism`, and this module has no other membership
or equality test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from .codes import LinearCode
from .errors import DimensionMismatch, NotARotation, NotIntegral, ParseError
from .linalg import (
    IntMatrix,
    RatMatrix,
    Value,
    _set,
    congruence,
    gram_triangle,
    json_int,
    row_products,
    symmetric_product,
)
from .modring import ModMatrix, howell_form, kernel_mod

PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def _lowest_terms(g: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """(G', den') with G/den = G'/den' in lowest terms, for symmetric G.
    The form is unique, so two routes to one Gram matrix agree."""
    d = gcd(den, *(x for i, gi in enumerate(g) for x in gi[i:]))
    return [[x // d for x in gi] for gi in g], den // d


class GramRecord:
    """The integer Gram matrix of a basis: B.B^T = G/den with the fraction
    in lowest terms, plus G's fraction-free elimination and |det B|, each
    computed on first use.

    B = A/db cleared to integers gives B.B^T = (A.A^T)/db^2; only the
    upper triangle of A.A^T is formed, and the result is divided by the
    gcd of its entries and db^2.  Every basis with the same Gram matrix
    (an orthonormal image of B) may share the record.
    """

    def __init__(self, basis: RatMatrix):
        self._basis = basis

    @cached_property
    def cleared(self) -> tuple[list[list[int]], int]:
        """(G, den) with B.B^T = G/den in lowest terms."""
        a, db = self._basis.num, self._basis.den
        return _lowest_terms(symmetric_product(a, a), db * db)

    @cached_property
    def triangle(self) -> list[list[int]]:
        """The `gram_triangle` of G: its leading minors on the diagonal."""
        return gram_triangle(self.cleared[0])

    @cached_property
    def abs_det(self) -> Fraction:
        """|det B| = sqrt(det G / den^n), both square roots exact, with
        det G the last pivot of the triangle; 0 when the rows are
        dependent."""
        (g, den), u = self.cleared, self.triangle
        sq = Fraction(u[-1][len(u) - 1] if u else 1, den ** len(g))
        num, d = isqrt(sq.numerator), isqrt(sq.denominator)
        if num * num != sq.numerator or d * d != sq.denominator:
            raise AssertionError("det of a Gram matrix is not the square of a rational")
        return Fraction(num, d)


class LatticeBasis(Value, uncompared=("gram_record",), hidden=("gram_record",)):
    """Basis of a lattice in Q^n, kept exactly as given, with its Gram
    record.  Full rank is checked by `from_dict`, not here (see the
    module docstring).  Pass `gram_record` only for a basis whose Gram
    matrix equals the record's."""

    __slots__ = ("n", "basis", "gram_record")

    def __init__(self, n: int, basis: RatMatrix, gram_record: GramRecord | None = None):
        _set(self, "n", n)
        _set(self, "basis", basis)
        _set(self, "gram_record", gram_record)
        self.__post_init__()

    def __post_init__(self):
        if self.basis.rows != self.n or self.basis.cols != self.n:
            raise DimensionMismatch(
                f"basis must be {self.n}x{self.n}, got {self.basis.rows}x{self.basis.cols}"
            )
        if self.gram_record is None:
            _set(self, "gram_record", GramRecord(self.basis))

    @property
    def abs_det(self) -> Fraction:
        """|det B| from the Gram record; 0 when the rows are dependent."""
        return self.gram_record.abs_det

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


class RationalOrthogonal(Value):
    """Exactly orthonormal rational matrix: M . M^T = I, checked once, at
    construction, as N . N^T = D^2 . I on the integers of M = N/D."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: RatMatrix):
        _set(self, "matrix", matrix)
        self.__post_init__()

    def __post_init__(self):
        m = self.matrix
        if m.rows != m.cols:
            raise NotARotation("orthonormal matrix must be square")
        if not m.rows_orthonormal():
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


def _hermite_lift(howell: ModMatrix) -> tuple[tuple[int, ...], ...]:
    """The row HNF of the lattice spanned by the lifted rows of a Howell
    form over Z_q and qZ^n, read off without an elimination.

    The Howell rows are in echelon form, each pivot divides q and the
    entries above it lie in [0, pivot); the other entries lie in [0, q).
    So the lifted rows, with q.e_j put in for each column j that has no
    pivot, are square, upper triangular and reduced.  They span the
    lattice: q.e_j for a pivot column is (q/p) times the pivot row minus
    a vector of the row module that vanishes up to column j, which the
    Howell property puts in the span of the rows below.  The HNF of a
    lattice is unique, so this is it.
    """
    q, n = howell.k, howell.cols
    rows = iter(howell.entries)
    row = next(rows, None)
    out = []
    for j in range(n):
        # The zeros before j are checked, so a nonzero row[j] is its pivot.
        if row is not None and row[j]:
            out.append(row)
            row = next(rows, None)
        else:
            out.append(tuple(q if i == j else 0 for i in range(n)))
    return tuple(out)


def construction_a(c: LinearCode) -> LatticeBasis:
    """The lattice {x in Z^n : x mod k in C}, C + kZ^n.  Its basis is the
    row HNF, lifted from the code's generator, which is its Howell form
    (see `_hermite_lift`)."""
    return LatticeBasis(c.n, RatMatrix(_hermite_lift(c.gen)))


def gram_row_module(lattice: LatticeBasis, s: int) -> ModMatrix:
    """The row module of the Gram matrix mod s.den, in Howell form, for
    s.den >= 2 (G the Gram matrix cleared of its denominator den).

    Its order is the s-hull's index in L, [L : hull] = |det C| for the
    coefficient HNF C of `hull_coefficients`: the coefficient lattice is
    the kernel K of c -> c.G over Z_{s*den} plus (s*den)Z^n, so
    |det C| = (s*den)^n / |K|, which is the order of the image of that
    map, the row module of G (`howell_order`).  The hull test of the
    attack needs only this number, one Howell form of width n.
    """
    scaled, den = lattice.gram_record.cleared
    return howell_form(ModMatrix.from_rows(s * den, scaled))


def hull_coefficients_from(module: ModMatrix) -> IntMatrix:
    """The coefficient HNF C of the hull whose `gram_row_module` is given:
    the lifted Howell form of its kernel (see `_hermite_lift`).  The
    kernel of a Howell form is the kernel of any matrix with the same row
    module, and `kernel_mod` returns it in canonical form, so C is the
    same as from the Gram matrix itself, and the elimination behind it
    runs on r + n columns for the r <= n rows of the module, not 2n."""
    return IntMatrix(_hermite_lift(kernel_mod(module)))


def hull_coefficients(lattice: LatticeBasis, s: int) -> IntMatrix:
    """Coefficients of the s-hull, the intersection of L with s times its
    dual: the square HNF C whose rows C . B form a basis of the hull.

    In basis coordinates x = c.B the dual condition x.y in sZ for all
    y in L reads c.G = 0 mod s*den (G the Gram matrix cleared of its
    denominator den), so the coefficient lattice is a kernel over
    Z_{s*den} plus (s*den)Z^n, whose HNF is the lifted Howell form of the
    kernel, taken from the row module of G (`hull_coefficients_from`).
    An explicit dual basis would square the entry denominators of a
    rotated basis; this stays small.  C is upper triangular, so
    |det hull| is the product of its pivots times |det L|.
    """
    if s < 1:
        raise ValueError(f"scale must be positive, got {s}")
    if s * lattice.gram_record.cleared[1] == 1:
        # Every c satisfies c.G = 0 mod 1 (and Z_1 is no ModMatrix modulus).
        return IntMatrix.identity(lattice.n)
    return hull_coefficients_from(gram_row_module(lattice, s))


def sublattice_gram(lattice: LatticeBasis, c: IntMatrix) -> tuple[list[list[int]], int]:
    """The Gram record (G', den') of the rows C.B for an integer C, without
    forming C.B: (C.B).(C.B)^T = C.G.C^T/den, brought to lowest terms.
    The form is unique, so this equals the record of C.B itself."""
    g, den = lattice.gram_record.cleared
    return _lowest_terms(congruence(c.entries, g), den)


def rotate(lattice: LatticeBasis, o: RationalOrthogonal) -> LatticeBasis:
    """Apply the orthonormal transform row-wise: rows become row . O^T.

    With B = A/db and O = M/D that is the one integer product A . M^T
    over db . D, brought to lowest terms by one gcd.  The Gram matrix of
    the returned basis equals the input's exactly (o passed its
    M.M^T = I check), so the image shares the input's record.
    """
    if o.n != lattice.n:
        raise DimensionMismatch(f"transform is {o.n}-dimensional, lattice is {lattice.n}")
    return LatticeBasis(lattice.n, lattice.basis.mul(o.matrix.transpose()), lattice.gram_record)


def rotated_rows(lattice: LatticeBasis, t: IntMatrix, s: int) -> IntMatrix:
    """The rows of rotate(lattice, O) for O = T.B/s, computed without O.

    T is an integer matrix whose frame T.B has pairwise orthogonal rows
    of norm s, i.e. T.G.T^T = s^2.den.I (which `solve_scaled_zlip`
    checks), so O is orthonormal.  The rotated rows are
    R = B.O^T = B.B^T.T^T/s = G.T^T/(den.s), one integer product of
    Gram-sized entries, by `row_products` on the rows of G and of T^T.
    The frame is s.I in the rotated coordinates, T.R = s.I, so
    R^-1 = T/s with no inverse taken.
    Raises NotIntegral unless den.s divides every entry.
    """
    g, den = lattice.gram_record.cleared
    q = den * s
    rows = list(row_products(g, list(zip(*t.entries))))
    if any(x % q for row in rows for x in row):
        raise NotIntegral("rotated lattice has non-integer entries")
    return IntMatrix(tuple(tuple(x // q for x in row) for row in rows))


def random_rational_orthogonal(n: int, seed: int, depth: int | None = None) -> RationalOrthogonal:
    """Exact orthonormal transform: a product of `depth` Pythagorean
    Givens rotations followed by a random signed permutation.

    Each column is kept as integers over its own denominator.  A rotation
    touches two columns only: both are brought to the lcm of their
    denominators, which is then multiplied by the triple's hypotenuse, an
    O(n) update.  The signed permutation moves and negates columns, each
    brought to the lcm D of all column denominators, and the matrix is
    the integer one over D, reduced by one gcd.
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
    den = lcm(*dens)
    out = [None] * n
    for t in range(n):
        f = rng.choice((1, -1)) * (den // dens[t])
        out[sigma[t]] = [f * x for x in cols[t]]
    return RationalOrthogonal(RatMatrix.over(list(zip(*out)), den))
