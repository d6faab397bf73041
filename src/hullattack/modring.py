"""Matrix algebra over the residue ring Z/kZ.

Z/kZ has zero divisors for composite k, so row reduction uses the Howell
normal form: the unique canonical form whose rows generate not just the
row module but every "leading zeros" truncation of it.  That uniqueness
is what lets code-level equality checks be plain tuple comparisons.  It
is also the one elimination that solves systems: kernels are read off
the form of an augmented matrix, and so is a code's projector
(`codes.projection_matrix`), so no inverse mod k is taken.
Whether a square matrix is invertible mod k is a Bareiss determinant.
The size of a row module is read off its Howell form (`howell_order`),
and that is all the module structure the codes need (Storjohann,
*Algorithms for Matrix Canonical Forms*, 2000).
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul

from .errors import NonSquare, ParseError
from .kernels import xgcd
from .linalg import Value, _set, bareiss_det, json_int


class ModMatrix(Value):
    """Immutable matrix over Z/kZ; entries normalized into [0, k)."""

    __slots__ = ("k", "cols", "entries")

    def __init__(self, k: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        _set(self, "k", k)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(k: int, rows, cols: int | None = None) -> "ModMatrix":
        if k < 2:
            raise ParseError(f"modulus must be at least 2, got {k}")
        rows = [tuple(int(x) % k for x in r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ParseError("ragged rows")
        elif cols is None:
            raise ParseError("empty matrix needs an explicit column count")
        return ModMatrix(k, cols, tuple(rows))

    def transpose(self) -> "ModMatrix":
        if not self.entries:
            return ModMatrix(self.k, 0, tuple(() for _ in range(self.cols)))
        return ModMatrix(self.k, self.rows, tuple(zip(*self.entries)))

    def mul(self, other: "ModMatrix") -> "ModMatrix":
        if self.k != other.k:
            raise ParseError("modulus mismatch")
        if self.cols != other.rows:
            raise NonSquare(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        k = self.k
        bt = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = tuple(tuple(sum(map(mul, row, col)) % k for col in bt) for row in self.entries)
        return ModMatrix(k, other.cols, out)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "rows": self.rows,
            "cols": self.cols,
            "entries": [int(x) for row in self.entries for x in row],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModMatrix":
        if not isinstance(d, dict):
            raise ParseError("mod matrix JSON must be an object")
        k, rows, cols = json_int(d, "k"), json_int(d, "rows"), json_int(d, "cols")
        flat = d.get("entries")
        if k < 2:
            raise ParseError(f"modulus must be at least 2, got {k}")
        if rows < 0 or cols < 0 or not isinstance(flat, list) or len(flat) != rows * cols:
            raise ParseError("mod matrix JSON entry count does not match shape")
        vals = []
        for s in flat:
            if type(s) is not int or not 0 <= s < k:
                raise ParseError(f"mod matrix entry {s!r} outside [0, {k})")
            vals.append(s)
        return ModMatrix(k, cols, tuple(tuple(vals[i * cols : (i + 1) * cols]) for i in range(rows)))


def unit_multiplier(a: int, k: int) -> int:
    """A unit u mod k with u*a = gcd(a, k) (mod k)."""
    a %= k
    g = gcd(a, k)
    if g == k:
        return 1
    b, k1 = a // g, k // g
    u = pow(b, -1, k1)
    while gcd(u, k) != 1:
        u += k1
    return u % k


def _howell_rows(rows, cols: int, k: int) -> list[list[int]]:
    m = [list(r) for r in rows]
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # fold every lower row into the pivot row with a 2x2 transform
        # that is unimodular over Z, hence invertible mod k
        for i in range(r + 1, len(m)):
            b = m[i][c]
            if not b:
                continue
            a = m[r][c]
            g, x, y = xgcd(a, b)
            u, v = -(b // g), a // g
            ri, rj = m[r], m[i]
            for t in range(cols):
                rt, it = ri[t], rj[t]
                ri[t] = (x * rt + y * it) % k
                rj[t] = (u * rt + v * it) % k
        # normalize the pivot to its canonical divisor of k
        a = m[r][c]
        g = gcd(a, k)
        if a != g:
            u = unit_multiplier(a, k)
            m[r] = [(u * t) % k for t in m[r]]
        p = m[r][c]
        for i in range(r):
            q = m[i][c] // p
            if q:
                ri, rr = m[i], m[r]
                for t in range(cols):
                    ri[t] = (ri[t] - q * rr[t]) % k
        # the annihilator of the pivot scales this row into new content
        # that only shows up in later columns
        ann = k // p
        extra = [(ann * t) % k for t in m[r]]
        if any(extra):
            m.append(extra)
        r += 1
    return m[:r]


def howell_form(m: ModMatrix) -> ModMatrix:
    """Canonical Howell normal form; zero rows dropped."""
    return ModMatrix(m.k, m.cols, tuple(tuple(r) for r in _howell_rows(m.entries, m.cols, m.k)))


def howell_order(h: ModMatrix) -> int:
    """The number of elements of the row module of a Howell form: the
    product over its rows of k/pivot.

    Each pivot divides k, and the Howell property makes every element of
    the module one combination sum a_i . h_i with 0 <= a_i < k/pivot_i,
    and a different one for each choice of the a_i.
    """
    return prod(h.k // next(filter(None, row)) for row in h.entries)


def kernel_mod(m: ModMatrix) -> ModMatrix:
    """Howell-form generator of {x in Z_k^cols : x . M^T = 0}."""
    n = m.cols
    a = m.transpose()
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.entries)]
    h = _howell_rows(aug, a.cols + n, m.k)
    gens = [row[a.cols :] for row in h if not any(row[: a.cols])]
    return ModMatrix(m.k, n, tuple(tuple(r) for r in gens))


def is_unit_det(m: ModMatrix) -> bool:
    """True when det(M) is invertible mod k (M square)."""
    if m.rows != m.cols:
        raise NonSquare("determinant needs a square matrix")
    return gcd(bareiss_det([list(r) for r in m.entries]) % m.k, m.k) == 1
