"""Exact integer and rational matrix algebra.

All arithmetic is exact and on Python ints.  An integer matrix is a
tuple of int rows; a rational one is an integer matrix over one common
denominator, kept in lowest terms (see `RatMatrix`).  Nothing here ever
rounds, so every downstream equality check is a real equality.

A rational product is one integer product over the product of the two
denominators, brought back to lowest terms by one gcd; no Fraction is
built per entry.  An integer product runs on `row_products`, which packs
each row of the right factor into one integer, so an (r x n) by (n x c)
product takes r.n Python steps and the rest runs inside CPython's
big-integer arithmetic.  Products with a symmetric result, of which
only the upper triangle is formed (`symmetric_product`,
`RatMatrix.rows_orthonormal`), stay on plain dot products.  Fractions
appear only where rational input is read (`RatMatrix.from_rows`, and
`from_dict` on entries other than "p" and "p/q").

`Value` is the slotted base of the package's value classes, these
matrices among them: plain classes, so importing the package runs no
generated code.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import NonSquare, ParseError

# How a frozen value class's __init__ stores its fields.
_set = object.__setattr__


def _refuse(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class Value:
    """Base of the package's value classes.

    A subclass lists its fields in `__slots__`, in constructor order, and
    its own `__init__` stores them (with `object.__setattr__` when the
    class is frozen), then runs the class's `__post_init__` checks, if it
    has any.  Equality (same class, equal fields), hash and repr are read
    off the field list.  Class keywords leave fields out of equality and
    hash (`uncompared`) or out of repr (`hidden`); a frozen class, the
    default, refuses assignment, and `frozen=False` allows it and makes
    instances unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen=True, uncompared=(), hidden=()):
        cls._compared = tuple(f for f in cls.__slots__ if f not in uncompared)
        cls._shown = tuple(f for f in cls.__slots__ if f not in hidden)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        else:
            cls.__hash__ = None

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through __init__, so copies and pickles of frozen values work.
        return type(self), tuple([getattr(self, f) for f in self.__slots__])


class IntMatrix(Value):
    """Immutable integer matrix (tuple of row tuples)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        _set(self, "entries", entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged rows")
        return IntMatrix(tuple(rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise NonSquare(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix(tuple(map(tuple, row_products(self.entries, other.entries))))

    def to_rat(self) -> "RatMatrix":
        return RatMatrix(self.entries)


class RatMatrix(Value):
    """Immutable rational matrix num/den: one integer matrix (tuple of row
    tuples) over one denominator den > 0.

    The form is canonical: gcd(den, every entry) = 1, so den is the lcm
    of the reduced entry denominators, and two equal matrices have equal
    fields.  `over` brings any (rows, den) to it with one gcd; the bare
    constructor trusts its caller to pass the canonical form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[tuple[int, ...], ...], den: int = 1):
        _set(self, "num", num)
        _set(self, "den", den)

    @property
    def rows(self) -> int:
        return len(self.num)

    @property
    def cols(self) -> int:
        return len(self.num[0]) if self.num else 0

    @staticmethod
    def over(rows, den: int) -> "RatMatrix":
        """rows/den for integer rows and a nonzero den, in canonical form."""
        g = gcd(den, *chain.from_iterable(rows))
        if den < 0:
            g = -g
        if g == 1:
            return RatMatrix(tuple(map(tuple, rows)), den)
        return RatMatrix(tuple(tuple(x // g for x in row) for row in rows), den // g)

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        """From rows of anything `Fraction` accepts."""
        rows = [[Fraction(x) for x in r] for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged rows")
        den = lcm(*(x.denominator for r in rows for x in r))
        return RatMatrix(
            tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows), den
        )

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return IntMatrix.identity(n).to_rat()

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.num)), self.den) if self.num else self

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        """One integer product over the product of the two denominators,
        then one gcd."""
        if self.cols != other.rows:
            raise NonSquare(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return RatMatrix.over(list(row_products(self.num, other.num)), self.den * other.den)

    def rows_orthonormal(self) -> bool:
        """self . self^T = I, read as num . num^T = den^2 . I on the upper
        triangle only; the first failing product ends it."""
        rows, d2 = self.num, self.den * self.den
        return all(
            sum(map(mul, a, b)) == (d2 if i == j else 0)
            for i, a in enumerate(rows)
            for j, b in enumerate(rows[i:], i)
        )

    def to_dict(self) -> dict:
        """Entries as "p" or "p/q" in lowest terms, row by row."""
        den = self.den
        flat = list(chain.from_iterable(self.num))
        if den == 1:
            entries = list(map(str, flat))
        else:
            entries = []
            for x in flat:
                g = gcd(x, den)
                entries.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @staticmethod
    def from_dict(d: dict) -> "RatMatrix":
        """Parse the entries, accepting and rejecting exactly the strings
        (and JSON numbers) `Fraction` does; JSON booleans, which `Fraction`
        would read as 0 and 1, are refused, and so are null, lists, objects
        and infinities.  The plain forms "p" and "p/q" are read as integers;
        anything else goes through `Fraction`."""
        rows, cols, flat = _check_matrix_dict(d)
        nums, dens = [], []
        try:
            for s in flat:
                m = _PLAIN_RATIONAL.fullmatch(s) if type(s) is str else None
                if m is None:
                    if type(s) is bool:
                        raise TypeError
                    x = Fraction(s)
                    p, q = x.numerator, x.denominator
                else:
                    p, q = m.groups()
                    p, q = int(p), 1 if q is None else int(q)
                    if q != 1:
                        if not q:
                            raise ZeroDivisionError(f"Fraction({p}, 0)")
                        g = gcd(p, q)
                        p, q = p // g, q // g
                nums.append(p)
                dens.append(q)
        except TypeError:
            raise ParseError(f"bad rational entry: {s!r} is not a number") from None
        # OverflowError: JSON's Infinity, which Fraction cannot read.
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad rational entry: {exc}") from None
        den = lcm(*set(dens))
        if den != 1:
            nums = [p * (den // q) for p, q in zip(nums, dens)]
        return RatMatrix(tuple(tuple(nums[i * cols : (i + 1) * cols]) for i in range(rows)), den)


# The forms `RatMatrix.to_dict` writes; Fraction reads them to the same value.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def json_int(d: dict, key: str) -> int:
    """d[key] when it is a JSON integer; a missing field, a float, a
    string or a bool raises ParseError rather than being coerced."""
    v = d.get(key)
    if type(v) is not int:
        raise ParseError(f"field {key!r} must be an integer, got {type(v).__name__}")
    return v


def _check_matrix_dict(d: dict) -> tuple[int, int, list]:
    if not isinstance(d, dict):
        raise ParseError("matrix JSON must be an object")
    rows, cols = json_int(d, "rows"), json_int(d, "cols")
    flat = d.get("entries")
    if rows < 0 or cols < 0 or not isinstance(flat, list) or len(flat) != rows * cols:
        raise ParseError("matrix JSON entry count does not match shape")
    return rows, cols, flat


def row_products(a, b):
    """The rows of a.b, one list at a time, for integer rows a (r x n)
    and b (n x c).

    Each row of b is packed into one integer of c fields, each s bits
    wide, with s = bits(max|a|) + bits(max|b|) + bits(n) + 1, so every
    entry of a.b lies strictly between -2^(s-1) and 2^(s-1).  A row of
    a.b is then the packed sum over j of a[i][j] times packed row j
    (Kronecker substitution).  Adding 2^(s-1) to every field keeps each
    one in [0, 2^s), so field t reads back exactly as
    ((acc >> t.s) & (2^s - 1)) - 2^(s-1).
    """
    c = len(b[0]) if b else 0
    s = (
        max(map(abs, chain.from_iterable(a)), default=0).bit_length()
        + max(map(abs, chain.from_iterable(b)), default=0).bit_length()
        + len(b).bit_length()
        + 1
    )
    half, mask = 1 << (s - 1), (1 << s) - 1
    shifts = range(0, s * c, s)
    packed = [sum([x << t for x, t in zip(row, shifts)]) for row in b]
    bias = sum([half << t for t in shifts])
    for row in a:
        acc = sum(map(mul, row, packed), bias)
        yield [((acc >> t) & mask) - half for t in shifts]


def symmetric_product(x, y) -> list[list[int]]:
    """x . y^T for integer rows whose product is known to be symmetric
    (a Gram matrix A.A^T, or a congruence T.G.T^T given T.G as x): only
    the upper triangle is formed and the rest mirrored."""
    n = len(x)
    out = [[0] * n for _ in range(n)]
    for i, xi in enumerate(x):
        oi = out[i]
        for j in range(i, n):
            oi[j] = out[j][i] = sum(map(mul, xi, y[j]))
    return out


def congruence(t, g) -> list[list[int]]:
    """T . G . T^T for integer rows T and a symmetric integer G: T . G
    by `row_products`, then the symmetric upper triangle with T^T."""
    return symmetric_product(list(row_products(t, g)), t)


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for p in range(n - 1):
        if m[p][p] == 0:
            for r in range(p + 1, n):
                if m[r][p]:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[p][p]
        for i in range(p + 1, n):
            f = m[i][p]
            ri, rp = m[i], m[p]
            for j in range(p + 1, n):
                ri[j] = (piv * ri[j] - f * rp[j]) // prev
            ri[p] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def gram_triangle(gram) -> list[list[int]]:
    """The fraction-free elimination U of an integer Gram matrix G = A.A^T
    (symmetric positive semidefinite), on the upper triangle: row p holds,
    from column p on, the entries of row p once p pivots are eliminated,
    and U[p][p] is the leading principal minor of order p + 1.

    Each Schur complement of a symmetric matrix is symmetric, so the
    entry below a pivot is read from the pivot's row.  A zero pivot means
    the first p + 1 rows of A are dependent, so all rows are: the rows
    stop there, and det G, the last pivot U[-1][len(U) - 1], is 0.  The
    entries left of the diagonal are G's own, never read.
    """
    m = [list(r) for r in gram]
    n = len(m)
    prev = 1
    for p in range(n - 1):
        rp = m[p]
        piv = rp[p]
        if piv == 0:
            return m[: p + 1]
        for i in range(p + 1, n):
            ri, f = m[i], rp[i]
            for j in range(i, n):
                ri[j] = (piv * ri[j] - f * rp[j]) // prev
        prev = piv
    return m


def gram_solves(u: list[list[int]], rows, q: int) -> bool:
    """Whether y.G = x/q has an integer solution y for every integer row
    x, given the `gram_triangle` U of a nonsingular G; the first row
    without one ends the test, and rows are read one at a time.

    An integral y makes y.G integral, so q must divide x; the rest is on
    b = x/q.  G is symmetric, so y.G = b is G.y^T = b^T.  The forward
    pass replays U's elimination on b, with the same exact divisions
    (each entry is a bordered minor of [G | b^T]), leaving U.y^T = b'.
    Back substitution then runs from the last row up on integers: once
    y_j is integral for every j > p, y_p = (b'_p - sum U[p][j].y_j) / U[p][p]
    is integral exactly when U[p][p] divides the numerator.
    """
    n = len(u)
    for x in rows:
        if any(v % q for v in x):
            return False
        b = [v // q for v in x]
        prev = 1
        for p in range(n - 1):
            up = u[p]
            piv, bp = up[p], b[p]
            b[p + 1 :] = [(piv * bi - f * bp) // prev for bi, f in zip(b[p + 1 :], up[p + 1 :])]
            prev = piv
        y = [0] * n
        for p in range(n - 1, -1, -1):
            up = u[p]
            y[p], r = divmod(b[p] - sum(map(mul, up[p + 1 :], y[p + 1 :])), up[p])
            if r:
                return False
    return True
