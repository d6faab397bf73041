"""Witness check that shares no code with the library.

A witness O* for the pair (L1, L2) is accepted when O* . O*^T = I and
T = (B2 . O*^T) . B1^-1 is an integer matrix with |det T| = 1, i.e. the
rotated rows of B2 are a unimodular recombination of the rows of B1.
Everything below is plain integer arithmetic on cleared denominators,
so an HNF bug in the library cannot both produce and approve a witness.
"""

from fractions import Fraction
from math import lcm


def parse(d: dict) -> list[list[Fraction]]:
    """Rows of a matrix in the library's JSON layout (row-major strings)."""
    rows, cols = int(d["rows"]), int(d["cols"])
    flat = [Fraction(s) for s in d["entries"]]
    if len(flat) != rows * cols:
        raise ValueError("entry count does not match the shape")
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def to_dict(rows: list[list[Fraction]]) -> dict:
    """The library's JSON layout for a rational matrix."""
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "entries": [
            str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
            for row in rows
            for x in row
        ],
    }


def _cleared(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    return [[int(x * den) for x in row] for row in rows], den


def _mul_t(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a . b^T."""
    return [[sum(x * y for x, y in zip(ra, rb)) for rb in b] for ra in a]


def _det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant with row pivoting."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for p in range(n):
        piv = next((r for r in range(p, n) if a[r][p]), None)
        if piv is None:
            return 0
        if piv != p:
            a[p], a[piv] = a[piv], a[p]
            sign = -sign
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                a[i][j] = (a[p][p] * a[i][j] - a[i][p] * a[p][j]) // prev
            a[i][p] = 0
        prev = a[p][p]
    return sign * a[n - 1][n - 1] if n else 1


def _solve_right(a: list[list[int]], b: list[list[int]]) -> tuple[list[list[int]], int]:
    """(X, D) with (X / D) . B = A for square nonsingular B.

    Fraction-free Gauss-Jordan on the columns: eliminating B^T against
    A^T leaves D * I beside D * (B^T)^-1 A^T, with D = +-det B.
    """
    n = len(b)
    bt = [list(col) for col in zip(*b)]
    at = [list(col) for col in zip(*a)]
    rows = [bt[i] + at[i] for i in range(n)]
    w = len(rows[0])
    prev = 1
    for p in range(n):
        piv = next((r for r in range(p, n) if rows[r][p]), None)
        if piv is None:
            raise ValueError("B1 is singular")
        rows[p], rows[piv] = rows[piv], rows[p]
        pp = rows[p][p]
        for i in range(n):
            if i == p:
                continue
            f = rows[i][p]
            ri, rp = rows[i], rows[p]
            for j in range(w):
                ri[j] = (pp * ri[j] - f * rp[j]) // prev
        prev = pp
    d = rows[0][0]
    xt = [r[n:] for r in rows]
    return [list(r) for r in zip(*xt)], d


def check(l1: dict, l2: dict, o_star: dict) -> str | None:
    """None when o_star maps L2 onto L1 exactly, else the reason it fails.

    l1 and l2 are lattice dicts (the instance's public L1/L2), o_star a
    matrix dict as in a result file.
    """
    m, d = _cleared(parse(o_star))
    n = len(m)
    p1, e1 = _cleared(parse(l1))
    p2, e2 = _cleared(parse(l2))
    if any(len(r) != n for r in m) or len(p1) != n or len(p2) != n:
        return "shapes differ"
    gram = _mul_t(m, m)
    if any(gram[i][j] != (d * d if i == j else 0) for i in range(n) for j in range(n)):
        return "o_star is not orthonormal"
    # B2 . O*^T = P2 . M^T / (e2 d) and B1 = P1 / e1, so
    # T = (e1 / (e2 d)) . (P2 . M^T) . P1^-1 = e1 X / (e2 d D).
    x, big_d = _solve_right(_mul_t(p2, m), p1)
    q = e2 * d * big_d
    t = []
    for row in x:
        out = []
        for v in row:
            num = e1 * v
            if num % q:
                return "T is not integral"
            out.append(num // q)
        t.append(out)
    if abs(_det(t)) != 1:
        return "T is not unimodular"
    return None


def secret_witness(o1: dict, o2: dict) -> dict:
    """O1 . O2^T: the map the generator's secrets say carries L2 onto L1."""
    a, b = parse(o1), parse(o2)
    return to_dict([[sum(x * y for x, y in zip(ra, rb)) for rb in b] for ra in a])
