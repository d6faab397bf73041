"""Reference implementations the library no longer carries.

The row HNF by elimination, the canonical basis built on it, and the
Fraction-per-entry forms of rational matrices serve as oracles for the
integer code that replaced them; `gram` and `o_hat` are the test-only
conveniences that used to be methods.
"""

from fractions import Fraction

from hullattack.kernels import xgcd
from hullattack.lattices import LatticeBasis, RationalOrthogonal
from hullattack.linalg import IntMatrix, RatMatrix
from hullattack.modring import ModMatrix, kernel_mod


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
    return IntMatrix.from_rows(hnf_rows([list(r) for r in m.entries], m.cols), m.cols)


def canonical_basis(b: RatMatrix) -> RatMatrix:
    """Canonical representative of the row lattice of b: clear the common
    denominator, take the HNF, scale back.  Unique per lattice."""
    scaled, den = b.clear_denominators()
    return RatMatrix.over(hnf_rows(scaled, b.cols), den)


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


def gram(lattice: LatticeBasis) -> RatMatrix:
    """B . B^T as a rational matrix product."""
    return lattice.basis.mul(lattice.basis.transpose())


def o_hat(sol, basis: RatMatrix) -> RationalOrthogonal:
    """U.B/k for the ZLIP solution of the basis B whose Gram matrix was
    solved: the orthonormal transform with rotate(lattice, o_hat) = k*Z^n."""
    return RationalOrthogonal(sol.u.to_rat().mul(basis).scale(Fraction(1, sol.k)))


def fractions(m: RatMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The entries of m, one Fraction each."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.num)


def fraction_str(x: Fraction) -> str:
    """The entry format of the matrix files: "p" or "p/q"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
