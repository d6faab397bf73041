"""Solving the scaled integer-lattice isomorphism on a Gram matrix.

A lattice with basis B is promised to be an orthonormal rotation of
k*Z^n; only its integer Gram record B.B^T = G/den is read, never B.
The answer is a unimodular integer transform U with U.G.U^T = k^2.den.I.
That identity makes the frame U.B a family of pairwise orthogonal rows
of norm k, so o_hat = U.B/k is orthonormal, and the image
B.o_hat^T = k.U^-1 spans k*Z^n exactly when |det U| = 1.

The promise makes G exactly k^2.den times the Gram matrix M of a basis
of Z^n: U.G.U^T = k^2.den.I gives G = k^2.den.U^-1.U^-T.  So the solver
first checks that k^2.den divides every entry of G, and refuses the
record before any reduction if it does not; then it works on the unit
form M = G/(k^2.den) alone.  LLL makes the same size reductions and
swaps on M as on G (every test compares quantities of equal degree in
the scale), so it returns the same H, while its Gram-Schmidt integers
carry half the bits.  The checks read U.M.U^T = I, exactly the
identity above, and |det U| = 1, both in exact integers recomputed
from M and U.  For an integral M, U.M.U^T = I already forces
det(U)^2.det(M) = 1 with both factors integers, so |det U| = 1; the
determinant is computed anyway, as the check that does not lean on
that argument.

LLL on M hands over U = H directly almost always.  The kernel returns H
with the integer Gram-Schmidt data d, lam of H.M.H^T that it keeps, and
never forms H.M.H^T (a row it reaches for the first time is still e_i
in H, so its Gram entries are M[i].h_j); that product is formed here,
once, from M.  When H does not reduce M to I, the vectors of squared
norm 1 are enumerated in the coordinates of the LLL rows, on d and lam
alone in integers, and the first n found are the rows K of U = K.H,
which then passes the same two checks.  No search is needed to make K
orthogonal: for two norm-1 vectors x, y of the integral positive-definite
form R = H.M.H^T that are not +-each other, Cauchy-Schwarz gives
|x.R.y^T| < 1, so the integer x.R.y^T is 0.  The norm-1 vectors of an
integral form span an orthogonal summand Z^j (Milnor & Husemoller,
Symmetric Bilinear Forms, 1973), so there are n of them, one per
+-pair, exactly when M is equivalent to I; fewer is a refusal.
The enumeration stops after NODE_BUDGET nodes, the one budget.  A
broken promise or an exhausted budget surfaces as NotARotation, never as
a wrong answer.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt, prod
from operator import mul
from typing import Iterator

from .errors import NotARotation
from .kernels import lll_gram
from .linalg import IntMatrix, Value, _set, bareiss_det, congruence

NODE_BUDGET = 10**6


def short_vectors(d, lam, bound: int) -> Iterator[tuple[int, ...]]:
    """All coefficient vectors x != 0 with x.G.x^T <= bound, one per
    +-pair (first nonzero coefficient positive), for the n x n Gram
    matrix G, n >= 1, whose integer Gram-Schmidt data `kernels.lll_gram`
    returns: d[i] the leading principal minors, lam[i][j] =
    mu[i][j].d[j+1] below the diagonal; bound >= 0.

    Depth-first over the Gram-Schmidt triangle, from the last coordinate
    down, each x_i upward (Fincke & Pohst, Math. Comp. 1985).  Level i
    adds c_i^2/(d_i.d_{i+1}) to the norm, with c_i = x_i.d_{i+1} + a and
    a = sum_{j>i} x_j.lam[j][i], an integer.  Scaled by D = prod_i
    d_i.d_{i+1}, with w_i = D/(d_i.d_{i+1}), the norm still left, R, is an
    integer, R = bound.D at the top, and |c_i| <= isqrt(R // w_i) is the
    exact range of x_i.  Vectors are yielded lazily, in discovery order,
    which is deterministic.  Raises NotARotation after NODE_BUDGET nodes.
    """
    n = len(d) - 1
    w = [d[i] * d[i + 1] for i in range(n)]
    scale = prod(w)
    w = [scale // wi for wi in w]
    cols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    x = [0] * n
    nodes = 0

    def descend(i: int, rest: int) -> Iterator[tuple[int, ...]]:
        nonlocal nodes
        a = sum(map(mul, x[i + 1 :], cols[i]))
        di, wi = d[i + 1], w[i]
        s = isqrt(rest // wi)
        for xi in range(-((s + a) // di), (s - a) // di + 1):
            nodes += 1
            if nodes > NODE_BUDGET:
                raise NotARotation(f"short-vector enumeration exceeded {NODE_BUDGET} nodes")
            x[i] = xi
            if i:
                c = xi * di + a
                yield from descend(i - 1, rest - c * c * wi)
            elif next((v for v in x if v), 0) > 0:
                yield tuple(x)
        x[i] = 0

    yield from descend(n - 1, bound * scale)


class ZlipSolution(Value):
    __slots__ = ("u", "k", "method")

    def __init__(self, u: IntMatrix, k: int, method: str):
        _set(self, "u", u)  # unimodular, U.G.U^T = k^2.den.I
        _set(self, "k", k)
        _set(self, "method", method)  # "lll" or "enumeration"


def _is_identity(m: list[list[int]]) -> bool:
    return all(x == (i == j) for i, row in enumerate(m) for j, x in enumerate(row))


def solve_scaled_zlip(gram: tuple[list[list[int]], int], k: int) -> ZlipSolution:
    """Unimodular U with U.G.U^T = k^2.den.I for the Gram record
    (G, den) of a lattice, so that U.B/k carries it onto k*Z^n.

    Reduces and checks the unit form M = G/(k^2.den), so U.M.U^T = I;
    raises NotARotation, without reducing, when k^2.den does not divide
    G, since then no such U exists."""
    if k < 1:
        raise ValueError(f"scale must be positive, got {k}")
    g, den = gram
    target = k * k * den
    if any(x % target for row in g for x in row):
        raise NotARotation("Gram matrix is not k^2.den times an integer form")
    m = [[x // target for x in row] for row in g]
    try:
        h, d, lam = lll_gram(m, 99, 100)
    except ValueError as exc:
        raise NotARotation(str(exc)) from None
    u, method = IntMatrix.from_rows(h), "lll"
    # The kernel's d and lam steer the enumeration only: every check is
    # computed here from M.
    reduced = congruence(u.entries, m)
    if not _is_identity(reduced):
        # Norm-1 vectors that are not +-each other are orthogonal (see the
        # module docstring), so the first n found are the frame.
        n = len(m)
        coeffs = list(islice(short_vectors(d, lam, 1), n))
        if len(coeffs) < n:
            raise NotARotation("no orthogonal family of norm-k vectors")
        u, method = IntMatrix.from_rows(coeffs).mul(u), "enumeration"
        reduced = congruence(u.entries, m)
    if not _is_identity(reduced):
        raise NotARotation("transform does not carry the unit form to I")
    if abs(bareiss_det(u.entries)) != 1:
        raise NotARotation("transform is not unimodular")
    return ZlipSolution(u=u, k=k, method=method)
