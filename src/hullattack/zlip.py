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
alone and never forms H.M.H^T (a row it reaches for the first time is
still e_i in H, so its Gram entries are M[i].h_j); that product is formed
here, once, from M.  When H does not reduce M to I, the vectors
of squared norm 1 are enumerated in the coordinates of the
LLL rows, on their Gram matrix H.M.H^T, and n pairwise orthogonal ones
K are assembled by backtracking; U = K.H then passes the same two
checks.  A broken promise surfaces as NotARotation, never as a wrong
answer.
"""

from __future__ import annotations

from operator import mul

from .errors import NotARotation
from .kernels import lll_gram
from .linalg import IntMatrix, Value, _set, bareiss_det, congruence, enumerate_short_vectors

NODE_BUDGET = 10**6


def assemble_orthogonal_basis(gram, target: int) -> list[tuple[int, ...]] | None:
    """Coefficient rows K of n pairwise orthogonal vectors of squared norm
    `target` in the lattice with integer Gram matrix `gram`, so that
    K.G.K^T = target.I.  None when no such family exists; NotARotation
    when the backtracking budget runs out."""
    n = len(gram)
    vecs = []  # (x, G.x) for every x with x.G.x = target
    for x in enumerate_short_vectors(gram, target):
        gx = [sum(map(mul, row, x)) for row in gram]
        if sum(map(mul, gx, x)) == target:
            vecs.append((x, gx))
    chosen: list[tuple] = []
    nodes = 0

    def extend(start: int) -> bool:
        nonlocal nodes
        if len(chosen) == n:
            return True
        for idx in range(start, len(vecs)):
            nodes += 1
            if nodes > NODE_BUDGET:
                raise NotARotation(f"orthogonal assembly exceeded {NODE_BUDGET} nodes")
            x, gx = vecs[idx]
            if all(sum(map(mul, gx, y)) == 0 for y, _ in chosen):
                chosen.append(vecs[idx])
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    return [x for x, _ in chosen]


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
        h = lll_gram(m, 99, 100)
    except ValueError as exc:
        raise NotARotation(str(exc)) from None
    u, method = IntMatrix.from_rows(h), "lll"
    # The kernel hands back H alone: every check is computed here from M.
    reduced = congruence(u.entries, m)
    if not _is_identity(reduced):
        coeffs = assemble_orthogonal_basis(reduced, 1)
        if coeffs is None:
            raise NotARotation("no orthogonal family of norm-k vectors")
        u, method = IntMatrix.from_rows(coeffs).mul(u), "enumeration"
        reduced = congruence(u.entries, m)
    if not _is_identity(reduced):
        raise NotARotation("transform does not carry the unit form to I")
    if abs(bareiss_det(u.entries)) != 1:
        raise NotARotation("transform is not unimodular")
    return ZlipSolution(u=u, k=k, method=method)
