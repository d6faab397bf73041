"""Solving the scaled integer-lattice isomorphism on a Gram matrix.

A lattice with basis B is promised to be an orthonormal rotation of
k*Z^n; only its integer Gram record B.B^T = G/den is read, never B.
The answer is a unimodular integer transform U with U.G.U^T = k^2.den.I.
That identity makes the frame U.B a family of pairwise orthogonal rows
of norm k, so o_hat = U.B/k is orthonormal, and the image
B.o_hat^T = k.U^-1 spans k*Z^n exactly when |det U| = 1.  Both are
checked in exact integers, recomputed from G and U.

LLL on G hands over U = H directly almost always.  The kernel returns H
alone and never forms H.G.H^T (a row it reaches for the first time is
still e_i in H, so its Gram entries are G[i].h_j); that product is formed
here, once, from G.  When H does not reduce G to k^2.den.I, the vectors
of squared norm k^2 are enumerated in the coordinates of the
LLL rows, on their Gram matrix H.G.H^T, and n pairwise orthogonal ones
K are assembled by backtracking; U = K.H then passes the same two
checks.  A broken promise surfaces as NotARotation, never as a wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import NotARotation
from .kernels import lll_gram
from .linalg import IntMatrix, bareiss_det, congruence, enumerate_short_vectors

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


@dataclass(frozen=True)
class ZlipSolution:
    u: IntMatrix  # unimodular, U.G.U^T = k^2.den.I
    k: int
    method: str  # "lll" or "enumeration"


def _is_scalar(m: list[list[int]], c: int) -> bool:
    return all(x == (c if i == j else 0) for i, row in enumerate(m) for j, x in enumerate(row))


def solve_scaled_zlip(gram: tuple[list[list[int]], int], k: int) -> ZlipSolution:
    """Unimodular U with U.G.U^T = k^2.den.I for the Gram record
    (G, den) of a lattice, so that U.B/k carries it onto k*Z^n."""
    if k < 1:
        raise ValueError(f"scale must be positive, got {k}")
    g, den = gram
    try:
        h = lll_gram(g, 99, 100)
    except ValueError as exc:
        raise NotARotation(str(exc)) from None
    target = k * k * den
    u, method = IntMatrix.from_rows(h), "lll"
    # The kernel hands back H alone: every check is computed here from G.
    reduced = congruence(u.entries, g)
    if not _is_scalar(reduced, target):
        coeffs = assemble_orthogonal_basis(reduced, target)
        if coeffs is None:
            raise NotARotation("no orthogonal family of norm-k vectors")
        u, method = IntMatrix.from_rows(coeffs).mul(u), "enumeration"
        reduced = congruence(u.entries, g)
    if not _is_scalar(reduced, target):
        raise NotARotation("transform does not carry the Gram matrix to k^2.den.I")
    if abs(bareiss_det(u.entries)) != 1:
        raise NotARotation("transform is not unimodular")
    return ZlipSolution(u=u, k=k, method=method)
