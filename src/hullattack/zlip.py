"""Solving the scaled integer-lattice isomorphism.

Given a lattice promised to be an orthonormal rotation of k*Z^n, find a
transform carrying it back.  LLL almost always hands over an orthogonal
basis of norm-k vectors directly; when it does not, the norm-k vectors
are enumerated exactly and assembled into an orthogonal basis by
backtracking.  The result is always verified: the image of the basis
must span k*Z^n, which `same_lattice` decides with one Bareiss inverse
and determinant, so a broken promise surfaces as NotARotation, never as
a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotARotation, Singular
from .lattices import LatticeBasis, RationalOrthogonal
from .linalg import RatMatrix, enumerate_short_vectors, lll_reduce, rat_inverse, same_lattice

NODE_BUDGET = 10**6


def _scaled_identity_gram(m: RatMatrix, k2: Fraction) -> bool:
    gram = m.mul(m.transpose())
    n = m.rows
    return gram == RatMatrix.from_rows(
        [[k2 if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )


def assemble_orthogonal_basis(b: RatMatrix, k: int) -> RatMatrix | None:
    """Search the norm-k vectors of the lattice of b for n pairwise
    orthogonal ones.  None when no such family exists; NotARotation when
    the backtracking budget runs out."""
    n = b.rows
    k2 = Fraction(k * k)
    vecs = []
    for coeff in enumerate_short_vectors(b, k2):
        v = tuple(
            sum((coeff[t] * b.entries[t][j] for t in range(n)), Fraction(0)) for j in range(n)
        )
        if sum((x * x for x in v), Fraction(0)) == k2:
            vecs.append(v)
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
            v = vecs[idx]
            if all(sum((a * c for a, c in zip(v, u)), Fraction(0)) == 0 for u in chosen):
                chosen.append(v)
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    return RatMatrix.from_rows(chosen)


@dataclass(frozen=True)
class ZlipSolution:
    o_hat: RationalOrthogonal
    method: str  # "lll" or "enumeration"


def solve_scaled_zlip(lattice: LatticeBasis, k: int) -> ZlipSolution:
    """Orthonormal o_hat with rotate(lattice, o_hat) = k*Z^n."""
    if k < 1:
        raise ValueError(f"scale must be positive, got {k}")
    n = lattice.n
    try:
        red = lll_reduce(lattice.basis)
    except Singular as exc:
        raise NotARotation(str(exc)) from None
    if _scaled_identity_gram(red, Fraction(k * k)):
        method = "lll"
        frame = red
    else:
        method = "enumeration"
        frame = assemble_orthogonal_basis(red, k)
        if frame is None:
            raise NotARotation("no orthogonal family of norm-k vectors")
    try:
        o_hat = RationalOrthogonal(rat_inverse(frame.transpose()).scale(Fraction(k)))
    except (NotARotation, Singular) as exc:
        raise NotARotation(f"assembled frame is not a rotation: {exc}") from None
    image = lattice.basis.mul(o_hat.matrix.transpose())
    if not same_lattice(image, RatMatrix.identity(n).scale(Fraction(k))):
        raise NotARotation("transform does not carry the lattice onto k*Z^n")
    return ZlipSolution(o_hat=o_hat, method=method)
