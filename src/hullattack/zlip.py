"""Solving the scaled integer-lattice isomorphism.

Given a lattice promised to be an orthonormal rotation of k*Z^n, find a
transform carrying it back.  LLL runs on the lattice's integer Gram
matrix G with B.B^T = G/den, read off the lattice's cached Gram
record, and returns a transform H, never touching the large basis
entries.  When H.G.H^T = k^2.den.I the frame H.B has pairwise
orthogonal rows of norm k, so o_hat = frame/k.
Given that identity, the image B.o_hat^T equals k.H^-1, so it spans
k*Z^n exactly when |det H| = 1; both are checked in exact integers,
recomputed from G and H.  When LLL does not hand over an orthogonal
frame, the norm-k vectors of H.B are enumerated exactly and assembled
into an orthogonal basis by backtracking, and that image is checked
with `same_lattice`.  A broken promise surfaces as NotARotation, never
as a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotARotation
from .kernels import lll_gram
from .lattices import LatticeBasis, RationalOrthogonal
from .linalg import IntMatrix, RatMatrix, bareiss_det, enumerate_short_vectors, same_lattice

NODE_BUDGET = 10**6


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
    gram, den = lattice.gram_record.cleared
    try:
        h, _ = lll_gram(gram, 99, 100)
    except ValueError as exc:
        raise NotARotation(str(exc)) from None
    if abs(bareiss_det(h)) != 1:
        raise NotARotation("LLL transform is not unimodular")
    hm = IntMatrix.from_rows(h)
    target = k * k * den
    reduced_gram = hm.mul(IntMatrix.from_rows(gram)).mul(hm.transpose())
    red = hm.to_rat().mul(lattice.basis)
    if all(
        x == (target if i == j else 0)
        for i, row in enumerate(reduced_gram.entries)
        for j, x in enumerate(row)
    ):
        # red . red^T = k^2 I, so (red^T)^-1 . k = red / k.
        return ZlipSolution(o_hat=RationalOrthogonal(red.scale(Fraction(1, k))), method="lll")
    frame = assemble_orthogonal_basis(red, k)
    if frame is None:
        raise NotARotation("no orthogonal family of norm-k vectors")
    o_hat = RationalOrthogonal(frame.scale(Fraction(1, k)))
    image = lattice.basis.mul(o_hat.matrix.transpose())
    if not same_lattice(image, RatMatrix.identity(lattice.n).scale(Fraction(k))):
        raise NotARotation("transform does not carry the lattice onto k*Z^n")
    return ZlipSolution(o_hat=o_hat, method="enumeration")
