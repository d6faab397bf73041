"""Permutation and signed-permutation code equivalence.

Free LCD codes have a canonical projector whose conjugation class is a
complete permutation-equivalence invariant, so PEP reduces to weighted
graph isomorphism on projection matrices.  Signed equivalence (SPEP)
goes through the signed closures: a permutation solution on closure
coordinates that respects the (+x, -x) pairing folds back to a signed
permutation on the original coordinates.  A closure enters only through
its projector, which `codes.closure_projection` expands from the code's
own n x n projector, so no closure code is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, permutations, product
from operator import add
from typing import Iterator

from .codes import (
    LinearCode,
    apply_signed_perm,
    closure_projection,
    projection_matrix,
    signed_perm_maps,
)
from .errors import (
    BadModulus,
    DimensionMismatch,
    ExtractionExhausted,
    NotSymmetric,
    ParseError,
    TooLarge,
    VerificationFailed,
)
from .modring import ModMatrix

RETRY_CAP = 10_000
# Search nodes per graph-isomorphism call: ten times the retry cap, so the
# cap still ends a search that yields solutions; pinned attacks take at
# most a few dozen.
GI_NODE_BUDGET = 100_000


@dataclass(frozen=True)
class SignedPerm:
    """Coordinate map y[sigma[i]] = signs[i] * x[i] (sigma 0-based)."""

    sigma: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise ParseError("sigma is not a permutation")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ParseError("signs must be +1/-1 of matching length")

    @property
    def n(self) -> int:
        return len(self.sigma)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(n)), (1,) * n)

    def apply_to(self, code: LinearCode) -> LinearCode:
        return apply_signed_perm(code, self.sigma, self.signs)

    def to_dict(self) -> dict:
        return {"sigma": list(self.sigma), "signs": list(self.signs)}

    @staticmethod
    def from_dict(d: dict) -> "SignedPerm":
        try:
            return SignedPerm(tuple(int(x) for x in d["sigma"]), tuple(int(x) for x in d["signs"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad signed permutation JSON: {exc}") from None


@dataclass(frozen=True)
class WeightedGraph:
    """Complete graph on n vertices with edge and vertex weights in Z_k
    (weight 0 plays the role of a non-edge during refinement)."""

    k: int
    adjacency: ModMatrix

    def __post_init__(self):
        a = self.adjacency
        if a.rows != a.cols:
            raise NotSymmetric("adjacency matrix must be square")
        if a.entries != a.transpose().entries:
            raise NotSymmetric("adjacency matrix must be symmetric")

    @property
    def n(self) -> int:
        return self.adjacency.rows


def graph_from_projection(pi: ModMatrix) -> WeightedGraph:
    """Projection matrices are symmetric, so they are weighted graphs."""
    return WeightedGraph(k=pi.k, adjacency=pi)


def _neighbours(a) -> list[tuple[list[int], list[int]]]:
    """Per vertex, the indices and weights of its nonzero off-diagonal
    entries: the edges refinement reads."""
    out = []
    for v, row in enumerate(a):
        idx = list(compress(range(len(row)), row))
        if row[v]:
            idx.remove(v)
        out.append((idx, list(map(row.__getitem__, idx))))
    return out


def _refine(nbrs1, nbrs2, colors1, colors2, k):
    """Joint color refinement; None when the color histograms split.

    A vertex's signature is its color and the multiset of its neighbours'
    (color, weight) pairs, each encoded as the integer color * k + weight
    (weights lie in [1, k)).  Signatures are numbered by first appearance,
    graph 1 before graph 2, so once the histograms agree every cell is
    numbered by its first vertex in graph 1.  Rounds stop when no cell
    splits; a discrete coloring stops at once, because a further round
    would only renumber it to the same ids, and a bijection that round
    would reject fails the caller's full-matrix check anyway.
    """
    n = len(colors1)
    cells = len(set(colors1))
    while True:
        sig_ids: dict = {}
        refined = []
        for nbrs, colors in ((nbrs1, colors1), (nbrs2, colors2)):
            code = [c * k for c in colors].__getitem__
            new = []
            for c, (idx, wts) in zip(colors, nbrs):
                sig = (c, tuple(sorted(map(add, map(code, idx), wts))))
                new.append(sig_ids.setdefault(sig, len(sig_ids)))
            refined.append(new)
        new1, new2 = refined
        if sorted(new1) != sorted(new2):
            return None
        if len(sig_ids) in (cells, n):
            return new1, new2
        colors1, colors2, cells = new1, new2, len(sig_ids)


def solve_weighted_gi(
    g1: WeightedGraph, g2: WeightedGraph, stats: dict | None = None
) -> Iterator[tuple[int, ...]]:
    """All isomorphisms p with A1[i][j] == A2[p(i)][p(j)], lazily.

    Individualization-refinement with deterministic branching: target
    cell of lowest color id, candidates in ascending vertex order (McKay
    & Piperno, "Practical graph isomorphism II", 2014).  Every leaf
    candidate is checked against the full matrices before being yielded,
    zero weights included.  A search that visits more than GI_NODE_BUDGET
    nodes raises ExtractionExhausted.
    """
    if stats is not None:
        stats.setdefault("nodes", 0)
    if g1.k != g2.k or g1.n != g2.n:
        return
    n, k = g1.n, g1.k
    if n == 0:
        yield ()
        return
    a1 = g1.adjacency.entries
    a2 = g2.adjacency.entries
    nbrs1 = _neighbours(a1)
    nbrs2 = _neighbours(a2)

    init_ids: dict = {}
    c1 = [init_ids.setdefault(a1[v][v], len(init_ids)) for v in range(n)]
    c2 = [init_ids.setdefault(a2[v][v], len(init_ids)) for v in range(n)]

    nodes = 0

    def search(colors1, colors2):
        nonlocal nodes
        nodes += 1
        if nodes > GI_NODE_BUDGET:
            raise ExtractionExhausted(f"graph isomorphism search exceeded {GI_NODE_BUDGET} nodes")
        if stats is not None:
            stats["nodes"] += 1
        refined = _refine(nbrs1, nbrs2, colors1, colors2, k)
        if refined is None:
            return
        colors1, colors2 = refined
        cells1: dict = {}
        cells2: dict = {}
        for v in range(n):
            cells1.setdefault(colors1[v], []).append(v)
            cells2.setdefault(colors2[v], []).append(v)
        target = None
        for color in sorted(cells1):
            if len(cells1[color]) > 1:
                target = color
                break
        if target is None:
            perm = [0] * n
            for color, vs in cells1.items():
                perm[vs[0]] = cells2[color][0]
            for i in range(n):
                if a1[i] != tuple(map(a2[perm[i]].__getitem__, perm)):
                    return
            yield tuple(perm)
            return
        v = cells1[target][0]
        fresh = n + max(colors1) + 1
        for u in cells2[target]:
            nc1 = list(colors1)
            nc2 = list(colors2)
            nc1[v] = fresh
            nc2[u] = fresh
            yield from search(nc1, nc2)

    yield from search(c1, c2)


@dataclass(frozen=True)
class EquivResult:
    outcome: str  # "found", "not_equivalent", "inconclusive"
    perm: SignedPerm | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"outcome": self.outcome}
        if self.perm is not None:
            d["sigma"] = list(self.perm.sigma)
            d["signs"] = list(self.perm.signs)
        if self.reason is not None:
            d["reason"] = self.reason
        return d

    @staticmethod
    def from_dict(d: dict) -> "EquivResult":
        try:
            outcome = d["outcome"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad equivalence JSON: {exc}") from None
        perm = None
        if "sigma" in d:
            perm = SignedPerm.from_dict(d)
        return EquivResult(outcome=outcome, perm=perm, reason=d.get("reason"))


def _require_comparable(c1: LinearCode, c2: LinearCode) -> None:
    if c1.k != c2.k or c1.n != c2.n:
        raise DimensionMismatch(
            f"codes live in different spaces: (k={c1.k}, n={c1.n}) vs (k={c2.k}, n={c2.n})"
        )


def pep(c1: LinearCode, c2: LinearCode, stats: dict | None = None) -> EquivResult:
    """Permutation equivalence of free LCD codes.

    Any single graph isomorphism of the projectors is already a code
    equivalence, so the first solution is returned after an exact
    code-level verification.
    """
    _require_comparable(c1, c2)
    g1 = graph_from_projection(projection_matrix(c1))
    g2 = graph_from_projection(projection_matrix(c2))
    for p in solve_weighted_gi(g1, g2, stats):
        inv = [0] * len(p)
        for i, v in enumerate(p):
            inv[v] = i
        s = SignedPerm(tuple(inv), (1,) * len(p))
        if not signed_perm_maps(c2, s.sigma, s.signs, c1):
            raise VerificationFailed("projector isomorphism is not a code equivalence")
        return EquivResult(outcome="found", perm=s)
    return EquivResult(outcome="not_equivalent")


def extract_signed_perm(p, n: int, mode: str) -> SignedPerm | None:
    """Fold a closure-coordinate permutation back to a signed one.

    In signed mode p acts on 2n interleaved coordinates; it folds iff it
    maps (+,-) pairs onto pairs.  In extended mode p acts on 3n
    coordinates and must fix the 2n/n block split setwise first.  None
    means structural mismatch, not an error.
    """
    p = tuple(p)
    if mode == "signed":
        if len(p) != 2 * n:
            raise DimensionMismatch(f"expected a permutation of length {2 * n}")
    elif mode == "extended":
        if len(p) != 3 * n:
            raise DimensionMismatch(f"expected a permutation of length {3 * n}")
        if any(p[i] >= 2 * n for i in range(2 * n)):
            return None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sigma = [0] * n
    signs = [1] * n
    for i in range(n):
        a, b = p[2 * i], p[2 * i + 1]
        if a // 2 != b // 2:
            return None
        j = a // 2
        sigma[j] = i
        signs[j] = 1 if a % 2 == 0 else -1
    return SignedPerm(tuple(sigma), tuple(signs))


def spep(c1: LinearCode, c2: LinearCode, stats: dict | None = None) -> EquivResult:
    """Signed permutation equivalence via the closure that fits k.

    Odd k uses the length-2n signed closure, k = 2 mod 4 the length-3n
    extended closure (k = 2 included), k = 0 mod 4 is unsupported.  The
    graphs are the closures' projectors, expanded from the codes' own
    (the closures themselves are not built).  Every graph-isomorphism
    solution is folded and the folded map verified on the original codes
    by one Howell form of width n; structurally useless solutions are
    skipped up to a retry cap.
    """
    _require_comparable(c1, c2)
    k, n = c1.k, c1.n
    if k % 2 == 1:
        mode = "signed"
    elif k % 4 == 2:
        mode = "extended"
    else:
        raise BadModulus(f"signed equivalence needs k odd or k = 2 mod 4, got k={k}")
    if stats is not None:
        stats["mode"] = mode
    g1 = graph_from_projection(closure_projection(c1, mode))
    g2 = graph_from_projection(closure_projection(c2, mode))
    tried = 0
    for p in solve_weighted_gi(g1, g2, stats):
        tried += 1
        if stats is not None:
            stats["solutions_tried"] = tried
        s = extract_signed_perm(p, n, mode)
        if s is not None and signed_perm_maps(c2, s.sigma, s.signs, c1):
            return EquivResult(outcome="found", perm=s)
        if tried >= RETRY_CAP:
            raise ExtractionExhausted(
                f"no pair-respecting solution within {RETRY_CAP} graph isomorphisms"
            )
    if tried == 0:
        return EquivResult(outcome="not_equivalent")
    raise ExtractionExhausted(
        f"graph isomorphisms exhausted after {tried} solutions without a signed fold"
    )


def brute_force_spep(c1: LinearCode, c2: LinearCode) -> EquivResult:
    """Exhaustive signed-permutation search, first match in lexicographic
    order (permutations first, then signs with +1 before -1)."""
    _require_comparable(c1, c2)
    n = c1.n
    if n > 6:
        raise TooLarge(f"exhaustive search is capped at n = 6, got n = {n}")
    for sigma in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            s = SignedPerm(sigma, signs)
            if s.apply_to(c2) == c1:
                return EquivResult(outcome="found", perm=s)
    return EquivResult(outcome="not_equivalent")


def brute_force_pep(c1: LinearCode, c2: LinearCode) -> EquivResult:
    """Exhaustive plain-permutation search in lexicographic order."""
    _require_comparable(c1, c2)
    n = c1.n
    if n > 6:
        raise TooLarge(f"exhaustive search is capped at n = 6, got n = {n}")
    for sigma in permutations(range(n)):
        s = SignedPerm(sigma, (1,) * n)
        if s.apply_to(c2) == c1:
            return EquivResult(outcome="found", perm=s)
    return EquivResult(outcome="not_equivalent")
