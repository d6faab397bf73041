"""Permutation and signed-permutation code equivalence.

An LCD code, free or not, has a canonical projector onto it along its
dual, and the projector's row space is the code, so its conjugation
class is a complete permutation-equivalence invariant and PEP reduces
to weighted graph isomorphism on projection matrices (`selftest.pep`
solves it that way).  Signed equivalence (SPEP) goes through the signed
closures: a permutation solution on closure coordinates that respects
the (+x, -x) pairing folds back to a signed permutation on the original
coordinates.  A closure enters only through its projector, which
`codes.closure_projection` expands from the code's own n x n projector,
so no closure code is ever built.

The graph isomorphism is individualization-refinement on the disjoint
union of the two graphs.  Only the root refines from scratch, with one
signature per orbit of the closures' sign flip; a child splits its
parent's stable coloring by the weight to the vertex it individualizes,
in O(N), and runs full rounds only when that split is not final.
Either way a node holds the coarsest equitable refinement of its
coloring, which is unique, so the search visits the same nodes and
yields the same solutions as one that refines every node from scratch.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import add
from typing import Iterator

from .codes import (
    LinearCode,
    apply_signed_perm,
    closure_mode,
    closure_projection,
    signed_perm_maps,
)
from .errors import (
    DimensionMismatch,
    ExtractionExhausted,
    NotLcd,
    ParseError,
)
from .linalg import Value, _set
from .modring import ModMatrix

RETRY_CAP = 10_000
# Search nodes per graph-isomorphism call: ten times the retry cap, so the
# cap still ends a search that yields solutions.  A random code's 2n
# closure takes a few nodes; the 3n closure of k = 2 takes 129 at
# (2, 64, 32) and 257 at (2, 128, 64), at 0.2-1.3 ms and 0.4-5.4 ms a
# node (README).
GI_NODE_BUDGET = 100_000


class SignedPerm(Value):
    """Coordinate map y[sigma[i]] = signs[i] * x[i] (sigma 0-based)."""

    __slots__ = ("sigma", "signs")

    def __init__(self, sigma: tuple[int, ...], signs: tuple[int, ...]):
        _set(self, "sigma", sigma)
        _set(self, "signs", signs)
        self.__post_init__()

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise ParseError("sigma is not a permutation")
        if len(self.signs) != n or any(s not in (1, -1) for s in self.signs):
            raise ParseError("signs must be +1/-1 of matching length")

    @property
    def n(self) -> int:
        return len(self.sigma)

    def apply_to(self, code: LinearCode) -> LinearCode:
        return apply_signed_perm(code, self.sigma, self.signs)


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


def _flip_orbits(size: int, mode: str) -> list[int]:
    """Per vertex of a closure of length `size`, its orbit under the sign
    flip (i,+) <-> (i,-), which fixes the extended tail: the pair
    (2i, 2i+1) is orbit i, tail vertex 2n+i is orbit n+i.

    The flip maps entry t^-1.c_a.c_b.Pi[i_a][i_b] of a closure projector
    (`codes.closure_projection`) to itself, on the tail too because
    -h = h mod 2h, so it is an automorphism of both closure graphs.
    """
    n = size // 3 if mode == "extended" else size // 2
    return [i // 2 for i in range(2 * n)] + list(range(n, size - n))


def _refine(nbrs1, nbrs2, colors1, colors2, k, orbits=None):
    """Joint color refinement; None when the color histograms split.

    A vertex's signature is its color and the multiset of its neighbours'
    (color, weight) pairs, each encoded as the integer color * k + weight
    (weights lie in [1, k)).  Signatures are numbered by first appearance,
    graph 1 before graph 2, so once the histograms agree every cell is
    numbered by its first vertex in graph 1.  Rounds stop when no cell
    splits; a discrete coloring stops at once, because a further round
    would only renumber it to the same ids, and a bijection that round
    would reject fails the caller's full-matrix check anyway.

    `orbits` (as from `_flip_orbits`: per vertex its orbit, the orbits
    numbered in order of their first vertex) names an automorphism of
    both graphs that fixes the input colors; every round's coloring is
    then constant on its orbits, so one signature per orbit, taken at
    its first vertex, is copied to the rest.
    """
    n = len(colors1)
    cells = len(set(colors1))
    firsts = None
    if orbits is not None:
        firsts = []
        for v, o in enumerate(orbits):
            if o == len(firsts):
                firsts.append(v)
        nbrs1, nbrs2 = (list(map(nb.__getitem__, firsts)) for nb in (nbrs1, nbrs2))
    while True:
        sig_ids: dict = {}
        refined = []
        for nbrs, colors in ((nbrs1, colors1), (nbrs2, colors2)):
            code = [c * k for c in colors].__getitem__
            own = colors if firsts is None else map(colors.__getitem__, firsts)
            new = []
            for c, (idx, wts) in zip(own, nbrs):
                sig = (c, tuple(sorted(map(add, map(code, idx), wts))))
                new.append(sig_ids.setdefault(sig, len(sig_ids)))
            refined.append(new if firsts is None else list(map(new.__getitem__, orbits)))
        new1, new2 = refined
        if sorted(new1) != sorted(new2):
            return None
        if len(sig_ids) in (cells, n):
            return new1, new2
        colors1, colors2, cells = new1, new2, len(sig_ids)


def _individualize(col1, col2, coded1, coded2, v, u, cells):
    """The first round after v (graph 1) and u (graph 2) are made
    singletons of a stable coloring with `cells` cells, given as
    color * k per vertex; None when the histograms split.

    Only the new cell {v} can split a cell of a stable coloring, so this
    round reads just each vertex's weight to v, or to u: the label
    color * k + weight off column v of A1 (column u of A2), -1 for v and
    u themselves, numbered by first appearance as in `_refine`.  Returns
    the two colorings and whether they are final: no cell split beyond
    {v}, which leaves the coloring stable, or every cell a singleton.
    """
    labels1, labels2 = list(map(add, coded1, col1)), list(map(add, coded2, col2))
    labels1[v] = labels2[u] = -1
    if sorted(labels1) != sorted(labels2):
        return None
    ids = dict(zip(dict.fromkeys(labels1), range(len(labels1))))
    new1, new2 = list(map(ids.__getitem__, labels1)), list(map(ids.__getitem__, labels2))
    return new1, new2, len(ids) in (cells + 1, len(new1))


def solve_weighted_gi(
    pi1: ModMatrix, pi2: ModMatrix, stats: dict | None = None, closure: str | None = None
) -> Iterator[tuple[int, ...]]:
    """All isomorphisms p with A1[i][j] == A2[p(i)][p(j)], lazily.

    A1 and A2 are the entries of two symmetric matrices over Z_k (code
    projectors, built symmetric), read as complete graphs with edge and
    vertex weights in Z_k; weight 0 plays the role of a non-edge during
    refinement.

    Individualization-refinement with deterministic branching: target
    cell of lowest color id, candidates in ascending vertex order (McKay
    & Piperno, "Practical graph isomorphism II", 2014).  Every leaf
    candidate is checked against the full matrices before being yielded,
    zero weights included.  A search that visits more than GI_NODE_BUDGET
    nodes raises ExtractionExhausted.

    Each node holds the coarsest equitable refinement of its coloring on
    the disjoint union of the two graphs, which is unique, so the search
    depends only on how it is computed in cost.  The root refines the
    diagonal coloring round by round; for the projectors of two closures
    (`closure` is their `closure_mode`) it takes one signature per orbit
    of the sign flip (`_flip_orbits`).  A child starts from its parent's
    stable coloring and splits each cell by the weight to the vertex it
    individualizes (`_individualize`), O(N) per graph; only when that
    split is not final do full rounds follow.
    """
    if stats is not None:
        stats.setdefault("nodes", 0)
    if pi1.k != pi2.k or pi1.rows != pi2.rows:
        return
    n, k = pi1.rows, pi1.k
    if n == 0:
        yield ()
        return
    a1, a2 = pi1.entries, pi2.entries
    nbrs1 = _neighbours(a1)
    nbrs2 = _neighbours(a2)
    cols1, cols2 = list(zip(*a1)), list(zip(*a2))
    nodes = 0

    def visit():
        nonlocal nodes
        nodes += 1
        if nodes > GI_NODE_BUDGET:
            raise ExtractionExhausted(f"graph isomorphism search exceeded {GI_NODE_BUDGET} nodes")
        if stats is not None:
            stats["nodes"] += 1

    def search(colors1, colors2):
        """The subtree under a stable (or discrete) coloring whose
        histograms agree, numbered by first vertex in graph 1, so that
        Counter lists the cells in color order."""
        sizes = Counter(colors1)
        target = next((c for c, size in sizes.items() if size > 1), None)
        if target is None:
            where2 = [0] * n
            for u, c in enumerate(colors2):
                where2[c] = u
            perm = list(map(where2.__getitem__, colors1))
            for i in range(n):
                if a1[i] != tuple(map(a2[perm[i]].__getitem__, perm)):
                    return
            yield tuple(perm)
            return
        v = colors1.index(target)
        coded1, coded2 = [c * k for c in colors1], [c * k for c in colors2]
        for u in compress(range(n), map(target.__eq__, colors2)):
            visit()
            child = _individualize(cols1[v], cols2[u], coded1, coded2, v, u, len(sizes))
            if child is None:
                continue
            nc1, nc2, final = child
            if not final:
                child = _refine(nbrs1, nbrs2, nc1, nc2, k)
                if child is None:
                    continue
                nc1, nc2 = child
            yield from search(nc1, nc2)

    init_ids: dict = {}
    c1 = [init_ids.setdefault(a1[v][v], len(init_ids)) for v in range(n)]
    c2 = [init_ids.setdefault(a2[v][v], len(init_ids)) for v in range(n)]
    visit()
    root = _refine(nbrs1, nbrs2, c1, c2, k, closure and _flip_orbits(n, closure))
    if root is not None:
        yield from search(*root)


class EquivResult(Value):
    __slots__ = ("outcome", "perm", "reason")

    def __init__(
        self,
        outcome: str,  # "found", "not_equivalent", "inconclusive"
        perm: SignedPerm | None = None,
        reason: str | None = None,
    ):
        _set(self, "outcome", outcome)
        _set(self, "perm", perm)
        _set(self, "reason", reason)


def _require_comparable(c1: LinearCode, c2: LinearCode) -> None:
    if c1.k != c2.k or c1.n != c2.n:
        raise DimensionMismatch(
            f"codes live in different spaces: (k={c1.k}, n={c1.n}) vs (k={c2.k}, n={c2.n})"
        )


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
    """Signed permutation equivalence via the closure that fits k
    (`closure_mode`).  The graphs are the closures' projectors, expanded
    from the codes' own (the closures themselves are not built).  Every
    graph-isomorphism solution is folded and the folded map verified on
    the original codes by one Howell form of width n; structurally
    useless solutions are skipped up to a retry cap.  A code that is not
    LCD has no projector, and the outcome is "inconclusive".
    """
    _require_comparable(c1, c2)
    n = c1.n
    mode = closure_mode(c1.k)
    if stats is not None:
        stats["mode"] = mode
    try:
        p1, p2 = closure_projection(c1), closure_projection(c2)
    except NotLcd as exc:
        return EquivResult(outcome="inconclusive", reason=str(exc))
    tried = 0
    for p in solve_weighted_gi(p1, p2, stats, closure=mode):
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
