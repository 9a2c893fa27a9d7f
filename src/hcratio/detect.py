"""Exact recognition of graphs a tree can cluster at the cost lower bound.

Pipeline, per working vertex set: build the minimal merge partition forced
by triplet weights, 2-colour its blocks so that the base blocks of each
Type-2 triplet spanning three blocks sit apart, and when an odd cycle
forbids that, peel off the lowest block holding no such triplet's apex;
then recurse on both sides.  At epsilon 0 a claw is a triangle of those
constraints, so the paper's claw case needs no claw search.  Detection
succeeds if and only if some tree reaches ratio 1, and its tree always
does.  At epsilon 0 an ultrametric graph skips the per-set pipeline: a
single-linkage pass over a maximum spanning tree builds the same tree and
certifies it in O(n^2) (``_ultrametric_tree``).

Every stage, and ``detect_claw``, asks of triplets the question
``triplet_type`` answers one at a time, but of a whole table at once: the
slabs of ``graph._pair_maxima`` and the Type-2 apex slab over the working
set's weight matrix W.  With eq(a, b) the graph's tie predicate (|a - b| <=
epsilon, or a == b at epsilon 0), a triplet {u, v, k} is

* Type-1 with heaviest pair (u, v) when W[u,v] > mx and not eq(W[u,v], mx),
  where mx = max(W[u,k], W[v,k]);
* Type-2 with apex x and base (u, v) when W[u,v] < min(W[x,u], W[x,v]),
  eq(W[x,u], W[x,v]), and not both eq(W[x,u], W[u,v]) and eq(W[x,v], W[u,v])
  (the base of a Type-2 triplet is always its strict minimum);
* Type-3 when its three weights are pairwise eq.

These rules name no order among the three pairs, so they give exactly
``triplet_type``'s answer for any epsilon.

Epsilon is a classification tolerance: it decides which triplets count as
tied.  Ratio 1 and ``cost``'s ``consistent`` are the paper's exact notions,
so under a positive epsilon a "perfect" verdict means perfect up to ties
within epsilon, and the tree returned need not reach ratio 1.  Ties are
then not transitive, so a claw need not make a triangle of constraints;
every split still respects each triplet as epsilon classifies it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import graph
from .graph import INT64_LIMIT, SimilarityGraph, _pair_maxima
from .tree import HcTree, _split_top_down

Value = Union[int, float]


class Partition:
    """Disjoint nonempty blocks covering 0..n-1; indexed ascending by smallest
    member.  ``block_of`` is each vertex's block index, as an intp array."""

    __slots__ = ("blocks", "block_of", "_type2")

    def __init__(self, blocks):
        # (graph, Type-2 arrays) when minimal_valid_partition built this
        # partition, so the split stages reuse its scan of that graph
        self._type2 = None
        blocks = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in blocks):
            raise ValueError("empty block")
        blocks.sort(key=lambda b: b[0])
        self.blocks: tuple[tuple[int, ...], ...] = tuple(blocks)
        n = sum(map(len, blocks))
        block_of = [-1] * n
        for bi, b in enumerate(blocks):
            for v in b:
                if not 0 <= v < n:
                    raise ValueError(f"vertex {v} leaves a gap in 0..{n - 1}")
                if block_of[v] != -1:
                    raise ValueError(f"vertex {v} in two blocks")
                block_of[v] = bi
        self.block_of = np.array(block_of, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({list(map(set, self.blocks))})"


@dataclass(frozen=True)
class Bipartition:
    """A two-sided split of the working vertex set."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(sorted(self.a)))
        object.__setattr__(self, "b", tuple(sorted(self.b)))
        if not self.a or not self.b or set(self.a) & set(self.b):
            raise ValueError("sides must be disjoint and nonempty")


@dataclass(frozen=True)
class Claw:
    """Apex tied at leg_weight to three leaves whose mutual weights are lighter.

    All four vertices lie in distinct partition blocks.
    """

    apex: int
    leaves: tuple[int, int, int]
    leg_weight: Value

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(sorted(self.leaves)))


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of build_bisection: a spanning tree, or the stuck vertex set."""

    tree: Optional[HcTree]
    failed_on: Optional[frozenset[int]] = None

    @property
    def perfect(self) -> bool:
        return self.tree is not None


# ---------------------------------------------------------------------------
# triplet table scans


def _tie(g: SimilarityGraph):
    """Array form of ``g.weights_equal``.

    Integer gaps are compared with floor(epsilon) in int64, which is exact
    where casting a gap beyond 2^53 to float would round it.
    """
    eps = g.epsilon
    if eps == 0.0:
        return np.equal
    if g.integral and eps < INT64_LIMIT:
        eps = np.int64(math.floor(eps))
    return lambda a, b: np.abs(a - b) <= eps


def _heaviest(w, x, y, tie):
    """Type-1 test: w is the strict maximum over x and y, beyond a tie."""
    mx = np.maximum(x, y)
    return (w > mx) & ~tie(w, mx)


def _tied_apex(base, x, y, tie):
    """Type-2 test: legs x and y tie above the strictly lighter base."""
    return ((base < np.minimum(x, y)) & tie(x, y)
            & ~(tie(x, base) & tie(y, base)))


def _forced_links(W, rule):
    """(u, v) index arrays, u < v, of the pairs some third vertex forces.

    ``rule(w, mx)`` says whether a third vertex k with mx = max(W[u,k],
    W[v,k]) forces u and v together.  Every rule passed here only gets easier
    as mx falls, so some k forces (u, v) exactly when the rule holds against
    the bottleneck B[u,v] = min_k max(W[u,k], W[v,k]).  By the zero diagonal,
    k = u or v gives mx = max(W[u,v], 0), which is W[u,v] for weights and 0
    for the -W of ``_type2_triplets``; no rule passed here accepts either,
    so B may include them.
    """
    out = [np.empty((2, 0), dtype=np.intp)]
    for u, v, mx in _pair_maxima(W):
        i, j = np.nonzero(rule(W[u, v], mx.min(axis=2)) & (v > u))
        out.append(np.stack([u[i, 0], v[j]]))
    return tuple(np.concatenate(out, axis=1))


def _type2_triplets(g: SimilarityGraph):
    """(apex, u, v) index arrays, u < v, of every Type-2 triplet.

    A base (u, v) needs an apex x with both legs strictly heavier than
    W[u,v].  With V = -W that is max(V[x,u], V[x,v]) < V[u,v], a rule that
    only gets easier as the max falls, so ``_forced_links`` over V lists the
    candidate bases (an ultrametric has none).  Blocks of candidates then
    test every apex at once.
    """
    W = g.weights
    tie = _tie(g)
    u, v = _forced_links(-W, lambda w, mx: mx < w)
    out = [np.empty((3, 0), dtype=np.intp)]
    step = max(1, graph._BLOCK // max(g.n, 1))  # bases per (bases, n) slab
    for a in range(0, len(u), step):
        bu, bv = u[a:a + step], v[a:a + step]
        i, x = np.nonzero(_tied_apex(W[bu, bv][:, None], W[bu], W[bv], tie))
        out.append(np.stack([x, bu[i], bv[i]]))
    apex, u, v = np.concatenate(out, axis=1)
    return apex, u, v


# ---------------------------------------------------------------------------
# stage 1: minimal merge partition


def _components(m: int, u, v) -> np.ndarray:
    """Least member of each position's group, for positions 0..m-1 joined by
    the links (u[t], v[t]), as an intp array.

    Two positions share a group exactly when their labels are equal, and a
    group's label is its smallest position, so ordering groups by label
    orders them by smallest member.  A union-find with path halving, on
    Python ints; a union keeps the lesser root, so each root is its group's
    least member.
    """
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(m)], dtype=np.intp)


def _groups(labels, items) -> list[tuple]:
    """``items`` grouped by ``_components`` labels: members in position
    order, groups ordered by label, that is, by smallest member."""
    out: dict[int, list] = {}
    for x, item in zip(labels.tolist(), items):
        out.setdefault(x, []).append(item)
    return [tuple(grp) for grp in out.values()]


def minimal_valid_partition(g: SimilarityGraph) -> Optional[Partition]:
    """Coarsest-refining partition every ratio-1 tree must respect, or None.

    Two forces drive merges.  A triplet with a unique heaviest pair must
    merge that pair before its third vertex joins, so the pair shares a
    block: one table scan finds every such Type-1 maximum and unions it.
    And a triplet with two tied heaviest pairs (apex x, base u, v) must not
    see u, v merged while x sits outside; a second scan lists these Type-2
    triplets as arrays, and each round merges x's block into u's wherever
    the current blocks split them that way, until no round merges.  The
    partition is the least fixpoint of both rules, so the order of unions
    does not change it.  None means everything collapsed into one block: no
    two-sided split of the working set can respect the weights.

    A pair is some triplet's Type-1 maximum exactly when it is one against
    its bottleneck (``_forced_links``, shared with the approximation): w >
    mx beyond a tie only gets easier as mx falls, as w - mx then grows.
    """
    n = g.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    tie = _tie(g)
    lab = _components(n, *_forced_links(
        g.weights, lambda w, mx: _heaviest(w, mx, mx, tie)))

    type2 = _type2_triplets(g)
    apex, u, v = type2
    while True:
        hit = (lab[u] == lab[v]) & (lab[apex] != lab[u])
        if not hit.any():
            break
        # merge the blocks' least members, then relabel every vertex
        lab = _components(n, lab[apex[hit]], lab[u[hit]])[lab]

    if not lab.any():
        return None
    p = Partition(_groups(lab, range(n)))
    p._type2 = (g, type2)
    return p


def _crossing_type2(g: SimilarityGraph, p: Partition):
    """(apex, u, v) index arrays of the Type-2 triplets spanning 3 blocks.

    Reuses the Type-2 scan that built ``p`` when it was built from ``g``.
    """
    if p._type2 is not None and p._type2[0] is g:
        apex, u, v = p._type2[1]
    else:
        apex, u, v = _type2_triplets(g)
    lab = p.block_of
    ba, bu, bv = lab[apex], lab[u], lab[v]
    keep = (ba != bu) & (ba != bv) & (bu != bv)
    return apex[keep], u[keep], v[keep]


# ---------------------------------------------------------------------------
# claw witnesses (not a stage of valid_bisect)


def detect_claw(g: SimilarityGraph, p: Partition) -> Optional[Claw]:
    """The first claw whose four vertices sit in four distinct blocks, or None.

    A witness finder outside the pipeline: ``valid_bisect`` does not call it.

    A claw is an apex x and leaves a < b < c whose legs W[x,b] and W[x,c]
    tie the leg weight L = W[x,a], and whose three leaf pairs are lighter
    than L beyond a tie.  Claws are returned in ascending (apex, leaves)
    order, with leg weight L.

    Each pair (a, y), y in {b, c}, is then the base of a Type-2 triplet
    under apex x.  The legs L and W[x,y] tie.  The base W[a,y] lies below
    L beyond a tie, so it does not tie L, and it lies below W[x,y], which
    is within the tolerance of L.  The three vertices sit in three blocks,
    so the triplet is in ``_crossing_type2``'s table.  Grouping that table
    by (apex, u = a) therefore lists every candidate y; among those whose
    base is light against L, the claw's other two leaves are the first
    pair (b, c) that is light against L and sits in two blocks.
    """
    apex, u, v = _crossing_type2(g, p)
    W = g.weights
    tie = _tie(g)
    order = np.lexsort((v, u, apex))
    # a Type-2 base already lies below its legs; keep the ones beyond a tie
    order = order[~tie(W[u, v], W[apex, u])[order]]
    apex, u, v = apex[order], u[order], v[order]
    lab = p.block_of
    # each group of equal (apex, u) runs from one start to the next
    starts = np.flatnonzero(np.diff(apex, prepend=-1) | np.diff(u, prepend=-1))
    for s, e in zip(starts.tolist(), np.append(starts[1:], len(v)).tolist()):
        if e - s < 2:
            continue
        x, a, ys = apex[s], u[s], v[s:e]
        L = W[x, a]
        pair = W[np.ix_(ys, ys)]
        ok = (pair < L) & ~tie(pair, L) & (lab[ys][:, None] != lab[ys])
        hit = np.flatnonzero(np.triu(ok, 1))
        if hit.size:
            b, c = ys[list(divmod(int(hit[0]), len(ys)))].tolist()
            return Claw(apex=int(x), leaves=(int(a), b, c), leg_weight=L.item())
    return None


# ---------------------------------------------------------------------------
# stage 2: split by 2-colouring the Type-2 constraints


def case2_bipartition(g: SimilarityGraph, p: Partition) -> Optional[Bipartition]:
    """Split blocks by 2-coloring the not-on-the-same-side constraint graph.

    Every two-tied-maxima triplet spanning three blocks (apex x, base u, v)
    forbids u's and v's blocks from sharing a side unless x joins them; with
    whole blocks as units that forces the two base blocks apart.  Block b in
    colour c is node 2b + c, and each constraint between blocks a and b
    links (2a, 2b + 1) and (2a + 1, 2b).  An odd constraint cycle joins a
    block's two nodes, and then no split exists.  Otherwise the least node
    joined to 2b is the lowest block of b's constraint component in colour
    0 or 1, so its parity is b's colour with that block at colour 0.  With
    no constraints at all, the lowest block is split off alone.  The side
    containing block 0 is returned first.
    """
    m = len(p.blocks)
    _, u, v = _crossing_type2(g, p)
    # each pair of blocks (a, b) once, through an m x m mask rather than a
    # sort, whose code small inputs otherwise never page in
    linked = np.zeros((m, m), dtype=bool)
    linked[p.block_of[u], p.block_of[v]] = True
    a, b = np.nonzero(linked)
    lab = _components(2 * m, np.concatenate([2 * a, 2 * a + 1]),
                      np.concatenate([2 * b + 1, 2 * b]))
    if (lab[0::2] == lab[1::2]).any():
        return None  # odd cycle of constraints
    colour = lab[0::2] % 2
    # no constraints anywhere: block 0 against the rest
    side = colour[p.block_of] if colour.any() else p.block_of > 0
    return Bipartition(tuple(np.flatnonzero(side == 0).tolist()),
                       tuple(np.flatnonzero(side).tolist()))


# ---------------------------------------------------------------------------
# stage 3: peel one block


def case1_bipartition(g: SimilarityGraph, p: Partition) -> Optional[Bipartition]:
    """Split off the lowest block that holds no crossing Type-2 apex, or None.

    A single block b against the rest respects every triplet exactly when
    no Type-2 triplet spanning three blocks has its apex in b: that split
    would merge the apex's base, its lightest pair, first.  Every other
    triplet is safe, because the minimal partition keeps each Type-1
    maximum inside one block, and an apex inside its base's block whenever
    the base shares one.

    With a claw, every valid split peels off one block, so the lowest
    unblocked block is the one to take.  Without a claw, an odd cycle in
    ``case2_bipartition``'s constraints means no split exists, so every
    block is blocked.
    """
    m = len(p.blocks)
    apex, _, _ = _crossing_type2(g, p)
    blocked = np.zeros(m, dtype=bool)
    blocked[p.block_of[apex]] = True
    if blocked.all():
        return None
    b = int(np.argmin(blocked))  # lowest unblocked block
    rest = [v for ob in range(m) if ob != b for v in p.blocks[ob]]
    return Bipartition(p.blocks[b], tuple(rest))


# ---------------------------------------------------------------------------
# composition and recursion


def valid_bisect(g: SimilarityGraph) -> Optional[Bipartition]:
    """One two-sided split respecting all triplet weights, or None.

    2-colour the blocks (``case2_bipartition``), else peel one block
    (``case1_bipartition``).  At epsilon 0 a claw's apex is a crossing
    Type-2 apex over each pair of its leaves, so a claw is an odd cycle and
    reaches the peel without a claw search.
    """
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    if g.n == 2:
        return Bipartition((0,), (1,))
    p = minimal_valid_partition(g)
    if p is None:
        return None
    bp = case2_bipartition(g, p)
    return bp if bp is not None else case1_bipartition(g, p)


def zero_base_cost_tree(g: SimilarityGraph) -> Optional[HcTree]:
    """Zero-total-cost tree if g's positive edges form a matching, else None.

    Matched pairs become sibling cherries; pairs and leftover singletons are
    strung along a caterpillar spine in ascending vertex order.
    """
    ii, jj = g.positive_pairs()
    if (np.bincount(np.concatenate([ii, jj]), minlength=g.n) > 1).any():
        return None

    matched = set(ii.tolist()) | set(jj.tolist())
    units: list = [(int(u), int(v)) for u, v in zip(ii.tolist(), jj.tolist())]
    units.extend(v for v in range(g.n) if v not in matched)
    units.sort(key=lambda u: u if isinstance(u, int) else u[0])
    spine = units[0]
    for u in units[1:]:
        spine = (spine, u)
    return HcTree.from_nested(spine)


def _maximum_spanning_tree(W):
    """(x, y, w) arrays of the n - 1 edges of a maximum spanning tree, by Prim.

    Weights are compared in W's own dtype: casting int64 weights beyond
    2^53 to float would round them.  Weights are nonnegative, so -1 marks
    the vertices already in the tree.
    """
    n = len(W)
    best = W[0].copy()  # heaviest edge from each vertex into the tree
    best[0] = -1
    link = np.zeros(n, dtype=np.intp)  # the tree end of that edge
    out = np.ones(n, dtype=bool)  # not yet in the tree
    out[0] = False
    y = np.empty(n - 1, dtype=np.intp)
    w = np.empty(n - 1, dtype=W.dtype)
    for i in range(n - 1):
        v = int(best.argmax())
        y[i], w[i] = v, best[v]
        best[v] = -1
        out[v] = False
        row = W[v]
        closer = (row > best) & out
        best[closer] = row[closer]
        link[closer] = v
    return link[y], y, w


def _ultrametric_tree(g: SimilarityGraph) -> Optional[HcTree]:
    """``build_bisection``'s tree when g is ultrametric at epsilon 0, else None.

    W is ultrametric when every triplet's two smallest weights are equal
    (so no triplet is Type-2, though a perfect graph may still fail this
    with three distinct weights).  Exactly then W equals its
    single-linkage merge levels (Gower & Ross 1969; Carlsson & Memoli,
    JMLR 2010): L[u,v] is the level t at which a maximum spanning tree's
    edges of weight >= t first join u and v.  O(n^2) in all:

    * the triplets through vertex 0 must pass, a necessary test that
      rejects most other graphs before any further work;
    * merging the spanning tree's edges heaviest first, every group of
      components that the edges of one weight t connect becomes one node,
      its children ordered by smallest member;
    * the graph is certified when every block of W between a child and the
      children before it holds t.  Each pair lies in exactly one such block,
      so this is W == L.

    Each node with children c0, c1, ..., cr is emitted as the right comb
    (c0, (c1, (..., cr))), which is the tree the per-set path builds: the
    Type-1 links make the children the partition blocks, and with no
    Type-2 triplet ``case2_bipartition`` peels the lowest block off the
    rest, which repeats the argument.
    """
    W = g.weights
    if g.epsilon != 0.0 or g.n < 3:
        return None
    # triplets {0, u, v}: no weight may lie strictly below the other two
    a, S = W[0, 1:], W[1:, 1:]
    side = a[:, None] < np.minimum(a, S)  # W[0,u] under W[0,v] and W[u,v]
    bad = (S < np.minimum(a[:, None], a)) | side | side.T
    np.fill_diagonal(bad, False)
    if bad.any():
        return None

    x, y, w = (t.tolist() for t in _maximum_spanning_tree(W))
    # per component: its vertices, its smallest vertex and its nested tree
    members = [np.array([v]) for v in range(g.n)]
    first = list(range(g.n))
    shape: list = list(range(g.n))
    comp = np.arange(g.n)  # component of each vertex
    heaviest_first = sorted(range(len(w)), key=w.__getitem__, reverse=True)
    for t, edges in itertools.groupby(heaviest_first, key=w.__getitem__):
        edges = list(edges)
        cx = comp[[x[i] for i in edges]].tolist()
        cy = comp[[y[i] for i in edges]].tolist()
        ids = sorted(set(cx + cy))
        pos = {c: i for i, c in enumerate(ids)}
        lab = _components(len(ids), [pos[c] for c in cx], [pos[c] for c in cy])
        for grp in _groups(lab, ids):
            kids = sorted(grp, key=first.__getitem__)
            verts = np.concatenate([members[c] for c in kids])
            cut = list(itertools.accumulate(len(members[c]) for c in kids))
            for lo, hi in zip(cut, cut[1:]):
                if not (W[verts[:lo, None], verts[lo:hi]] == t).all():
                    return None
            nested = shape[kids[-1]]
            for c in reversed(kids[:-1]):
                nested = (shape[c], nested)
            comp[verts] = len(members)
            members.append(verts)
            first.append(first[kids[0]])
            shape.append(nested)
    return HcTree.from_nested(shape[-1])


def build_bisection(g: SimilarityGraph) -> DetectionResult:
    """Full top-down detection over the whole graph.

    Zero base cost (no vertex with two positive edges) short-circuits to
    ``zero_base_cost_tree``.  At epsilon 0 an ultrametric graph then
    gets its single-linkage tree in O(n^2) (``_ultrametric_tree``), the
    same tree the per-set path would build.  Otherwise each vertex set
    splits in two by ``valid_bisect`` on its induced subgraph, and the
    sides split in turn; the first set with no valid split (sides taken
    second first) aborts the build and is reported.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    tree = zero_base_cost_tree(g) or _ultrametric_tree(g)
    if tree is not None:
        return DetectionResult(tree=tree)

    def split(verts):
        bp = valid_bisect(g.induced(verts))
        if bp is None:
            return None
        return (tuple(verts[x] for x in bp.a), tuple(verts[x] for x in bp.b))

    tree, stuck = _split_top_down(range(g.n), split)
    return DetectionResult(
        tree=tree, failed_on=None if stuck is None else frozenset(stuck))
