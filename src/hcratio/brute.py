"""Exact search over all binary clustering trees on small vertex sets.

Ground truth for everything else.  A subset dynamic program first finds the
exact optimal total cost: total cost splits over internal nodes, so the
best tree on a vertex set S costs min over splits A|B of the best trees on
A and B plus |S| x w(A, B), in O(3^n) (Dasgupta, STOC 2016).  The search
then walks every rooted binary topology in search order, by stepwise leaf
insertion (tree k+1 arises from tree k by joining the new leaf at one of its
2k-1 nodes), and returns the first tree that attains the optimum.

A partial tree on leaves 0..m-1 is skipped with all its completions only
when a proven lower bound exceeds the optimum: its triplets keep their merge
order in every completion, and each later triplet costs at least its
minimum, so total cost minus base cost never drops below the partial tree's
own excess.  No tree that could be the first optimum is skipped, and
``trees_searched`` still reports (2n-3)!!, the trees the search covers.

One generator, ``_search_order``, produces the trees in search order as
chunks of per-node leaf bitmasks; ``enumerate_trees`` decodes them one by
one, and the search costs each chunk in one vectorized pass, in integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .cost import ratio_of
from .errors import TooLarge
from .graph import INT64_LIMIT, SimilarityGraph, _triplet_rows
from .tree import HcTree

HARD_CAP = 10  # (2n-3)!! trees: 34,459,425 at n = 10

_BIG = np.int8(127)  # above any leaf count; the root holds every pair
_CHUNK = 1 << 13  # trees per search chunk; larger chunks raise peak memory
_LIMB = 48  # bits per int64 limb of a Python-int weight: limb sums fit int64


@dataclass(frozen=True)
class Optimum:
    """Exact optimum: best ratio, one tree achieving it, trees examined."""

    rho: Union[Fraction, float]
    tree: HcTree
    trees_searched: int


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 1, -2))


def _nested_from_masks(masks) -> tuple:
    """Rebuild the nested-tuple tree from its laminar family of leaf masks.

    A node's parent is its smallest strict superset.  Visiting the masks
    from most leaves to fewest, that is the last visited mask holding any
    of the node's leaves.  Children keep the order of their masks.
    """
    masks = [int(m) for m in masks]
    by_size = sorted(masks, key=lambda m: -m.bit_count())
    parent, owner = {}, {}  # owner: leaf bit -> smallest mask seen holding it
    for m in by_size:
        low = m & -m
        if low in owner:
            parent[m] = owner[low]
        rest = m
        while rest:
            bit = rest & -rest
            owner[bit] = m
            rest ^= bit
    kids = {m: [] for m in masks}
    for m in masks:
        if m in parent:
            kids[parent[m]].append(m)

    def expand(m):
        if m & (m - 1) == 0:  # single bit: a leaf
            return m.bit_length() - 1
        return tuple(expand(x) for x in kids[m])

    return expand(by_size[0])


def _expand_level(level: np.ndarray, leaf: int) -> np.ndarray:
    """All one-leaf extensions of every tree, ordered (tree, insertion node).

    Joining the new leaf next to node c adds it to every strict ancestor of c,
    then appends the new parent of c and the new leaf as two more nodes.
    """
    bit = np.uint16(1 << leaf)
    count, width = level.shape
    mu = level[:, :, None]  # node c's leaves, c on axis 1
    above = ((level[:, None, :] & mu) == mu) & ~np.eye(width, dtype=bool)
    out = np.empty((count, width, width + 2), dtype=np.uint16)
    out[:, :, :width] = np.where(above, level[:, None, :] | bit,
                                 level[:, None, :])
    out[:, :, width] = level | bit
    out[:, :, width + 1] = bit
    return out.reshape(count * width, width + 2)


def _check_size(n: int, cap: int) -> None:
    limit = min(cap, HARD_CAP)
    if n > limit:
        raise TooLarge(f"{n} leaves means {_double_factorial(2 * n - 3):,} "
                       f"trees; cap is {limit}")


def _search_order(n: int, keep: Optional[Callable] = None
                  ) -> Iterator[np.ndarray]:
    """Leaf-mask rows of every binary tree on leaves 0..n-1, in chunks.

    Search order is lexicographic in the insertion node of leaves 2, 3, ...
    The walk is depth first over batches: the trees on m leaves are
    expanded a run of consecutive ones at a time, at most _CHUNK new trees
    per run, and each run is completed before the next, which keeps the
    order and bounds every level's batch by _CHUNK trees.

    ``keep(rows, m)``, if given, filters the partial trees on leaves
    0..m-1 (3 <= m < n) before they are expanded; it must return a subset
    of the rows in their order.  Chunks left empty are not yielded.
    """
    def walk(rows, m):
        if m == n:
            yield rows
            return
        step = max(1, _CHUNK // (2 * m - 1))  # 2m-1 places for leaf m
        for lo in range(0, len(rows), step):
            grown = _expand_level(rows[lo:lo + step], m)
            if keep is not None and m + 1 < n:
                grown = keep(grown, m + 1)
            if len(grown):
                yield from walk(grown, m + 1)

    yield from walk(np.array([[0b11, 0b01, 0b10]], dtype=np.uint16), 2)


def enumerate_trees(n: int, cap: int = HARD_CAP) -> Iterator[HcTree]:
    """Yield every binary tree on leaves 0..n-1 exactly once, in search order."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    _check_size(n, cap)
    for chunk in _search_order(n):
        for row in chunk:
            yield HcTree.from_nested(_nested_from_masks(row))


def _exact_weights(g: SimilarityGraph) -> np.ndarray:
    """The weights as exact integers; integer graphs return theirs as is.

    Floats are scaled by the least power of two that makes each whole.  No
    cost, prefix base or bound exceeds (n-2) x the pair-weight sum: int64
    while that stays below 2^63, Python ints (object array) beyond.
    """
    if g.integral:
        return g.weights
    parts = [x.as_integer_ratio() for x in g.weights.ravel().tolist()]
    scale = max(d for _, d in parts)  # powers of two: each divides the max
    exact = [p * (scale // d) for p, d in parts]
    fits = max(g.n - 2, 1) * (sum(exact) // 2) < INT64_LIMIT
    return np.array(exact, np.int64 if fits else object).reshape(g.n, g.n)


def _total_costs(chunk: np.ndarray, pair_masks: np.ndarray,
                 pair_weights: np.ndarray) -> np.ndarray:
    """Total cost of every tree in the chunk (rows are mask arrays).

    Runs on the transposed chunk, one contiguous row per node slot, so each
    LCA minimum is an elementwise minimum over rows; leaf counts (at most
    16) fit int8, which keeps the per-pair temporaries small.  Python-int
    weights (object arrays) are costed as int64 limbs on a second axis.
    """
    if pair_weights.dtype == object:
        shifts = range(0, max(pair_weights, default=1).bit_length(), _LIMB)
        limbs = [pair_weights >> s & (1 << _LIMB) - 1 for s in shifts]
        parts = _total_costs(chunk, pair_masks, np.stack(limbs, -1).astype(np.int64))
        return sum(p.astype(object) << s for p, s in zip(parts, shifts))
    nodes = np.ascontiguousarray(chunk.T)
    sizes = np.bitwise_count(nodes).astype(np.int8)
    acc = np.zeros(pair_weights.shape[1:] + chunk.shape[:1], pair_weights.dtype)
    for pm, w in zip(pair_masks, pair_weights):
        holds_both = (nodes & pm) == pm
        lca_size = np.where(holds_both, sizes, _BIG).min(axis=0)
        acc += np.multiply.outer(w, lca_size - 2)
    return acc


def _optimal_total(W: np.ndarray):
    """Least total cost over all binary trees, by dynamic program on subsets.

    OPT(S) = min over splits A|B, A holding S's lowest vertex, of
    OPT(A) + OPT(B) + |S| x w(A, B), where w(A, B) = in(S) - in(A) - in(B)
    and in(.) is the weight inside a vertex set, tabulated over all 2^n
    masks.  OPT(all) is the least Dasgupta cost; the total cost is that
    minus twice the weight sum, exact on integer (or Fraction) weights.
    """
    rows = W.tolist()
    full = 1 << len(W)
    inside = [0] * full
    for s in range(1, full):
        rest = s & (s - 1)
        v = (s ^ rest).bit_length() - 1
        w = inside[rest]
        while rest:
            bit = rest & -rest
            w += rows[v][bit.bit_length() - 1]
            rest ^= bit
        inside[s] = w
    opt = [0] * full
    for s in range(1, full):
        low = s & -s
        rest = s ^ low
        if not rest:
            continue
        size = s.bit_count()
        in_s = inside[s]
        best = None
        sub = (rest - 1) & rest  # the part of rest joining low in A; B != {}
        while True:
            a = low | sub
            b = s ^ a
            c = opt[a] + opt[b] + size * (in_s - inside[a] - inside[b])
            if best is None or c < best:
                best = c
            if not sub:
                break
            sub = (sub - 1) & rest
        opt[s] = best
    return opt[full - 1] - 2 * inside[full - 1]


def _prefix_bases(W: np.ndarray) -> list:
    """Base cost of the subgraph on vertices 0..m-1, for m = 0..n.

    Each triplet counts towards every prefix holding its last vertex k.
    """
    S = np.zeros_like(W)  # S[j, k]: sum over i of low(i, j, k)
    for _, j, k, low in _triplet_rows(W):
        S[j, k] += low
    return [0] + list(itertools.accumulate(S.sum(axis=0).tolist()))


def optimal_ratio_bruteforce(g: SimilarityGraph, cap: int = HARD_CAP) -> Optimum:
    """Exact minimum ratio over every binary tree, with its first argmin.

    Every sum runs on the exact integers of ``_exact_weights``; the search
    stops at the first tree in search order whose total cost equals the DP
    optimum.  rho is a Fraction on integer graphs and the correctly rounded
    exact ratio on float graphs.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    _check_size(n, cap)
    if n == 1:
        return Optimum(rho=Fraction(1), tree=HcTree.from_nested(0),
                       trees_searched=1)

    W = _exact_weights(g)
    ii, jj = g.positive_pairs()
    pair_masks = ((1 << ii) | (1 << jj)).astype(np.uint16)
    pair_weights = W[ii, jj]
    target = _optimal_total(W)
    bases = _prefix_bases(W)

    def keep(rows, m):
        inner = jj < m
        cost = _total_costs(rows, pair_masks[inner], pair_weights[inner])
        return rows[cost - bases[m] <= target - bases[n]]

    for chunk in _search_order(n, keep):
        hit = _total_costs(chunk, pair_masks, pair_weights) == target
        if hit.any():
            break
    return Optimum(rho=ratio_of(target, bases[n], g.integral),
                   tree=HcTree.from_nested(_nested_from_masks(chunk[hit.argmax()])),
                   trees_searched=_double_factorial(2 * n - 3))
