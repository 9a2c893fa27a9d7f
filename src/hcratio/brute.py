"""Exhaustive search over all binary clustering trees on small vertex sets.

Ground truth for everything else: enumerate every rooted binary topology by
stepwise leaf insertion (tree k+1 arises from tree k by joining the new leaf
at one of its 2k-1 nodes), evaluate total cost for each, and report the
exact optimum ratio with a deterministic argmin.  One generator,
``_search_order``, produces the trees in search order as chunks of per-node
leaf bitmasks; ``enumerate_trees`` decodes them one by one, and the search
costs each chunk in a single vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .cost import ratio_of
from .errors import TooLarge
from .graph import SimilarityGraph, base_cost
from .tree import HcTree

HARD_CAP = 10  # (2n-3)!! trees: 34,459,425 at n = 10

_BIG = np.int8(127)  # above any leaf count; the root holds every pair
_CHUNK = 1 << 13  # trees per search chunk; larger chunks raise peak memory


@dataclass(frozen=True)
class Optimum:
    """Exact optimum: best ratio, one tree achieving it, trees examined."""

    rho: Union[Fraction, float]
    tree: HcTree
    trees_searched: int


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _nested_from_masks(masks) -> tuple:
    """Rebuild the nested-tuple tree from its laminar family of leaf masks."""
    masks = [int(m) for m in masks]
    full = max(masks, key=lambda m: bin(m).count("1"))

    def expand(m):
        if m & (m - 1) == 0:  # single bit: a leaf
            return m.bit_length() - 1
        kids = [x for x in masks if x & m == x and x != m
                and not any(y & m == y and y != m and x & y == x and x != y
                            for y in masks)]
        return tuple(expand(x) for x in kids)

    return expand(full)


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
        raise TooLarge(
            f"{n} leaves means {_double_factorial(2 * n - 3):,} trees; "
            f"cap is {limit}")


def _search_order(n: int) -> Iterator[np.ndarray]:
    """Leaf-mask rows of every binary tree on leaves 0..n-1, in chunks.

    Search order is lexicographic in the insertion node of leaves 2, 3, ...
    The trees of the first m leaves are built whole, with m the smallest
    size whose trees each complete to at most _CHUNK trees; each chunk
    completes a run of consecutive ones, so expansion keeps the order.
    """
    level = np.array([[0b11, 0b01, 0b10]], dtype=np.uint16)  # root, 0, 1
    m = 2
    total = _double_factorial(2 * n - 3)
    while total // _double_factorial(2 * m - 3) > _CHUNK:
        level = _expand_level(level, m)
        m += 1
    step = max(1, _CHUNK // (total // _double_factorial(2 * m - 3)))
    for lo in range(0, len(level), step):
        chunk = level[lo:lo + step]
        for leaf in range(m, n):
            chunk = _expand_level(chunk, leaf)
        yield chunk


def enumerate_trees(n: int, cap: int = HARD_CAP) -> Iterator[HcTree]:
    """Yield every binary tree on leaves 0..n-1 exactly once, in search order."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    _check_size(n, cap)
    for chunk in _search_order(n):
        for row in chunk:
            yield HcTree.from_nested(_nested_from_masks(row))


def _total_costs(chunk: np.ndarray, pair_masks: np.ndarray,
                 pair_weights: np.ndarray) -> np.ndarray:
    """Total cost of every tree in the chunk (rows are mask arrays).

    Runs on the transposed chunk, one contiguous row per node slot, so each
    LCA minimum is an elementwise minimum over rows; leaf counts (at most
    16) fit int8, which keeps the per-pair temporaries small.
    """
    nodes = np.ascontiguousarray(chunk.T)
    sizes = np.bitwise_count(nodes).astype(np.int8)
    acc = np.zeros(len(chunk), dtype=pair_weights.dtype)
    for pm, w in zip(pair_masks, pair_weights):
        holds_both = (nodes & pm) == pm
        lca_size = np.where(holds_both, sizes, _BIG).min(axis=0)
        acc += w * (lca_size - 2)
    return acc


def optimal_ratio_bruteforce(g: SimilarityGraph, cap: int = HARD_CAP) -> Optimum:
    """Exact minimum ratio over every binary tree, with its first argmin.

    Chunks arrive in search order, and a later chunk wins only with a
    strictly lower cost, so the tree returned is the first optimum.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    _check_size(n, cap)
    if n == 1:
        return Optimum(rho=Fraction(1), tree=HcTree.from_nested(0),
                       trees_searched=1)

    base = base_cost(g)
    ii, jj = g.positive_pairs()
    pair_masks = ((1 << ii.astype(np.int64)) | (1 << jj.astype(np.int64))) \
        .astype(np.uint16)
    wdtype = np.int64 if g.integral else np.float64
    pair_weights = g.weights[ii, jj].astype(wdtype)

    best_tc = None
    best_row = None
    for chunk in _search_order(n):
        tc = _total_costs(chunk, pair_masks, pair_weights)
        pos = int(np.argmin(tc))
        val = tc[pos].item()
        if best_tc is None or val < best_tc:
            best_tc = val
            best_row = chunk[pos].copy()
    return Optimum(rho=ratio_of(best_tc, base, g.integral),
                   tree=HcTree.from_nested(_nested_from_masks(best_row)),
                   trees_searched=_double_factorial(2 * n - 3))
