"""Exhaustive search over all binary clustering trees on small vertex sets.

Ground truth for everything else: enumerate every rooted binary topology by
stepwise leaf insertion (tree k+1 arises from tree k by joining the new leaf
at one of its 2k-1 nodes), evaluate total cost for each, and report the
exact optimum ratio with a deterministic argmin.  The search is vectorized
over whole batches of trees encoded as per-node leaf bitmasks.
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


def _initial_level() -> np.ndarray:
    # one tree on leaves {0, 1}: root plus the two leaves
    return np.array([[0b11, 0b01, 0b10]], dtype=np.uint16)


def _expand_level(level: np.ndarray, leaf: int) -> np.ndarray:
    """All one-leaf extensions of every tree, ordered (tree, insertion node)."""
    bit = np.uint16(1 << leaf)
    count, width = level.shape
    out = np.empty((count * width, width + 2), dtype=np.uint16)
    for c in range(width):
        out[c::width] = _insert_at(level, c, bit)
    return out


def _insert_at(level: np.ndarray, c: int, bit: np.uint16) -> np.ndarray:
    """Join a new leaf next to node c of every tree in the batch."""
    count, width = level.shape
    mu = level[:, c:c + 1]
    above = (level & mu) == mu  # masks containing node c's leaves
    above[:, c] = False
    rows = np.empty((count, width + 2), dtype=np.uint16)
    rows[:, :width] = np.where(above, level | bit, level)
    rows[:, width] = level[:, c] | bit
    rows[:, width + 1] = bit
    return rows


def enumerate_trees(n: int, cap: int = HARD_CAP) -> Iterator[HcTree]:
    """Yield every binary tree on leaves 0..n-1 exactly once, in search order."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    if n > min(cap, HARD_CAP):
        raise TooLarge(
            f"{n} leaves means {_double_factorial(2 * n - 3):,} trees; "
            f"cap is {min(cap, HARD_CAP)}")
    # depth-first over insertion choices, ascending node index at each step
    stack: list[tuple[list[int], int]] = [([0b11, 0b01, 0b10], 2)]
    while stack:
        masks, next_leaf = stack.pop()
        if next_leaf == n:
            yield HcTree.from_nested(_nested_from_masks(masks))
            continue
        bit = 1 << next_leaf
        for c in reversed(range(len(masks))):
            mu = masks[c]
            grown = [m | bit if (m & mu) == mu and m != mu else m for m in masks]
            grown.append(mu | bit)
            grown.append(bit)
            stack.append((grown, next_leaf + 1))


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

    Exhaustive but batched: all trees short of one leaf are kept in memory,
    the final insertion is evaluated in streamed chunks.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    if n > min(cap, HARD_CAP):
        raise TooLarge(
            f"{n} leaves means {_double_factorial(2 * n - 3):,} trees; "
            f"cap is {min(cap, HARD_CAP)}")
    if n == 1:
        return Optimum(rho=Fraction(1), tree=HcTree.from_nested(0),
                       trees_searched=1)

    base = base_cost(g)
    ii, jj = g.positive_pairs()
    pair_masks = ((1 << ii.astype(np.int64)) | (1 << jj.astype(np.int64))) \
        .astype(np.uint16)
    wdtype = np.int64 if g.integral else np.float64
    pair_weights = g.weights[ii, jj].astype(wdtype)

    level = _initial_level()
    if n == 2:
        best_tc = _total_costs(level, pair_masks, pair_weights)[0].item()
        return Optimum(rho=ratio_of(best_tc, base, g.integral),
                       tree=HcTree.from_nested(_nested_from_masks(level[0])),
                       trees_searched=1)

    for leaf in range(2, n - 1):
        level = _expand_level(level, leaf)

    count, width = level.shape
    searched = count * width
    best_tc = None
    best_gidx = -1
    best_row = None
    chunk_rows = max(1, (1 << 24) // (width + 2))
    bit = np.uint16(1 << (n - 1))
    for c in range(width):
        block = _insert_at(level, c, bit)
        for lo in range(0, count, chunk_rows):
            chunk = block[lo:lo + chunk_rows]
            tc = _total_costs(chunk, pair_masks, pair_weights)
            pos = int(np.argmin(tc))
            val = tc[pos].item()
            gidx = (lo + pos) * width + c
            if best_tc is None or val < best_tc or \
                    (val == best_tc and gidx < best_gidx):
                best_tc = val
                best_gidx = gidx
                best_row = chunk[pos].copy()
    return Optimum(rho=ratio_of(best_tc, base, g.integral),
                   tree=HcTree.from_nested(_nested_from_masks(best_row)),
                   trees_searched=searched)
