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

One depth-first walk, ``_walk``, yields the trees in search order, each
with its total cost in Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .cost import ratio_of
from .errors import TooLarge
from .graph import SimilarityGraph
from .tree import HcTree

HARD_CAP = 10  # (2n-3)!! trees: 34,459,425 at n = 10


@dataclass(frozen=True)
class Optimum:
    """Exact optimum: best ratio, one tree achieving it, trees examined."""

    rho: Union[Fraction, float]
    tree: HcTree
    trees_searched: int


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 1, -2))


def _check_size(n: int) -> None:
    if n > HARD_CAP:
        raise TooLarge(f"{n} leaves means {_double_factorial(2 * n - 3):,} "
                       f"trees; cap is {HARD_CAP}")


def _walk(n: int, inside: list, limits: list) -> Iterator[tuple]:
    """Every binary tree on leaves 0..n-1 as ``(total, masks, parents)``.

    Search order is lexicographic in the insertion node of leaves 2, 3, ...
    A tree is a node table: leaf bitmask and parent (-1: root) per node.
    Joining leaf m next to node c appends c's new parent and the leaf and
    adds m to every strict ancestor of c, in place; the walk restores the
    table on the way back, so a yielded table lasts until it resumes.

    ``inside[S]`` is the weight inside vertex set S and ``total`` the
    tree's exact total cost.  Joining m next to c adds (|S_c|-1) x w(m,
    S_c) and, at each strict ancestor a, (|S_a|-1) x w(m, off-path child
    of a), where w(m, X) = inside[X | m] - inside[X]; every pair whose LCA
    is above c, weighing inside(root) less inside(S_c) and each off-path
    child's, costs one more.  A tree on m leaves whose total exceeds
    ``limits[m]`` is dropped with all its completions.
    """
    gains = [[inside[x | 1 << m] - inside[x] for x in range(1 << m)]
             for m in range(n)]  # gains[m][X] = w(m, X)
    masks, parents = [0b11, 0b01, 0b10], [-1, 0, 0]

    def toggle(a, bit):  # flip the bit on node a and its ancestors
        while a >= 0:
            masks[a] ^= bit
            a = parents[a]

    def grow(m, total):
        if m == n:
            yield total, masks, parents
            return
        bit, width, gain, limit = 1 << m, 2 * m - 1, gains[m], limits[m + 1]
        whole = inside[bit - 1]
        masks[width:], parents[width:] = (0, bit), (0, width)  # parent, leaf
        for c in range(width):
            below = masks[c]
            step = (total + whole - inside[below]
                    + (below.bit_count() - 1) * gain[below])
            a = up = parents[c]
            while a >= 0:
                sa = masks[a]
                off = sa ^ below
                step += (sa.bit_count() - 1) * gain[off] - inside[off]
                below, a = sa, parents[a]
            if step <= limit:
                masks[width], parents[width] = masks[c] | bit, up
                parents[c] = width
                toggle(up, bit)
                yield from grow(m + 1, step)
                parents[c] = up
                toggle(up, bit)
        del masks[width:], parents[width:]

    yield from grow(2, 0)


def _tree(masks: list, parents: list) -> HcTree:
    """The tree of a node table; children keep their node order."""
    kids = [[] for _ in masks]
    for c, up in enumerate(parents):
        if up >= 0:
            kids[up].append(c)

    def nested(c):
        return tuple(map(nested, kids[c])) if kids[c] else \
            masks[c].bit_length() - 1

    return HcTree.from_nested(nested(parents.index(-1)))


def _exact_weights(g: SimilarityGraph) -> list:
    """The weights as rows of exact Python ints; integer graphs keep theirs.

    Floats are scaled by the least power of two that makes each whole.
    """
    rows = g.weights.tolist()
    if g.integral:
        return rows
    parts = [[x.as_integer_ratio() for x in row] for row in rows]
    scale = max(d for row in parts for _, d in row)  # each d divides the max
    return [[p * (scale // d) for p, d in row] for row in parts]


def _inside(rows: list) -> list:
    """Weight inside every vertex set, indexed by its bitmask."""
    inside = [0] * (1 << len(rows))
    for s in range(1, len(inside)):
        rest = s & (s - 1)  # s without its lowest vertex v
        row = rows[(s ^ rest).bit_length() - 1]
        inside[s] = inside[rest] + sum(
            w for u, w in enumerate(row) if rest >> u & 1)
    return inside


def _optimal_total(inside: list):
    """Least total cost over all binary trees, by dynamic program on subsets.

    OPT(S) = min over splits A|B, A holding S's lowest vertex, of
    OPT(A) + OPT(B) + |S| x w(A, B), where w(A, B) = in(S) - in(A) - in(B)
    and ``inside`` tabulates in(.) over all 2^n masks.  OPT(all) is the
    least Dasgupta cost; the total cost is that minus twice the weight sum,
    exact on integer (or Fraction) weights.
    """
    full = len(inside)
    opt = [0] * full
    for s in range(1, full):
        low = s & -s
        rest = s ^ low
        if not rest:
            continue
        size = s.bit_count()
        in_s = inside[s]
        best, b = None, rest  # B runs over the nonempty parts of rest
        while b:
            a = s ^ b
            c = opt[a] + opt[b] + size * (in_s - inside[a] - inside[b])
            if best is None or c < best:
                best = c
            b = (b - 1) & rest
        opt[s] = best
    return opt[full - 1] - 2 * inside[full - 1]


def _prefix_bases(rows) -> list:
    """Base cost of the subgraph on vertices 0..m-1, for m = 0..n.

    Each triplet i < j < k counts towards every prefix holding k.
    """
    bases = [0]
    for k in range(len(rows)):
        add = 0
        for j in range(k):
            for i in range(j):
                a, b, c = rows[i][j], rows[i][k], rows[j][k]
                add += a + b + c - max(a, b, c)
        bases.append(bases[-1] + add)
    return bases


def optimal_ratio_bruteforce(g: SimilarityGraph) -> Optimum:
    """Exact minimum ratio over every binary tree, with its first argmin.

    Every sum runs on the exact integers of ``_exact_weights``; the search
    stops at the first tree in search order whose total cost equals the DP
    optimum.  rho is a Fraction on integer graphs and the correctly rounded
    exact ratio on float graphs.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    _check_size(n)
    if n == 1:
        return Optimum(rho=Fraction(1), tree=HcTree.from_nested(0),
                       trees_searched=1)

    rows = _exact_weights(g)
    inside = _inside(rows)
    target = _optimal_total(inside)
    bases = _prefix_bases(rows)
    limits = [target - bases[n] + base for base in bases]
    for total, masks, parents in _walk(n, inside, limits):
        if total == target:
            break
    return Optimum(rho=ratio_of(target, bases[n], g.integral),
                   tree=_tree(masks, parents),
                   trees_searched=_double_factorial(2 * n - 3))
