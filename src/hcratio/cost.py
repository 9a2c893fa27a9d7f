"""Cost functions for (similarity graph, clustering tree) pairs.

The headline quantities: the classic weighted-LCA-size objective, the
shifted total cost (same minimizers, zero lower bound), the graph-only
base cost, and their ratio.  A tree is *consistent* with the graph when
every vertex triplet is merged as cheaply as its weights allow — which
happens exactly when total cost equals base cost.

Consistency is the paper's exact notion and ignores the graph's epsilon.
Epsilon is only a tolerance for classifying triplets in detection, so a
tree that detection builds under a positive epsilon can be inconsistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import LeafMismatch
from .graph import SimilarityGraph, _triplet_rows, base_cost
from .tree import HcTree

Value = Union[int, float]


@dataclass(frozen=True)
class CostReport:
    """All scalar costs of one (graph, tree) pair."""

    dasgupta: Value
    total: Value
    base: Value
    ratio: Union[Fraction, float]
    consistent: bool


def _check_leaves(g: SimilarityGraph, t: HcTree) -> None:
    if t.vertices != tuple(range(g.n)):
        raise LeafMismatch(
            f"tree leaves {t.vertices[:6]}... do not match graph vertices 0..{g.n - 1}")


def _lca_counts(g: SimilarityGraph, t: HcTree) -> np.ndarray:
    _check_leaves(g, t)
    return t.lca_leaf_counts()


def _pair_sums(g: SimilarityGraph, M: np.ndarray) -> tuple[Value, Value]:
    """(Dasgupta, total) cost sums over positive pairs, given LCA counts M."""
    ii, jj = g.positive_pairs()
    if not len(ii):
        return 0, 0
    w = g.weights[ii, jj]
    return (w * M[ii, jj]).sum().item(), (w * (M[ii, jj] - 2)).sum().item()


def dasgupta_cost(g: SimilarityGraph, t: HcTree) -> Value:
    """Sum over positive-weight pairs of weight x (leaves under their LCA)."""
    return _pair_sums(g, _lca_counts(g, t))[0]


def total_cost(g: SimilarityGraph, t: HcTree) -> Value:
    """Dasgupta cost shifted down by twice the total weight.

    Computed edge-wise as weight x (LCA leaf count - 2); always >= 0, and 0
    exactly when every positive pair is merged as a sibling cherry.
    """
    return _pair_sums(g, _lca_counts(g, t))[1]


def ratio_cost(g: SimilarityGraph, t: HcTree) -> Union[Fraction, float]:
    """total / base, with 0/0 = 1 and positive/0 = +inf; see ``ratio_of``.

    On integer weights a consistent tree has base = total (see
    ``is_consistent``), so base cost is summed only for other trees.
    """
    total = total_cost(g, t)
    consistent = g.integral and _consistent(g.weights, t)
    return ratio_of(total, total if consistent else base_cost(g), g.integral)


def ratio_of(total: Value, base: Value, integral: bool) -> Union[Fraction, float]:
    """The ratio rule: total / base, with 0/0 = 1 and positive/0 = +inf.

    Exact Fraction when ``integral``, float otherwise.
    """
    if base == 0:
        if total:
            return math.inf
        return Fraction(1) if integral else 1.0
    return Fraction(total, base) if integral else total / base


def find_inconsistent_triplet(
        g: SimilarityGraph, t: HcTree,
        lca: Optional[np.ndarray] = None) -> Optional[tuple[int, int, int]]:
    """Lexicographically-first triplet costing more than its weights require.

    None when the tree is consistent with the graph.  ``lca`` is the tree's
    LCA leaf-count matrix when the caller has already computed it.
    """
    W = g.weights
    M = _lca_counts(g, t) if lca is None else lca
    for i, j, k, low in _triplet_rows(W):
        w_ij, w_ik, w_jk = W[i, j], W[i, k], W[j, k]
        m_ij, m_ik, m_jk = M[i, j], M[i, k], M[j, k]
        # exactly one LCA is strictly lowest (pair merged first), or all tie
        pair_ij = (m_ij < m_ik) & (m_ij < m_jk)
        pair_ik = (m_ik < m_ij) & (m_ik < m_jk)
        pair_jk = (m_jk < m_ij) & (m_jk < m_ik)
        cost = np.where(pair_ij, w_ik + w_jk,
               np.where(pair_ik, w_ij + w_jk,
               np.where(pair_jk, w_ij + w_ik,
                        w_ij + w_ik + w_jk)))
        bad = np.flatnonzero(cost != low)
        if bad.size:  # rows list (j, k) lexicographically
            return (i, int(j[bad[0]]), int(k[bad[0]]))
    return None


def _consistent(W: np.ndarray, t: HcTree) -> bool:
    """True iff tree ``t`` on leaves 0..n-1 is consistent with weights W.

    A triplet pays its least cost exactly when the pair the tree merges
    first is a heaviest pair, or, when all three merge at once, when all
    three weights are 0.  So the tree is consistent iff at every internal
    node v:

    (a) each leaf i under a child C weighs at most min over j in C - {i}
        of W[i, j] to every other leaf under v; and
    (b) if v has three or more children, every weight between two of
        them is 0.

    ``HcTree._leaf_runs`` lists each subtree's leaves as one run, so with W
    in that order the pairs a node joins are slices: one block between two
    children, or each child's columns left and right of it.  ``inner``
    carries each leaf's least weight within its subtree up the tree.
    Each pair is read at its LCA only: O(n^2).  Weights are only
    compared, never summed.
    """
    order, nodes = t._leaf_runs()
    P = W[np.ix_(order, order)]
    inner = np.full(len(W), W.max(initial=0))  # no pair within a leaf
    for lo, hi, spans in nodes:
        if len(spans) > 2:  # (b), which implies (a)
            if any(P[a:b, lo:a].any() or P[a:b, b:hi].any() for a, b in spans):
                return False
            inner[lo:hi] = 0
            continue
        (a, m), (_, b) = sorted(spans)  # (a) on the block between the two
        X = P[a:m, m:b]
        # a lone leaf has no inner pair, so (a) cannot fail on its side
        if (m - a > 1 and (X.max(axis=1) > inner[a:m]).any()) or \
                (b - m > 1 and (X.max(axis=0) > inner[m:b]).any()):
            return False
        np.minimum(inner[a:m], X.min(axis=1), out=inner[a:m])
        np.minimum(inner[m:b], X.min(axis=0), out=inner[m:b])
    return True


def is_consistent(g: SimilarityGraph, t: HcTree) -> bool:
    """True iff every triplet is charged the least its weights allow.

    Total cost is the sum of the triplet charges and base cost the sum of
    their minima, so the tree is consistent exactly when the two are
    equal.  Integer weights are decided without either sum, by an O(n^2)
    test of the tree's nodes (``_consistent``).  Float weights take the
    triplet scan.
    """
    if g.integral:
        _check_leaves(g, t)
        return _consistent(g.weights, t)
    return find_inconsistent_triplet(g, t) is None


def cost_report(g: SimilarityGraph, t: HcTree) -> CostReport:
    """Evaluate all costs of the pair in one go, from one LCA count matrix.

    On integer weights ``consistent`` comes from ``is_consistent``'s O(n^2)
    test, and a consistent tree's base cost is its total, so the cubic
    ``base_cost`` runs only for inconsistent trees.  Float weights sum
    ``base_cost`` and take the triplet scan.
    """
    M = _lca_counts(g, t)
    das, tot = _pair_sums(g, M)
    if g.integral:
        consistent = _consistent(g.weights, t)
        base = tot if consistent else base_cost(g)
    else:
        base = base_cost(g)
        consistent = find_inconsistent_triplet(g, t, M) is None
    return CostReport(dasgupta=das, total=tot, base=base,
                      ratio=ratio_of(tot, base, g.integral),
                      consistent=consistent)
