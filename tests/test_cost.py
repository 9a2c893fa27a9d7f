import math
import sys
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcratio import (
    HcTree,
    InvalidWeight,
    LeafMismatch,
    base_cost,
    binarize,
    cost_report,
    dasgupta_cost,
    find_inconsistent_triplet,
    is_consistent,
    ratio_cost,
    total_cost,
)

from helpers import (
    clique_graph,
    graph_from,
    matching_graph,
    oracle_base,
    oracle_dasgupta,
    oracle_enumerate_trees,
    oracle_total,
    oracle_triplet_sum,
    path_graph,
    random_int_graph,
    random_nested,
    star_graph,
    triplet_relation,
    ultrametric_multi_tree,
)


def caterpillar(n):
    return HcTree.from_nested(tuple_fold(range(n)))


def tuple_fold(xs):
    xs = list(xs)
    acc = xs[0]
    for x in xs[1:]:
        acc = (acc, x)
    return acc


def test_path4_costs():
    g = path_graph(4)
    t = HcTree.from_nested(((0, 1), (2, 3)))
    assert dasgupta_cost(g, t) == 8
    assert total_cost(g, t) == 2
    rep = cost_report(g, t)
    assert rep.dasgupta == 8 and rep.total == 2 and rep.base == 2
    assert rep.ratio == Fraction(1) and rep.consistent


def test_triangle_any_tree():
    g = clique_graph(3)
    t = HcTree.from_nested(((0, 1), 2))
    assert dasgupta_cost(g, t) == 2 + 3 + 3  # pair at 2, others at 3
    assert total_cost(g, t) == 2


def test_clique_total_cost_any_tree():
    # every binary tree on K_n pays 2 per triplet
    for n in range(3, 8):
        g = clique_graph(n)
        t = caterpillar(n)
        assert total_cost(g, t) == 2 * math.comb(n, 3)
        t2 = HcTree.from_nested(tuple_fold([tuple_fold(range(n // 2)),
                                            tuple_fold(range(n // 2, n))]))
        assert total_cost(g, t2) == 2 * math.comb(n, 3)


def test_single_edge_siblings_free():
    g = graph_from([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    t = HcTree.from_nested(((0, 1), 2))
    assert total_cost(g, t) == 0
    assert ratio_cost(g, t) == Fraction(1)  # 0 / 0


def test_zero_over_zero_is_one():
    g = matching_graph(4, [(0, 1), (2, 3)])
    t = HcTree.from_nested(((0, 1), (2, 3)))
    assert total_cost(g, t) == 0
    assert ratio_cost(g, t) == Fraction(1)


def test_positive_over_zero_is_inf():
    g = matching_graph(4, [(0, 1), (2, 3)])
    t = HcTree.from_nested(((0, 2), (1, 3)))  # splits both edges
    assert total_cost(g, t) > 0
    assert ratio_cost(g, t) == math.inf


def test_ratio_exact_for_integer_weights():
    g = path_graph(5)
    t = caterpillar(5)
    r = ratio_cost(g, t)
    assert isinstance(r, Fraction)


def test_ratio_float_for_float_weights():
    g = graph_from([[0, 0.5, 0], [0.5, 0, 0.25], [0, 0.25, 0]])
    t = HcTree.from_nested(((0, 1), 2))
    r = ratio_cost(g, t)
    assert isinstance(r, float) and r == pytest.approx(0.25 / 0.25)


def test_triplet_cost_cases():
    # on three vertices the total cost is the one triplet's charge
    g = graph_from([[0, 5, 1], [5, 0, 2], [1, 2, 0]])
    pair01 = HcTree.from_nested(((0, 1), 2))
    assert total_cost(g, pair01) == 1 + 2  # separated pays its edges
    pair02 = HcTree.from_nested(((0, 2), 1))
    assert total_cost(g, pair02) == 5 + 2
    simul = HcTree.from_nested((0, 1, 2))
    assert total_cost(g, simul) == 5 + 1 + 2


def test_leaf_mismatch_rejected():
    g = path_graph(4)
    t = HcTree.from_nested((0, 1, 2))
    with pytest.raises(LeafMismatch):
        total_cost(g, t)


@given(st.integers(3, 8), st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_identities_on_random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    g = random_int_graph(rng, n)
    nested = random_nested(rng, n)
    t = HcTree.from_nested(nested)
    das = dasgupta_cost(g, t)
    tot = total_cost(g, t)
    assert das == oracle_dasgupta(g.weights, nested)
    assert tot == oracle_total(g.weights, nested)
    # the two decompositions of total cost agree exactly
    assert tot == das - 2 * g.total_weight()
    assert tot == oracle_triplet_sum(g.weights, nested)


@given(st.integers(2, 9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_exact_up_to_the_int64_weight_bound(n, seed):
    # max weight x n^3 < 2^63 keeps every cost sum exact in int64
    limit = (2**63 - 1) // n**3
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    W[iu] = rng.integers(limit // 2, limit, size=len(iu[0]), endpoint=True)
    W[0, 1] = limit
    W = W + W.T
    nested = random_nested(rng, n)
    t = HcTree.from_nested(nested)
    g = graph_from(W)
    rep = cost_report(g, t)
    assert rep.dasgupta == dasgupta_cost(g, t) == oracle_dasgupta(W, nested)
    assert rep.total == total_cost(g, t) == oracle_total(W, nested)
    assert rep.base == oracle_base(W)
    assert rep.ratio == (Fraction(rep.total, rep.base) if rep.base else 1)
    W[0, 1] = W[1, 0] = limit + 1
    with pytest.raises(InvalidWeight):
        graph_from(W)


@given(st.integers(3, 7), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_relabeling_invariance(n, seed):
    rng = np.random.default_rng(seed)
    g = random_int_graph(rng, n)
    nested = random_nested(rng, n)
    perm = rng.permutation(n)
    W2 = g.weights[np.ix_(perm, perm)]
    g2 = graph_from(W2)

    def relabel(x):
        if isinstance(x, tuple):
            return tuple(relabel(c) for c in x)
        return int(np.nonzero(perm == x)[0][0])

    t1 = HcTree.from_nested(nested)
    t2 = HcTree.from_nested(relabel(nested))
    assert total_cost(g, t1) == total_cost(g2, t2)
    assert dasgupta_cost(g, t1) == dasgupta_cost(g2, t2)


def test_consistency_star_caterpillar():
    g = star_graph(4)
    # triplet cost = sum minus the first-merged pair's weight, so each
    # triplet wants a max-weight pair merged first.  For the star that means
    # the center joins leaf after leaf; isolating the center is the worst move.
    t = HcTree.from_nested((((0, 1), 2), 3))
    assert is_consistent(g, t)
    bad = HcTree.from_nested((((1, 2), 3), 0))
    assert not is_consistent(g, bad)


def test_consistency_three_vertices():
    g = graph_from([[0, 5, 1], [5, 0, 2], [1, 2, 0]])
    assert is_consistent(g, HcTree.from_nested(((0, 1), 2)))
    assert not is_consistent(g, HcTree.from_nested(((0, 2), 1)))


def test_no_tree_is_consistent_for_path5():
    g = path_graph(5)
    # spot-check a few trees; the brute-force module covers all of them
    for nested in [((0, 1), ((2, 3), 4)), (((0, 1), 2), (3, 4)),
                   ((((0, 1), 2), 3), 4)]:
        assert not is_consistent(g, HcTree.from_nested(nested))


def test_find_inconsistent_triplet_reports_first():
    g = star_graph(4)
    t = HcTree.from_nested((((1, 2), 3), 0))
    v = find_inconsistent_triplet(g, t)
    # (0,1,2): merging (1,2) first pays w(0,1)+w(0,2)=2, but 1 suffices
    assert v == (0, 1, 2)
    assert find_inconsistent_triplet(g, HcTree.from_nested((((0, 1), 2), 3))) is None


def test_find_inconsistent_triplet_multifurcating():
    g = graph_from([[0, 5, 1], [5, 0, 2], [1, 2, 0]])
    t = HcTree.from_nested((0, 1, 2))
    # a three-way merge pays all edges; two would do
    assert find_inconsistent_triplet(g, t) == (0, 1, 2)
    g_zero = graph_from([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    # no positive edges at all: the three-way merge is free
    assert find_inconsistent_triplet(g_zero, t) is None


@given(st.integers(3, 7), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_consistency_matches_triplet_scan(n, seed):
    rng = np.random.default_rng(seed)
    g = random_int_graph(rng, n)
    t = HcTree.from_nested(random_nested(rng, n))
    nested = t.to_nested()

    def violates(i, j, k):
        rel = triplet_relation(nested, i, j, k)
        tot = g.weight(i, j) + g.weight(i, k) + g.weight(j, k)
        paid = tot if rel[0] == "simul" else tot - g.weight(*rel[1])
        floor = tot - max(g.weight(i, j), g.weight(i, k), g.weight(j, k))
        return paid != floor

    expected = None
    for trip in combinations(range(n), 3):
        if violates(*trip):
            expected = trip
            break
    assert find_inconsistent_triplet(g, t) == expected
    assert is_consistent(g, t) == (expected is None)


def test_cost_report_builds_one_lca_matrix(monkeypatch):
    rng = np.random.default_rng(21)
    g = random_int_graph(rng, 7)
    t = HcTree.from_nested(random_nested(rng, 7))
    calls = []
    lca_leaf_counts = HcTree.lca_leaf_counts

    def counted(self):
        calls.append(self)
        return lca_leaf_counts(self)

    monkeypatch.setattr(HcTree, "lca_leaf_counts", counted)
    rep = cost_report(g, t)
    assert len(calls) == 1
    assert rep.consistent == is_consistent(g, t)
    assert (rep.dasgupta, rep.total) == (dasgupta_cost(g, t), total_cost(g, t))


@st.composite
def integer_graph_and_tree(draw):
    """Tie-heavy {0..3} graph with a random tree or an enumerated one."""
    n = draw(st.integers(1, 9))
    vals = draw(st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 3]),
                         min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    W = np.zeros((n, n), dtype=np.int64)
    W[np.triu_indices(n, 1)] = vals
    g = graph_from(W + W.T)
    if n == 1:
        return g, HcTree.from_nested(0)
    if n <= 5 and draw(st.booleans()):
        trees = list(oracle_enumerate_trees(n))
        return g, trees[draw(st.integers(0, len(trees) - 1))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g, HcTree.from_nested(random_nested(rng, n))


@given(integer_graph_and_tree())
@settings(max_examples=200, deadline=None)
def test_integer_consistent_flag_matches_triplet_scan(case):
    # on integer weights the flag comes from the node test, with no scan
    g, t = case
    expected = find_inconsistent_triplet(g, t) is None
    assert cost_report(g, t).consistent == expected
    assert is_consistent(g, t) == expected


@st.composite
def consistency_heavy_pairs(draw):
    """Integer ultrametrics with their own, binarised or random trees.

    Zero steps tie a node's inner and cross weights, a zero root level
    makes wide root merges free, and one pair moved by +-1 or weights
    scaled up to the int64 bound sit on either side of consistency.
    """
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W, nested = ultrametric_multi_tree(
        rng, n, root_level=draw(st.integers(0, 1)),
        steps=draw(st.sampled_from([(1, 2), (0, 1), (1,)])))
    t = HcTree.from_nested(nested)
    tree = draw(st.sampled_from(["own", "binarised", "random"]))
    if tree == "binarised":
        t = binarize(t)
    elif tree == "random":
        t = HcTree.from_nested(random_nested(rng, n))
    if draw(st.booleans()):
        # leave room for the +1 below the max x n^3 < 2^63 bound
        W *= ((2**63 - 1) // n**3 - 1) // max(W.max(), 1)
    if n > 1 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        W[i, j] = W[j, i] = max(W[i, j] + draw(st.sampled_from([-1, 1])), 0)
    return graph_from(W), t


@given(consistency_heavy_pairs())
@settings(max_examples=400, deadline=None)
def test_consistency_certificate_matches_the_oracles(case):
    g, t = case
    rep = cost_report(g, t)
    assert rep.base == oracle_base(g.weights)
    assert rep.consistent == (find_inconsistent_triplet(g, t) is None)
    assert rep.consistent == (rep.total == rep.base)
    assert is_consistent(g, t) == rep.consistent
    assert ratio_cost(g, t) == rep.ratio


def spy_base_cost(monkeypatch):
    """Count ``base_cost`` calls through every hcratio namespace binding it."""
    calls = []

    def counted(g):
        calls.append(g.n)
        return base_cost(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hcratio" and \
                getattr(module, "base_cost", None) is base_cost:
            monkeypatch.setattr(module, "base_cost", counted)
    return calls


def test_consistent_integer_pairs_skip_base_cost(monkeypatch):
    calls = spy_base_cost(monkeypatch)
    n = 12
    i = np.arange(n)
    cat = n - np.maximum.outer(i, i)
    np.fill_diagonal(cat, 0)
    wide = np.zeros((6, 6), dtype=np.int64)  # a free three-way root merge
    wide[0, 1] = wide[1, 0] = wide[2, 3] = wide[3, 2] = 4
    W, nested = ultrametric_multi_tree(np.random.default_rng(5), 10)
    pairs = [(graph_from(cat), caterpillar(n)),
             (graph_from(wide), HcTree.from_nested(((0, 1), (2, 3), (4, 5)))),
             (graph_from(W), binarize(HcTree.from_nested(nested)))]
    for g, t in pairs:
        rep = cost_report(g, t)
        assert rep.consistent and rep.base == rep.total == oracle_base(g.weights)
        assert rep.ratio == ratio_cost(g, t) == Fraction(1)
        assert is_consistent(g, t)
    assert calls == []

    g, t = path_graph(5), caterpillar(5)
    rep = cost_report(g, t)
    assert calls == [5] and not rep.consistent
    assert rep.base == oracle_base(g.weights) < rep.total
    assert ratio_cost(g, t) == rep.ratio and calls == [5, 5]
    assert not is_consistent(g, t) and calls == [5, 5]


def test_cost_report_on_a_big_consistent_caterpillar_is_quadratic():
    n = 2000
    i = np.arange(n)
    W = n - np.maximum.outer(i, i)
    np.fill_diagonal(W, 0)
    g, t = graph_from(W), caterpillar(n)
    start = time.perf_counter()
    rep = cost_report(g, t)
    # a cubic base cost alone takes several seconds at this size
    assert time.perf_counter() - start < 2.0
    assert rep.consistent and rep.base == rep.total
