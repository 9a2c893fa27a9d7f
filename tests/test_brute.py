import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcratio import (
    TooLarge,
    base_cost,
    dasgupta_cost,
    enumerate_trees,
    optimal_ratio_bruteforce,
    ratio_cost,
)
from hcratio.brute import (
    _exact_weights,
    _nested_from_masks,
    _optimal_total,
    _prefix_bases,
    _search_order,
)

from helpers import (
    clique_graph,
    graph_from,
    is_connected,
    oracle_bruteforce,
    oracle_enumerate_trees,
    oracle_nested_from_masks,
    path_graph,
    random_int_graph,
    star_graph,
    tie_heavy_graphs,
    ultrametric,
)


@lru_cache(maxsize=None)
def oracle_order(n):
    return tuple(oracle_enumerate_trees(n))


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumeration_is_complete_and_distinct(n):
    trees = list(enumerate_trees(n))
    assert len(trees) == double_factorial(2 * n - 3)
    assert len(set(trees)) == len(trees)
    for t in trees[:: max(1, len(trees) // 7)]:
        assert t.is_binary and t.vertices == tuple(range(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_enumeration_follows_oracle_order(n):
    assert tuple(enumerate_trees(n)) == oracle_order(n)


def test_first_argmin_across_chunks():
    n = 7
    assert sum(1 for _ in _search_order(n)) > 1
    trees = oracle_order(n)
    sizes = np.stack([t.lca_leaf_counts() for t in trees])
    rng = np.random.default_rng(53)
    for density in (0.3, 0.5, 0.7, 1.0):
        for _ in range(3):
            g = random_int_graph(rng, n, wmax=1, density=density)
            # total cost of every tree, scanned in search order
            totals = ((sizes - 2) * g.weights).sum(axis=(1, 2)) // 2
            best = None
            for i, tc in enumerate(totals.tolist()):
                if best is None or tc < totals[best]:
                    best = i
            opt = optimal_ratio_bruteforce(g)
            assert opt.tree == trees[best]
            assert opt.rho == ratio_cost(g, trees[best])


def test_all_tied_returns_first_tree():
    opt = optimal_ratio_bruteforce(clique_graph(8))
    assert opt.tree == next(oracle_enumerate_trees(8))
    assert opt.trees_searched == double_factorial(13)
    # every tree optimal, so no partial tree can be pruned: the search
    # stops at the first tree of its first chunk
    want, _ = assert_same_search(graph_from(np.zeros((9, 9), dtype=np.int64)))
    assert want.tree == next(oracle_enumerate_trees(9))
    for w in (0.5, 0.3):
        W = np.full((8, 8), w)
        np.fill_diagonal(W, 0)
        want, _ = assert_same_search(graph_from(W))
        assert want.tree == next(oracle_enumerate_trees(8))
        assert want.rho == 1.0


@pytest.mark.parametrize("w", [0.1, 0.3, 0.7])
def test_uniform_float_cliques_are_perfect(w):
    for n in range(3, 11):
        W = np.full((n, n), w)
        np.fill_diagonal(W, 0)
        start = time.perf_counter()
        opt = optimal_ratio_bruteforce(graph_from(W))
        elapsed = time.perf_counter() - start
        assert type(opt.rho) is float and opt.rho == 1.0
        assert opt.tree == next(oracle_enumerate_trees(n))
    assert elapsed < 1.0  # n = 10


def test_python_int_weights_match_exact_oracle():
    # weight 0.01 needs a scale of 2^59, too large for int64 sums at n = 8
    rng = np.random.default_rng(71)
    for _ in range(3):
        W = np.triu(rng.integers(1, 100, (8, 8)) / 100, 1)
        W[0, 1] = 0.01
        g = graph_from(W + W.T)
        assert _exact_weights(g).dtype == object
        want, _ = assert_same_search(g)
        assert want.rho > 1


def test_search_counts_reported():
    g = path_graph(5)
    opt = optimal_ratio_bruteforce(g)
    assert opt.trees_searched == 105


def test_path4_is_perfect():
    opt = optimal_ratio_bruteforce(path_graph(4))
    assert opt.rho == Fraction(1)
    assert opt.tree.to_nested() == ((0, 1), (2, 3))


def test_path5_optimum():
    opt = optimal_ratio_bruteforce(path_graph(5))
    assert opt.rho == Fraction(4, 3)
    assert opt.tree.to_nested() == (((0, 1), 2), (3, 4))


def test_paths_get_strictly_worse():
    last = Fraction(1)
    for n in range(5, 9):
        opt = optimal_ratio_bruteforce(path_graph(n))
        assert opt.rho > last
        last = opt.rho


def test_matches_naive_scan():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g = random_int_graph(rng, n)
        opt = optimal_ratio_bruteforce(g)
        best = None
        best_tree = None
        searched = 0
        for t in enumerate_trees(n):
            searched += 1
            r = ratio_cost(g, t)
            if best is None or r < best:
                best, best_tree = r, t
        assert opt.rho == best
        assert opt.tree == best_tree  # identical first-argmin tie-break
        assert opt.trees_searched == searched


def test_minimizing_ratio_minimizes_dasgupta():
    # base cost is a per-graph constant, so the two objectives align
    rng = np.random.default_rng(37)
    for _ in range(15):
        g = random_int_graph(rng, 6)
        opt = optimal_ratio_bruteforce(g)
        best_das = min(dasgupta_cost(g, t) for t in enumerate_trees(6))
        assert dasgupta_cost(g, opt.tree) == best_das


def test_single_vertex_and_pair():
    opt1 = optimal_ratio_bruteforce(graph_from([[0]]))
    assert opt1.rho == Fraction(1) and opt1.tree.n_leaves == 1
    assert opt1.trees_searched == 1
    opt2 = optimal_ratio_bruteforce(path_graph(2))
    assert opt2.rho == Fraction(1)
    assert opt2.tree.to_nested() == (0, 1)


def test_too_large_rejected():
    g = graph_from(np.zeros((11, 11)))
    with pytest.raises(TooLarge):
        optimal_ratio_bruteforce(g)
    with pytest.raises(TooLarge):
        list(enumerate_trees(11))
    with pytest.raises(TooLarge):
        optimal_ratio_bruteforce(path_graph(5), cap=4)


def test_exact_fraction_for_integers_float_otherwise():
    assert isinstance(optimal_ratio_bruteforce(path_graph(5)).rho, Fraction)
    g = graph_from(path_graph(5).weights * 0.5)
    assert isinstance(optimal_ratio_bruteforce(g).rho, float)


def test_zero_base_cost_graph():
    g = graph_from([[0, 2, 0], [2, 0, 0], [0, 0, 0]])
    opt = optimal_ratio_bruteforce(g)
    assert opt.rho == Fraction(1)  # 0/0 when the pair sits together


def test_ratio_bounds_hold():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(3, 8))
        g = random_int_graph(rng, n, wmax=3)
        rho = optimal_ratio_bruteforce(g).rho
        assert Fraction(1) <= rho <= n - 2


def test_connected_unweighted_upper_bound():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 30:
        n = int(rng.integers(4, 8))
        g = random_int_graph(rng, n, wmax=1, density=0.7)
        if not is_connected(g):
            continue
        m = len(g.positive_pairs()[0])
        rho = optimal_ratio_bruteforce(g).rho
        assert rho <= Fraction(n * n - 2 * n, 2 * m - n)
        checked += 1


def test_known_star_and_clique_values():
    assert optimal_ratio_bruteforce(star_graph(4)).rho == Fraction(1)
    assert optimal_ratio_bruteforce(clique_graph(6)).rho == Fraction(1)


# -- pruned search against the unpruned oracle --------------------------------

@st.composite
def ultrametric_graphs(draw):
    """x0.1 float copies of perfect graphs, and perturbed ultrametrics."""
    n = draw(st.integers(1, 8))
    U = ultrametric(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    if draw(st.booleans()):
        return graph_from(U * 0.1)
    step = draw(st.sampled_from([1, 0.05]))  # integer or float jitter
    noise = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    noise[iu] = step * np.array(draw(st.lists(
        st.integers(-1, 1), min_size=len(iu[0]), max_size=len(iu[0]))))
    return graph_from(np.maximum(U + noise + noise.T, 0))


def assert_same_search(g):
    want, least = oracle_bruteforce(g)
    got = optimal_ratio_bruteforce(g)
    assert type(got.rho) is type(want.rho)
    assert got.rho == want.rho and got.rho >= 1
    assert got.tree.to_nested() == want.tree.to_nested()
    assert got.trees_searched == want.trees_searched
    return want, least


@given(st.one_of(tie_heavy_graphs(1, 8), ultrametric_graphs()))
@settings(max_examples=80, deadline=None)
def test_pruned_search_matches_unpruned_oracle(g):
    _, least = assert_same_search(g)
    W = g.weights if g.integral else np.array(
        [[Fraction(x) for x in row] for row in g.weights.tolist()], dtype=object)
    assert _optimal_total(W) == least


def test_prefix_bases_are_base_costs_of_prefixes():
    rng = np.random.default_rng(23)
    for n in range(11):
        for g in (random_int_graph(rng, n, wmax=5),
                  graph_from(ultrametric(rng, n))):
            assert _prefix_bases(g.weights) == [
                base_cost(g.induced(range(m))) for m in range(n + 1)]


def test_first_argmin_beyond_first_chunk():
    n = 8
    first_chunk = {_nested_from_masks(row) for row in next(_search_order(n))}
    rng = np.random.default_rng(61)
    late = 0
    for density in (0.3, 0.5, 0.7, 0.9):
        for _ in range(2):
            g = random_int_graph(rng, n, wmax=1, density=density)
            want, _ = assert_same_search(g)
            late += want.tree.to_nested() not in first_chunk
    assert late >= 2


def test_decode_matches_nested_any_oracle():
    for chunk in _search_order(6):
        for row in chunk:
            assert _nested_from_masks(row) == oracle_nested_from_masks(row)
            assert (_nested_from_masks(row[::-1])
                    == oracle_nested_from_masks(row[::-1]))


def test_n9_search_is_fast():
    rng = np.random.default_rng(67)
    g = random_int_graph(rng, 9)
    start = time.perf_counter()
    optimal_ratio_bruteforce(g)
    assert time.perf_counter() - start < 1.0
