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
    optimal_ratio_bruteforce,
    ratio_cost,
)
from hcratio import brute
from hcratio.brute import (
    _exact_weights,
    _inside,
    _optimal_total,
    _prefix_bases,
)
from hcratio.cli import main

from helpers import (
    clique_graph,
    graph_from,
    is_connected,
    oracle_bruteforce,
    oracle_enumerate_trees,
    oracle_nested_from_masks,
    oracle_search_order,
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


def search_order(n):
    """The trees of ``brute._walk`` with nothing pruned, in search order."""
    return [brute._tree(masks, parents) for _, masks, parents
            in brute._walk(n, [0] * (1 << n), [0] * (n + 1))]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumeration_is_complete_and_distinct(n):
    trees = search_order(n)
    assert len(trees) == double_factorial(2 * n - 3)
    assert len(set(trees)) == len(trees)
    for t in trees[:: max(1, len(trees) // 7)]:
        assert t.is_binary and t.vertices == tuple(range(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_enumeration_follows_oracle_order(n):
    assert tuple(search_order(n)) == oracle_order(n)


def test_first_argmin_across_chunks():
    n = 7
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
        # (n-2) x the scaled pair-weight sum is past what int64 holds
        assert (g.n - 2) * sum(map(sum, _exact_weights(g))) // 2 >= 2**63
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
        for t in oracle_enumerate_trees(n):
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
        best_das = min(dasgupta_cost(g, t) for t in oracle_enumerate_trees(6))
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
    assert _optimal_total(_inside(W.tolist())) == least


def test_prefix_bases_are_base_costs_of_prefixes():
    rng = np.random.default_rng(23)
    for n in range(11):
        for g in (random_int_graph(rng, n, wmax=5),
                  graph_from(ultrametric(rng, n))):
            assert _prefix_bases(g.weights) == [
                base_cost(g.induced(range(m))) for m in range(n + 1)]


def test_first_argmin_beyond_first_chunk():
    n = 8
    first_chunk = {oracle_nested_from_masks(row)
                   for row in next(oracle_search_order(n))}
    rng = np.random.default_rng(61)
    late = 0
    for density in (0.3, 0.5, 0.7, 0.9):
        for _ in range(2):
            g = random_int_graph(rng, n, wmax=1, density=density)
            want, _ = assert_same_search(g)
            late += want.tree.to_nested() not in first_chunk
    assert late >= 2


def test_n9_search_is_fast():
    rng = np.random.default_rng(67)
    g = random_int_graph(rng, 9)
    start = time.perf_counter()
    optimal_ratio_bruteforce(g)
    assert time.perf_counter() - start < 1.0


# `hcratio brute` stdout, plain and --records, for graphs with n = 9 and 10:
# perfbench-style perfect, perturbed, claw and random-weight graphs, a
# 2-decimal float graph, the perturbed graph x 0.1, a 10-cycle and the
# all-zero graph, as recorded from the earlier chunked numpy search.
WIDE_MATRICES = {
    'perfect': (
        '0 1 4 5 1 1 1 1 1 1\n'
        '1 0 1 1 2 4 1 1 1 2\n'
        '4 1 0 4 1 1 1 1 1 1\n'
        '5 1 4 0 1 1 1 1 1 1\n'
        '1 2 1 1 0 2 1 1 1 3\n'
        '1 4 1 1 2 0 1 1 1 2\n'
        '1 1 1 1 1 1 0 3 3 1\n'
        '1 1 1 1 1 1 3 0 4 1\n'
        '1 1 1 1 1 1 3 4 0 1\n'
        '1 2 1 1 3 2 1 1 1 0\n'
    ),
    'perturbed': (
        '0 11 11 32 11 13 9 70 18 13\n'
        '11 0 36 10 33 18 9 14 13 90\n'
        '11 36 0 12 50 13 17 10 11 45\n'
        '32 10 12 0 11 8 15 30 16 17\n'
        '11 33 50 11 0 18 8 18 16 54\n'
        '13 18 13 8 18 0 44 15 108 12\n'
        '9 9 17 15 8 44 0 18 36 11\n'
        '70 14 10 30 18 15 18 0 12 18\n'
        '18 13 11 16 16 108 36 12 0 11\n'
        '13 90 45 17 54 12 11 18 11 0\n'
    ),
    'claw': (
        '0 2 4 2 2 2 3 3 2 3\n'
        '2 0 2 4 1 1 3 3 1 3\n'
        '4 2 0 2 2 2 3 3 2 3\n'
        '2 4 2 0 1 1 3 3 1 3\n'
        '2 1 2 1 0 4 3 3 4 3\n'
        '2 1 2 1 4 0 3 3 4 3\n'
        '3 3 3 3 3 3 0 4 3 4\n'
        '3 3 3 3 3 3 4 0 3 4\n'
        '2 1 2 1 4 4 3 3 0 3\n'
        '3 3 3 3 3 3 4 4 3 0\n'
    ),
    'random_weights': (
        '0 2 1 3 0 1 3 3 3\n'
        '2 0 0 3 0 2 0 0 1\n'
        '1 0 0 1 1 0 3 2 2\n'
        '3 3 1 0 0 2 2 3 1\n'
        '0 0 1 0 0 0 0 3 0\n'
        '1 2 0 2 0 0 2 2 1\n'
        '3 0 3 2 0 2 0 2 0\n'
        '3 0 2 3 3 2 2 0 1\n'
        '3 1 2 1 0 1 0 1 0\n'
    ),
    'decimal': (
        '0.0 0.01 0.04 0.55 0.87 0.53 0.52 0.36 0.94\n'
        '0.01 0.0 0.61 0.08 0.59 0.4 0.19 0.9 0.1\n'
        '0.04 0.61 0.0 0.53 0.39 0.01 0.32 0.14 0.51\n'
        '0.55 0.08 0.53 0.0 0.84 0.22 0.21 0.99 0.35\n'
        '0.87 0.59 0.39 0.84 0.0 0.33 0.24 0.62 0.69\n'
        '0.53 0.4 0.01 0.22 0.33 0.0 0.41 0.45 0.07\n'
        '0.52 0.19 0.32 0.21 0.24 0.41 0.0 0.94 0.86\n'
        '0.36 0.9 0.14 0.99 0.62 0.45 0.94 0.0 0.17\n'
        '0.94 0.1 0.51 0.35 0.69 0.07 0.86 0.17 0.0\n'
    ),
    'cycle': "".join(" ".join("1" if abs(i - j) in (1, 9) else "0"
                              for j in range(10)) + "\n" for i in range(10)),
    'zero': "0 0 0 0 0 0 0 0 0 0\n" * 10,
}
WIDE_STDOUT = {
    'perfect': (
        'rho 1 (1.0)\n'
        'tree ((((0,3),2),((1,5),(4,9))),(6,(7,8)));\n'
        'trees-searched 34459425\n',
        'rho\t1\n'
        'rho-decimal\t1.0\n'
        'tree\t((((0,3),2),((1,5),(4,9))),(6,(7,8)));\n'
        'trees-searched\t34459425\n',
    ),
    'perturbed': (
        'rho 1739/1693 (1.0271707028942705)\n'
        'tree ((((0,7),3),((5,8),6)),((1,9),(2,4)));\n'
        'trees-searched 34459425\n',
        'rho\t1739/1693\n'
        'rho-decimal\t1.0271707028942705\n'
        'tree\t((((0,7),3),((5,8),6)),((1,9),(2,4)));\n'
        'trees-searched\t34459425\n',
    ),
    'claw': (
        'rho 1 (1.0)\n'
        'tree ((((0,2),((6,9),7)),(1,3)),((4,8),5));\n'
        'trees-searched 34459425\n',
        'rho\t1\n'
        'rho-decimal\t1.0\n'
        'tree\t((((0,2),((6,9),7)),(1,3)),((4,8),5));\n'
        'trees-searched\t34459425\n',
    ),
    'random_weights': (
        'rho 179/153 (1.1699346405228759)\n'
        'tree ((((((0,7),3),(2,6)),8),(1,5)),4);\n'
        'trees-searched 2027025\n',
        'rho\t179/153\n'
        'rho-decimal\t1.1699346405228759\n'
        'tree\t((((((0,7),3),(2,6)),8),(1,5)),4);\n'
        'trees-searched\t2027025\n',
    ),
    'decimal': (
        'rho 1.1451520367183017\n'
        'tree (((((0,8),6),((3,7),4)),5),(1,2));\n'
        'trees-searched 2027025\n',
        'rho\t1.1451520367183017\n'
        'rho-decimal\t1.1451520367183017\n'
        'tree\t(((((0,8),6),((3,7),4)),5),(1,2));\n'
        'trees-searched\t2027025\n',
    ),
    'tenth': (
        'rho 1.0271707028942705\n'
        'tree ((((0,7),3),((5,8),6)),((1,9),(2,4)));\n'
        'trees-searched 34459425\n',
        'rho\t1.0271707028942705\n'
        'rho-decimal\t1.0271707028942705\n'
        'tree\t((((0,7),3),((5,8),6)),((1,9),(2,4)));\n'
        'trees-searched\t34459425\n',
    ),
    'cycle': (
        'rho 12/5 (2.4)\n'
        'tree ((((0,1),2),(3,4)),(((5,6),7),(8,9)));\n'
        'trees-searched 34459425\n',
        'rho\t12/5\n'
        'rho-decimal\t2.4\n'
        'tree\t((((0,1),2),(3,4)),(((5,6),7),(8,9)));\n'
        'trees-searched\t34459425\n',
    ),
    'zero': (
        'rho 1 (1.0)\n'
        'tree (((((((((0,1),9),8),7),6),5),4),3),2);\n'
        'trees-searched 34459425\n',
        'rho\t1\n'
        'rho-decimal\t1.0\n'
        'tree\t(((((((((0,1),9),8),7),6),5),4),3),2);\n'
        'trees-searched\t34459425\n',
    ),
}


def wide_matrix(name):
    if name != "tenth":
        return WIDE_MATRICES[name]
    rows = WIDE_MATRICES["perturbed"].splitlines()
    return "".join(" ".join(repr(int(x) * 0.1) for x in row.split()) + "\n"
                   for row in rows)


@pytest.mark.parametrize("name", list(WIDE_STDOUT))
def test_wide_graphs_print_recorded_stdout(capsys, tmp_path, name):
    body = wide_matrix(name)
    f = tmp_path / "g.txt"
    f.write_text(f"{body.count(chr(10))}\n{body}")
    for extra, want in zip(([], ["--records"]), WIDE_STDOUT[name]):
        assert main(["brute", str(f), *extra]) == 0
        assert capsys.readouterr().out == want
