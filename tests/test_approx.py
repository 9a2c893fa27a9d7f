import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcratio import (
    InvalidDelta,
    approx_tree,
    binarize,
    build_bisection,
    optimal_ratio_bruteforce,
    ratio_cost,
)
from hcratio.approx import RootedTripletConstraint, build_constraints, rtc_build

from helpers import (
    graph_from,
    oracle_build_constraints,
    path_graph,
    random_int_graph,
    star_graph,
    tie_heavy_graphs,
    triplet_relation,
    ultrametric,
)


def test_constraint_normalizes_pair():
    c = RootedTripletConstraint(pair=(4, 1), outsider=2)
    assert c.pair == (1, 4)
    with pytest.raises(ValueError):
        RootedTripletConstraint(pair=(1, 1), outsider=2)
    with pytest.raises(ValueError):
        RootedTripletConstraint(pair=(1, 2), outsider=2)


@pytest.mark.parametrize("bad", [0.5, 0, -2, "abc"])
def test_delta_below_one_or_garbage_rejected(bad):
    g = path_graph(3)
    with pytest.raises(InvalidDelta):
        build_constraints(g, bad)


def test_delta_whose_square_overflows_a_float_is_rejected():
    for g in (path_graph(3), graph_from([[0, 0.5], [0.5, 0]])):
        with pytest.raises(InvalidDelta, match="overflows a float"):
            approx_tree(g, "1e200")
    assert approx_tree(path_graph(3), "1e150") is not None


def test_emission_by_hand():
    g = graph_from([[0, 4, 1, 0],
                    [4, 0, 0, 0],
                    [1, 0, 0, 9],
                    [0, 0, 9, 0]])
    cons = build_constraints(g, 1.5)
    assert cons == {
        RootedTripletConstraint(pair=(0, 1), outsider=2),
        RootedTripletConstraint(pair=(0, 1), outsider=3),
        RootedTripletConstraint(pair=(2, 3), outsider=0),
        RootedTripletConstraint(pair=(2, 3), outsider=1),
    }
    t = approx_tree(g, 1.5)
    assert t.to_nested() == ((0, 1), (2, 3))


def test_emission_needs_strict_margin():
    # top weight 9 vs runner-up 4 at delta=1.5: 9 = (9/4)*4, not beyond it
    g = graph_from([[0, 9, 4], [9, 0, 0], [4, 0, 0]])
    assert build_constraints(g, 1.5) == set()
    g2 = graph_from([[0, 10, 4], [10, 0, 0], [4, 0, 0]])
    assert build_constraints(g2, 1.5) == {
        RootedTripletConstraint(pair=(0, 1), outsider=2)}


def test_delta_is_read_as_decimal():
    # 1.2^2 is exactly 36/25; binary-float squaring reads 1.43999...,
    # which would wrongly emit at the 36-vs-25 boundary
    g = graph_from([[0, 36, 25], [36, 0, 0], [25, 0, 0]])
    assert build_constraints(g, 1.2) == set()
    assert build_constraints(g, Fraction(6, 5)) == set()


def test_ties_emit_nothing():
    g = graph_from([[0, 4, 4], [4, 0, 1], [4, 1, 0]])
    assert build_constraints(g, 1) == set()


@given(st.integers(3, 7), st.integers(0, 10**6),
       st.sampled_from([1, Fraction(5, 4), 1.5, 2, 3]),
       st.sampled_from([1, Fraction(5, 4), 1.5, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_larger_delta_emits_subset(n, seed, d1, d2):
    if Fraction(str(d1)) > Fraction(str(d2)):
        d1, d2 = d2, d1
    rng = np.random.default_rng(seed)
    g = random_int_graph(rng, n, wmax=5)
    assert build_constraints(g, d2) <= build_constraints(g, d1)


@given(tie_heavy_graphs(),
       st.sampled_from([1, Fraction(5, 4), 1.2, 1.5, 2, Fraction(7, 3)]))
@settings(max_examples=100, deadline=None)
def test_constraints_match_loop_oracle(g, delta):
    assert build_constraints(g, delta) == oracle_build_constraints(g, delta)


def int64_bound_graph(n, seed):
    """Weights near 2^63 / n^3 whose products with delta^2 = 1.0001^2 leave
    int64.

    delta^2 = 100020001 / 10^8, and the top/runner-up ratios sit exactly on,
    just under and just over it.
    """
    p, q = 100020001, 10**8
    limit = (2**63 - 1) // n**3
    k = limit // p
    rng = np.random.default_rng(seed)
    near = [p * k - 1, p * k, q * k - 1, q * k, q * k + 1, limit]
    W = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    W[iu] = np.where(rng.random(len(iu[0])) < 0.7,
                     rng.choice(near, size=len(iu[0])),
                     rng.integers(limit // 2, limit, size=len(iu[0]),
                                  endpoint=True))
    g = graph_from(W + W.T)
    assert g.integral and int(g.weights.max()) * p >= 2**63
    return g


@given(st.integers(3, 7), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_constraints_exact_at_the_int64_weight_bound(n, seed):
    g = int64_bound_graph(n, seed)
    assert build_constraints(g, 1.0001) == oracle_build_constraints(g, 1.0001)


# -- constraint tree construction ---------------------------------------------

def test_rtc_single_constraint():
    t = rtc_build([RootedTripletConstraint(pair=(0, 1), outsider=2)], 3)
    assert t.to_nested() == ((0, 1), 2)


def test_rtc_contradiction():
    cons = [RootedTripletConstraint(pair=(0, 1), outsider=2),
            RootedTripletConstraint(pair=(1, 2), outsider=0)]
    assert rtc_build(cons, 3) is None


def test_rtc_no_constraints_gives_flat_tree():
    t = rtc_build([], 4)
    assert t.to_nested() == (0, 1, 2, 3)


def test_rtc_single_vertex():
    t = rtc_build([], 1)
    assert t.n_leaves == 1


def test_rtc_nested_levels():
    cons = [RootedTripletConstraint(pair=(0, 1), outsider=2),
            RootedTripletConstraint(pair=(2, 3), outsider=4)]
    t = rtc_build(cons, 5)
    # top level: {0,1} and {2,3} linked, 4 free -> three clusters
    assert t.to_nested() == ((0, 1), (2, 3), 4)


@pytest.mark.parametrize("pair, outsider", [((0, 5), 2), ((-1, 1), 2),
                                             ((0, 1), 7)])
def test_rtc_rejects_vertices_outside_range(pair, outsider):
    with pytest.raises(ValueError):
        rtc_build([RootedTripletConstraint(pair=pair, outsider=outsider)], 3)


def test_approx_binarizes():
    g = graph_from(np.zeros((4, 4)))
    t = approx_tree(g, 2)
    assert t.is_binary
    assert t.to_nested() == (((0, 1), 2), 3)


def test_approx_satisfies_every_constraint():
    rng = np.random.default_rng(23)
    produced = 0
    for _ in range(120):
        n = int(rng.integers(3, 8))
        g = random_int_graph(rng, n, wmax=6)
        for delta in (1, 1.5, 2):
            cons = build_constraints(g, delta)
            t = approx_tree(g, delta)
            if t is None:
                continue
            produced += 1
            nested = t.to_nested()
            for c in cons:
                assert triplet_relation(nested, *c.pair, c.outsider) == \
                    ("pair", c.pair, c.outsider)
    assert produced >= 40


def test_path5_has_no_constraint_tree():
    # consecutive pairs are forced together by far-away outsiders at any
    # delta, chaining the whole path into one component
    g = path_graph(5)
    for delta in (1, 1.5, 10):
        assert approx_tree(g, delta) is None


def test_star_needs_no_constraints_and_lands_perfect():
    g = star_graph(4)
    assert build_constraints(g, 1) == set()
    t = approx_tree(g, 1)
    assert ratio_cost(g, t) == Fraction(1)


def constraint_tree(g, delta):
    """BUILD over the listed constraints, binarized: what approx_tree gives."""
    t = rtc_build(build_constraints(g, delta), g.n)
    return None if t is None else binarize(t).to_nested()


def nested_or_none(t):
    return None if t is None else t.to_nested()


@given(tie_heavy_graphs(1, 12),
       st.sampled_from([1, Fraction(5, 4), 1.2, 1.5, 2, Fraction(7, 3)]))
@settings(max_examples=200, deadline=None)
def test_approx_tree_matches_constraint_build(g, delta):
    assert nested_or_none(approx_tree(g, delta)) == constraint_tree(g, delta)


@given(st.integers(3, 9), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_approx_tree_exact_at_the_int64_weight_bound(n, seed):
    g = int64_bound_graph(n, seed)
    assert nested_or_none(approx_tree(g, 1.0001)) == constraint_tree(g, 1.0001)


def test_approx_n150_is_fast():
    g = graph_from(ultrametric(np.random.default_rng(150), 150))
    start = time.perf_counter()
    t = approx_tree(g, 1.2)
    assert time.perf_counter() - start < 1.0
    assert ratio_cost(g, t) <= 1 + Fraction(6, 5) ** 2  # the graph is perfect


# -- distortion guarantee -----------------------------------------------------

def perturb(rng, g, scale=12, lo=8, hi=18):
    """Multiply each positive weight of scale*g by a factor in [lo, hi]."""
    W = g.weights * scale
    n = g.n
    iu = np.triu_indices(n, 1)
    K = rng.integers(lo, hi + 1, size=len(iu[0]))
    H = np.zeros_like(W)
    H[iu] = g.weights[iu] * K
    return graph_from(H + H.T)


def test_perturbed_perfect_graphs_meet_guarantee():
    rng = np.random.default_rng(29)
    delta = Fraction(3, 2)
    bound = 1 + delta * delta  # 13/4
    done = 0
    while done < 25:
        n = int(rng.integers(4, 8))
        W = np.zeros((n, n), dtype=np.int64)
        iu = np.triu_indices(n, 1)
        vals = rng.integers(0, 4, size=len(iu[0]))
        vals = vals * (rng.random(len(iu[0])) < 0.7)
        W[iu] = vals
        g = graph_from(W + W.T)
        if not build_bisection(g).perfect:
            continue
        # 12*g is perfect too; factors in [8,18] keep within distortion 3/2
        h = perturb(rng, g)
        t = approx_tree(h, delta)
        assert t is not None
        opt = optimal_ratio_bruteforce(h)
        assert opt.rho <= delta * delta
        assert ratio_cost(h, t) <= bound * opt.rho
        done += 1
