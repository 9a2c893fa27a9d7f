import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcratio import (
    SimilarityGraph,
    base_cost,
    build_bisection,
    cost_report,
    is_consistent,
    optimal_ratio_bruteforce,
    serialize_newick,
    total_cost,
    triplet_type,
)
from hcratio import detect
from hcratio.detect import (
    Bipartition,
    Claw,
    Partition,
    _components,
    _crossing_type2,
    case1_bipartition,
    case2_bipartition,
    detect_claw,
    minimal_valid_partition,
    valid_bisect,
    zero_base_cost_tree,
)

from helpers import (
    clique_graph,
    cycle_graph,
    graph_from,
    linked_stars,
    matching_graph,
    oracle_build_bisection,
    oracle_case2_bipartition,
    oracle_crossing_type2,
    oracle_detect_claw,
    oracle_is_ultrametric,
    oracle_minimal_valid_partition,
    oracle_valid_bisect,
    path_graph,
    star_graph,
    tie_heavy_graphs,
    triplet_relation,
    ultrametric,
    ultrametric_multi,
)


def sparse_graph(rng, n, wmax=2, keep=0.45):
    W = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    vals = rng.integers(0, wmax + 1, size=len(iu[0]))
    vals = vals * (rng.random(len(iu[0])) < keep)
    W[iu] = vals
    return graph_from(W + W.T)


def blocks_of(p):
    return [set(b) for b in p.blocks]


# -- partition dataclasses ----------------------------------------------------

def test_partition_sorted_and_indexed():
    p = Partition([{3, 2}, {0}, {1, 4}])
    assert p.blocks == ((0,), (1, 4), (2, 3))
    assert p.block_of.dtype == np.intp
    assert p.block_of.tolist() == [0, 1, 2, 2, 1]
    assert len(p) == 3


def test_partition_rejects_overlap_and_empty():
    with pytest.raises(ValueError, match="vertex 1 in two blocks"):
        Partition([{0, 1}, {1, 2}])
    with pytest.raises(ValueError, match="vertex 0 in two blocks"):
        Partition([[0, 0]])
    with pytest.raises(ValueError, match="empty block"):
        Partition([{0}, set()])


def test_partition_rejects_a_gap():
    # the blocks must cover 0..n-1, n their total size
    with pytest.raises(ValueError, match="gap"):
        Partition([{0}, {2}])
    with pytest.raises(ValueError, match="gap"):
        Partition([{-1}, {0}])


def test_bipartition_normalizes_and_validates():
    bp = Bipartition((2, 0), (1,))
    assert bp.a == (0, 2) and bp.b == (1,)
    with pytest.raises(ValueError):
        Bipartition((0,), (0, 1))
    with pytest.raises(ValueError):
        Bipartition((), (0,))


def test_claw_sorts_leaves():
    c = Claw(apex=5, leaves=(3, 1, 2), leg_weight=2)
    assert c.leaves == (1, 2, 3)


# -- minimal merge partition --------------------------------------------------

def test_partition_path4():
    p = minimal_valid_partition(path_graph(4))
    assert blocks_of(p) == [{0, 1}, {2, 3}]


def test_partition_path5_collapses():
    assert minimal_valid_partition(path_graph(5)) is None


def test_partition_clique_singletons():
    p = minimal_valid_partition(clique_graph(5))
    assert blocks_of(p) == [{i} for i in range(5)]


def test_partition_star_singletons():
    p = minimal_valid_partition(star_graph(4))
    assert blocks_of(p) == [{0}, {1}, {2}, {3}]


def test_partition_linked_stars_two_halves():
    p = minimal_valid_partition(linked_stars(8))
    assert blocks_of(p) == [{0, 1, 2, 3}, {4, 5, 6, 7}]


def test_partition_iterated_forced_merges():
    # one hub tied to everything it touches; merging 0,1 (forced by the
    # witness 3) then pulls the tied apex 0's partner 2 in as well
    g = graph_from([[0, 3, 3, 3],
                    [3, 0, 2, 0],
                    [3, 2, 0, 0],
                    [3, 0, 0, 0]])
    p = minimal_valid_partition(g)
    assert blocks_of(p) == [{0, 1, 2}, {3}]


def closure_partition(g):
    """Plain quadratic restatement of the merge rules, run to fixpoint."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    changed = True
    while changed:
        changed = False
        for i, j, k in combinations(range(g.n), 3):
            tt = triplet_type(g, i, j, k)
            if tt.is_type1:
                u, v = tt.max_pair
                if find(u) != find(v):
                    parent[find(u)] = find(v)
                    changed = True
            elif tt.is_type2:
                u, v = (x for x in (i, j, k) if x != tt.apex)
                if find(u) == find(v) != find(tt.apex):
                    parent[find(tt.apex)] = find(u)
                    changed = True
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(b) for b in groups.values())


def test_partition_matches_independent_closure():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(3, 8))
        g = sparse_graph(rng, n)
        want = closure_partition(g)
        p = minimal_valid_partition(g)
        if len(want) == 1:
            assert p is None
        else:
            assert [list(b) for b in p.blocks] == want


def naive_components(m, links):
    """Label of each of 0..m-1: each link gives both ends' groups the lesser
    label, so a group's label ends as its least member."""
    label = list(range(m))
    for a, b in links:
        ends = (label[a], label[b])
        label = [min(ends) if lab in ends else lab for lab in label]
    return label


def test_components_match_naive_relabelling():
    rng = np.random.default_rng(31)
    one = _components(1, [], [])
    assert one.dtype == np.intp and one.tolist() == [0]
    assert _components(3, np.array([], dtype=np.intp), []).tolist() == [0, 1, 2]
    assert _components(5, [4, 3], [3, 1]).tolist() == [0, 1, 2, 1, 1]
    for _ in range(200):
        m = int(rng.integers(1, 12))
        links = rng.integers(0, m, size=(int(rng.integers(0, 2 * m)), 2))
        got = _components(m, links[:, 0], links[:, 1])
        assert got.tolist() == naive_components(m, links.tolist())


def test_partition_is_fixpoint():
    # no heaviest-unique pair crosses blocks; no tied-apex triplet has its
    # bases together with the apex elsewhere
    rng = np.random.default_rng(11)
    for _ in range(80):
        n = int(rng.integers(3, 8))
        g = sparse_graph(rng, n)
        p = minimal_valid_partition(g)
        if p is None:
            continue
        bof = p.block_of
        for i, j, k in combinations(range(n), 3):
            tt = triplet_type(g, i, j, k)
            if tt.is_type1:
                u, v = tt.max_pair
                assert bof[u] == bof[v]
            elif tt.is_type2:
                u, v = (x for x in (i, j, k) if x != tt.apex)
                assert not (bof[u] == bof[v] != bof[tt.apex])


# -- claw detection -----------------------------------------------------------

def exhaustive_claw_exists(g, p):
    bof = p.block_of
    for quad in combinations(range(g.n), 4):
        if len({bof[v] for v in quad}) < 4:
            continue
        for apex in quad:
            xs = [v for v in quad if v != apex]
            legs = [g.weight(apex, x) for x in xs]
            if not (g.weights_equal(legs[0], legs[1])
                    and g.weights_equal(legs[0], legs[2])):
                continue
            leg = legs[0]
            mutual = [g.weight(a, b) for a, b in combinations(xs, 2)]
            if all(w < leg and not g.weights_equal(w, leg) for w in mutual):
                return True
    return False


def is_valid_claw(g, p, c):
    verts = (c.apex, *c.leaves)
    if len({p.block_of[v] for v in verts}) != 4:
        return False
    legs = [g.weight(c.apex, x) for x in c.leaves]
    if any(not g.weights_equal(w, c.leg_weight) for w in legs):
        return False
    mutual = [g.weight(a, b) for a, b in combinations(c.leaves, 2)]
    return all(w < c.leg_weight and not g.weights_equal(w, c.leg_weight)
               for w in mutual)


def test_claw_on_star():
    g = star_graph(4)
    p = minimal_valid_partition(g)
    c = detect_claw(g, p)
    assert c == Claw(apex=0, leaves=(1, 2, 3), leg_weight=1)


def test_no_claw_on_cycle4_or_clique():
    for g in (cycle_graph(4), clique_graph(5)):
        p = minimal_valid_partition(g)
        assert detect_claw(g, p) is None


def test_claw_witnessed_by_maximal_pair():
    # pair (0,1) is itself a tied maximum seen from witness 2, while 3 hangs
    # equal heavier legs over everything
    g = graph_from([[0, 2, 2, 3],
                    [2, 0, 1, 3],
                    [2, 1, 0, 3],
                    [3, 3, 3, 0]])
    p = minimal_valid_partition(g)
    assert len(p) == 4
    c = detect_claw(g, p)
    assert c == Claw(apex=3, leaves=(0, 1, 2), leg_weight=3)
    assert is_valid_claw(g, p, c)


def test_claw_from_two_tied_apexes_takes_heavier():
    # both 2 and 3 hang tied legs over (0,1); the heavier tie is the claw
    g = graph_from([[0, 1, 2, 3],
                    [1, 0, 2, 3],
                    [2, 2, 0, 3],
                    [3, 3, 3, 0]])
    p = minimal_valid_partition(g)
    assert len(p) == 4
    c = detect_claw(g, p)
    assert c == Claw(apex=3, leaves=(0, 1, 2), leg_weight=3)
    assert is_valid_claw(g, p, c)


def test_claw_wide_star_with_leaf_clique():
    # heavy star legs over a unit clique of leaves
    n = 6
    W = np.ones((n, n), dtype=np.int64)
    W[0, :] = W[:, 0] = 2
    np.fill_diagonal(W, 0)
    g = graph_from(W)
    p = minimal_valid_partition(g)
    c = detect_claw(g, p)
    assert c == Claw(apex=0, leaves=(1, 2, 3), leg_weight=2)
    assert is_valid_claw(g, p, c)


def test_claw_scan_agrees_with_definition():
    rng = np.random.default_rng(3)
    usable = 0
    for _ in range(300):
        n = int(rng.integers(4, 9))
        W = sparse_graph(rng, n).weights
        blocks = rng.integers(0, n, size=n)
        arbitrary = Partition([np.flatnonzero(blocks == b).tolist()
                               for b in np.unique(blocks)])
        for eps in (0, 1):
            g = graph_from(W, epsilon=eps)
            p = minimal_valid_partition(g)
            minimal = p is not None and len(p) >= 4
            usable += minimal and eps == 0
            for part in (p, arbitrary) if minimal else (arbitrary,):
                c = detect_claw(g, part)
                assert (c is None) == (not exhaustive_claw_exists(g, part))
                assert c is None or is_valid_claw(g, part, c)
    assert usable >= 20


def test_claw_whose_leaves_form_a_type1_triplet():
    # apex 0 ties every leaf at 2 over lighter leaf pairs 0, 1, 0, yet the
    # leaves form a Type-1 triplet with maximum (1, 3); a scan that needs
    # the third leaf to witness a leaf pair beyond Type-1 misses this claw
    g = graph_from([[0, 2, 2, 2],
                    [2, 0, 0, 1],
                    [2, 0, 0, 0],
                    [2, 1, 0, 0]])
    singletons = Partition([[v] for v in range(4)])
    assert detect_claw(g, singletons) == Claw(apex=0, leaves=(1, 2, 3),
                                              leg_weight=2)


def test_claw_search_is_fast():
    # vertices on a circle, weight 1 within distance k: no three leaves
    # within k of an apex lie more than k apart, so there is no claw
    n, k = 200, 30
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    g = graph_from(((np.minimum(d, n - d) <= k) & (d > 0)).astype(np.int64))
    singletons = Partition([[v] for v in range(n)])
    start = time.perf_counter()
    assert detect_claw(g, singletons) is None
    assert time.perf_counter() - start < 2.0


def test_no_claw_from_non_transitive_ties():
    # under epsilon 1 the leaves' mutual weight 0 ties the leg weight 1,
    # so apex 3 over leaves 0, 1, 2 is no claw, though legs 1, 1, 2 tie
    g = graph_from([[0, 0, 0, 1],
                    [0, 0, 0, 1],
                    [0, 0, 0, 2],
                    [1, 1, 2, 0]], epsilon=1)
    p = minimal_valid_partition(g)
    assert len(p) == 4
    assert detect_claw(g, p) is None
    assert not exhaustive_claw_exists(g, p)
    # over singleton blocks apex 1's legs to leaves 0, 2, 3 weigh 0, 3, 2:
    # the leg to the smallest leaf ties neither other leg
    g = graph_from([[0, 0, 1, 1],
                    [0, 0, 3, 2],
                    [1, 3, 0, 1],
                    [1, 2, 1, 0]], epsilon=1)
    singletons = Partition([[v] for v in range(4)])
    assert detect_claw(g, singletons) is None
    assert not exhaustive_claw_exists(g, singletons)
    # {0, 1, 2} is Type-2 under apex 0 (legs 2 and 3 tie, base 1 does not
    # tie 3), but its base 1 ties the leg weight 2, so leaf pair (1, 2) is
    # not light and apex 0 over leaves 1, 2, 3 is no claw
    g = graph_from([[0, 2, 3, 2],
                    [2, 0, 1, 0],
                    [3, 1, 0, 0],
                    [2, 0, 0, 0]], epsilon=1)
    assert detect_claw(g, singletons) is None
    assert not exhaustive_claw_exists(g, singletons)


@given(tie_heavy_graphs().filter(lambda g: g.epsilon > 0), st.data())
@settings(max_examples=150, deadline=None)
def test_claws_valid_under_tolerance(g, data):
    p = minimal_valid_partition(g)
    labels = data.draw(st.lists(st.integers(0, g.n - 1),
                                min_size=g.n, max_size=g.n))
    arbitrary = Partition([[v for v in range(g.n) if labels[v] == b]
                           for b in sorted(set(labels))])
    for part in (p, arbitrary) if p is not None else (arbitrary,):
        c = detect_claw(g, part)
        assert c is None or is_valid_claw(g, part, c)


# -- splitting ----------------------------------------------------------------

def test_case1_star_split():
    g = star_graph(4)
    p = minimal_valid_partition(g)
    bp = case1_bipartition(g, p)
    assert bp == Bipartition((1,), (0, 2, 3))


def test_case2_cycle4_split():
    g = cycle_graph(4)
    p = minimal_valid_partition(g)
    bp = case2_bipartition(g, p)
    assert bp == Bipartition((0, 1), (2, 3))


def test_case2_no_constraints_peels_lowest_block():
    g = clique_graph(5)
    p = minimal_valid_partition(g)
    bp = case2_bipartition(g, p)
    assert bp == Bipartition((0,), (1, 2, 3, 4))


@st.composite
def partitions_with_crossing_bases(draw):
    """A hand-built partition of 1-12 blocks and (apex, u, v) arrays whose
    three vertices sit in three distinct blocks, in any number, repeats
    included."""
    m = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    perm = draw(st.permutations(range(sum(sizes))))
    cuts = np.cumsum([0] + sizes).tolist()
    blocks = [perm[a:b] for a, b in zip(cuts, cuts[1:])]
    triples = []
    if m >= 3:
        picks = draw(st.lists(st.permutations(range(m)).map(lambda q: q[:3]),
                              max_size=2 * m))
        picks += draw(st.lists(st.sampled_from(picks), max_size=m)) \
            if picks else []
        for bs in picks:  # one vertex from each of the three blocks
            x, a, b = (draw(st.sampled_from(blocks[i])) for i in bs)
            triples.append((x, min(a, b), max(a, b)))
    cols = np.array(triples, dtype=np.intp).reshape(-1, 3)
    return Partition(blocks), (cols[:, 0], cols[:, 1], cols[:, 2])


def test_case2_colouring_small_cases():
    p = Partition([[v] for v in range(4)])
    triangle = (np.array([3, 3, 3]), np.array([0, 1, 0]), np.array([1, 2, 2]))
    path = (np.array([3, 3, 0]), np.array([0, 1, 1]), np.array([1, 2, 2]))
    with mock.patch.object(detect, "_crossing_type2", lambda g, p: triangle):
        assert case2_bipartition(None, p) is None
    with mock.patch.object(detect, "_crossing_type2", lambda g, p: path):
        # block 3 is isolated and takes colour 0, with the path's ends
        assert case2_bipartition(None, p) == Bipartition((0, 2, 3), (1,))


@given(partitions_with_crossing_bases())
@settings(max_examples=400, deadline=None)
def test_case2_colouring_matches_bfs_oracle(case):
    p, crossing = case

    def outcome(split):  # a lone block has no two-sided split: both raise
        try:
            return split(None, p)
        except ValueError as e:
            return str(e)

    # the graph is read only by _crossing_type2, which is replaced here
    with mock.patch.object(detect, "_crossing_type2", lambda g, p: crossing):
        assert outcome(case2_bipartition) == outcome(oracle_case2_bipartition)


def test_case2_output_respects_constraints():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 8))
        g = sparse_graph(rng, n)
        p = minimal_valid_partition(g)
        if p is None or detect_claw(g, p) is not None:
            continue
        bp = case2_bipartition(g, p)
        if bp is None:
            continue
        checked += 1
        side = {v: 0 for v in bp.a} | {v: 1 for v in bp.b}
        # blocks stay whole
        for b in p.blocks:
            assert len({side[v] for v in b}) == 1
        # bases of any tied-apex triplet over three blocks sit apart
        bof = p.block_of
        for i, j, k in combinations(range(n), 3):
            if len({bof[i], bof[j], bof[k]}) != 3:
                continue
            tt = triplet_type(g, i, j, k)
            if tt.is_type2:
                u, v = (x for x in (i, j, k) if x != tt.apex)
                assert side[u] != side[v]
    assert checked >= 20


def test_valid_bisect_scans_type2_once_per_working_set(monkeypatch):
    scans, sets = [], []
    type2_triplets, bisect = detect._type2_triplets, detect.valid_bisect

    def counted_scan(g):
        scans.append(g)
        return type2_triplets(g)

    def counted_bisect(g):
        sets.append(g)
        return bisect(g)

    monkeypatch.setattr(detect, "_type2_triplets", counted_scan)
    monkeypatch.setattr(detect, "valid_bisect", counted_bisect)
    rng = np.random.default_rng(41)
    # a claw split, a constraint split, a collapse, and random graphs
    graphs = [star_graph(6), cycle_graph(4), linked_stars(8), path_graph(5)]
    graphs += [sparse_graph(rng, 7) for _ in range(20)]
    for g in graphs:
        scans.clear()
        sets.clear()
        build_bisection(g)
        assert scans == [s for s in sets if s.n > 2]


def claw_graph(rng):
    """Four blocks, vertices in random order: an apex block tied at weight 2
    to three leaf blocks whose mutual weights are all 0 or all 1, weight 3
    inside a block, then up to two random weights redrawn; integer or
    float."""
    block = rng.permutation(np.repeat(np.arange(4), rng.integers(1, 4, size=4)))
    n = len(block)
    light = rng.integers(0, 2)
    W = np.zeros((n, n), dtype=np.int64)
    for u, v in combinations(range(n), 2):
        if block[u] == block[v]:
            w = 3
        elif 0 in (block[u], block[v]):
            w = 2
        else:
            w = light
        W[u, v] = W[v, u] = w
    for _ in range(rng.integers(0, 3)):
        u, v = rng.choice(n, size=2, replace=False)
        W[u, v] = W[v, u] = rng.integers(0, 4)
    return graph_from(W * 0.5 if rng.random() < 0.5 else W)


def bisect_against_claw_dispatch(g):
    """Run build_bisection(g), checking valid_bisect against the claw
    dispatch on every working set; return how many sets hold a claw."""
    claws = 0

    def checked(sub):
        nonlocal claws
        bp = valid_bisect(sub)
        assert bp == oracle_valid_bisect(sub)
        if sub.n > 2:
            p = minimal_valid_partition(sub)
            claws += p is not None and detect_claw(sub, p) is not None
        return bp

    with mock.patch.multiple("hcratio.detect", valid_bisect=checked,
                             _ultrametric_tree=lambda g: None):
        build_bisection(g)
    return claws


def test_valid_bisect_matches_claw_dispatch_on_claw_graphs():
    rng = np.random.default_rng(8)
    claws = sum(bisect_against_claw_dispatch(claw_graph(rng))
                for _ in range(500))
    assert claws >= 200


@given(tie_heavy_graphs())
@settings(max_examples=150, deadline=None)
def test_valid_bisect_matches_claw_dispatch_at_epsilon_0(g):
    bisect_against_claw_dispatch(SimilarityGraph(g.weights, epsilon=0.0))


def test_valid_bisect_two_vertices():
    assert valid_bisect(path_graph(2)) == Bipartition((0,), (1,))


def test_valid_bisect_too_small():
    with pytest.raises(ValueError):
        valid_bisect(graph_from([[0]]))


# -- zero base cost construction ----------------------------------------------

def test_zero_base_tree_matching_and_singletons():
    g = matching_graph(5, [(1, 2), (3, 4)])
    t = zero_base_cost_tree(g)
    assert t.to_nested() == ((0, (1, 2)), (3, 4))
    assert total_cost(g, t) == 0


def test_zero_base_tree_all_isolated():
    g = graph_from(np.zeros((4, 4)))
    t = zero_base_cost_tree(g)
    assert t.to_nested() == (((0, 1), 2), 3)


def test_zero_base_tree_rejects_wedge():
    assert zero_base_cost_tree(path_graph(3)) is None


# -- full detection -----------------------------------------------------------

def test_detect_path4_perfect():
    res = build_bisection(path_graph(4))
    assert res.perfect
    assert res.tree.to_nested() == ((0, 1), (2, 3))


def test_detect_path5_fails_at_top():
    res = build_bisection(path_graph(5))
    assert not res.perfect
    assert res.tree is None
    assert res.failed_on == frozenset(range(5))


def test_detect_star_perfect():
    g = star_graph(4)
    res = build_bisection(g)
    assert res.perfect
    assert total_cost(g, res.tree) == base_cost(g) == 3


def test_detect_cliques_perfect():
    for n in range(3, 8):
        g = clique_graph(n)
        res = build_bisection(g)
        assert res.perfect
        assert total_cost(g, res.tree) == base_cost(g)


def test_detect_linked_stars_perfect():
    g = linked_stars(8)
    res = build_bisection(g)
    assert res.perfect
    assert total_cost(g, res.tree) == base_cost(g) == 12


def test_detect_tied_hub_regression():
    # forced-merge chain must run to fixpoint before declaring failure
    g = graph_from([[0, 3, 3, 3],
                    [3, 0, 2, 0],
                    [3, 2, 0, 0],
                    [3, 0, 0, 0]])
    res = build_bisection(g)
    assert res.perfect
    assert res.tree.to_nested() == (((0, 1), 2), 3)
    assert total_cost(g, res.tree) == base_cost(g) == 11


def test_detect_zero_base_shortcut():
    g = matching_graph(4, [(0, 3)])
    res = build_bisection(g)
    assert res.perfect
    assert total_cost(g, res.tree) == 0


def test_detect_matches_bruteforce():
    rng = np.random.default_rng(5)
    perfect_count = 0
    for _ in range(120):
        n = int(rng.integers(3, 7))
        g = sparse_graph(rng, n, wmax=3, keep=0.7)
        res = build_bisection(g)
        opt = optimal_ratio_bruteforce(g)
        if res.perfect:
            perfect_count += 1
            assert opt.rho == Fraction(1) or base_cost(g) == 0
            assert total_cost(g, res.tree) == base_cost(g)
            assert is_consistent(g, res.tree)
        else:
            assert opt.rho != Fraction(1)
    assert perfect_count >= 20


def test_perfection_is_hereditary():
    rng = np.random.default_rng(17)
    shrunk = 0
    for _ in range(150):
        n = int(rng.integers(4, 8))
        g = sparse_graph(rng, n, wmax=3, keep=0.7)
        if not build_bisection(g).perfect:
            continue
        keep = sorted(rng.choice(n, size=n - 1, replace=False).tolist())
        sub = g.induced(keep)
        assert build_bisection(sub).perfect
        shrunk += 1
    assert shrunk >= 25


def test_detect_epsilon_tolerance():
    # jittered 4-cycle: exact comparison sees four one-sided maxima whose
    # forced merges swallow the whole graph; a 0.1 tolerance restores the
    # tied reading and the even split
    W = np.array([[0, 1.0, 0, 0.99],
                  [1.0, 0, 1.01, 0],
                  [0, 1.01, 0, 1.0],
                  [0.99, 0, 1.0, 0]])
    g_exact = graph_from(W)
    g_tol = graph_from(W, epsilon=0.1)
    assert minimal_valid_partition(g_exact) is None
    assert not build_bisection(g_exact).perfect
    res = build_bisection(g_tol)
    assert res.perfect
    assert res.tree.to_nested() == ((0, 1), (2, 3))


def assert_respects_triplets(g, t):
    """Each triplet merges as ``triplet_type`` reads it under g's epsilon:
    a Type-1 maximum first, a Type-2 base never first, and only a Type-3
    triplet simultaneously."""
    nested = t.to_nested()
    for i, j, k in combinations(range(g.n), 3):
        tt = triplet_type(g, i, j, k)
        rel = triplet_relation(nested, i, j, k)
        if tt.is_type1:
            assert rel[0] == "pair" and rel[1] == tt.max_pair, (i, j, k)
        elif tt.is_type2:
            assert rel[0] == "pair" and tt.apex in rel[1], (i, j, k)


@given(tie_heavy_graphs())
@settings(max_examples=200, deadline=None)
def test_perfect_trees_respect_every_triplet(g):
    res = build_bisection(g)
    if res.perfect:
        assert_respects_triplets(g, res.tree)
        if g.integral and g.epsilon == 0:
            assert cost_report(g, res.tree).consistent


def test_tolerance_odd_cycle_without_claw_peels_a_block():
    # under epsilon 1 apex 0 is Type-2 over every pair of 1, 2, 3, so the
    # constraints form a triangle; yet there is no claw, as the leaves'
    # mutual weight 1 ties the leg weight 2.  The claw dispatch therefore
    # 2-colours the triangle and gives up; peeling vertex 1 still splits.
    g = graph_from([[0, 2, 2, 3],
                    [2, 0, 0, 1],
                    [2, 0, 0, 1],
                    [3, 1, 1, 0]], epsilon=1)
    assert detect_claw(g, minimal_valid_partition(g)) is None
    assert oracle_valid_bisect(g) is None
    res = build_bisection(g)
    assert serialize_newick(res.tree) == "(((0,2),3),1);"
    assert_respects_triplets(g, res.tree)


# -- table scans against the per-triplet loop oracles ------------------------

def crossing_set(arrays):
    return set(zip(*(a.tolist() for a in arrays)))


@given(tie_heavy_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_scans_match_loop_oracles(g, data):
    p = minimal_valid_partition(g)
    want = oracle_minimal_valid_partition(g)
    assert getattr(p, "blocks", None) == getattr(want, "blocks", None)
    # an arbitrary partition too: Type-1 triplets may then cross blocks
    labels = data.draw(st.lists(st.integers(0, g.n - 1),
                                min_size=g.n, max_size=g.n))
    arbitrary = Partition([[v for v in range(g.n) if labels[v] == b]
                           for b in sorted(set(labels))])
    for part in (p, arbitrary) if p is not None else (arbitrary,):
        assert detect_claw(g, part) == oracle_detect_claw(g, part)
        assert (crossing_set(_crossing_type2(g, part))
                == crossing_set(oracle_crossing_type2(g, part)))


@given(tie_heavy_graphs())
@settings(max_examples=100, deadline=None)
def test_build_bisection_matches_loop_oracles(g):
    got, want = build_bisection(g), oracle_build_bisection(g)
    assert got.failed_on == want.failed_on
    assert (got.tree is None) == (want.tree is None)
    if got.tree is not None:
        assert got.tree.to_nested() == want.tree.to_nested()


def test_build_bisection_reports_last_stuck_side():
    def bisect(sub):  # six vertices split 3 + 3, and no side splits again
        return Bipartition((0, 1, 2), (3, 4, 5)) if sub.n == 6 else None

    # a path is not ultrametric, so it takes the per-set path
    with mock.patch("hcratio.detect.valid_bisect", bisect):
        res = build_bisection(path_graph(6))
    assert res.failed_on == frozenset({3, 4, 5})


# -- the ultrametric certificate ---------------------------------------------

def per_set_bisection(g):
    with mock.patch("hcratio.detect._ultrametric_tree", lambda g: None):
        return build_bisection(g)


def float_copy(W):
    """Non-integral image w * 0.7 + 0.05 with the same ties; zeros stay 0."""
    return np.where(W == 0, 0.0, W * 0.7 + 0.05)


def caterpillar(n):
    """The ultrametric W[i,j] = n - max(i, j)."""
    i = np.arange(n)
    W = n - np.maximum.outer(i, i)
    np.fill_diagonal(W, 0)
    return W


def parity_caterpillar(n):
    """Consistent with the caterpillar tree, yet not ultrametric: W[i,k]
    and W[j,k] differ when i and j differ in parity."""
    i = np.arange(n)
    W = 2 * (n - np.maximum.outer(i, i)) + np.minimum.outer(i, i) % 2
    np.fill_diagonal(W, 0)
    return W


@st.composite
def ultrametrics(draw):
    """Binary ``helpers.ultrametric`` graphs, or trees of arity 2-4 whose
    root level may be 0 and whose levels step by 1 or 2, so unrelated
    subtrees often share a level; integer weights or their float copies."""
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        W = ultrametric(rng, n)
    else:
        W = ultrametric_multi(rng, n, root_level=draw(st.integers(0, 2)),
                              steps=draw(st.sampled_from([(1,), (1, 2)])))
    return graph_from(float_copy(W) if draw(st.booleans()) else W)


@given(ultrametrics())
@settings(max_examples=200, deadline=None)
def test_ultrametric_tree_matches_per_set_path(g):
    got, want = build_bisection(g), per_set_bisection(g)
    assert want.perfect
    assert serialize_newick(got.tree) == serialize_newick(want.tree)
    assert detect._ultrametric_tree(g) is not None


def test_ultrametric_graphs_never_reach_the_per_set_path():
    def fail(sub):
        raise AssertionError("valid_bisect called")

    rng = np.random.default_rng(23)
    graphs = [caterpillar(200), ultrametric(rng, 200),
              ultrametric_multi(rng, 200, root_level=0, steps=(1, 2))]
    graphs.append(float_copy(graphs[-1]))
    with mock.patch("hcratio.detect.valid_bisect", fail):
        results = [build_bisection(graph_from(W)) for W in graphs]
    assert all(res.perfect for res in results)
    # the caterpillar tree ((..((0,1),2)..),199)
    want = "(" * 199 + "0" + "".join(f",{i})" for i in range(1, 200)) + ";"
    assert serialize_newick(results[0].tree) == want
    for W, res in zip(graphs[:3], results):
        g = graph_from(W)
        assert total_cost(g, res.tree) == base_cost(g)


@given(tie_heavy_graphs())
@settings(max_examples=200, deadline=None)
def test_ultrametric_tree_exactly_on_ultrametric_graphs(g):
    got = detect._ultrametric_tree(g)
    if g.epsilon > 0:
        assert got is None
        return
    assert (got is None) == (not oracle_is_ultrametric(g))
    if got is not None:  # zero base cost still takes the matching tree
        assert serialize_newick(build_bisection(g).tree) == serialize_newick(
            per_set_bisection(g).tree)


def test_ultrametric_tree_rejects_claws_perturbations_and_parity():
    rng = np.random.default_rng(31)
    graphs = [claw_graph(rng) for _ in range(100)]
    for _ in range(100):
        W = ultrametric_multi(rng, int(rng.integers(3, 12)), 1, (1, 2))
        k = np.triu(rng.integers(1, 3, size=W.shape), 1)
        graphs.append(graph_from(W * (k + k.T)))
    graphs += [graph_from(parity_caterpillar(n)) for n in (4, 5, 30)]
    rejected = 0
    for g in graphs:
        got = detect._ultrametric_tree(g)
        assert (got is None) == (not oracle_is_ultrametric(g))
        rejected += got is None
    assert rejected >= 150
    assert build_bisection(graph_from(parity_caterpillar(30))).perfect
    # the same weights under a tolerance never take the shortcut
    for W in (caterpillar(10), ultrametric(rng, 10)):
        assert detect._ultrametric_tree(graph_from(W, epsilon=0.5)) is None


def test_ultrametric_tree_compares_int64_weights_exactly():
    # 2^53 + 1 rounds to 2^53 as a float; max weight x 4^3 stays below 2^63
    a, b = 2**53, 2**53 + 1
    # every triplet through vertex 0 passes, but {1, 2, 3} weighs a, b, b
    g = graph_from([[0, a, a, a], [a, 0, a, b], [a, a, 0, b], [a, b, b, 0]])
    assert g.integral and not oracle_is_ultrametric(g)
    assert detect._ultrametric_tree(g) is None
    g = graph_from([[0, b, a, a], [b, 0, a, a], [a, a, 0, a], [a, a, a, 0]])
    assert serialize_newick(detect._ultrametric_tree(g)) == "((0,1),(2,3));"
    assert serialize_newick(per_set_bisection(g).tree) == "((0,1),(2,3));"
