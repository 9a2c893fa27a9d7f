from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcratio import (
    HcTree,
    InvalidVertex,
    LeafMismatch,
    ParseError,
    TripletRelation,
    binarize,
    parse_newick,
    serialize_newick,
)
from hcratio.tree import _split_top_down

from helpers import (
    leaves_of,
    pair_cluster_size,
    random_nested,
    random_nested_multi,
    triplet_relation,
)


def test_from_nested_basic():
    t = HcTree.from_nested(((0, 1), (2, 3)))
    assert t.n_leaves == 4
    assert t.vertices == (0, 1, 2, 3)
    assert t.is_binary
    assert t.to_nested() == ((0, 1), (2, 3))


def test_children_are_canonically_ordered():
    # same tree written with shuffled child order serializes identically
    a = HcTree.from_nested(((3, 2), (1, 0)))
    b = HcTree.from_nested(((0, 1), (2, 3)))
    assert a == b
    assert serialize_newick(a) == serialize_newick(b) == "((0,1),(2,3));"


def test_multifurcating_nodes_allowed():
    t = HcTree.from_nested((0, 1, 2))
    assert not t.is_binary
    assert t.leaf_count(t.root) == 3


def test_single_leaf_tree():
    t = HcTree.from_nested(5)
    assert t.n_leaves == 1 and t.vertices == (5,)


def test_duplicate_leaves_rejected():
    with pytest.raises(LeafMismatch):
        HcTree.from_nested(((0, 1), (1, 2)))


def test_singleton_internal_node_rejected():
    with pytest.raises(LeafMismatch):
        HcTree.from_nested(((0,), 1))


def test_lca_and_leaf_counts():
    t = HcTree.from_nested((((0, 1), 2), (3, 4)))
    assert t.leaf_count(t.lca(0, 1)) == 2
    assert t.leaf_count(t.lca(0, 2)) == 3
    assert t.leaf_count(t.lca(0, 3)) == 5
    assert t.leaf_count(t.lca(3, 4)) == 2
    assert t.lca(2, 2) == t.node_of(2)


def test_lca_unknown_vertex():
    t = HcTree.from_nested((0, 1))
    with pytest.raises(InvalidVertex):
        t.lca(0, 9)


def test_merge_relation_pairs_and_outsiders():
    t = HcTree.from_nested((((0, 1), 2), (3, 4)))
    r = t.merge_relation(0, 1, 2)
    assert r.pair == (0, 1) and r.outsider == 2
    r = t.merge_relation(2, 3, 0)
    assert r.pair == (0, 2) and r.outsider == 3
    assert t.merge_relation(0, 3, 4).pair == (3, 4)


def test_merge_relation_simultaneous():
    t = HcTree.from_nested((0, 1, 2))
    assert t.merge_relation(0, 1, 2).is_simultaneous
    # three leaves hanging off the same node deeper down
    t2 = HcTree.from_nested(((1, 2, 3), 0))
    assert t2.merge_relation(1, 2, 3).is_simultaneous
    assert not t2.merge_relation(0, 1, 2).is_simultaneous


def test_merge_relation_requires_distinct():
    t = HcTree.from_nested((0, 1, 2))
    with pytest.raises(InvalidVertex):
        t.merge_relation(0, 0, 1)


def test_triplet_relation_factories():
    assert TripletRelation.merged_first(2, 1, 0).pair == (1, 2)
    assert TripletRelation.simultaneous().is_simultaneous


def test_lca_leaf_counts_matrix():
    t = HcTree.from_nested((((0, 1), 2), (3, 4)))
    M = t.lca_leaf_counts()
    nested = (((0, 1), 2), (3, 4))
    for i in range(5):
        for j in range(5):
            if i != j:
                assert M[i, j] == pair_cluster_size(nested, i, j)


def caterpillar(rng, n):
    """A spine of n - 1 nodes over shuffled leaves; the spine child comes
    first or last, and a node now and then takes a second leaf."""
    labels = rng.permutation(n).tolist()
    nested = labels.pop()
    while labels:
        k = 2 if len(labels) >= 2 and rng.random() < 0.2 else 1
        leaves = [labels.pop() for _ in range(k)]
        nested = tuple([nested] + leaves if rng.random() < 0.5
                       else leaves + [nested])
    return nested


@pytest.mark.parametrize("seed", range(6))
def test_lca_leaf_counts_on_caterpillars(seed):
    rng = np.random.default_rng(seed)
    nested = caterpillar(rng, 30)
    M = HcTree.from_nested(nested).lca_leaf_counts()
    for i, j in combinations(range(30), 2):
        assert M[i, j] == M[j, i] == pair_cluster_size(nested, i, j)


@pytest.mark.parametrize("leaf_first", [False, True])
def test_lca_leaf_counts_on_a_deep_caterpillar(leaf_first):
    # spine (((0, 1), 2), ...): the LCA of i < j holds leaves 0..j
    n = 2000
    nested = 0
    for v in range(1, n):
        nested = (v, nested) if leaf_first else (nested, v)
    M = HcTree.from_nested(nested).lca_leaf_counts()
    idx = np.arange(n)
    want = np.maximum.outer(idx, idx) + 1
    np.fill_diagonal(want, 1)
    assert M.dtype == np.int64 and np.array_equal(M, want)


def test_order_kept_from_before_canonicalization_gives_same_folds():
    # a tree keeps the DFS order it was built with; rebuilding one from its
    # canonical child lists stores the canonical preorder instead, and
    # every fold must read the same either way
    reordered = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        for nested in (random_nested_multi(rng, n), caterpillar(rng, n)):
            t = HcTree.from_nested(nested)
            r = HcTree(t._parent, t._children, t._leaf_vertex, t.root)
            reordered += t._order != r._order
            assert np.array_equal(t.lca_leaf_counts(), r.lca_leaf_counts())
            assert t.to_nested() == r.to_nested()
            assert serialize_newick(t) == serialize_newick(r)
    assert reordered > 20


def test_deep_caterpillar_does_not_recurse():
    nested = 0
    for v in range(1, 3000):
        nested = (nested, v)
    t = HcTree.from_nested(nested)
    assert t.n_leaves == 3000
    assert t.leaf_count(t.lca(0, 2999)) == 3000
    assert parse_newick(serialize_newick(t)) == t
    assert binarize(t) == t


def subtrees(nested):
    """Every subtree of a nested tuple tree, root first."""
    out, todo = [], [nested]
    while todo:
        node = todo.pop()
        out.append(node)
        if isinstance(node, tuple):
            todo.extend(node)
    return out


@given(st.integers(1, 12), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_folds_on_multifurcating_trees(n, seed):
    nested = random_nested_multi(np.random.default_rng(seed), n)
    t = HcTree.from_nested(nested)

    M = t.lca_leaf_counts()
    assert all(M[i, i] == 1 for i in range(n))
    for i, j in combinations(range(n), 2):
        assert M[i, j] == M[j, i] == pair_cluster_size(nested, i, j)

    # to_nested: the same clusters, children ordered by smallest leaf
    canon = t.to_nested()
    assert ({frozenset(leaves_of(s)) for s in subtrees(canon)}
            == {frozenset(leaves_of(s)) for s in subtrees(nested)})
    for node in subtrees(canon):
        if isinstance(node, tuple):
            firsts = [min(leaves_of(c)) for c in node]
            assert firsts == sorted(firsts)

    b = binarize(t)
    assert b.is_binary and b.vertices == t.vertices
    for i, j, k in combinations(range(n), 3):
        rel = triplet_relation(nested, i, j, k)
        if rel[0] == "pair":
            assert b.merge_relation(i, j, k) == \
                TripletRelation.merged_first(*rel[1], rel[2])

    labels = [f"x{v}" for v in np.random.default_rng(seed).permutation(n)]
    assert parse_newick(serialize_newick(t, labels), labels) == t


# -- newick ------------------------------------------------------------------

def test_parse_serialize_roundtrip():
    s = "((0,1),(2,(3,4)));"
    t = parse_newick(s)
    assert serialize_newick(t) == s


def test_parse_branch_lengths_discarded():
    t = parse_newick("((a:0.1,b:0.2):0.5,c:1);", labels=["a", "b", "c"])
    assert t.to_nested() == ((0, 1), 2)


def test_parse_internal_labels_discarded():
    t = parse_newick("((a,b)x,c)root;", labels=["a", "b", "c"])
    assert t.to_nested() == ((0, 1), 2)


def test_parse_numeric_names_sort_numerically():
    t = parse_newick("((10,2),1);")
    # 1 -> index 0, 2 -> index 1, 10 -> index 2; canonical order puts 0 first
    assert t.to_nested() == (0, (1, 2))


def test_parse_alpha_names_sort_lexicographically():
    t = parse_newick("((b,c),a);")
    assert t.to_nested() == (0, (1, 2))


def test_parse_with_explicit_labels():
    t = parse_newick("((x,y),z);", labels=["z", "y", "x"])
    # z -> 0, y -> 1, x -> 2, so (x,y) is the {1,2} cluster
    assert t.to_nested() == (0, (1, 2))


def test_parse_unknown_label_rejected():
    with pytest.raises(LeafMismatch):
        parse_newick("(a,q);", labels=["a", "b"])


def test_parse_duplicate_leaf_rejected():
    with pytest.raises(LeafMismatch):
        parse_newick("(a,(a,b));")


@pytest.mark.parametrize("bad", [
    "", ";", "(a,b)", "(a,b;", "(a);", "a,b;", "((a,b);", "(a,,b);",
    "(a,b)); junk",
    # a second item after the root has closed
    "(a,b)(c,d);", "a(b,c);", "(a,b)c(d,e);",
    # a group inside a group without a ','
    "(a(b,c));", "((a,b)(c,d));",
])
def test_parse_malformed(bad):
    with pytest.raises((ParseError, LeafMismatch)):
        parse_newick(bad)


def test_serialize_with_labels():
    t = HcTree.from_nested((2, (0, 1)))
    assert serialize_newick(t, labels=["x", "y", "z"]) == "((x,y),z);"


# -- binarize ----------------------------------------------------------------

def test_binarize_left_fold():
    t = binarize(HcTree.from_nested((0, 1, 2, 3)))
    assert t.to_nested() == (((0, 1), 2), 3)
    assert t.is_binary


def test_binarize_noop_on_binary():
    t = HcTree.from_nested(((0, 1), (2, 3)))
    assert binarize(t) == t


def test_binarize_preserves_merged_first_relations():
    t = HcTree.from_nested(((0, 1), 2, (3, 4)))
    b = binarize(t)
    for (i, j, k) in [(0, 1, 2), (0, 1, 3), (3, 4, 0), (3, 4, 2)]:
        r = t.merge_relation(i, j, k)
        assert b.merge_relation(i, j, k) == r


@given(st.integers(2, 9), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_trees_roundtrip_and_match_oracle(n, seed):
    rng = np.random.default_rng(seed)
    nested = random_nested(rng, n)
    t = HcTree.from_nested(nested)
    assert t.vertices == tuple(range(n))
    assert parse_newick(serialize_newick(t)) == t
    # merge relations agree with the nested-structure oracle
    if n >= 3:
        trips = [(0, 1, 2), (0, 1, n - 1), (0, n - 2, n - 1)]
        for (i, j, k) in {t3 for t3 in trips if len(set(t3)) == 3}:
            rel = t.merge_relation(i, j, k)
            orel = triplet_relation(nested, i, j, k)
            if orel[0] == "simul":
                assert rel.is_simultaneous
            else:
                assert rel.pair == orel[1] and rel.outsider == orel[2]


def test_split_top_down_builds_deep_caterpillar():
    n = 5000
    tree, stuck = _split_top_down(range(n), lambda verts: (verts[:1], verts[1:]))
    assert stuck is None
    spine = n - 1
    for v in reversed(range(n - 1)):
        spine = (v, spine)
    assert tree == HcTree.from_nested(spine)


def test_split_top_down_reports_last_stuck_child():
    def split(verts):
        return ((0, 1, 2), (3, 4, 5)) if len(verts) == 6 else None

    assert _split_top_down(range(6), split) == (None, (3, 4, 5))
