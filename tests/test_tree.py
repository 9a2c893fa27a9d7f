from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcratio import (
    HcTree,
    LeafMismatch,
    ParseError,
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
    assert t.n_leaves == 3


def test_single_leaf_tree():
    t = HcTree.from_nested(5)
    assert t.n_leaves == 1 and t.vertices == (5,)


def test_duplicate_leaves_rejected():
    with pytest.raises(LeafMismatch):
        HcTree.from_nested(((0, 1), (1, 2)))


def test_singleton_internal_node_rejected():
    with pytest.raises(LeafMismatch):
        HcTree.from_nested(((0,), 1))


# raw (children, leaf_vertex) node tables, rooted at node 0, as
# _split_top_down hands them to the constructor
@pytest.mark.parametrize("children, leaf_vertex, message", [
    ([[1, 2], [], []], [None, 0, None], "fewer than 2 children"),
    ([[1, 2], [], [3], []], [None, 0, None, 1], "fewer than 2 children"),
    ([[1], []], [None, 0], "fewer than 2 children"),
    ([[1, 2], [], []], [None, 0, 0], "leaf vertex 0 appears twice"),
], ids=["no-child", "one-child", "one-child-root", "leaf-twice"])
def test_raw_node_table_rejected(children, leaf_vertex, message):
    with pytest.raises(LeafMismatch, match=message):
        HcTree(children, leaf_vertex, 0)


@pytest.mark.parametrize("split, message", [
    (lambda verts: (), "fewer than 2 children"),
    (lambda verts: ((verts[0],), (verts[0],)), "appears twice"),
], ids=["no-part", "repeated-vertex"])
def test_split_top_down_rejects_bad_splits(split, message):
    with pytest.raises(LeafMismatch, match=message):
        _split_top_down(range(3), split)


def test_lca_and_leaf_counts():
    M = HcTree.from_nested((((0, 1), 2), (3, 4))).lca_leaf_counts()
    assert (M[0, 1], M[0, 2], M[0, 3], M[3, 4], M[2, 2]) == (2, 3, 5, 2, 1)


def test_lca_unknown_vertex():
    # the matrix is indexed by vertex, so the leaves must be 0..n-1
    t = HcTree.from_nested((0, 9))
    with pytest.raises(LeafMismatch):
        t.lca_leaf_counts()


def test_merge_relation_pairs_and_outsiders():
    nested = HcTree.from_nested((((0, 1), 2), (3, 4))).to_nested()
    assert triplet_relation(nested, 0, 1, 2) == ("pair", (0, 1), 2)
    assert triplet_relation(nested, 2, 3, 0) == ("pair", (0, 2), 3)
    assert triplet_relation(nested, 0, 3, 4) == ("pair", (3, 4), 0)


def test_merge_relation_simultaneous():
    nested = HcTree.from_nested((0, 1, 2)).to_nested()
    assert triplet_relation(nested, 0, 1, 2) == ("simul",)
    # three leaves hanging off the same node deeper down
    nested = HcTree.from_nested(((1, 2, 3), 0)).to_nested()
    assert triplet_relation(nested, 1, 2, 3) == ("simul",)
    assert triplet_relation(nested, 0, 1, 2) == ("pair", (1, 2), 0)


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
            r = HcTree(t._children, t._leaf_vertex, t.root)
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
    binary = b.to_nested()
    for i, j, k in combinations(range(n), 3):
        rel = triplet_relation(nested, i, j, k)
        if rel[0] == "pair":
            assert triplet_relation(binary, i, j, k) == rel

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


def test_quoted_names_round_trip():
    labels = ["a(b", "it's", "x y", "p:1", "q;r,s", "", "plain"]
    t = HcTree.from_nested(((0, 6), ((1, 2), (3, (4, 5)))))
    text = serialize_newick(t, labels)
    assert text == "(('a(b',plain),(('it''s','x y'),('p:1',('q;r,s',''))));"
    assert parse_newick(text, labels) == t
    # quoted punctuation is a name, not structure; lengths and labels still drop
    t = parse_newick("(('(':0.5,''''),')')'x';", labels=["(", "'", ")"])
    assert t.to_nested() == ((0, 1), 2)


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
    b = binarize(t).to_nested()
    for (i, j, k) in [(0, 1, 2), (0, 1, 3), (3, 4, 0), (3, 4, 2)]:
        r = triplet_relation(t.to_nested(), i, j, k)
        assert r[0] == "pair" and triplet_relation(b, i, j, k) == r


@given(st.integers(2, 9), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_trees_roundtrip_and_match_oracle(n, seed):
    rng = np.random.default_rng(seed)
    nested = random_nested(rng, n)
    t = HcTree.from_nested(nested)
    assert t.vertices == tuple(range(n))
    assert parse_newick(serialize_newick(t)) == t
    # the canonical tree merges every triplet as the input does
    canon = t.to_nested()
    for i, j, k in combinations(range(n), 3):
        assert triplet_relation(canon, i, j, k) == \
            triplet_relation(nested, i, j, k)


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
