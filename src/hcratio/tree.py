"""Rooted clustering trees: LCA queries, merge relations, Newick, binarize.

Leaves carry vertex ids (arbitrary ints, usually 0..n-1).  Children are kept
in canonical order — ascending smallest descendant leaf — so equal trees have
equal serializations.  All traversals are iterative: deep caterpillars must
not hit the interpreter recursion limit.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidVertex, LeafMismatch, ParseError


@dataclass(frozen=True)
class TripletRelation:
    """Merge order of three leaves: one pair first, or all simultaneously."""

    pair: Optional[tuple[int, int]] = None
    outsider: Optional[int] = None

    @classmethod
    def merged_first(cls, a: int, b: int, outsider: int) -> "TripletRelation":
        return cls(pair=(min(a, b), max(a, b)), outsider=outsider)

    @classmethod
    def simultaneous(cls) -> "TripletRelation":
        return cls()

    @property
    def is_simultaneous(self) -> bool:
        return self.pair is None


class HcTree:
    """Immutable rooted tree whose leaves are vertex ids.

    Internal nodes have >= 2 children (a single-leaf tree is just its leaf).
    Build one with :meth:`from_nested` from nested tuples/lists of ints, e.g.
    ``HcTree.from_nested(((0, 1), (2, 3)))``.
    """

    __slots__ = ("_parent", "_children", "_leaf_vertex", "_order", "_depth",
                 "_leaf_count", "_node_of", "root", "vertices", "n_leaves")

    def __init__(self, parent, children, leaf_vertex, root):
        self._parent = parent
        self._children = children
        self._leaf_vertex = leaf_vertex
        self.root = root
        self._node_of = {}
        for u, v in enumerate(leaf_vertex):
            if v is not None:
                if v in self._node_of:
                    raise LeafMismatch(f"leaf vertex {v} appears twice")
                self._node_of[v] = u
        self.vertices = tuple(sorted(self._node_of))
        self.n_leaves = len(self.vertices)

        # DFS preorder, kept for every fold: reordering child lists
        # (``_canonicalize``) leaves it a preorder, so parents still come
        # before children and each subtree stays one contiguous run
        order, stack = [], [root]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(children[u]))
        if len(order) != len(parent):
            raise LeafMismatch("disconnected or cyclic node table")
        self._order = order

        self._depth = [0] * len(parent)
        for u in order:
            p = parent[u]
            self._depth[u] = 0 if p is None else self._depth[p] + 1

        def count(kids):
            if len(kids) < 2:
                raise LeafMismatch("internal node with fewer than 2 children")
            return sum(kids)

        self._leaf_count = self._fold(lambda v: 1, count)

    def _fold(self, leaf, node) -> list:
        """Per-node-id values, children first: ``leaf(vertex)`` at each leaf,
        ``node([child values])`` at each internal node."""
        out: list = [None] * len(self._parent)
        for u in reversed(self._order):
            v = self._leaf_vertex[u]
            out[u] = leaf(v) if v is not None else \
                node([out[c] for c in self._children[u]])
        return out

    # -- construction ------------------------------------------------------

    @classmethod
    def from_nested(cls, nested) -> "HcTree":
        """Build from nested tuples/lists of leaf ids; ints are leaves."""
        parent, children, leaf_vertex = [], [], []

        def new_node():
            parent.append(None)
            children.append([])
            leaf_vertex.append(None)
            return len(parent) - 1

        root = new_node()
        # (node_id, shape); lists/tuples expand, ints become leaves
        stack = [(root, nested)]
        while stack:
            u, shape = stack.pop()
            if isinstance(shape, (int, np.integer)):
                leaf_vertex[u] = int(shape)
                continue
            if not isinstance(shape, (tuple, list)) or len(shape) < 2:
                raise LeafMismatch(f"bad tree node: {shape!r}")
            for child_shape in shape:
                c = new_node()
                parent[c] = u
                children[u].append(c)
                stack.append((c, child_shape))

        tree = cls(parent, children, leaf_vertex, root)
        tree._canonicalize()
        return tree

    def _canonicalize(self) -> None:
        """Sort every child list by smallest descendant leaf id."""
        min_leaf = self._fold(lambda v: v, min)
        for kids in self._children:
            kids.sort(key=min_leaf.__getitem__)

    def to_nested(self):
        """Inverse of from_nested (tuples; a lone leaf is a bare int)."""
        return self._fold(lambda v: v, tuple)[self.root]

    # -- queries -----------------------------------------------------------

    def children(self, node: int) -> tuple[int, ...]:
        return tuple(self._children[node])

    def leaf_count(self, node: int) -> int:
        return self._leaf_count[node]

    def is_leaf(self, node: int) -> bool:
        return self._leaf_vertex[node] is not None

    @property
    def is_binary(self) -> bool:
        return all(len(k) in (0, 2) for k in self._children)

    def node_of(self, vertex: int) -> int:
        try:
            return self._node_of[vertex]
        except KeyError:
            raise InvalidVertex(f"no leaf for vertex {vertex}") from None

    def lca(self, i: int, j: int) -> int:
        """Deepest node ancestral to both leaves (i == j gives the leaf)."""
        a, b = self.node_of(i), self.node_of(j)
        da, db = self._depth[a], self._depth[b]
        while da > db:
            a = self._parent[a]
            da -= 1
        while db > da:
            b = self._parent[b]
            db -= 1
        while a != b:
            a = self._parent[a]
            b = self._parent[b]
        return a

    def merge_relation(self, i: int, j: int, k: int) -> TripletRelation:
        """Which of {i,j|k}, {i,k|j}, {j,k|i}, {i|j|k} holds in this tree."""
        if len({i, j, k}) != 3:
            raise InvalidVertex(f"need three distinct vertices, got {(i, j, k)}")
        cand = ((self._depth[self.lca(i, j)], (i, j), k),
                (self._depth[self.lca(i, k)], (i, k), j),
                (self._depth[self.lca(j, k)], (j, k), i))
        top = max(d for d, _, _ in cand)
        deepest = [(pair, out) for d, pair, out in cand if d == top]
        if len(deepest) == 3:
            return TripletRelation.simultaneous()
        # ancestors of a leaf form a chain, so exactly one LCA is strictly deepest
        pair, out = deepest[0]
        return TripletRelation.merged_first(pair[0], pair[1], out)

    def lca_leaf_counts(self) -> np.ndarray:
        """Matrix M with M[i, j] = leaf count under lca(i, j), for vertices 0..n-1.

        Requires the leaf set to be exactly 0..n-1.  Diagonal is set to 1
        (the leaf itself).  O(n^2) total: the fold visits each subtree's
        leaves one after another, so every node covers a range of that
        order, and each pair of its children fills two slice blocks.
        """
        n = self.n_leaves
        if self.vertices != tuple(range(n)):
            raise LeafMismatch("lca_leaf_counts needs leaves 0..n-1")
        P = np.ones((n, n), dtype=np.int64)  # indexed by position in `order`
        order = []

        def leaf(v):
            order.append(v)
            return len(order) - 1, len(order)

        def blocks(spans):
            # every pair split between two children has this node as its LCA
            lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)
            for a, (la, ha) in enumerate(spans):
                for lb, hb in spans[a + 1:]:
                    P[la:ha, lb:hb] = hi - lo
                    P[lb:hb, la:ha] = hi - lo
            return lo, hi

        self._fold(leaf, blocks)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        return P[np.ix_(rank, rank)]

    # -- comparisons & display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HcTree):
            return NotImplemented
        # canonical newick is flat text, safe for arbitrarily deep trees
        # (nested-tuple comparison would blow the recursion limit)
        return serialize_newick(self) == serialize_newick(other)

    def __hash__(self):
        return hash(serialize_newick(self))

    def __repr__(self) -> str:
        return f"HcTree({serialize_newick(self)!r})"


def binarize(t: HcTree) -> HcTree:
    """Resolve every multifurcation left-to-right over the ordered child list.

    Children (c1, c2, ..., ck) become (((c1, c2), c3), ..., ck).  Every
    pair-merged-first relation of the input is preserved; simultaneous
    triplets acquire a deterministic resolution.
    """
    nested = t._fold(lambda v: v, lambda parts: reduce(lambda a, b: (a, b), parts))
    return HcTree.from_nested(nested[t.root])


def _split_top_down(vertices, split):
    """Tree built by splitting vertex sets top-down, or the set that stuck.

    ``split(verts)`` returns the child vertex tuples of a set of two or more
    vertices, or None when it cannot be split; single vertices are leaves.
    Returns ``(tree, None)`` or ``(None, stuck_verts)``.  Children are
    expanded last to first, so the set reported is the first stuck one in
    that order.  Iterative, so deep splits do not hit the recursion limit.
    """
    sets = [tuple(vertices)]
    parent: list = [None]
    children: list = [[]]
    stack = [0]
    while stack:
        i = stack.pop()
        if len(sets[i]) == 1:
            continue
        parts = split(sets[i])
        if parts is None:
            return None, sets[i]
        children[i] = list(range(len(sets), len(sets) + len(parts)))
        sets.extend(parts)
        parent.extend([i] * len(parts))
        children.extend([] for _ in parts)
        stack.extend(children[i])
    leaf_vertex = [int(s[0]) if len(s) == 1 else None for s in sets]
    tree = HcTree(parent, children, leaf_vertex, 0)
    tree._canonicalize()
    return tree, None


_TOKEN = re.compile(r"\s*([(),;]|[^\s(),;:]+|:[^\s(),;]*)")


def parse_newick(text: str, labels: Optional[Sequence[str]] = None) -> HcTree:
    """Parse a Newick subset: names, parentheses, commas, ';' terminator.

    Branch lengths (':0.1') and internal-node labels are accepted and
    discarded.  With ``labels``, leaf names map to their index in it (unknown
    name -> LeafMismatch).  Without, names get indices in sorted order —
    numeric when every name is an integer, lexicographic otherwise.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        tokens.append(m.group(1))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unreadable trailing input {text[pos:]!r}")
    # strip branch lengths; they start with ':'
    tokens = [tok for tok in tokens if not tok.startswith(":")]
    if not tokens:
        raise ParseError("empty tree text")

    stack: list[list] = []  # open groups, innermost last
    top: list = []  # the root, once it is complete
    slots = []  # (group, position) of every leaf name
    expect_item = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == ",":
            if not stack or expect_item:
                raise ParseError("misplaced ','")
            expect_item = True
        elif tok == ")":
            if not stack or expect_item or len(stack[-1]) < 2:
                raise ParseError("malformed group before ')'")
            closed = stack.pop()
            # optional internal label directly after ')'
            if i + 1 < len(tokens) and tokens[i + 1] not in "(),;":
                i += 1
            (stack[-1] if stack else top).append(closed)
            expect_item = False
        elif tok == ";":
            if stack or not top:
                raise ParseError("';' before tree is complete")
            if i + 1 != len(tokens):
                raise ParseError("text after ';'")
            break
        else:  # '(' or a name: the next item of its group, or the root
            if not expect_item:
                raise ParseError(f"missing ',' before {tok!r}" if stack else
                                 f"unexpected {tok!r} after the root")
            if tok == "(":
                stack.append([])
            else:
                group = stack[-1] if stack else top
                slots.append((group, len(group)))
                group.append(tok)
                expect_item = False
        i += 1
    else:
        raise ParseError("missing ';' terminator")

    names = [group[pos] for group, pos in slots]
    dup = sorted(x for x, k in Counter(names).items() if k > 1)
    if dup:
        raise LeafMismatch(f"duplicate leaf name(s): {', '.join(dup)}")

    if labels is not None:
        index = {name: i for i, name in enumerate(labels)}
        missing = [x for x in names if x not in index]
        if missing:
            raise LeafMismatch(f"unknown leaf name(s): {', '.join(sorted(missing))}")
    else:
        try:
            ordered = sorted(names, key=int)
        except ValueError:
            ordered = sorted(names)
        index = {name: i for i, name in enumerate(ordered)}

    for group, pos in slots:
        group[pos] = index[group[pos]]
    return HcTree.from_nested(top[0])


def serialize_newick(t: HcTree, labels: Optional[Sequence[str]] = None) -> str:
    """Canonical Newick text (children by smallest leaf; no branch lengths)."""
    name = str if labels is None else labels.__getitem__
    parts = t._fold(name, lambda kids: "(" + ",".join(kids) + ")")
    return parts[t.root] + ";"
