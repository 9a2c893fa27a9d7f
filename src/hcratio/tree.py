"""Rooted clustering trees: LCA leaf counts, Newick, binarize.

Leaves carry vertex ids (arbitrary ints, usually 0..n-1).  Children are kept
in canonical order — ascending smallest descendant leaf — so equal trees have
equal serializations.  All traversals are iterative: deep caterpillars must
not hit the interpreter recursion limit.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .errors import LeafMismatch, ParseError


class HcTree:
    """Immutable rooted tree whose leaves are vertex ids.

    Internal nodes have >= 2 children (a single-leaf tree is just its leaf).
    Build one with :meth:`from_nested` from nested tuples/lists of ints, e.g.
    ``HcTree.from_nested(((0, 1), (2, 3)))``.
    """

    __slots__ = ("_children", "_leaf_vertex", "_order", "root", "vertices",
                 "n_leaves")

    def __init__(self, children, leaf_vertex, root):
        self._children = children
        self._leaf_vertex = leaf_vertex
        self.root = root
        seen = set()
        for v, kids in zip(leaf_vertex, children):
            if v is None:
                if len(kids) < 2:
                    raise LeafMismatch("internal node with fewer than 2 children")
            elif v in seen:
                raise LeafMismatch(f"leaf vertex {v} appears twice")
            else:
                seen.add(v)
        self.vertices = tuple(sorted(seen))
        self.n_leaves = len(self.vertices)

        # DFS preorder, kept for every fold: reordering child lists
        # (``_canonicalize``) leaves it a preorder, so parents still come
        # before children and each subtree stays one contiguous run
        order, stack = [], [root]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(children[u]))
        if len(order) != len(children):
            raise LeafMismatch("disconnected or cyclic node table")
        self._order = order

    def _fold(self, leaf, node) -> list:
        """Per-node-id values, children first: ``leaf(vertex)`` at each leaf,
        ``node([child values])`` at each internal node."""
        out: list = [None] * len(self._children)
        for u in reversed(self._order):
            v = self._leaf_vertex[u]
            out[u] = leaf(v) if v is not None else \
                node([out[c] for c in self._children[u]])
        return out

    def _leaf_runs(self):
        """(leaves in fold order, [(lo, hi, child spans)] children first).

        The fold lists each subtree's leaves as one run ``order[lo:hi]``, so
        each internal node covers the run of its children's spans (half-open,
        in child order).
        """
        order, nodes = [], []

        def leaf(v):
            order.append(v)
            return len(order) - 1, len(order)

        def node(spans):  # disjoint, so the least span starts the run
            lo, hi = min(spans)[0], max(spans)[1]
            nodes.append((lo, hi, spans))
            return lo, hi

        self._fold(leaf, node)
        return order, nodes

    # -- construction ------------------------------------------------------

    @classmethod
    def from_nested(cls, nested) -> "HcTree":
        """Build from nested tuples/lists of leaf ids; ints are leaves."""
        children, leaf_vertex = [], []

        def new_node():
            children.append([])
            leaf_vertex.append(None)
            return len(children) - 1

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
                children[u].append(c)
                stack.append((c, child_shape))

        tree = cls(children, leaf_vertex, root)
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

    @property
    def is_binary(self) -> bool:
        return all(len(k) in (0, 2) for k in self._children)

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
        order, nodes = self._leaf_runs()
        P = np.ones((n, n), dtype=np.int64)  # indexed by position in `order`
        while nodes:  # popped, so the spans are freed before the gather
            lo, hi, spans = nodes.pop()
            # every pair split between two children has this node as its LCA
            for a, (la, ha) in enumerate(spans):
                for lb, hb in spans[a + 1:]:
                    P[la:ha, lb:hb] = hi - lo
                    P[lb:hb, la:ha] = hi - lo
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
        children.extend([] for _ in parts)
        stack.extend(children[i])
    leaf_vertex = [int(s[0]) if len(s) == 1 else None for s in sets]
    tree = HcTree(children, leaf_vertex, 0)
    tree._canonicalize()
    return tree, None


# a quoted name ('' stands for '), punctuation, a bare name, a branch length
_TOKEN = re.compile(r"\s*('(?:[^']|'')*'|[(),;]|[^\s(),;:'][^\s(),;:]*"
                    r"|:[^\s(),;]*)")
# names that are empty or hold any of these are quoted on output
_NEEDS_QUOTES = re.compile(r"[\s(),;:']|^$")


def parse_newick(text: str, labels: Optional[Sequence[str]] = None) -> HcTree:
    """Parse a Newick subset: names, parentheses, commas, ';' terminator.

    Names may be quoted, '...' with each inner ' doubled, to hold white
    space or any of ( ) , ; : '.  Branch lengths (':0.1') and internal-node
    labels are accepted and discarded.  With ``labels``, leaf names map to
    their index in it (unknown name -> LeafMismatch).  Without, names get
    indices in sorted order — numeric when every name is an integer,
    lexicographic otherwise.
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
                group.append(tok[1:-1].replace("''", "'") if tok[0] == "'"
                             else tok)
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


def _newick_name(name: str) -> str:
    """``name`` as Newick text: quoted, '...' with each inner ' doubled,
    when it is empty or holds white space or any of ( ) , ; : '."""
    if _NEEDS_QUOTES.search(name):
        return "'" + name.replace("'", "''") + "'"
    return name


def serialize_newick(t: HcTree, labels: Optional[Sequence[str]] = None) -> str:
    """Canonical Newick text (children by smallest leaf; no branch lengths).

    Names are written by ``_newick_name``.
    """
    name = str if labels is None else \
        list(map(_newick_name, labels)).__getitem__
    parts = t._fold(name, lambda kids: "(" + ",".join(kids) + ")")
    return parts[t.root] + ";"
