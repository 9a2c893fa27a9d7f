"""Shared builders and independent oracles for the test suite.

The oracles work on plain nested tuples and python loops — deliberately a
different route than the library's vectorized implementations, so the two
can disagree when one is wrong.
"""

from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from hcratio import (
    DuplicateEdge,
    HcTree,
    ParseError,
    SelfLoop,
    SimilarityGraph,
    base_cost,
    build_bisection,
    triplet_type,
)
from hcratio.approx import RootedTripletConstraint, _delta_squared
from hcratio.brute import (
    Optimum,
    _double_factorial,
    _search_order,
    _total_costs,
)
from hcratio.cost import ratio_of
from hcratio.detect import (
    Bipartition,
    Claw,
    Partition,
    _block_labels,
    _crossing_type2,
    case2_bipartition,
    detect_claw,
    minimal_valid_partition,
)
from hcratio.graph import _parse_weight


# -- graph builders ----------------------------------------------------------

def graph_from(W, epsilon=0.0):
    return SimilarityGraph(np.asarray(W), epsilon=epsilon)


def from_edges(n, edges):
    """Unit weights unless an edge is given as (u, v, w)."""
    W = np.zeros((n, n), dtype=np.int64)
    for e in edges:
        u, v, w = e if len(e) == 3 else (*e, 1)
        W[u, v] = W[v, u] = w
    return graph_from(W)


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique_graph(n, w=1):
    W = np.full((n, n), w, dtype=np.int64)
    np.fill_diagonal(W, 0)
    return graph_from(W)


def star_graph(n, center=0):
    return from_edges(n, [(center, v) for v in range(n) if v != center])


def linked_stars(n):
    """Two stars on n/2 vertices each, centers 0 and n/2 joined by an edge."""
    assert n % 2 == 0 and n >= 4
    h = n // 2
    edges = [(0, v) for v in range(1, h)] + [(h, v) for v in range(h + 1, n)]
    edges.append((0, h))
    return from_edges(n, edges)


def matching_graph(n, pairs):
    return from_edges(n, list(pairs))


def random_int_graph(rng, n, wmax=3, density=1.0):
    W = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    vals = rng.integers(0, wmax + 1, size=len(iu[0]))
    if density < 1.0:
        vals = vals * (rng.random(len(iu[0])) < density)
    W[iu] = vals
    return graph_from(W + W.T)


def random_nested(rng, n):
    """Random binary tree on 0..n-1 by repeatedly joining two random parts."""
    parts = list(range(n))
    while len(parts) > 1:
        i, j = sorted(rng.choice(len(parts), size=2, replace=False))
        b = parts.pop(j)
        a = parts.pop(i)
        parts.append((a, b))
    return parts[0]


def random_nested_multi(rng, n):
    """Random tree on 0..n-1 joining 2-4 random parts at a time.

    Each new node lists its children in shuffled order, so the result is
    rarely in canonical child order.
    """
    parts = list(range(n))
    while len(parts) > 1:
        k = int(rng.integers(2, min(4, len(parts)) + 1))
        picked = sorted(rng.choice(len(parts), size=k, replace=False), reverse=True)
        group = [parts.pop(int(i)) for i in picked]
        parts.append(tuple(group[int(i)] for i in rng.permutation(k)))
    return parts[0]


def ultrametric(rng, n):
    """Integer weights n - |LCA cluster| over a random binary tree.

    The weight matrix of a perfect graph.
    """
    W = np.zeros((n, n), dtype=np.int64)
    stack = [random_nested(rng, n)] if n else []
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            a, b = (sorted(leaves_of(c)) for c in node)
            W[np.ix_(a, b)] = W[np.ix_(b, a)] = n - len(a) - len(b)
            stack.extend(node)
    return W


def ultrametric_multi(rng, n, root_level=0, steps=(1, 2)):
    """Integer ultrametric over a ``random_nested_multi`` tree.

    The root's children meet at ``root_level``; each node's level exceeds
    its parent's by a step drawn from ``steps``, so unrelated subtrees
    often share a level.
    """
    W = np.zeros((n, n), dtype=np.int64)
    stack = [(random_nested_multi(rng, n), root_level)] if n else []
    while stack:
        node, level = stack.pop()
        if isinstance(node, tuple):
            groups = [sorted(leaves_of(c)) for c in node]
            for a, b in combinations(groups, 2):
                W[np.ix_(a, b)] = W[np.ix_(b, a)] = level
            stack.extend((c, level + int(rng.choice(steps))) for c in node)
    return W


def is_connected(g):
    n = g.n
    if n == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if v not in seen and g.weights[u, v] > 0:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


# -- nested-tuple oracles ----------------------------------------------------

def oracle_nested_from_masks(masks):
    """Nested tuple of a laminar mask family: a node's children are the
    masks inside it with no other mask of the family between."""
    masks = [int(m) for m in masks]
    full = max(masks, key=lambda m: bin(m).count("1"))

    def expand(m):
        if m & (m - 1) == 0:  # single bit: a leaf
            return m.bit_length() - 1
        kids = [x for x in masks if x & m == x and x != m
                and not any(y & m == y and y != m and x & y == x and x != y
                            for y in masks)]
        return tuple(expand(x) for x in kids)

    return expand(full)


def oracle_enumerate_trees(n):
    """Every binary tree on 0..n-1 in search order, one depth-first insertion
    at a time: lexicographic in the insertion node of leaves 2, 3, ..."""
    stack = [([0b11, 0b01, 0b10], 2)]
    while stack:
        masks, next_leaf = stack.pop()
        if next_leaf == n:
            yield HcTree.from_nested(oracle_nested_from_masks(masks))
            continue
        bit = 1 << next_leaf
        for c in reversed(range(len(masks))):
            mu = masks[c]
            grown = [m | bit if (m & mu) == mu and m != mu else m for m in masks]
            grown.append(mu | bit)
            grown.append(bit)
            stack.append((grown, next_leaf + 1))


def oracle_bruteforce(g):
    """(Optimum, least total cost) by costing every tree, with no pruning.

    Chunks arrive in search order and a later chunk wins only with a
    strictly lower cost, so the tree is the first optimum in search order.
    """
    n = g.n
    if n == 1:
        return Optimum(rho=Fraction(1), tree=HcTree.from_nested(0),
                       trees_searched=1), 0
    ii, jj = g.positive_pairs()
    pair_masks = ((1 << ii.astype(np.int64)) | (1 << jj.astype(np.int64))) \
        .astype(np.uint16)
    wdtype = np.int64 if g.integral else np.float64
    pair_weights = g.weights[ii, jj].astype(wdtype)
    best_tc = None
    best_row = None
    for chunk in _search_order(n):
        tc = _total_costs(chunk, pair_masks, pair_weights)
        pos = int(np.argmin(tc))
        val = tc[pos].item()
        if best_tc is None or val < best_tc:
            best_tc = val
            best_row = chunk[pos].copy()
    opt = Optimum(
        rho=ratio_of(best_tc, base_cost(g), g.integral),
        tree=HcTree.from_nested(oracle_nested_from_masks(best_row)),
        trees_searched=_double_factorial(2 * n - 3))
    return opt, best_tc


def leaves_of(nested):
    if isinstance(nested, int):
        return {nested}
    out = set()
    for child in nested:
        out |= leaves_of(child)
    return out


def pair_cluster_size(nested, i, j):
    """Leaf count of the smallest cluster containing both i and j."""
    while True:
        # a child holding both i and j can never be a bare leaf
        for child in nested:
            s = leaves_of(child)
            if i in s and j in s:
                nested = child
                break
        else:
            return len(leaves_of(nested))


def triplet_relation(nested, i, j, k):
    """('pair', (a, b), out) for the first-merged pair, or ('simul',)."""
    while True:
        homes = []
        for x in (i, j, k):
            for ci, child in enumerate(nested):
                if x in leaves_of(child):
                    homes.append(ci)
                    break
        if homes[0] == homes[1] == homes[2]:
            nested = nested[homes[0]]
            continue
        if len(set(homes)) == 3:
            return ("simul",)
        trip = (i, j, k)
        for x in range(3):
            for y in range(x + 1, 3):
                if homes[x] == homes[y]:
                    out = trip[3 - x - y]
                    return ("pair", (min(trip[x], trip[y]), max(trip[x], trip[y])), out)


def oracle_dasgupta(W, nested):
    W = np.asarray(W)
    n = W.shape[0]
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if W[i, j] > 0:
                total += W[i, j].item() * pair_cluster_size(nested, i, j)
    return total


def oracle_total(W, nested):
    W = np.asarray(W)
    n = W.shape[0]
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if W[i, j] > 0:
                total += W[i, j].item() * (pair_cluster_size(nested, i, j) - 2)
    return total


def oracle_triplet_sum(W, nested):
    """Total cost as the sum over triplets of what the merge order charges."""
    W = np.asarray(W)
    n = W.shape[0]
    total = 0
    for i, j, k in combinations(range(n), 3):
        rel = triplet_relation(nested, i, j, k)
        if rel[0] == "simul":
            total += (W[i, j] + W[i, k] + W[j, k]).item()
        else:
            (a, b), out = rel[1], rel[2]
            total += (W[a, out] + W[b, out]).item()
    return total


def oracle_base(W):
    """Sum over triplets of the two smallest pairwise weights; plain loops."""
    W = np.asarray(W)
    n = W.shape[0]
    total = 0
    for i, j, k in combinations(range(n), 3):
        ws = sorted((W[i, j].item(), W[i, k].item(), W[j, k].item()))
        total += ws[0] + ws[1]
    return total


def oracle_float_base(W):
    """Float base cost summed row by row, each row's triplets in one numpy sum.

    The summation order that keeps ``base_cost`` on float weights
    reproducible to the bit: row i sums the triplets (i, j, k), j < k, in
    lexicographic order, and the row sums are added in row order.
    """
    n = len(W)
    total = 0.0
    for i in range(n - 2):
        row = W[i, i + 1:]
        sub = W[i + 1:, i + 1:]
        three = row[:, None] + row[None, :] + sub
        high = np.maximum(np.maximum(row[:, None], row[None, :]), sub)
        iu = np.triu_indices(row.shape[0], 1)
        total += (three[iu] - high[iu]).sum().item()
    return total


def oracle_sample(P, seed):
    """Unit-weight sample of a ProbabilityMatrix, all draws in one call.

    One uniform draw per pair i < j in ascending (i, j), compared with
    P[i, j] on a whole-matrix int64 layout: the sampler's pinned draw order
    taken by the plainest route.
    """
    n = P.n
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)
    draws = rng.random(len(iu[0]))
    w = np.zeros((n, n), dtype=np.int64)
    w[iu] = draws < P.p[iu]
    return SimilarityGraph(w + w.T)


def oracle_min_triplet(W, i, j, k):
    ws = sorted((W[i][j], W[i][k], W[j][k]))
    return ws[0] + ws[1]


# -- hypothesis strategies ----------------------------------------------------

@st.composite
def tie_heavy_graphs(draw, n_min=3, n_max=10):
    """Graphs on n_min..n_max vertices whose triplets tie often.

    Three kinds: integer weights 0..3, mostly 0 (epsilon 0, 1 or 1.5);
    non-integral float levels (epsilon 0); and levels 0..3 jittered by
    multiples of 0.05 under epsilon 0.1, so that gaps land just inside, on
    and just beyond the tolerance.
    """
    n = draw(st.integers(n_min, n_max))
    pairs = n * (n - 1) // 2
    kind = draw(st.sampled_from(["int", "float", "jitter"]))
    if kind == "int":
        # zero-heavy, so that stars, claws and perfect graphs turn up
        vals = draw(st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 3]),
                             min_size=pairs, max_size=pairs))
        eps = draw(st.sampled_from([0.0, 1.0, 1.5]))
    elif kind == "float":
        vals = draw(st.lists(st.sampled_from([0.0, 0.5, 1.25, 1.3, 2.75]),
                             min_size=pairs, max_size=pairs))
        eps = 0.0
    else:
        vals = draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(-3, 3)).map(
                lambda t: max(t[0] + 0.05 * t[1], 0.0)),
            min_size=pairs, max_size=pairs))
        eps = 0.1
    W = np.zeros((n, n), dtype=np.float64 if kind != "int" else np.int64)
    W[np.triu_indices(n, 1)] = vals
    return graph_from(W + W.T, epsilon=eps)


# -- per-triplet loop oracles for detection and the approximation -------------
# Triplet-at-a-time restatements of the library's table scans: each asks
# triplet_type (or sorts the three weights) once per triplet.

def oracle_minimal_valid_partition(g):
    """The minimal merge partition, or None when it is a single block."""
    n = g.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    type2 = []  # (apex, base u, base v)
    for i, j, k in combinations(range(n), 3):
        tt = triplet_type(g, i, j, k)
        if tt.is_type1:
            union(*tt.max_pair)
        elif tt.is_type2:
            u, v = (x for x in (i, j, k) if x != tt.apex)
            type2.append((tt.apex, u, v))

    changed = True
    while changed:
        changed = False
        for apex, u, v in type2:
            if find(u) == find(v) != find(apex):
                union(apex, u)
                changed = True

    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    if len(groups) == 1:
        return None
    return Partition(groups.values())


def oracle_crossing_type2(g, p):
    """(apex, u, v) index arrays of the two-tied-maxima triplets over 3 blocks."""
    bof = p.block_of
    out = []
    for i, j, k in combinations(range(g.n), 3):
        if len({bof[i], bof[j], bof[k]}) != 3:
            continue
        tt = triplet_type(g, i, j, k)
        if tt.is_type2:
            u, v = (x for x in (i, j, k) if x != tt.apex)
            out.append((tt.apex, u, v))
    cols = np.array(out, dtype=np.intp).reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2]


def oracle_detect_claw(g, p):
    """First claw in ascending (apex, leaves) order, one quadruple at a time.

    Four vertices in four blocks; every leg ties the leg to the smallest
    leaf, and every leaf pair is lighter than it beyond a tie.
    """
    bof = p.block_of
    eq = g.weights_equal
    for x in range(g.n):
        others = [v for v in range(g.n) if v != x]
        for leaves in combinations(others, 3):
            if len({bof[x], *(bof[v] for v in leaves)}) < 4:
                continue
            leg = g.weight(x, leaves[0])
            if (all(eq(g.weight(x, v), leg) for v in leaves)
                    and all(g.weight(a, b) < leg and not eq(g.weight(a, b), leg)
                            for a, b in combinations(leaves, 2))):
                return Claw(apex=x, leaves=leaves, leg_weight=leg)
    return None


def oracle_build_constraints(g, delta):
    """Forced merges by sorting each triplet's weights; Fraction on integers."""
    d2 = _delta_squared(delta)
    exact = g.integral
    d2f = float(d2)
    out = set()
    for i, j, k in combinations(range(g.n), 3):
        edges = sorted(((g.weight(i, j), (i, j)), (g.weight(i, k), (i, k)),
                        (g.weight(j, k), (j, k))), key=lambda e: -e[0])
        (w1, pair), (w2, _), _ = edges
        if (Fraction(w1) > d2 * w2) if exact else (w1 > d2f * w2):
            out.add(RootedTripletConstraint(
                pair=pair, outsider=next(x for x in (i, j, k) if x not in pair)))
    return out


def oracle_build_bisection(g):
    """build_bisection with the loop oracles above as its partition and
    Type-2 stages; the recursion and the splits are the library's.  The
    ultrametric shortcut is off, so every graph takes the per-set path."""
    with mock.patch.multiple(
            "hcratio.detect",
            minimal_valid_partition=oracle_minimal_valid_partition,
            _crossing_type2=oracle_crossing_type2,
            _ultrametric_tree=lambda g: None):
        return build_bisection(g)


def oracle_is_ultrametric(g):
    """No triplet's two smallest weights differ (epsilon is ignored)."""
    W = g.weights.tolist()
    for i, j, k in combinations(range(g.n), 3):
        lo, mid, _ = sorted((W[i][j], W[i][k], W[j][k]))
        if lo != mid:
            return False
    return True


# -- the claw dispatch of the paper -------------------------------------------
# valid_bisect as the paper states it: look for a claw first, split off a
# block from the light component of its leaves, and 2-colour the Type-2
# constraints only when no claw exists.

def oracle_case1_bipartition(g, p, claw):
    """Lowest unblocked block in the light component of the claw's leaves.

    Each block is represented by its smallest vertex, except the claw's own
    four vertices, which represent their blocks.  Representative pairs
    weighing strictly less than the leg weight are light.
    """
    m = len(p.blocks)
    rep = [b[0] for b in p.blocks]
    for v in (claw.apex, *claw.leaves):
        rep[p.block_of[v]] = v
    leg = claw.leg_weight

    def light(x, y):
        w = g.weight(x, y)
        return w < leg and not g.weights_equal(w, leg)

    seeds = [p.block_of[v] for v in claw.leaves]
    comp = set(seeds)
    queue = list(seeds)
    while queue:
        b = queue.pop()
        for other in range(m):
            if other not in comp and light(rep[b], rep[other]):
                comp.add(other)
                queue.append(other)

    apex, _, _ = _crossing_type2(g, p)
    blocked = set(_block_labels(p, g.n)[apex].tolist())
    for b in sorted(comp):
        if b not in blocked:
            rest = [v for ob in range(m) if ob != b for v in p.blocks[ob]]
            return Bipartition(p.blocks[b], tuple(rest))
    return None


def oracle_valid_bisect(g):
    """One two-sided split respecting all triplet weights, or None."""
    if g.n == 2:
        return Bipartition((0,), (1,))
    p = minimal_valid_partition(g)
    if p is None:
        return None
    claw = detect_claw(g, p)
    if claw is not None:
        return oracle_case1_bipartition(g, p, claw)
    return case2_bipartition(g, p)


# -- record-at-a-time loader oracles ------------------------------------------
# The loaders as they were before they went to token arrays: one record or
# row at a time, raising at the first bad one.

def oracle_load_edge_list(text, epsilon=0.0):
    order = {}
    records = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w', got {raw!r}")
        u, v, wtok = parts
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop on {u!r}")
        w = _parse_weight(wtok, lineno)
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"line {lineno}: pair {u!r},{v!r} repeated")
        seen.add(key)
        for name in (u, v):
            if name not in order:
                order[name] = len(order)
        records.append((u, v, w))

    n = len(order)
    floaty = any(isinstance(w, float) for _, _, w in records)
    mat = np.zeros((n, n), dtype=np.float64 if floaty else np.int64)
    for u, v, w in records:
        mat[order[u], order[v]] = w
        mat[order[v], order[u]] = w
    return SimilarityGraph(mat, labels=list(order), epsilon=epsilon)


def oracle_weights(toks):
    """``graph._weights`` one token at a time: the leading good weights and
    the index of the first bad token."""
    vals = []
    for tok in toks:
        try:
            vals.append(_parse_weight(tok, 0))
        except ParseError:
            break
    floaty = any(isinstance(v, float) for v in vals)
    return np.array(vals, dtype=np.float64 if floaty else np.int64), len(vals)


def oracle_load_matrix(text, epsilon=0.0):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError("empty matrix input")
    head = lines[0].split()
    if len(head) != 1:
        raise ParseError("first line must contain the vertex count only")
    try:
        n = int(head[0])
    except ValueError:
        raise ParseError(f"bad vertex count {head[0]!r}") from None
    if n < 1:
        raise ParseError("vertex count must be positive")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for r, ln in enumerate(lines[1:], 1):
        vals = [_parse_weight(tok, r) for tok in ln.split()]
        if len(vals) != n:
            raise ParseError(f"row {r}: expected {n} values, got {len(vals)}")
        rows.append(vals)
    floaty = any(isinstance(v, float) for row in rows for v in row)
    mat = np.array(rows, dtype=np.float64 if floaty else np.int64)
    return SimilarityGraph(mat, epsilon=epsilon)
