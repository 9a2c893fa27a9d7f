"""Shared builders and independent oracles for the test suite.

The oracles work on plain nested tuples and python loops — deliberately a
different route than the library's vectorized implementations, so the two
can disagree when one is wrong.
"""

import argparse
import functools
from collections import deque
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from hcratio import (
    DuplicateEdge,
    HcTree,
    ParseError,
    PlantedModel,
    SelfLoop,
    SimilarityGraph,
    base_cost,
    build_bisection,
    detect,
    triplet_type,
)
from hcratio.approx import RootedTripletConstraint, _delta_squared
from hcratio.brute import Optimum, _double_factorial
from hcratio.cost import ratio_of
from hcratio.detect import (
    Bipartition,
    Claw,
    Partition,
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
    return ultrametric_multi_tree(rng, n, root_level, steps)[0]


def ultrametric_multi_tree(rng, n, root_level=0, steps=(1, 2)):
    """``ultrametric_multi``'s weights and the nested tree they come from."""
    W = np.zeros((n, n), dtype=np.int64)
    tree = random_nested_multi(rng, n) if n else None
    stack = [(tree, root_level)] if n else []
    while stack:
        node, level = stack.pop()
        if isinstance(node, tuple):
            groups = [sorted(leaves_of(c)) for c in node]
            for a, b in combinations(groups, 2):
                W[np.ix_(a, b)] = W[np.ix_(b, a)] = level
            stack.extend((c, level + int(rng.choice(steps))) for c in node)
    return W, tree


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


_BIG = np.int8(127)  # above any leaf count; the root holds every pair
_CHUNK = 1 << 13  # trees per chunk of the oracle's search order


def _expand_level(level, leaf):
    """All one-leaf extensions of every tree, ordered (tree, insertion node).

    Joining the new leaf next to node c adds it to every strict ancestor of c,
    then appends the new parent of c and the new leaf as two more nodes.
    """
    bit = np.uint16(1 << leaf)
    count, width = level.shape
    mu = level[:, :, None]  # node c's leaves, c on axis 1
    above = ((level[:, None, :] & mu) == mu) & ~np.eye(width, dtype=bool)
    out = np.empty((count, width, width + 2), dtype=np.uint16)
    out[:, :, :width] = np.where(above, level[:, None, :] | bit,
                                 level[:, None, :])
    out[:, :, width] = level | bit
    out[:, :, width + 1] = bit
    return out.reshape(count * width, width + 2)


def oracle_search_order(n):
    """Leaf-mask rows of every binary tree on leaves 0..n-1, in chunks.

    Search order is lexicographic in the insertion node of leaves 2, 3, ...
    The trees on m leaves are expanded a run of consecutive ones at a time,
    at most _CHUNK new trees per run, each run completed before the next.
    """
    def walk(rows, m):
        if m == n:
            yield rows
            return
        step = max(1, _CHUNK // (2 * m - 1))  # 2m-1 places for leaf m
        for lo in range(0, len(rows), step):
            yield from walk(_expand_level(rows[lo:lo + step], m), m + 1)

    yield from walk(np.array([[0b11, 0b01, 0b10]], dtype=np.uint16), 2)


def oracle_total_costs(chunk, pair_masks, pair_weights):
    """Total cost of every tree in the chunk (rows are mask arrays).

    Each pair's LCA is the smallest node holding both its leaves.
    """
    nodes = np.ascontiguousarray(chunk.T)
    sizes = np.bitwise_count(nodes).astype(np.int8)
    acc = np.zeros(chunk.shape[:1], pair_weights.dtype)
    for pm, w in zip(pair_masks, pair_weights):
        holds_both = (nodes & pm) == pm
        acc += w * (np.where(holds_both, sizes, _BIG).min(axis=0) - 2)
    return acc


def oracle_bruteforce(g):
    """(Optimum, least total cost) by costing every tree, with no pruning.

    Integer graphs keep the first tree of least int64 cost in search order.
    Float graphs cost every tree in floats, then re-cost the trees within
    1e-6 of the float minimum as exact Fraction sums, one per weight
    level, and keep the first of least exact cost; rho is then the float
    of the exact least over the exact Fraction base.
    """
    n = g.n
    if n == 1:
        return Optimum(rho=Fraction(1), tree=HcTree.from_nested(0),
                       trees_searched=1), 0
    ii, jj = g.positive_pairs()
    pair_masks = ((1 << ii.astype(np.int64)) | (1 << jj.astype(np.int64))) \
        .astype(np.uint16)
    pair_weights = g.weights[ii, jj]
    if g.integral:
        least, row = None, None
        for chunk in oracle_search_order(n):
            tc = oracle_total_costs(chunk, pair_masks, pair_weights)
            pos = int(np.argmin(tc))
            if least is None or tc[pos] < least:
                least, row = tc[pos].item(), chunk[pos].copy()
        rho = ratio_of(least, base_cost(g), True)
    else:
        floor = min(oracle_total_costs(chunk, pair_masks, pair_weights).min()
                    for chunk in oracle_search_order(n)) + 1e-6
        near = np.concatenate([
            chunk[oracle_total_costs(chunk, pair_masks, pair_weights) <= floor]
            for chunk in oracle_search_order(n)])
        exact = sum(Fraction(v) * oracle_total_costs(
            near, pair_masks[pair_weights == v],
            np.ones((pair_weights == v).sum(), dtype=np.int64)).astype(object)
            for v in set(pair_weights.tolist()))
        pos = int(np.argmin(exact))
        least, row = exact[pos], near[pos]
        F = [[Fraction(x) for x in r] for r in g.weights.tolist()]
        base = sum(sum(sorted((F[i][j], F[i][k], F[j][k]))[:2])
                   for i, j, k in combinations(range(n), 3))
        rho = float(ratio_of(least, base, True))
    opt = Optimum(
        rho=rho,
        tree=HcTree.from_nested(oracle_nested_from_masks(row)),
        trees_searched=_double_factorial(2 * n - 3))
    return opt, least


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


def oracle_unit_base(U):
    """Base cost of the 0/1 graph A = U + U^T in int64: wedges - triangles,
    with wedges sum_v C(deg v, 2) and triangles trace(A^3) / 6."""
    A = np.asarray(U, dtype=np.int64)
    A = A + A.T
    deg = A.sum(axis=1)
    return int((deg * (deg - 1) // 2).sum()) - int(((A @ A) * A).sum()) // 6


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


def oracle_triplet_rows(W):
    """``graph._triplet_rows`` with each row's pairs built on their own.

    Row i takes ``np.triu_indices(n - 1 - i, 1)`` shifted by i + 1, where
    the library slices one index array; the rows, their order and the
    least-cost expression are the same.
    """
    n = len(W)
    for i in range(n - 2):
        j, k = np.triu_indices(n - 1 - i, 1)
        j += i + 1
        k += i + 1
        a, b, c = W[i, j], W[i, k], W[j, k]
        yield i, j, k, a + b + c - np.maximum(np.maximum(a, b), c)


def oracle_probabilities(model):
    """The model's pair probabilities as a dense array, from its definition:
    p for every pair, except q between [0, n/2) and [n/2, n) in the planted
    model; zero on the diagonal."""
    n = model.n
    P = np.full((n, n), float(model.p))
    if isinstance(model, PlantedModel):
        h = n // 2
        P[:h, h:] = P[h:, :h] = model.q
    np.fill_diagonal(P, 0.0)
    return P


def oracle_sample(P, seed):
    """Unit-weight sample of the pair probabilities P, all draws in one call.

    One uniform draw per pair i < j in ascending (i, j), compared with
    P[i, j] on a whole-matrix int64 layout: the sampler's pinned draw order
    taken by the plainest route.
    """
    n = len(P)
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)
    draws = rng.random(len(iu[0]))
    w = np.zeros((n, n), dtype=np.int64)
    w[iu] = draws < P[iu]
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


def oracle_case2_bipartition(g, p):
    """``case2_bipartition`` by breadth-first 2-colouring of the blocks.

    Each crossing Type-2 base (``detect._crossing_type2``, looked up at call
    time) keeps its two blocks apart; the lowest uncoloured block roots each
    search at colour 0, and an odd constraint cycle means no split.  With no
    constraints the lowest block is split off alone.
    """
    m = len(p.blocks)
    _, u, v = detect._crossing_type2(g, p)
    lab = p.block_of
    apart = np.zeros((m, m), dtype=bool)
    apart[lab[u], lab[v]] = True
    apart |= apart.T
    adj = [np.flatnonzero(row).tolist() for row in apart]

    color = [-1] * m
    for start in range(m):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            b = queue.popleft()
            for nb in adj[b]:
                if color[nb] == -1:
                    color[nb] = 1 - color[b]
                    queue.append(nb)
                elif color[nb] == color[b]:
                    return None  # odd cycle of constraints

    if all(c == 0 for c in color):  # no constraints anywhere
        rest = [v for b in p.blocks[1:] for v in b]
        return Bipartition(p.blocks[0], tuple(rest))

    side0 = [v for b in range(m) if color[b] == 0 for v in p.blocks[b]]
    side1 = [v for b in range(m) if color[b] == 1 for v in p.blocks[b]]
    return Bipartition(tuple(side0), tuple(side1))


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
    blocked = set(p.block_of[apex].tolist())
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


def oracle_load_graph(text, epsilon=0.0):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line.split()) == 1:
            return oracle_load_matrix(text, epsilon)
        return oracle_load_edge_list(text, epsilon)
    raise ParseError("empty graph input")


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



@functools.cache
def oracle_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its command table, as it was
    but for the ``fn`` default each command set: the reference that
    ``cli._parse`` is compared against.

    The global flags default to SUPPRESS, so a namespace holds only the
    ones given; the CLI's ``main`` filled in 0.0, 1 and False.  Parsing
    leaves the parser unchanged, so one serves every test.  The tests pin
    the argparse of Python 3.11, whose reading of ``--`` later versions
    changed.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                        help="weight-equality tolerance (default 0: exact)")
    shared.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="must be >= 1; no stage starts worker threads, "
                             "so output is the same for any value (default 1)")
    shared.add_argument("--records", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable tab-separated output")

    ap = argparse.ArgumentParser(
        prog="hcratio", parents=[shared],
        description="Ratio-cost analysis of similarity graphs under "
                    "hierarchical clustering trees.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cost", parents=[shared],
                       help="evaluate all costs of a graph/tree pair")
    c.add_argument("graph")
    c.add_argument("tree")

    d = sub.add_parser("detect", parents=[shared],
                       help="decide whether some tree reaches ratio 1")
    d.add_argument("graph")
    d.add_argument("--emit-tree", metavar="PATH",
                   help="write the ratio-1 tree as Newick on success")

    a = sub.add_parser("approx", parents=[shared],
                       help="constraint-built tree within (1+delta^2) of optimal")
    a.add_argument("graph")
    a.add_argument("--delta", required=True,
                   help="distortion bound, >= 1 (decimal, e.g. 1.5)")
    a.add_argument("--emit-tree", metavar="PATH")

    b = sub.add_parser("brute", parents=[shared],
                       help="exact optimum by subset DP and pruned tree search (small n)")
    b.add_argument("graph")

    r = sub.add_parser("random", parents=[shared],
                       help="sample random graphs and compare to predictions")
    grp = r.add_mutually_exclusive_group(required=True)
    grp.add_argument("--er", nargs=2, metavar=("N", "P"))
    grp.add_argument("--planted", nargs=3, metavar=("N", "P", "Q"))
    r.add_argument("--trials", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    return ap
