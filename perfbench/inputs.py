"""Seeded input generators for the benchmark, written as hcratio input files.

Every generator takes a ``numpy.random.Generator`` so one workload seed fixes
all inputs.  Graphs are returned as dense int64 or float64 matrices together
with what the checks need to know about them (the generating tree, the
perturbation window); writers turn them into the edge-list, matrix and Newick
files the CLI reads, so the CLI's load and parse path is part of every timed
job.  Nothing here imports hcratio: inputs and expected values come from code
independent of the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# An integer delta-perturbation multiplies each weight of g by an integer
# factor in [LO, HI].  With HI / LO = DELTA**2 and LO * HI = 12**2 the result
# is within a factor DELTA either side of 12 * g, as in acceptance criterion 7.
DELTA = Fraction(3, 2)
PERTURB_LO, PERTURB_HI = 8, 18


@dataclass
class Ultrametric:
    """A perfect graph: weight of a pair is the level of its LCA in ``tree``.

    ``tree`` is a nested tuple of vertex indices; children may be more than
    two, so some triplets tie all three weights.
    """

    weights: np.ndarray
    tree: object


def random_tree(rng: np.random.Generator, leaves: list[int], max_arity: int,
                depth: int = 0) -> object:
    """Random rooted tree over ``leaves`` with a fixed shape schedule.

    Nodes at even depth have ``max_arity`` children (tied triplets, several
    partition blocks), nodes at odd depth two, and every split is within 10%
    of even.  Detection repeats O(size^3) scans at every internal node, so
    its work ranges from about C(n,3) on a balanced tree to n^4/24 on a
    caterpillar and also depends on where wide nodes sit; a fixed schedule
    keeps that work, and so the run time, nearly the same across seeds.
    Only the leaf assignment and the split jitter are random.
    """
    m = len(leaves)
    if m == 1:
        return leaves[0]
    k = min(max_arity, m) if depth % 2 == 0 else 2
    order = rng.permutation(leaves)
    jitter = int(0.1 * m / k)
    cuts = [min(max(round(m * i / k) + int(rng.integers(-jitter, jitter + 1)), i),
                m - k + i) for i in range(1, k)]
    return tuple(random_tree(rng, sorted(int(v) for v in part), max_arity,
                             depth + 1)
                 for part in np.split(order, cuts))


def ultrametric(rng: np.random.Generator, n: int, max_arity: int = 3,
                max_step: int = 3) -> Ultrametric:
    """Perfect integer graph: the root's level is 1 and levels rise by
    1..max_step from parent to child.

    A binary tree gives about n distinct levels; wider nodes give tied
    triplets.  Every tree respecting the generating one reaches ratio 1.
    """
    tree = random_tree(rng, list(range(n)), max_arity)
    w = np.zeros((n, n), dtype=np.int64)
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        if not isinstance(node, tuple):
            continue
        groups = [_leaves(c) for c in node]
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                w[np.ix_(groups[a], groups[b])] = level
                w[np.ix_(groups[b], groups[a])] = level
        for c in node:
            stack.append((c, level + int(rng.integers(1, max_step + 1))))
    return Ultrametric(w, tree)


def binarize(tree):
    """Fold each wide node left to right: (a, b, c) -> ((a, b), c)."""
    if not isinstance(tree, tuple):
        return tree
    kids = [binarize(c) for c in tree]
    out = kids[0]
    for c in kids[1:]:
        out = (out, c)
    return out


def _leaves(node) -> list[int]:
    out, stack = [], [node]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        else:
            out.append(x)
    return sorted(out)


def float_copy(w: np.ndarray) -> np.ndarray:
    """Strictly increasing non-integral image of the weights (same ties)."""
    out = w * 0.7 + 0.05
    np.fill_diagonal(out, 0.0)
    out[w == 0] = 0.0
    return out


def perturb(rng: np.random.Generator, w: np.ndarray) -> np.ndarray:
    """Integer DELTA-perturbation of ``w`` (acceptance criterion 7's recipe)."""
    n = w.shape[0]
    iu = np.triu_indices(n, 1)
    k = rng.integers(PERTURB_LO, PERTURB_HI + 1, size=len(iu[0]))
    out = np.zeros((n, n), dtype=np.int64)
    out[iu] = w[iu] * k
    return out + out.T


def claw(rng: np.random.Generator, n: int, leg: int = 3) -> np.ndarray:
    """Graph whose minimal partition holds a claw: an apex block tied at
    weight ``leg`` to three leaf blocks that are mutually lighter.

    The n >= 4 vertices fall into four blocks of near-equal size, each an
    ultrametric above ``leg`` inside, so every block is forced together
    and no two blocks are.  Leaf-block pairs weigh 1 all three (the claw
    pairs with a three-way tie), or 1, 2, 2 (the claw pairs with a second
    tie, at weight 2); the coin picks which.  Vertex labels are shuffled.
    """
    order = rng.permutation(n)
    blocks = [order[b::4] for b in range(4)]  # blocks[0] holds the apex
    w = np.zeros((n, n), dtype=np.int64)
    for b in blocks:
        inner = ultrametric(rng, len(b), max_step=2).weights
        w[np.ix_(b, b)] = np.where(inner > 0, inner + leg, 0)
    leaf_pairs = [(1, 2, 1), (1, 3, 1), (2, 3, 1)]
    if rng.integers(2):
        leaf_pairs = [(1, 2, 1), (1, 3, 2), (2, 3, 2)]
    for x, y, weight in [(0, 1, leg), (0, 2, leg), (0, 3, leg)] + leaf_pairs:
        w[np.ix_(blocks[x], blocks[y])] = weight
        w[np.ix_(blocks[y], blocks[x])] = weight
    return w


def random_weights(rng: np.random.Generator, n: int, wmax: int,
                   keep: float = 1.0) -> np.ndarray:
    """Uniform integer weights in 1..wmax on round(keep * C(n,2)) random pairs.

    The count of positive pairs is fixed, not random, because brute force's
    time grows with it.
    """
    iu = np.triu_indices(n, 1)
    m = len(iu[0])
    vals = rng.integers(1, wmax + 1, size=m)
    vals[rng.permutation(m)[round(keep * m):]] = 0
    out = np.zeros((n, n), dtype=np.int64)
    out[iu] = vals
    return out + out.T


# ---------------------------------------------------------------------------
# file writers


def label(v: int) -> str:
    return f"v{v}"


def _num(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(int(x))


def write_edge_list(path, w: np.ndarray) -> None:
    """Every pair, zero weights included, named v0..v{n-1} in (i, j) order."""
    n = w.shape[0]
    rows = [f"{label(i)} {label(j)} {_num(w[i, j])}"
            for i in range(n) for j in range(i + 1, n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated benchmark input\n" + "\n".join(rows) + "\n")


def write_matrix(path, w: np.ndarray) -> None:
    """Square-matrix format; vertices are then named 0..n-1."""
    n = w.shape[0]
    lines = [str(n)] + [" ".join(_num(x) for x in row) for row in w.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def newick(tree) -> str:
    """Newick text of a nested tuple; leaf v is written v{v}."""
    parts: list[str] = []
    stack = [tree]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            parts.append(x)
        elif isinstance(x, tuple):
            stack.append(")")
            for i, c in enumerate(reversed(x)):
                stack.append(c)
                if i < len(x) - 1:
                    stack.append(",")
            stack.append("(")
        else:
            parts.append(label(x))
    return "".join(parts) + ";"


def dasgupta_of(w: np.ndarray, tree) -> int | float:
    """Dasgupta cost of ``tree`` on ``w``: each pair's weight x LCA leaf count.

    Computed per internal node from its children's leaf sets, independently
    of hcratio's LCA matrix.
    """
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            continue
        groups = [_leaves(c) for c in node]
        size = sum(len(g) for g in groups)
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                total += w[np.ix_(groups[a], groups[b])].sum().item() * size
        stack.extend(node)
    return total
