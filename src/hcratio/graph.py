"""Similarity graphs: weight-matrix model, triplet classification, base cost.

A similarity graph is a complete weighted graph on vertices ``0..n-1`` with a
symmetric, nonnegative, zero-diagonal weight matrix.  Pairs with weight zero
are "non-edges".  The key graph-only quantity is the base cost: for every
unordered triplet, the sum of its two smallest pairwise weights, summed over
all triplets.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    InvalidTriplet,
    InvalidWeight,
    ParseError,
    SelfLoop,
)

INT64_LIMIT = 2**63


@dataclass(frozen=True)
class TripletType:
    """Classification of a vertex triplet by its three pairwise weights.

    kind 1: a unique strictly largest weight; ``max_pair`` is that edge.
    kind 2: exactly two tied largest weights; ``apex`` is the vertex the two
            heaviest edges share.
    kind 3: all three weights equal.
    """

    kind: int
    max_pair: Optional[tuple[int, int]] = None
    apex: Optional[int] = None

    @classmethod
    def type1(cls, u: int, v: int) -> "TripletType":
        return cls(1, max_pair=(min(u, v), max(u, v)))

    @classmethod
    def type2(cls, apex: int) -> "TripletType":
        return cls(2, apex=apex)

    @classmethod
    def type3(cls) -> "TripletType":
        return cls(3)

    @property
    def is_type1(self) -> bool:
        return self.kind == 1

    @property
    def is_type2(self) -> bool:
        return self.kind == 2

    @property
    def is_type3(self) -> bool:
        return self.kind == 3


class SimilarityGraph:
    """Immutable similarity graph over vertices ``0..n-1``.

    ``weights`` is kept as a dense numpy matrix: int64 when every entry is
    integral, float64 otherwise.  Integer weights must satisfy
    max weight x n^3 < 2^63, the bound under which every cost sum is exact
    in int64; larger ones raise InvalidWeight.  ``labels``
    maps vertex index to the external name used in files and Newick trees.
    ``epsilon`` is the absolute tolerance of the weight-equality predicate
    used for triplet classification (0 means exact comparison).
    """

    __slots__ = ("n", "weights", "labels", "epsilon")

    def __init__(self, weights, labels: Optional[Sequence[str]] = None,
                 epsilon: float = 0.0):
        w = np.asarray(weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidWeight("weight matrix must be square")
        if w.dtype.kind not in "iuf":
            raise InvalidWeight("weights must be numeric")
        if w.dtype.kind == "f":
            if not np.all(np.isfinite(w)):
                raise InvalidWeight("weights must be finite")
            if np.all(w == np.floor(w)) and (w.size == 0 or np.abs(w).max() < 2**53):
                w = w.astype(np.int64)
            else:
                w = w.astype(np.float64)
        if w.size and w.min() < 0:
            raise InvalidWeight("weights must be nonnegative")
        if w.dtype.kind in "iu":
            # every cost sum has fewer than n^3 terms of at most max_w each
            if w.size and int(w.max()) * w.shape[0] ** 3 >= INT64_LIMIT:
                raise InvalidWeight(
                    "integer weights too large: max weight x n^3 must stay "
                    "below 2^63 for exact int64 sums")
            w = w.astype(np.int64)
        if not np.array_equal(w, w.T):
            raise InvalidWeight("weight matrix must be symmetric")
        if np.any(np.diagonal(w) != 0):
            raise SelfLoop("diagonal entries must be zero")

        n = w.shape[0]
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise InvalidWeight("need exactly one label per vertex")
            if len(set(labels)) != n:
                raise InvalidWeight("duplicate vertex label")
        if not epsilon >= 0:  # also rejects NaN
            raise InvalidWeight("epsilon must be nonnegative")

        w.setflags(write=False)
        self.n = n
        self.weights = w
        self.labels = labels
        self.epsilon = float(epsilon)

    # -- basic queries ----------------------------------------------------

    @property
    def integral(self) -> bool:
        return self.weights.dtype.kind == "i"

    def weight(self, i: int, j: int):
        """Weight of pair (i, j) as a plain Python number."""
        return self.weights[i, j].item()

    def total_weight(self):
        """Sum of all pairwise weights (each unordered pair once)."""
        n = self.n
        iu = np.triu_indices(n, 1)
        return self.weights[iu].sum().item() if n > 1 else 0

    def weights_equal(self, a, b) -> bool:
        if self.epsilon == 0.0:
            return a == b
        return abs(a - b) <= self.epsilon

    def positive_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (ii, jj) of all pairs i < j with positive weight."""
        return np.nonzero(np.triu(self.weights, 1))

    def induced(self, vertices: Sequence[int]) -> "SimilarityGraph":
        """Subgraph on the given vertices, relabeled to 0..k-1 in list order."""
        idx = list(vertices)
        sub = self.weights[np.ix_(idx, idx)]
        return SimilarityGraph(sub, labels=[self.labels[v] for v in idx],
                               epsilon=self.epsilon)

    def __repr__(self) -> str:
        return f"SimilarityGraph(n={self.n}, dtype={self.weights.dtype})"


def _check_triplet(g: SimilarityGraph, i: int, j: int, k: int) -> None:
    if len({i, j, k}) != 3:
        raise InvalidTriplet(f"indices must be pairwise distinct: {(i, j, k)}")
    for v in (i, j, k):
        if not (0 <= v < g.n):
            raise InvalidTriplet(f"vertex {v} out of range 0..{g.n - 1}")


def triplet_type(g: SimilarityGraph, i: int, j: int, k: int) -> TripletType:
    """Classify triplet {i,j,k} by comparing its three pairwise weights.

    Equality is judged by the graph's epsilon predicate.  Type-3 requires all
    three weights mutually equal; otherwise a tie between the two largest
    gives Type-2 (apex = shared endpoint of the two heaviest edges), and a
    strict maximum gives Type-1.
    """
    _check_triplet(g, i, j, k)
    edges = ((g.weight(i, j), (i, j)), (g.weight(i, k), (i, k)),
             (g.weight(j, k), (j, k)))
    eq = g.weights_equal
    (wa, ea), (wb, eb), (wc, _) = sorted(edges, key=lambda t: -t[0])
    if eq(wa, wb) and eq(wb, wc) and eq(wa, wc):
        return TripletType.type3()
    if eq(wa, wb):
        (shared,) = set(ea) & set(eb)
        return TripletType.type2(shared)
    return TripletType.type1(*ea)


def min_triplet_cost(g: SimilarityGraph, i: int, j: int, k: int):
    """Sum of the two smallest pairwise weights of the triplet."""
    _check_triplet(g, i, j, k)
    a, b, c = g.weight(i, j), g.weight(i, k), g.weight(j, k)
    return a + b + c - max(a, b, c)


def base_cost(g: SimilarityGraph):
    """Sum of min_triplet_cost over all unordered triplets (0 when n < 3).

    Integer weights are counted exactly by one of two kernels, chosen from
    n and the number L of distinct positive weights (``_LEVEL_KERNEL_MIN_N``,
    ``_LEVEL_KERNEL_MAX_LEVELS``):

    - Level kernel, for n >= 64 and L <= 8.  With levels t_1 < ... < t_L
      (t_0 = 0), base = sum_l (t_l - t_{l-1}) * base(A_l), where the 0/1
      matrix A_l = [W >= t_l] has base(A_l) = wedges - triangles, counted
      exactly by ``_unit_base_cost``; the levels are combined in Python ints.
    - Pair maxima, otherwise.  Over pairs u < v and all k, the sum S of
      max(W[u,v], W[u,k], W[v,k]) meets W[u,v] at k = u and k = v and each
      triplet's maximum once per pair, so S = 3 * (sum of maxima) + 2 *
      sum(w), and base = (n-2) * sum(w) - (S - 2 * sum(w)) / 3.  The slabs
      of ``_pair_maxima`` are int32 when every weight is below 2^31; S sums
      in int64, exact under the graph's max x n^3 < 2^63 bound.

    The level kernel stays the faster one up to about 16 levels at n = 128
    and 32 at n >= 256; 8 levels keep it at least twice as fast.  Below 64
    vertices both take under a millisecond, while the first matmul of a
    process pages in BLAS code, so tiny graphs stay on the pair maxima, as
    do graphs with many levels such as ultrametrics.

    Float weights sum the rows of ``_triplet_rows`` instead, one numpy sum
    per row added in row order; that fixed order keeps float results
    reproducible to the bit.
    """
    if g.integral:
        return _integer_base_cost(g)
    total = 0.0
    for _, _, _, low in _triplet_rows(g.weights):
        total += low.sum().item()
    return total


def _triplet_rows(W: np.ndarray):
    """``(i, j, k, low)`` per first vertex i of the triplets i < j < k.

    j, k are index arrays in lexicographic order, and low = a + b + c -
    max(max(a, b), c), with a, b, c = W[i,j], W[i,k], W[j,k], is each
    triplet's least cost, the sum of its two smallest weights.  A fixed
    expression and order keep float sums over ``low`` reproducible.
    """
    n = len(W)
    for i in range(n - 2):
        j, k = np.triu_indices(n - 1 - i, 1)
        j += i + 1
        k += i + 1
        a, b, c = W[i, j], W[i, k], W[j, k]
        yield i, j, k, a + b + c - np.maximum(np.maximum(a, b), c)


# Integer graphs on at least this many vertices with at most this many
# distinct positive weights take the level kernel of ``base_cost``.
_LEVEL_KERNEL_MIN_N = 64
_LEVEL_KERNEL_MAX_LEVELS = 8


def _integer_base_cost(g: SimilarityGraph) -> int:
    n, W = g.n, g.weights
    if n < 3:
        return 0
    if _LEVEL_KERNEL_MIN_N <= n:
        # the least distinct positive weights, one more than the kernel
        # takes; as uint64, w - t - 1 lifts every w <= t to 2^63 or more
        levels, t = [], 0
        while len(levels) <= _LEVEL_KERNEL_MAX_LEVELS:
            gap = (W - (t + 1)).view(np.uint64).min().item()
            if gap >= 2**63:  # no weight above t
                break
            t += gap + 1
            levels.append(t)
        if len(levels) <= _LEVEL_KERNEL_MAX_LEVELS:
            return _level_base_cost(W, levels)
    X = W.astype(np.int32) if W.max() < 2**31 else W
    S = 0
    for u, v, mx in _pair_maxima(X):
        np.maximum(mx, X[u, v][..., None], out=mx)
        S += mx.sum(axis=2, dtype=np.int64)[v > u].sum().item()
    total = g.total_weight()
    return (n - 2) * total - (S - 2 * total) // 3


_BLOCK = 1 << 18  # elements per slab of the cubic scans


def _pair_maxima(X: np.ndarray):
    """``(u, v, mx)`` per slab of rows of the pair x third-vertex table.

    u is a column and v a row of vertex ids, mx[i, j, k] = max(X[u_i, k],
    X[v_j, k]), and only the entries with v > u are pairs.
    """
    n = len(X)
    step = max(1, _BLOCK // max(n * n, 1))  # rows per slab
    for a in range(0, n, step):
        yield (np.arange(a, min(a + step, n))[:, None], np.arange(a + 1, n),
               np.maximum(X[a:a + step, None, :], X[None, a + 1:, :]))


def _level_base_cost(W: np.ndarray, levels: list[int]) -> int:
    """Base cost from the ascending distinct positive weights ``levels``."""
    total = 0
    below = 0
    for t in levels:
        total += (t - below) * _unit_base_cost((W >= t).astype(np.float32))
        below = t
    return total


# Entries of one row block of the product in ``_unit_base_cost`` (32 MB).
_PRODUCT_BLOCK_ENTRIES = 2**23


def _unit_base_cost(A: np.ndarray) -> int:
    """Exact base cost of a graph given as a float32 0/1 adjacency matrix.

    base = wedges - triangles = sum_v C(deg v, 2) - tr(A^3) / 6.  Degrees
    are integers; tr(A^3) sums ``(A[R] @ A) * A[R]`` over row blocks R, so
    the full product never exists.  Exact while n^3 < 2^63 (every n the
    integer weight bound admits): the n wedge counts, each below n^2, sum
    in int64; the product's entries are integers of at most n < 2^24,
    exact in float32; and a block of |R| rows, |R| * n <= 2^23 or |R| = 1,
    sums to at most |R| * n^2 < 2^53, exact in float64.
    """
    n = len(A)
    deg = A.sum(axis=1, dtype=np.float64).astype(np.int64)
    wedges = int((deg * (deg - 1)).sum()) // 2
    step = max(1, _PRODUCT_BLOCK_ENTRIES // n)
    buf = np.empty((min(step, n), n), dtype=np.float32)
    triangles6 = 0
    for r0 in range(0, n, step):
        rows = A[r0:r0 + step]
        prod = np.matmul(rows, A, out=buf[:len(rows)])
        prod *= rows
        triangles6 += int(prod.sum(dtype=np.float64))
    return wedges - triangles6 // 6


def load_edge_list(text: str, epsilon: float = 0.0) -> SimilarityGraph:
    """Parse line-oriented records ``u v w`` into a SimilarityGraph.

    Vertex indices follow first appearance; pairs never mentioned get weight
    zero.  '#' starts a comment.  Raises SelfLoop / DuplicateEdge /
    InvalidWeight on bad records, for the first bad line in the file.

    Records are gathered as one flat token list (``_edge_tokens``) and
    checked as arrays; a malformed line ends the gathering, and reports its
    error only when no record before it is bad.
    """
    toks, malformed = _edge_tokens(text)
    wtoks = toks[2::3]
    del toks[2::3]  # toks now holds u0, v0, u1, v1, ...
    m = len(wtoks)
    index = {name: i for i, name in enumerate(dict.fromkeys(toks))}
    ends = np.fromiter(map(index.__getitem__, toks), dtype=np.intp,
                       count=2 * m).reshape(m, 2)
    w, bad = _weights(wtoks)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    bad = min(bad, _first(lo == hi, m), _first_repeat(lo * len(index) + hi, m))
    if bad < m:
        _raise_edge_error(text, bad)
    if malformed is not None:
        lineno, raw = malformed
        raise ParseError(f"line {lineno}: expected 'u v w', got {raw!r}")

    n = len(index)
    mat = np.zeros((n, n), dtype=w.dtype)
    mat[lo, hi] = w
    mat[hi, lo] = w
    return SimilarityGraph(mat, labels=list(index), epsilon=epsilon)


# Text up to the next line boundary of ``str.splitlines``, and a comment.
_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")
_COMMENT = re.compile("#" + _LINE.pattern)


def _edge_tokens(text: str) -> tuple[list[str], Optional[tuple[int, str]]]:
    """Record tokens u0, v0, w0, u1, ..., and the first malformed line.

    The malformed line is (line number, raw line), or None when every
    non-blank line, comment removed, holds exactly three tokens.  That is
    decided by one ``split`` of the whole text: once comments are gone no
    '#' is left, so the '#' closing each non-blank line are the only '#'
    tokens, and must be every fourth token.  Only text that fails is walked
    line by line, gathering the records before its first malformed line.
    """
    lines = list(filter(str.strip, _COMMENT.sub("", text).splitlines()))
    toks = " # ".join(lines + [""]).split()
    marks = toks[3::4]
    del toks[3::4]
    if marks.count("#") == len(marks) == len(lines):
        return toks, None
    toks = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if len(parts) == 3:
            toks += parts
        elif parts:
            return toks, (lineno, raw)
    return toks, None


def _raise_edge_error(text: str, record: int):
    """Raise the error of the given record (0-based), known to be bad.

    The checks run in the order a per-line parse meets them: self-loop,
    then the weight, then the repeated pair.
    """
    lines = ((lineno, raw.split("#", 1)[0].split())
             for lineno, raw in enumerate(text.splitlines(), 1))
    records = ((lineno, parts) for lineno, parts in lines if parts)
    lineno, (u, v, wtok) = next(itertools.islice(records, record, None))
    if u == v:
        raise SelfLoop(f"line {lineno}: self-loop on {u!r}")
    _parse_weight(wtok, lineno)
    raise DuplicateEdge(f"line {lineno}: pair {u!r},{v!r} repeated")


def load_matrix(text: str, epsilon: float = 0.0) -> SimilarityGraph:
    """Parse the square-matrix format: a line with n, then n rows of n values.

    A row's first bad token is reported before a wrong row length, and
    earlier rows before later ones.
    """
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
    toks: list[str] = []
    widths = []
    for ln in lines[1:]:
        parts = ln.split()
        toks += parts
        widths.append(len(parts))
    starts = list(itertools.accumulate(widths, initial=0))
    w, bad = _weights(toks)
    # row of the first bad token: the last row starting at or before it
    r = min(bisect.bisect_right(starts, bad) - 1,
            _first(np.array(widths) != n, n))
    if r < n:
        for tok in lines[r + 1].split():
            _parse_weight(tok, r + 1)
        raise ParseError(f"row {r + 1}: expected {n} values, got {widths[r]}")
    return SimilarityGraph(w.reshape(n, n), epsilon=epsilon)


def _weights(toks: list[str]) -> tuple[np.ndarray, int]:
    """Weights of the leading good tokens, and the index of the first bad one.

    The index is len(toks) when every token is a good weight.  The array is
    int64 unless some token reads as a float, then float64.  Tokens go
    through ``int`` in one pass, then through ``float`` in one pass;
    ``_parse_weight`` reads them one at a time only when both fail.
    Building the int64 array from the strings calls ``int`` on each, so
    ``1_0`` and ``+5`` read as numbers and 2**63 overflows.
    """
    try:
        w = np.array(toks, dtype=np.int64)
    except (ValueError, OverflowError):
        w = _float_weights(toks)
        if w is not None:
            return w, len(toks)
        vals = []
        for tok in toks:
            try:
                vals.append(_parse_weight(tok, 0))
            except ParseError:
                break
        floaty = any(isinstance(v, float) for v in vals)
        return np.array(vals, dtype=np.float64 if floaty else np.int64), len(vals)
    bad = _first(w < 0, len(w))
    return w[:bad], bad


def _float_weights(toks: list[str]) -> Optional[np.ndarray]:
    """The float64 weights of ``toks`` when all are good, else None.

    Called once ``int`` has failed on some token, so a good list holds a
    float token and reads as float64.  Every value must be finite, have no
    sign bit (the token-by-token path reads ``-0`` as 0) and lie below 2**63
    (where an int token does not fit int64); otherwise that path decides,
    with its errors and first bad index.
    """
    try:
        w = np.fromiter(map(float, toks), dtype=np.float64, count=len(toks))
    except ValueError:
        return None
    if np.all(np.isfinite(w) & ~np.signbit(w) & (w < INT64_LIMIT)):
        return w
    return None


def _first(mask: np.ndarray, default: int) -> int:
    """Index of the first true entry of ``mask``, or ``default``."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else default


def _first_repeat(keys: np.ndarray, default: int) -> int:
    """Index of the first key equal to an earlier one, or ``default``.

    Keys are nonnegative.  A count per key rules repeats out without sorting
    (numpy's sorts page in a few hundred KB of code on first use); only a
    repeat walks the keys.
    """
    if len(keys) and np.bincount(keys).max() > 1:
        seen = set()
        for i, k in enumerate(keys.tolist()):
            if k in seen:
                return i
            seen.add(k)
    return default


def load_graph(text: str, epsilon: float = 0.0) -> SimilarityGraph:
    """Auto-detect edge-list vs matrix format and load accordingly.

    The first non-blank line, comments removed, decides: a lone token is
    a matrix's vertex count, more are an edge record.
    """
    body = _COMMENT.sub("", text).lstrip()
    if not body:
        raise ParseError("empty graph input")
    if len(_LINE.match(body).group().split()) == 1:
        return load_matrix(text, epsilon=epsilon)
    return load_edge_list(text, epsilon=epsilon)


def _parse_weight(token: str, lineno: int):
    try:
        w = int(token)
    except ValueError:
        pass
    else:
        if w < 0:
            raise InvalidWeight(f"line {lineno}: negative weight {token}")
        if w >= INT64_LIMIT:
            raise InvalidWeight(f"line {lineno}: weight {token} does not fit int64")
        return w
    try:
        w = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {token!r} is not a number") from None
    if math.isnan(w) or math.isinf(w):
        raise InvalidWeight(f"line {lineno}: weight must be finite")
    if w < 0:
        raise InvalidWeight(f"line {lineno}: negative weight {token}")
    return w
