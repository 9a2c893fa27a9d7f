"""Similarity graphs: weight-matrix model, triplet classification, base cost.

A similarity graph is a complete weighted graph on vertices ``0..n-1`` with a
symmetric, nonnegative, zero-diagonal weight matrix.  Pairs with weight zero
are "non-edges".  The key graph-only quantity is the base cost: for every
unordered triplet, the sum of its two smallest pairwise weights, summed over
all triplets.
"""

from __future__ import annotations

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


def base_cost(g: SimilarityGraph):
    """Sum over unordered triplets of the two smallest pairwise weights
    (0 when n < 3).

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
    expression and order keep float sums over ``low`` reproducible.  Row
    i's pairs j < k are the suffix of the pairs of ``np.triu_indices(n, 1)``
    after those with j <= i, so j and k are views of one index array that
    callers must not write to.
    """
    n = len(W)
    J, K = np.triu_indices(n, 1)
    for i in range(n - 2):
        s = (i + 1) * (2 * n - i - 2) // 2  # pairs whose first index is <= i
        j, k = J[s:], K[s:]
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
        U = np.triu(W >= t, 1).astype(np.float32)
        total += (t - below) * _unit_base_cost(U)
        below = t
    return total


# Entries of either product of one row block in ``_unit_base_cost`` (32 MB).
_PRODUCT_BLOCK_ENTRIES = 2**23


def _unit_base_cost(U: np.ndarray) -> int:
    """Exact base cost of the 0/1 graph U + U^T, U a strict upper triangle.

    base = wedges - triangles.  Wedges are sum_v C(deg v, 2), deg v the row
    plus the column sum of float32 U.  Triangle i < j < k counts once, at
    U[i, j], in (U U^T)[i, j], the common later neighbours of i and j.  Row
    blocks R = [r0, r1) have ceil(n/4) rows, at least 128 and at most
    ``_PRODUCT_BLOCK_ENTRIES // n`` (at least 1); no n x n product exists.
    Pairs inside R sum U[R, R] * (V @ V^T), V = U[R, r0:] as U[i, k] = 0 for
    k <= i (numpy's symmetric path); pairs i in R, j >= r1 sum B * (B @
    U[r1:, r1:]^T), B = U[R, r1:], as common later neighbours lie past r1.
    Exact while n^3 < 2^63, every n the integer weight bound admits: a
    product entry is at most n < 2^24, exact in float32, as are the degree
    sums; a block's product sums to at most |R| * n^2 < 2^53 (|R| * n <=
    2^23 or |R| = 1), exact in float64; the wedge counts sum in int64.
    """
    n = len(U)
    deg = (U.sum(axis=1) + U.sum(axis=0)).astype(np.int64)
    wedges = int((deg * (deg - 1)).sum()) // 2
    step = max(1, min(max(-(-n // 4), 128), _PRODUCT_BLOCK_ENTRIES // n))
    buf = np.empty(min(step, n) * n, dtype=np.float32)
    triangles = 0
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        V = U[r0:r1, r0:]
        products = [(V, V, V[:, :r1 - r0])]
        if r1 < n:
            B = V[:, r1 - r0:]
            products.append((B, U[r1:, r1:], B))
        for rows, cols, mask in products:
            prod = buf[:len(rows) * len(cols)].reshape(len(rows), len(cols))
            np.matmul(rows, cols.T, out=prod)
            prod *= mask
            triangles += int(prod.sum(dtype=np.float64))
    return wedges - triangles


def load_edge_list(text: str, epsilon: float = 0.0) -> SimilarityGraph:
    """Parse line-oriented records ``u v w`` into a SimilarityGraph.

    Vertex indices follow first appearance; pairs never mentioned get weight
    zero.  '#' starts a comment.  Raises SelfLoop / DuplicateEdge /
    InvalidWeight on bad records, for the first bad line in the file.

    Two readers turn the comment-free text into parts of vertex ids and
    weights, and labels, or decline it.  Large ASCII lists of short names
    and integer weights go to the byte reader (``_edge_bytes``), which reads
    them chunk by chunk; any text it declines goes to the general one
    (``_edge_tokens``).  Both leave self-loops and repeated pairs to the
    checks of ``_fill_pairs``.  A file that is declined or fails a check is
    walked line by line for its first bad record.
    """
    mat, labels = _edge_matrix(_COMMENT.sub("", text))
    if mat is None:
        _raise_first_bad_record(text)
    return SimilarityGraph(mat, labels=labels, epsilon=epsilon)


def _edge_matrix(body: str) -> tuple[Optional[np.ndarray], list[str]]:
    """The weight matrix and labels of the comment-free ``body``, or None
    and no labels when a reader declines it or a check fails.  The parts
    of the records and the body are dropped before the graph is built."""
    read = _edge_bytes(body) if len(body) >= _EDGE_BYTES_MIN else None
    if read is None:
        read = _edge_tokens(body)
    if read is None:
        return None, []
    parts, labels = read
    return _fill_pairs(parts, len(labels)), labels


def _fill_pairs(parts: list[tuple[np.ndarray, np.ndarray]],
                n: int) -> Optional[np.ndarray]:
    """The n x n weight matrix of the records ``parts``, or None when one
    is a self-loop or repeats a pair.

    A part holds the (u, v) ids and the weights of consecutive records, all
    parts in one dtype.  Repeats are found in the matrix itself: every
    record writes its number, counted from 1, above the diagonal at its
    pair, then each reads its number back before its weight goes in.
    Parts write in order, so of two records of a pair in different parts
    the later number stays and the earlier record, read back first, fails;
    within a part at most one of the two numbers stays.  Either way a
    repeat fails before a weight covers a number still to be read.
    """
    mat = np.zeros((n, n), dtype=parts[0][1].dtype)
    for lo, hi, number, _ in _numbered_pairs(parts):
        if not (lo < hi).all():
            return None
        mat[lo, hi] = number
    for lo, hi, number, w in _numbered_pairs(parts):
        if not (mat[lo, hi] == number).all():
            return None
        mat[lo, hi] = w
        mat[hi, lo] = w
    return mat


def _numbered_pairs(parts):
    """``(lo, hi, number, w)`` per part: each record's ids in order, its
    number counted from 1 across the parts, and its weight."""
    r = 1
    for ends, w in parts:
        yield (np.minimum(ends[:, 0], ends[:, 1]),
               np.maximum(ends[:, 0], ends[:, 1]), np.arange(r, r + len(w)), w)
        r += len(w)


def _raise_first_bad_record(text: str):
    """Raise the error of the first bad record of an edge list known to hold
    one, checking each line as it comes: token count, self-loop, weight,
    repeated pair."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w', got {raw!r}")
        u, v, wtok = parts
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop on {u!r}")
        _parse_weight(wtok, lineno)
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"line {lineno}: pair {u!r},{v!r} repeated")
        seen.add(key)


# Text up to the next line boundary of ``str.splitlines``, and a comment.
_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")
_COMMENT = re.compile("#" + _LINE.pattern)


def _edge_tokens(body: str) -> Optional[tuple[list, list[str]]]:
    """``([(ends, w)], labels)`` of the comment-free ``body``, or None when
    some non-blank line does not hold three tokens or some weight is bad.

    The line structure is decided by one ``split`` of the whole body: it
    holds no '#', so the '#' closing each non-blank line are the only '#'
    tokens, and must be every fourth token.  Vertex ids follow first
    appearance, through a dict of the names.
    """
    lines = list(filter(str.strip, body.splitlines()))
    toks = " # ".join(lines + [""]).split()
    marks = toks[3::4]
    del toks[3::4]
    if not marks.count("#") == len(marks) == len(lines):
        return None
    w = _weights(toks[2::3])
    if w is None:
        return None
    del toks[2::3]  # toks now holds u0, v0, u1, v1, ...
    index = {name: i for i, name in enumerate(dict.fromkeys(toks))}
    ends = np.fromiter(map(index.__getitem__, toks), dtype=np.intp,
                       count=len(toks)).reshape(-1, 2)
    return [(ends, w)], list(index)


# Byte classes of the byte reader, taken from Python's own rules: whitespace
# is what ``str.split`` splits on, and a break is whitespace at which
# ``str.splitlines`` ends a line.  Other bytes are token bytes if printable;
# the rest (NUL, the other control bytes, DEL and every non-ASCII byte) are
# outside the reader.
_TOKEN, _SPACE, _BREAK, _OTHER = range(4)
_BYTE_CLASS = bytes(
    (_BREAK if len(("a" + c + "a").splitlines()) == 2 else _SPACE)
    if c.isspace() else _TOKEN if c.isprintable() else _OTHER
    for c in map(chr, range(128))) + bytes([_OTHER]) * 128
# Keeps the low k bytes of a little-endian uint64, k = 0..8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Comment-free size from which load_edge_list tries the byte reader.  On
# ``v{i}`` names with one- or two-digit weights the two readers take the
# same time near 4,100 bytes (400 records); the byte reader is 5% faster at
# 4,600 bytes and 15% faster at 6,200, and below that its fixed cost of
# some 50 numpy calls loses.
_EDGE_BYTES_MIN = 4096
# Bytes of comment-free text the byte reader takes at a time; a chunk runs
# on through the next line break.
_EDGE_CHUNK = 1 << 16


def _edge_bytes(body: str) -> Optional[tuple[list, list[str]]]:
    """``(parts, labels)`` of an edge list read as bytes, or None.

    ``body`` is comment-free text.  The reader takes ASCII text of token and
    whitespace bytes (``_BYTE_CLASS``) whose every non-blank line holds
    three tokens, with names of at most 8 bytes and weights of at most 18
    ASCII digits, and some record; for other text it returns None.  It
    walks the text in chunks of whole lines, ``_EDGE_CHUNK`` bytes and the
    text through the next line break, so its temporaries follow the chunk,
    not the text.  A chunk of 2**31 bytes or more, which only a
    line about that long makes, is left to the general reader, so every
    chunk's offsets fit int32.

    In a chunk, token spans decide the token count and sizes before any
    gather, then the weights, then the line structure.  Each chunk adds one
    part: int32 ids of shape (m, 2) and int64 weights, 16 bytes a record.
    Names become uint64 keys, numbered by first appearance through the
    sorted table of the names seen so far, so only the n labels become
    strings.  A weight sums its digits in int64, which equals ``int`` of
    the token since 10**18 < 2**63.
    """
    if not body.isascii():
        return None
    parts, labels = [], []
    table = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int32))
    a = 0
    while a < len(body):
        z = _LINE.match(body, min(a + _EDGE_CHUNK, len(body))).end() + 1
        if z - a >= 2**31:
            return None
        chunk = body[a:z]
        a = z
        raw = chunk.encode("ascii")
        cls = raw.translate(_BYTE_CLASS)
        if _OTHER in cls:
            return None
        cls = np.frombuffer(cls, np.uint8)
        starts, stops = _token_spans(cls)
        m, rest = divmod(len(starts), 3)
        if rest:
            return None
        if not m:
            continue
        size = (stops - starts).reshape(m, 3)
        if size[:, :2].max() > 8 or size[:, 2].max() > 18:
            return None
        w = _digit_values(np.frombuffer(raw, np.uint8), starts[2::3],
                          size[:, 2])
        if w is None or not _three_per_line(cls, starts, stops):
            return None
        at = starts.reshape(m, 3)[:, :2].ravel()
        size = size[:, :2].ravel()
        keys = _name_keys(raw, at, size).reshape(m, 2)
        ids, table, first = _first_appearance(keys, table)
        labels += [chunk[s:s + k]
                   for s, k in zip(at[first].tolist(), size[first].tolist())]
        parts.append((ids, w))
    return (parts, labels) if parts else None


def _token_spans(cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop offsets of the runs of token bytes in ``cls``.

    Offset i is a bound where bytes i-1 and i differ in being token bytes,
    with whitespace taken before and after the text.  Starts and stops are
    views of one int32 array, as a chunk is below 2**31 bytes.
    """
    token = cls == _TOKEN
    edge = np.empty(len(cls) + 1, dtype=bool)
    edge[0], edge[-1] = token[0], token[-1]
    np.not_equal(token[1:], token[:-1], out=edge[1:-1])
    del token
    bounds = np.flatnonzero(edge).astype(np.int32)
    return bounds[0::2], bounds[1::2]


def _digit_values(byte: np.ndarray, at: np.ndarray,
                  size: np.ndarray) -> Optional[np.ndarray]:
    """int64 values of the tokens at offsets ``at`` of ``size`` bytes, or
    None unless every one is ASCII digits; read column by column."""
    w = np.zeros(len(at), dtype=np.int64)
    for k in range(int(size.max())):
        live = size > k
        d = byte.take(at + k, mode="clip") - np.uint8(ord("0"))
        if (live & (d > 9)).any():  # non-digits wrap past 9
            return None
        w = np.where(live, w * 10 + d, w)
    return w


def _three_per_line(cls: np.ndarray, starts: np.ndarray,
                    stops: np.ndarray) -> bool:
    """Whether every non-blank line holds three of the tokens.

    That is, a break lies in the gap after every third token and in no
    other gap.  A gap of one or two bytes is known by its end bytes; longer
    gaps take the maximum class over their bytes (a break outranks a space).
    """
    a, z = stops[:-1], starts[1:]
    gap = np.maximum(cls.take(a), cls.take(z - 1))
    wide = np.flatnonzero(z - a > 2)
    if len(wide):
        gap[wide] = np.maximum.reduceat(
            cls, np.stack((a[wide], z[wide]), axis=1).ravel())[0::2]
    lines = np.append(gap, _BREAK).reshape(-1, 3)
    return bool((lines == (_SPACE, _SPACE, _BREAK)).all())


def _name_keys(raw: bytes, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The tokens at ``at`` of ``size`` <= 8 bytes as uint64 keys.

    A key holds the token's bytes little-endian, zero above; in text with no
    NUL byte, distinct tokens get distinct keys.  Keys are read through the
    unaligned 8-byte window at every offset of ``raw`` padded with 7 NUL
    bytes, so a text of any length has a window at each of its offsets.
    """
    window = np.ndarray((len(raw),), dtype="<u8", buffer=raw + bytes(7),
                        strides=(1,))
    keys = window[at]
    keys &= _LOW_BYTES[size]
    return keys


def _first_appearance(keys: np.ndarray, table: tuple[np.ndarray, np.ndarray]):
    """``(ids, table, first)`` for the (m, 2) name keys of m records: their
    ids, numbered by first appearance after the names of ``table``; the
    table with the new names added; and the index in ``keys.ravel()`` of
    each new name's first appearance, in id order.

    A table is the sorted keys of the names seen so far and the int32 id of
    each.  Keys are looked up column by column: edge lists often give a
    vertex's pairs together, and numpy's binary search is some four times
    faster on keys that repeat or rise than on keys in no order.
    """
    known, number = table
    pos = known.searchsorted(keys.T).T
    # a key past the last known one is compared with that one
    new = (known.take(pos, mode="clip") != keys if len(known)
           else np.ones(keys.shape, dtype=bool))
    if not new.any():
        return number[pos], table, np.empty(0, dtype=np.intp)
    fresh, first = np.unique(keys[new], return_index=True)
    order = np.argsort(first)
    rank = np.empty(len(fresh), dtype=np.int32)
    rank[order] = np.arange(len(known), len(known) + len(fresh))
    at = known.searchsorted(fresh)
    known, number = np.insert(known, at, fresh), np.insert(number, at, rank)
    return (number[known.searchsorted(keys.T).T], (known, number),
            np.flatnonzero(new)[first[order]])


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
    widths = set()
    for ln in lines[1:]:
        parts = ln.split()
        toks += parts
        widths.add(len(parts))
    w = _weights(toks)
    if w is None or widths != {n}:
        for r, ln in enumerate(lines[1:], 1):
            parts = ln.split()
            for tok in parts:
                _parse_weight(tok, r)
            if len(parts) != n:
                raise ParseError(f"row {r}: expected {n} values, got {len(parts)}")
    return SimilarityGraph(w.reshape(n, n), epsilon=epsilon)


def _weights(toks: list[str]) -> Optional[np.ndarray]:
    """The weights of ``toks``, or None when some token is a bad weight.

    The array is int64 unless some token reads as a float, then float64.
    Tokens go through ``int`` in one pass, then through ``float`` in one
    pass; ``_parse_weight`` reads them one at a time only when both fail.
    Building the int64 array from the strings calls ``int`` on each, so
    ``1_0`` and ``+5`` read as numbers and 2**63 overflows.
    """
    try:
        w = np.array(toks, dtype=np.int64)
    except (ValueError, OverflowError):
        w = _float_weights(toks)
        if w is not None:
            return w
        try:
            vals = [_parse_weight(tok, 0) for tok in toks]
        except ParseError:
            return None
        floaty = any(isinstance(v, float) for v in vals)
        return np.array(vals, dtype=np.float64 if floaty else np.int64)
    return None if (w < 0).any() else w


def _float_weights(toks: list[str]) -> Optional[np.ndarray]:
    """The float64 weights of ``toks`` when all are good, else None.

    Called once ``int`` has failed on some token, so a good list holds a
    float token and reads as float64.  Every value must be finite, have no
    sign bit (the token-by-token path reads ``-0`` as 0) and lie below 2**63
    (where an int token does not fit int64); otherwise that path decides.
    """
    try:
        w = np.fromiter(map(float, toks), dtype=np.float64, count=len(toks))
    except ValueError:
        return None
    if np.all(np.isfinite(w) & ~np.signbit(w) & (w < INT64_LIMIT)):
        return w
    return None


def load_graph(text: str, epsilon: float = 0.0) -> SimilarityGraph:
    """Auto-detect edge-list vs matrix format and load accordingly.

    The first non-blank line, comments removed, decides: a lone token is
    a matrix's vertex count, more are an edge record.  Lines are scanned
    only up to that one.
    """
    for line in _LINE.finditer(text):
        parts = line.group().split("#", 1)[0].split()
        if parts:
            break
    else:
        raise ParseError("empty graph input")
    if len(parts) == 1:
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
