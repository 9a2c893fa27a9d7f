"""Approximation for near-perfect graphs via forced merges.

When a graph is a bounded multiplicative distortion of one that clusters
perfectly, a triplet whose heaviest weight beats the runner-up by more
than the squared distortion must still merge that pair first.  Any tree
consistent with all those forced merges is a (1 + delta^2)-approximation
of the optimal ratio; BUILD (Aho, Sagiv, Szymanski and Ullman, 1981) finds
one top down.

``approx_tree`` never lists the forced triplets.  Inside a working set S,
BUILD links u and v when some k in S forces them, which holds exactly when
W[u,v] beats delta^2 times the bottleneck min over k in S of max(W[u,k],
W[v,k]) (``detect._forced_links``), and S splits into the link components,
ordered by smallest member.  ``build_constraints`` and ``rtc_build`` are
the same construction with the forced triplets spelled out as
``RootedTripletConstraint`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .detect import _components, _forced_links
from .errors import InvalidDelta
from .graph import INT64_LIMIT, SimilarityGraph, _pair_maxima
from .tree import HcTree, _split_top_down, binarize


@dataclass(frozen=True)
class RootedTripletConstraint:
    """Merge requirement "{pair together before outsider}"."""

    pair: tuple[int, int]
    outsider: int

    def __post_init__(self):
        a, b = self.pair
        if len({a, b, self.outsider}) != 3:
            raise ValueError("constraint needs three distinct vertices")
        object.__setattr__(self, "pair", (min(a, b), max(a, b)))


def _delta_squared(delta) -> Fraction:
    """delta^2 as an exact rational; decimal reading for float input."""
    if isinstance(delta, Fraction):
        d = delta
    elif isinstance(delta, int):
        d = Fraction(delta)
    else:
        try:
            d = Fraction(str(delta))
        except ValueError:
            raise InvalidDelta(f"cannot interpret delta {delta!r}") from None
    if d < 1:
        raise InvalidDelta(f"delta must be >= 1, got {delta}")
    try:
        float(d * d)  # the float rule and the printed bound need it
    except OverflowError:
        raise InvalidDelta(f"delta {delta} is too large: its square "
                           "overflows a float") from None
    return d * d


def _forcing_rule(g: SimilarityGraph, delta):
    """(W, rule): does a third vertex at mx force a pair of weight w first?

    It does when w > delta^2 x mx.  Integer weights compare exactly as
    w x q > p x mx, with delta^2 = p/q in lowest terms: in int64 while max
    weight x max(p, q) < 2^63, on Python ints (object arrays) beyond.  Float
    weights compare w > float(delta^2) x mx.  Either rule only gets easier
    to satisfy as mx falls, rounding included.
    """
    d2 = _delta_squared(delta)
    W = g.weights
    if g.integral:
        p, q = d2.numerator, d2.denominator
        if max(int(W.max(initial=0)), 1) * max(p, q) >= INT64_LIMIT:
            W = W.astype(object)
        return W, lambda w, mx: w * q > p * mx
    d2f = float(d2)
    return W, lambda w, mx: w > d2f * mx


def build_constraints(g: SimilarityGraph, delta) -> set[RootedTripletConstraint]:
    """Forced merges: triplets whose top weight exceeds delta^2 x runner-up.

    Pair (u, v) must merge before k when W[u,v] > delta^2 x max(W[u,k],
    W[v,k]), compared as ``_forcing_rule`` says; as delta >= 1, only a
    triplet's unique heaviest pair can pass, and k = u or v, where the zero
    diagonal makes the max W[u,v], never does.  Each slab of
    ``_pair_maxima`` tests its pairs against every k at once.
    """
    W, forced = _forcing_rule(g, delta)
    out: set[RootedTripletConstraint] = set()
    for u, v, mx in _pair_maxima(W):
        i, j, k = np.nonzero(forced(W[u, v][..., None], mx)
                             & (v > u)[..., None])
        out.update(RootedTripletConstraint(pair=(a, b), outsider=c) for a, b, c
                   in zip(u[i, 0].tolist(), v[j].tolist(), k.tolist()))
    return out


def rtc_build(constraints, n: int) -> Optional[HcTree]:
    """Tree satisfying every merge constraint, or None if none exists.

    The BUILD algorithm of Aho, Sagiv, Szymanski and Ullman, top down: link
    each constraint's pair, split the working set into its linked
    components (ordered by smallest member), and split each component in
    turn by the constraints lying entirely inside it.  A set of two or more
    vertices whose links glue it into one component is a dead end.
    Constraints naming a vertex outside 0..n-1 raise ValueError.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    cons = list(constraints)
    # pairs are stored ascending, so this bounds all three vertices
    bad = [c for c in cons
           if not (0 <= c.pair[0] and c.pair[1] < n and 0 <= c.outsider < n)]
    if bad:
        raise ValueError(f"{bad[0]} names a vertex outside 0..{n - 1}")
    inside = {tuple(range(n)): cons}

    def split(verts):
        local = {v: x for x, v in enumerate(verts)}
        mine = inside.pop(verts)
        pairs = {c.pair for c in mine}
        groups = _components(len(verts), [local[a] for a, _ in pairs],
                             [local[b] for _, b in pairs])
        if len(groups) == 1:
            return None
        parts = [tuple(verts[x] for x in grp) for grp in groups]
        part_of = {v: p for p, part in enumerate(parts) for v in part}
        inner: list[list] = [[] for _ in parts]
        for c in mine:  # a pair shares a part, so only its outsider can leave
            p = part_of[c.pair[0]]
            if part_of[c.outsider] == p:
                inner[p].append(c)
        inside.update(zip(parts, inner))
        return parts

    return _split_top_down(range(n), split)[0]


def approx_tree(g: SimilarityGraph, delta) -> Optional[HcTree]:
    """Binary tree within (1 + delta^2) of the optimal ratio, or None.

    None only when no tree satisfies the forced merges — in particular the
    input is then not a delta-distortion of any perfectly-clusterable graph.
    The tree is ``binarize(rtc_build(build_constraints(g, delta), g.n))``,
    built from the forced links without listing the constraints.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    W, forced = _forcing_rule(g, delta)

    def split(verts):
        groups = _components(len(verts),
                             *_forced_links(W[np.ix_(verts, verts)], forced))
        if len(groups) == 1:
            return None
        return [tuple(verts[x] for x in grp) for grp in groups]

    t = _split_top_down(range(g.n), split)[0]
    return None if t is None else binarize(t)
