"""Random unit-weight graphs, their closed-form predictions, experiments.

Two models: every pair independently with one probability, or a planted
two-block layout with in-block and cross-block probabilities.  The
predicted ratio compares the best tree of the *expectation* graph against
the expected base cost; experiments check how tightly sampled graphs
concentrate around both quantities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Union

import numpy as np

from .cost import ratio_of
from .errors import InvalidParam
from .graph import INT64_LIMIT, SimilarityGraph, _unit_base_cost

# A model's pair probabilities: p everywhere, except on rectangles
# (row0, row1, col0, col1, q) above the diagonal (col0 >= row1) and their
# mirror images, which take q.
Layout = tuple[float, tuple[tuple[int, int, int, int, float], ...]]


def _check_size(n: int) -> None:
    # ``_unit_base_cost`` sums n wedge counts below n^2 in int64 and counts
    # common later neighbours, at most n < 2^24, in float32: exact while
    # n^3 < 2^63, the n a unit-weight SimilarityGraph (gen_er's) admits
    if int(n) ** 3 >= INT64_LIMIT:
        raise InvalidParam(f"n = {n} is too large: n^3 must stay below 2^63")


def _check_prob(name: str, x: float) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise InvalidParam(f"{name} must be in [0, 1], got {x}")
    return x


@dataclass(frozen=True)
class ErModel:
    """Every pair appears independently with probability p."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParam(f"need n >= 1, got {self.n}")
        _check_size(self.n)
        _check_prob("p", self.p)

    def _layout(self) -> Layout:
        return float(self.p), ()


@dataclass(frozen=True)
class PlantedModel:
    """Two equal blocks: probability p inside a block, q across."""

    n: int
    p: float
    q: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise InvalidParam(f"planted model needs even n >= 2, got {self.n}")
        _check_size(self.n)
        _check_prob("p", self.p)
        _check_prob("q", self.q)
        if self.p <= self.q:
            warnings.warn(f"planted model expects p > q, got p={self.p}, q={self.q}",
                          stacklevel=3)

    def _layout(self) -> Layout:
        h = self.n // 2
        return float(self.p), ((0, h, h, self.n, float(self.q)),)


Model = Union[ErModel, PlantedModel]


# About this many pairs are drawn per row block of ``_samples`` (2 MB of draws).
_DRAW_BLOCK_PAIRS = 2**18


def _samples(model: Model, seeds: Iterable[int]) -> Iterator[np.ndarray]:
    """Each seed's strict upper triangle U, a float32 0/1 matrix, in order.

    One draw per pair i < j, ascending (i, j), taken by row blocks;
    consecutive ``rng.random`` calls continue one stream, so the bits do not
    depend on the block size.  The diagonal and the lower triangle stay 0:
    the graph is U + U^T, which ``_unit_base_cost`` never builds.

    Every sample is written into the same U, and every block into the same
    buffers, allocated before the first seed: a block's packed draws are
    compared with their pairs' probabilities into ``bits`` and scattered
    into the block's upper entries, so each sample rewrites every entry
    above the diagonal.  Without rectangles every pair's probability is p;
    with them, the block's probabilities are gathered in draw order through
    its mask whenever the mask is built, so each draw is compared once.  The
    same U is yielded each time: read it before asking for the next one.
    """
    n = model.n
    p, rectangles = model._layout()
    step = min(n, max(1, _DRAW_BLOCK_PAIRS // n))
    cols = np.arange(n, dtype=np.int32)  # n < 2^21
    U = np.zeros((n, n), dtype=np.float32)
    mask = np.empty((step, n), dtype=bool)
    draws = np.empty(step * n)
    bits = np.empty(step * n, dtype=bool)
    levels = np.array([p, *(q for *_, q in rectangles)])  # p, then each q
    thresholds = p
    masked = None  # the block the mask holds; one block keeps it throughout
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            upper = mask[:r1 - r0]
            if masked != r0:
                np.greater(cols, cols[r0:r1, None], out=upper)
                masked = r0
                if rectangles:
                    which = np.zeros((r1 - r0, n), dtype=np.uint8)
                    for level, (a, b, c0, c1, _) in enumerate(rectangles, 1):
                        lo, hi = max(a, r0), min(b, r1)
                        if lo < hi:
                            which[lo - r0:hi - r0, c0:c1] = level
                    thresholds = levels[which[upper]]
            k = (r1 - r0) * (2 * n - r0 - r1 - 1) // 2  # pairs in the rows
            d = rng.random(k, out=draws[:k])
            U[r0:r1][upper] = np.less(d, thresholds, out=bits[:k])
        yield U


def gen_er(n: int, p: float, seed: int) -> SimilarityGraph:
    """Sample a unit-weight graph where each pair appears with probability p."""
    return SimilarityGraph(_symmetric(next(_samples(ErModel(n, p), (seed,)))))


def gen_planted(n: int, p: float, q: float, seed: int) -> SimilarityGraph:
    """Sample the two-block model: blocks [0, n/2) and [n/2, n)."""
    model = PlantedModel(n, p, q)
    return SimilarityGraph(_symmetric(next(_samples(model, (seed,)))))


def _symmetric(U: np.ndarray) -> np.ndarray:
    """U + U^T in int64 (0/1 floats cast exactly), with no float temporary."""
    # the caller's U is freed on return, before SimilarityGraph's checks:
    # no one holds the generator ``next`` took it from, so no frame keeps it
    return np.add(U, U.T, dtype=np.int64, casting="unsafe")


def _triplet_base(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """Expected base cost of one triplet with pair probabilities a, b, c.

    E[sum] - E[max] of three independent indicators.
    """
    return a * b + b * c + c * a - a * b * c


def expected_base_cost(model: Model) -> float:
    """Expected base cost: per triplet, E[sum of weights] - E[max weight].

    Exact: triplets fall into at most two probability patterns, each
    counted in closed form in Fraction arithmetic from the float
    parameters, and the sum is rounded to float once.
    """
    if isinstance(model, ErModel):
        p = Fraction(model.p)
        return float(comb(model.n, 3) * _triplet_base(p, p, p))
    h = model.n // 2
    p, q = Fraction(model.p), Fraction(model.q)
    return float(2 * comb(h, 3) * _triplet_base(p, p, p)
                 + 2 * h * comb(h, 2) * _triplet_base(p, q, q))


def expectation_tree_total_cost(model: Model) -> float:
    """Total cost of the best tree for the model's expectation graph."""
    if isinstance(model, ErModel):
        return model.p * 2.0 * comb(model.n, 3)
    h = model.n // 2
    return 2.0 * model.p * 2.0 * comb(h, 3) + 4.0 * model.q * comb(h, 2) * h


def predicted_rho(model: Model) -> float:
    """Leading-order predicted optimum ratio for large n, under the ratio
    rule of ``cost.ratio_of``: the empty expectation graph (ER p = 0,
    planted p = q = 0), where both sides vanish, reads 0/0 as 1."""
    if isinstance(model, ErModel):
        # 2 / (3p - p^2) has cancelled a factor p of 2p / (3p^2 - p^3),
        # which is 0/0 at p = 0, the one root of either denominator
        p = model.p
        den = 3.0 * p - p * p
        return 2.0 / den if den else 1.0
    p, q = model.p, model.q
    den = 3.0 * (p + q) ** 2 - p ** 3 - 3.0 * p * q * q
    return ratio_of(2.0 * p + 6.0 * q, den, False)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial base costs and ratio estimates, plus the model's predictions."""

    samples: int
    seeds: tuple[int, ...]
    base_costs: tuple[int, ...]
    expected_base_cost: float
    expectation_tree_total_cost: float
    predicted_rho: float
    rho_estimates: tuple[float, ...]

    @property
    def max_base_deviation(self) -> float:
        """Largest relative deviation of a sampled base cost from its mean
        value, under the ratio rule of ``cost.ratio_of``: 0/0 deviates by 0."""
        e = self.expected_base_cost
        return max(abs(ratio_of(b, e, False) - 1.0) for b in self.base_costs)

    @property
    def rho_mean(self) -> float:
        return sum(self.rho_estimates) / len(self.rho_estimates)


def run_experiment(model: Model, trials: int, seed_base: int) -> ExperimentReport:
    """Sample `trials` graphs (seeds seed_base + t) and compare to predictions.

    Each trial's ratio estimate divides the closed-form tree cost of the
    expectation graph by that sample's exact base cost, under the ratio
    rule of ``cost.ratio_of`` (0/0 = 1).  Trials run in order in the
    calling thread, and each one's matrix product uses every core through
    BLAS.
    """
    if trials < 1:
        raise InvalidParam(f"need trials >= 1, got {trials}")
    if seed_base < 0:
        raise InvalidParam(f"need seed >= 0, got {seed_base}")
    tree_total = expectation_tree_total_cost(model)
    seeds = tuple(seed_base + t for t in range(trials))
    bases = tuple(map(_unit_base_cost, _samples(model, seeds)))
    rhos = tuple(ratio_of(tree_total, b, False) for b in bases)
    return ExperimentReport(
        samples=trials,
        seeds=seeds,
        base_costs=bases,
        expected_base_cost=expected_base_cost(model),
        expectation_tree_total_cost=tree_total,
        predicted_rho=predicted_rho(model),
        rho_estimates=rhos,
    )
