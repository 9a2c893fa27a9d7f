"""Random unit-weight graphs, their closed-form predictions, experiments.

Two models: every pair independently with one probability, or a planted
two-block layout with in-block and cross-block probabilities.  The
predicted ratio compares the best tree of the *expectation* graph against
the expected base cost; experiments check how tightly sampled graphs
concentrate around both quantities.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf
from typing import Union

import numpy as np

from .errors import InvalidParam
from .graph import INT64_LIMIT, SimilarityGraph, _unit_base_cost

Value = Union[int, float]


class ProbabilityMatrix:
    """Symmetric pairwise edge probabilities with a zero diagonal."""

    __slots__ = ("n", "p")

    def __init__(self, p):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InvalidParam("probability matrix must be square")
        if not (np.all(p >= 0.0) and np.all(p <= 1.0)):
            raise InvalidParam("probabilities must lie in [0, 1]")
        if not np.array_equal(p, p.T):
            raise InvalidParam("probability matrix must be symmetric")
        if np.any(np.diag(p) != 0.0):
            raise InvalidParam("diagonal must be zero")
        self.n = p.shape[0]
        self.p = p
        p.setflags(write=False)


def _check_size(n: int) -> None:
    # ``_unit_base_cost`` sums n wedge counts, each below n^2, in int64, so
    # it is exact while n^3 < 2^63; a unit-weight SimilarityGraph (what
    # gen_er returns) admits the same n
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

    def probability_matrix(self) -> ProbabilityMatrix:
        return ProbabilityMatrix(self._probs(0, self.n))

    def _probs(self, r0: int, r1: int) -> np.ndarray:
        """Rows [r0, r1) of the probability matrix."""
        return _off_diagonal(np.full((r1 - r0, self.n), float(self.p)), r0)


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

    def probability_matrix(self) -> ProbabilityMatrix:
        return ProbabilityMatrix(self._probs(0, self.n))

    def _probs(self, r0: int, r1: int) -> np.ndarray:
        """Rows [r0, r1) of the probability matrix."""
        h = self.n // 2
        same = (np.arange(r0, r1)[:, None] < h) == (np.arange(self.n) < h)
        return _off_diagonal(np.where(same, float(self.p), float(self.q)), r0)


Model = Union[ErModel, PlantedModel]


def _off_diagonal(rows: np.ndarray, r0: int) -> np.ndarray:
    """Zero the diagonal entries of the row block that starts at row r0."""
    k = len(rows)
    rows[np.arange(k), np.arange(r0, r0 + k)] = 0.0
    return rows


# About this many pairs are drawn per row block of ``_sample`` (2 MB of draws).
_DRAW_BLOCK_PAIRS = 2**18


def _sample(model: Model, seed: int) -> np.ndarray:
    """One sample as a float32 0/1 matrix; one draw per pair, ascending (i, j).

    The draws are taken by row blocks; consecutive ``rng.random`` calls
    continue one stream, so the bits do not depend on the block size.  Each
    block's upper triangle is compared with its probabilities and mirrored
    into its columns as it is written.
    """
    n = model.n
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n), dtype=np.float32)
    step = max(1, _DRAW_BLOCK_PAIRS // n)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        upper = np.arange(n) > np.arange(r0, r1)[:, None]
        rows = A[r0:r1]
        draws = rng.random(np.count_nonzero(upper))
        rows[upper] = draws < model._probs(r0, r1)[upper]
        square = rows[:, r0:r1]
        square += square.T  # numpy copies the overlapping operand first
        A[r1:, r0:r1] = rows[:, r1:].T
    return A


def gen_er(n: int, p: float, seed: int) -> SimilarityGraph:
    """Sample a unit-weight graph where each pair appears with probability p."""
    return SimilarityGraph(_sample(ErModel(n, p), seed).astype(np.int64))


def gen_planted(n: int, p: float, q: float, seed: int) -> SimilarityGraph:
    """Sample the two-block model: blocks [0, n/2) and [n/2, n)."""
    bits = _sample(PlantedModel(n, p, q), seed)
    return SimilarityGraph(bits.astype(np.int64))


def _triplet_base(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """Expected base cost of one triplet with pair probabilities a, b, c.

    E[sum] - E[max] of three independent indicators.
    """
    return a * b + b * c + c * a - a * b * c


def expected_base_cost(model: Union[ProbabilityMatrix, Model]) -> float:
    """Expected base cost: per triplet, E[sum of weights] - E[max weight].

    For an ErModel or PlantedModel the value is exact: triplets fall into
    at most two probability patterns, each counted in closed form in
    Fraction arithmetic from the float parameters, and the sum is rounded
    to float once.  An arbitrary ProbabilityMatrix uses the identity
    wedges - triangles = sum_i (s_i^2 - sum_j p_ij^2) / 2 - tr(P^3) / 6,
    with s the row sums, in float arithmetic; a sampled graph's exact base
    cost is the same identity on its 0/1 adjacency (``_unit_base_cost``).
    """
    if isinstance(model, ErModel):
        p = Fraction(model.p)
        return float(comb(model.n, 3) * _triplet_base(p, p, p))
    if isinstance(model, PlantedModel):
        h = model.n // 2
        p, q = Fraction(model.p), Fraction(model.q)
        return float(2 * comb(h, 3) * _triplet_base(p, p, p)
                     + 2 * h * comb(h, 2) * _triplet_base(p, q, q))
    wedges2, triangles6 = _wedges_triangles(model.p)
    return float(wedges2) / 2.0 - float(triangles6) / 6.0


def _wedges_triangles(a: np.ndarray):
    """Twice the expected wedges and six times the expected triangles.

    ``a`` holds edge probabilities: symmetric, zero diagonal.  Wedges are
    sum_v sum_{u<w} a_vu a_vw, from the row sums s as
    sum_v (s_v^2 - sum_u a_vu^2) / 2; triangles are tr(a^3) / 6, from one
    matrix product.
    """
    s = a.sum(axis=1, dtype=np.float64)
    wedges2 = (s * s - (a * a).sum(axis=1)).sum()
    aa = a @ a
    aa *= a
    return wedges2, aa.sum(dtype=np.float64)


def expectation_tree_total_cost(model: Model) -> float:
    """Total cost of the best tree for the model's expectation graph."""
    if isinstance(model, ErModel):
        return model.p * 2.0 * comb(model.n, 3)
    h = model.n // 2
    return 2.0 * model.p * 2.0 * comb(h, 3) + 4.0 * model.q * comb(h, 2) * h


def predicted_rho(model: Model) -> float:
    """Leading-order predicted optimum ratio for large n."""
    if isinstance(model, ErModel):
        p = model.p
        den = 3.0 * p - p * p
        return 2.0 / den if den else inf
    p, q = model.p, model.q
    den = 3.0 * (p + q) ** 2 - p ** 3 - 3.0 * p * q * q
    return (2.0 * p + 6.0 * q) / den if den else inf


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
        """Largest relative deviation of a sampled base cost from its mean value."""
        e = self.expected_base_cost
        return max(abs(b / e - 1.0) for b in self.base_costs) if e else inf

    @property
    def rho_mean(self) -> float:
        return sum(self.rho_estimates) / len(self.rho_estimates)


def run_experiment(model: Model, trials: int, seed_base: int,
                   jobs: int = 1) -> ExperimentReport:
    """Sample `trials` graphs (seeds seed_base + t) and compare to predictions.

    Each trial's ratio estimate divides the closed-form tree cost of the
    expectation graph by that sample's exact base cost.  Trials are pure and
    independently seeded, so the report is identical for any worker count.
    """
    if trials < 1:
        raise InvalidParam(f"need trials >= 1, got {trials}")
    if jobs < 1:
        raise InvalidParam(f"need jobs >= 1, got {jobs}")
    if seed_base < 0:
        raise InvalidParam(f"need seed >= 0, got {seed_base}")
    tree_total = expectation_tree_total_cost(model)
    seeds = tuple(seed_base + t for t in range(trials))

    def one(seed: int) -> int:
        return _unit_base_cost(_sample(model, seed))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            bases = tuple(pool.map(one, seeds))
    else:
        bases = tuple(one(s) for s in seeds)

    rhos = tuple(tree_total / b if b else inf for b in bases)
    return ExperimentReport(
        samples=trials,
        seeds=seeds,
        base_costs=bases,
        expected_base_cost=expected_base_cost(model),
        expectation_tree_total_cost=tree_total,
        predicted_rho=predicted_rho(model),
        rho_estimates=rhos,
    )
