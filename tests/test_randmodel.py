import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hcratio import (
    ErModel,
    InvalidParam,
    PlantedModel,
    ProbabilityMatrix,
    base_cost,
    expectation_tree_total_cost,
    expected_base_cost,
    gen_er,
    gen_planted,
    predicted_rho,
    run_experiment,
)
from hcratio import graph as graph_mod
from hcratio import randgraph as randgraph_mod

from helpers import oracle_sample


def test_probability_matrix_validation():
    ProbabilityMatrix([[0, 0.5], [0.5, 0]])
    with pytest.raises(InvalidParam):
        ProbabilityMatrix([[0, 0.5, 0.5], [0.5, 0, 0.5]])
    with pytest.raises(InvalidParam):
        ProbabilityMatrix([[0, 1.5], [1.5, 0]])
    with pytest.raises(InvalidParam):
        ProbabilityMatrix([[0, 0.4], [0.6, 0]])
    with pytest.raises(InvalidParam):
        ProbabilityMatrix([[0.2, 0.4], [0.4, 0]])


def test_model_validation():
    with pytest.raises(InvalidParam):
        ErModel(0, 0.5)
    with pytest.raises(InvalidParam):
        ErModel(5, 1.5)
    with pytest.raises(InvalidParam):
        PlantedModel(5, 0.5, 0.1)  # odd
    with pytest.raises(InvalidParam):
        PlantedModel(4, 0.5, -0.1)
    with pytest.warns(UserWarning):
        PlantedModel(4, 0.3, 0.5)  # p <= q defeats the planted structure


def test_model_rejects_n_whose_cube_reaches_2_63():
    # SimilarityGraph's bound on unit weights; (2^21)^3 == 2^63
    for make in (lambda n: ErModel(n, 0.5), lambda n: PlantedModel(n, 0.5, 0.1)):
        with pytest.raises(InvalidParam, match="too large"):
            make(2 ** 21)
        with pytest.raises(InvalidParam, match="too large"):
            make(99999999998)
        assert make(2 ** 21 - 2).n == 2 ** 21 - 2  # nothing is allocated


def test_generation_extremes():
    g = gen_er(5, 1.0, seed=1)
    assert g.weights.sum() == 5 * 4  # complete
    g0 = gen_er(5, 0.0, seed=1)
    assert g0.weights.sum() == 0
    gp = gen_planted(4, 1.0, 0.0, seed=9)
    assert g.integral
    assert gp.weight(0, 1) == 1 and gp.weight(2, 3) == 1
    assert gp.weights.sum() == 4  # the two in-block edges only


def test_probability_matrix_layout():
    # the dense layouts the models are defined by, and their row blocks
    er = np.full((7, 7), 0.3)
    np.fill_diagonal(er, 0.0)
    planted = np.full((8, 8), 0.2)
    planted[:4, :4] = planted[4:, 4:] = 0.7
    np.fill_diagonal(planted, 0.0)
    for model, want in ((ErModel(7, 0.3), er),
                        (PlantedModel(8, 0.7, 0.2), planted)):
        got = model.probability_matrix().p
        assert got.dtype == np.float64 and np.array_equal(got, want)
        n = model.n
        for r0, r1 in ((0, 1), (2, 5), (3, n), (n - 1, n)):
            assert np.array_equal(model._probs(r0, r1), want[r0:r1])


def _sampler_models(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p <= q is allowed, with a warning
        models = [ErModel(n, p) for p in (0.0, 0.3, 1.0)]
        if n % 2 == 0:
            models += [PlantedModel(n, p, q) for p, q in
                       ((0.7, 0.2), (1.0, 0.0), (0.4, 1.0), (0.0, 0.5))]
    return models


@pytest.mark.parametrize("block", [None, 1000, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 400])
def test_sampled_bits_and_unit_kernel_match_oracle(n, block, monkeypatch):
    # a small block cuts both the draws and the triangle products into row
    # blocks of 1000 // n rows (one row when that is 0), across any boundary
    if block is not None:
        monkeypatch.setattr(randgraph_mod, "_DRAW_BLOCK_PAIRS", block)
        monkeypatch.setattr(graph_mod, "_PRODUCT_BLOCK_ENTRIES", block)
    for model in _sampler_models(n):
        for seed in (0, 7, 2**40 + 3):
            A = randgraph_mod._sample(model, seed)
            want = oracle_sample(model.probability_matrix(), seed)
            assert A.dtype == np.float32
            assert np.array_equal(A, want.weights)
            base = graph_mod._unit_base_cost(A)
            assert type(base) is int and base == base_cost(want)


def test_generators_return_the_oracle_graph():
    for n, p, seed in ((65, 0.3, 1), (400, 0.5, 9)):
        g = gen_er(n, p, seed)
        want = oracle_sample(ErModel(n, p).probability_matrix(), seed)
        assert g.weights.dtype == np.int64
        assert np.array_equal(g.weights, want.weights)
    g = gen_planted(64, 0.8, 0.1, 5)
    want = oracle_sample(PlantedModel(64, 0.8, 0.1).probability_matrix(), 5)
    assert np.array_equal(g.weights, want.weights)


def test_generation_deterministic_by_seed():
    a = gen_er(20, 0.4, seed=123)
    b = gen_er(20, 0.4, seed=123)
    c = gen_er(20, 0.4, seed=124)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def oracle_expected_base(P, num=float):
    # E[two smallest of three indicators] = E[sum] - E[max],
    # and the max is 1 unless all three pairs stay absent
    p = P.p
    out = num(0)
    for i, j, k in combinations(range(P.n), 3):
        a, b, c = num(p[i, j]), num(p[i, k]), num(p[j, k])
        out += a + b + c - (1 - (1 - a) * (1 - b) * (1 - c))
    return out


MODELS = [
    ErModel(8, 0.5), ErModel(12, 0.25), ErModel(9, 0.37), ErModel(11, 0.1),
    PlantedModel(10, 0.7, 0.2), PlantedModel(8, 0.9, 0.1),
    PlantedModel(12, 0.6, 0.35), PlantedModel(2, 0.5, 0.1),
]


@pytest.mark.parametrize("model", MODELS)
def test_expected_base_closed_form_is_exact_value_rounded_once(model):
    P = model.probability_matrix()
    got = expected_base_cost(model)
    assert got == float(oracle_expected_base(P, Fraction))
    assert got == pytest.approx(oracle_expected_base(P), rel=1e-12)


@pytest.mark.parametrize("model", MODELS)
def test_expected_base_matches_oracle(model):
    P = model.probability_matrix()
    assert expected_base_cost(P) == pytest.approx(oracle_expected_base(P),
                                                  rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16])
def test_expected_base_of_arbitrary_matrix_matches_oracle(n):
    rng = np.random.default_rng(n)
    p = np.triu(rng.random((n, n)), 1)
    P = ProbabilityMatrix(p + p.T)
    assert expected_base_cost(P) == pytest.approx(oracle_expected_base(P),
                                                  rel=1e-12, abs=1e-12)


def test_expected_base_of_arbitrary_matrix_is_bit_identical():
    # the expression expected_base_cost used before it shared its identity
    # with the integer level kernel; the float result must not move a bit
    def before(p):
        s = p.sum(axis=1)
        wedges = float((s * s - (p * p).sum(axis=1)).sum()) / 2.0
        triangles = float(((p @ p) * p).sum()) / 6.0
        return wedges - triangles

    rng = np.random.default_rng(11)
    for n in range(1, 61):
        p = np.triu(rng.random((n, n)), 1)
        if n % 3 == 0:
            p *= rng.random((n, n)) < 0.5
        P = ProbabilityMatrix(p + p.T)
        assert expected_base_cost(P) == before(P.p)


def test_expected_base_er_closed_form():
    for n, p in [(6, 0.5), (30, 0.2), (11, 1.0)]:
        want = math.comb(n, 3) * (2 * p**3 + 3 * p**2 * (1 - p))
        got = expected_base_cost(ErModel(n, p).probability_matrix())
        assert got == pytest.approx(want, rel=1e-12)


def test_expectation_tree_total_closed_forms():
    # constant-p graph: any tree pays two p-edges per triplet
    assert expectation_tree_total_cost(ErModel(7, 0.5)) == \
        pytest.approx(2 * 0.5 * math.comb(7, 3))
    # two blocks of h: in-block triplets pay 2p, mixed ones cut across at 2q
    h, p, q = 5, 0.8, 0.2
    want = 2 * p * 2 * math.comb(h, 3) + 2 * q * 2 * math.comb(h, 2) * h
    assert expectation_tree_total_cost(PlantedModel(2 * h, p, q)) == \
        pytest.approx(want)


def test_predicted_rho_er():
    for p in (0.1, 0.5, 1.0):
        assert predicted_rho(ErModel(50, p)) == pytest.approx(2 / (3 * p - p * p))
    assert predicted_rho(ErModel(50, 0.0)) == math.inf


def test_predicted_rho_planted_formula():
    p, q = 0.6, 0.15
    want = (2 * p + 6 * q) / (3 * (p + q) ** 2 - p**3 - 3 * p * q * q)
    assert predicted_rho(PlantedModel(10, p, q)) == pytest.approx(want)


def test_predicted_rho_is_large_n_limit():
    # prediction = (expectation-tree total) / (expected base), which for the
    # one-probability model is exactly n-free and for the planted model is
    # its large-n limit
    m = ErModel(9, 0.37)
    assert predicted_rho(m) == pytest.approx(
        expectation_tree_total_cost(m)
        / expected_base_cost(m.probability_matrix()), rel=1e-12)
    big = PlantedModel(400, 0.6, 0.2)
    finite = expectation_tree_total_cost(big) \
        / expected_base_cost(big.probability_matrix())
    assert predicted_rho(big) == pytest.approx(finite, rel=2e-2)


def test_planted_reduces_to_er_at_equal_probabilities():
    for p in (0.2, 0.5, 0.8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            planted = PlantedModel(12, p, p)
        er = ErModel(12, p)
        assert abs(predicted_rho(planted) - predicted_rho(er)) < 1e-12


def test_predicted_rho_peaks_at_third_of_p():
    # d(rho)/dq crosses zero at q = p/3: rising before, falling after
    p = 0.6
    grid = [p / 3 + d for d in (-0.1, -0.05, 0.0, 0.05, 0.1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals = [predicted_rho(PlantedModel(10, p, q)) for q in grid]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > vals[3] > vals[4]


# -- experiments ----------------------------------------------------------------

def test_experiment_requires_trials():
    with pytest.raises(InvalidParam):
        run_experiment(ErModel(10, 0.5), trials=0, seed_base=1)


def test_experiment_seeds_and_bases_match_generation():
    model = ErModel(30, 0.4)
    rep = run_experiment(model, trials=4, seed_base=100)
    assert rep.seeds == (100, 101, 102, 103)
    assert rep.samples == 4
    for seed, b in zip(rep.seeds, rep.base_costs):
        assert b == base_cost(gen_er(30, 0.4, seed))


def test_experiment_builds_no_graph_and_no_probability_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial built a dense object it does not need")

    want = run_experiment(PlantedModel(80, 0.6, 0.2), trials=3, seed_base=5)
    monkeypatch.setattr(randgraph_mod, "SimilarityGraph", refuse)
    monkeypatch.setattr(randgraph_mod, "ProbabilityMatrix", refuse)
    got = run_experiment(PlantedModel(80, 0.6, 0.2), trials=3, seed_base=5)
    assert got == want


def test_experiment_trial_memory_is_bounded():
    # one trial holds its float32 adjacency (4 bytes per pair) plus blocks;
    # numpy reports its buffers to tracemalloc
    n = 3000
    tracemalloc.start()
    try:
        run_experiment(ErModel(n, 0.5), 1, 7, jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 4


def test_experiment_worker_count_is_invisible():
    model = PlantedModel(40, 0.6, 0.2)
    a = run_experiment(model, trials=10, seed_base=7, jobs=1)
    b = run_experiment(model, trials=10, seed_base=7, jobs=8)
    assert a == b


@pytest.mark.parametrize("jobs", [0, -1])
def test_experiment_rejects_jobs_below_one(jobs):
    with pytest.raises(InvalidParam):
        run_experiment(ErModel(10, 0.5), trials=2, seed_base=0, jobs=jobs)


def test_experiment_sure_graph_has_unit_ratio():
    rep = run_experiment(ErModel(12, 1.0), trials=3, seed_base=0)
    assert rep.max_base_deviation == 0.0
    assert rep.rho_estimates == (1.0, 1.0, 1.0)
    assert rep.rho_mean == 1.0


def test_experiment_concentrates():
    model = ErModel(200, 0.4)
    rep = run_experiment(model, trials=10, seed_base=42)
    assert rep.max_base_deviation < 0.1
    assert rep.rho_mean == pytest.approx(predicted_rho(model), rel=0.05)
