"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <k> PASS|FAIL`` line and then asserts,
so any run mode shows the verdict table even when a criterion goes red.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np

from hcratio import (
    ErModel,
    PlantedModel,
    approx_tree,
    base_cost,
    build_bisection,
    cost_report,
    dasgupta_cost,
    is_consistent,
    optimal_ratio_bruteforce,
    predicted_rho,
    ratio_cost,
    run_experiment,
    total_cost,
)
from hcratio.brute import _inside, _optimal_total
from hcratio.cli import main as cli_main
from hcratio.cost import ratio_of
from hcratio.tree import HcTree

from helpers import (
    clique_graph,
    graph_from,
    is_connected,
    linked_stars,
    oracle_triplet_sum,
    path_graph,
    random_nested,
)


def _report(capsys, num, ok, detail):
    # step outside pytest's capture so the verdict line shows in any run mode
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_graph(rng, n, wmax=3, keep=1.0):
    W = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    vals = rng.integers(0, wmax + 1, size=len(iu[0]))
    if keep < 1.0:
        vals = vals * (rng.random(len(iu[0])) < keep)
    W[iu] = vals
    return graph_from(W + W.T)


_corpus_cache = []


def _corpus():
    """Random integer graphs with detection and brute-force results attached."""
    if not _corpus_cache:
        rng = np.random.default_rng(2024)
        for idx in range(260):
            n = int(rng.integers(3, 8))
            if idx % 5 == 0:  # a unit-weight slice keeps criterion 6 fed
                wmax, keep = 1, 0.8
            else:
                wmax, keep = 3, (1.0 if idx % 2 else 0.45)
            g = _random_graph(rng, n, wmax=wmax, keep=keep)
            _corpus_cache.append(
                (g, build_bisection(g), optimal_ratio_bruteforce(g)))
    return _corpus_cache


def test_criterion_01_cliques(capsys):
    t0 = time.perf_counter()
    problems = []
    for n in range(3, 9):
        g = clique_graph(n)
        res = build_bisection(g)
        if not res.perfect:
            problems.append(f"K{n} not detected perfect")
            continue
        rep = cost_report(g, res.tree)
        want = 2 * math.comb(n, 3)
        if not (rep.total == rep.base == want and rep.ratio == Fraction(1)):
            problems.append(f"K{n}: total={rep.total} base={rep.base} "
                            f"ratio={rep.ratio}, expected {want} & 1")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report(capsys, 1, not problems,
            problems or f"K3..K8 perfect, total=base=2*C(n,3), {elapsed:.2f}s")


def test_criterion_02_stars_and_paths(capsys):
    problems = []
    g = linked_stars(8)
    # positive edges: two 4-vertex stars plus the centre-centre link; each
    # centre then meets 4 edges, giving 2*C(4,2) = 12 wedges and no triangle,
    # so the base census is 12 = n^2/4 - n/2 at n = 8
    if base_cost(g) != 12:
        problems.append(f"linked stars base {base_cost(g)} != 12")
    if not build_bisection(g).perfect:
        problems.append("linked stars not detected perfect")
    for n in range(3, 13):
        got = base_cost(path_graph(n))
        if got != n - 2:
            problems.append(f"path {n}: base {got} != {n - 2}")
    _report(capsys, 2, not problems,
            problems or "linked-stars base 12 + perfect; path base = n-2 "
                        "for n=3..12")


def test_criterion_03_paths_brute(capsys):
    t0 = time.perf_counter()
    problems = []
    for n in (3, 4):
        if not build_bisection(path_graph(n)).perfect:
            problems.append(f"P{n} should be perfect")
    rhos = {}
    for n in range(5, 10):
        g = path_graph(n)
        if build_bisection(g).perfect:
            problems.append(f"P{n} wrongly detected perfect")
        rhos[n] = optimal_ratio_bruteforce(g).rho
    if rhos[5] != Fraction(4, 3):
        problems.append(f"P5 optimum {rhos[5]} != 4/3")
    if not all(rhos[n] < rhos[n + 1] for n in range(5, 9)):
        problems.append(f"path optima not strictly increasing: {rhos}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    _report(capsys, 3, not problems,
            problems or f"P3,P4 perfect; P5..P9 optima {rhos[5]}..{rhos[9]} "
                        f"strictly increasing, {elapsed:.1f}s")


def test_criterion_04_detection_agrees_with_bruteforce(capsys):
    t0 = time.perf_counter()
    problems = []
    perfect_count = 0
    corpus = _corpus()
    for g, res, opt in corpus:
        if res.perfect != (opt.rho == 1):
            problems.append(f"disagreement on n={g.n}: detected={res.perfect} "
                            f"brute rho={opt.rho}")
        if res.perfect:
            perfect_count += 1
            if total_cost(g, res.tree) != base_cost(g):
                problems.append(f"n={g.n}: perfect tree total != base")
            if not is_consistent(g, res.tree):
                problems.append(f"n={g.n}: perfect tree inconsistent")
            if not isinstance(opt.rho, Fraction):
                problems.append("brute ratio not exact")
    elapsed = time.perf_counter() - t0
    if len(corpus) < 200:
        problems.append(f"only {len(corpus)} instances")
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    _report(capsys, 4, not problems,
            problems or f"{len(corpus)} graphs agree ({perfect_count} perfect), "
                        f"{elapsed:.1f}s")


def test_criterion_05_cost_identities(capsys):
    rng = np.random.default_rng(99)
    problems = []
    pairs = 0
    for _ in range(500):
        n = int(rng.integers(3, 9))
        g = _random_graph(rng, n, wmax=4, keep=0.8)
        t = HcTree.from_nested(random_nested(rng, n))
        pairs += 1
        das, tot = dasgupta_cost(g, t), total_cost(g, t)
        if tot != das - 2 * g.total_weight():
            problems.append(f"edge identity broke at n={n}")
            break
        if tot != oracle_triplet_sum(g.weights, t.to_nested()):
            problems.append(f"triplet identity broke at n={n}")
            break
    _report(capsys, 5, not problems,
            problems or f"{pairs} graph/tree pairs: total = dasgupta - 2W "
                        "= triplet sum, exactly")


def test_criterion_06_optimum_bounds(capsys):
    problems = []
    connected_checked = 0
    for g, _, opt in _corpus():
        n = g.n
        if not isinstance(opt.rho, Fraction):
            problems.append("non-exact optimum in corpus")
            break
        if not Fraction(1) <= opt.rho <= n - 2:
            problems.append(f"n={n}: rho {opt.rho} outside [1, {n - 2}]")
        if g.weights.max() <= 1 and is_connected(g):
            m = len(g.positive_pairs()[0])
            cap = Fraction(n * n - 2 * n, 2 * m - n)
            connected_checked += 1
            if opt.rho > cap:
                problems.append(f"n={n} m={m}: rho {opt.rho} > {cap}")
    # n = 11..13, past brute force: the exact optimum of the subset DP
    rng = np.random.default_rng(2026)
    dp_checked = 0
    for n in (11, 12, 13):
        for wmax, keep in ((3, 0.6), (3, 0.6), (1, 0.4), (1, 0.4)):
            g = _random_graph(rng, n, wmax=wmax, keep=keep)
            while not is_connected(g):
                g = _random_graph(rng, n, wmax=wmax, keep=keep)
            rho = ratio_of(_optimal_total(_inside(g.weights.tolist())),
                           base_cost(g), True)
            dp_checked += 1
            if not Fraction(1) <= rho <= n - 2:
                problems.append(f"DP n={n}: rho {rho} outside [1, {n - 2}]")
            if wmax == 1:
                m = len(g.positive_pairs()[0])
                cap = Fraction(n * n - 2 * n, 2 * m - n)
                connected_checked += 1
                if rho > cap:
                    problems.append(f"DP n={n} m={m}: rho {rho} > {cap}")
    # float graphs: scaled copies, uniform cliques (every tree ties) and
    # two-decimal weights, searched on exact integers
    float_checked = 0
    for idx in range(21):
        n = 3 + idx % 7
        if idx % 3 == 0:
            W = _random_graph(rng, n).weights * 0.3 + 0.05
        elif idx % 3 == 1:
            W = clique_graph(n).weights * 0.3
        else:
            W = rng.integers(1, 100, (n, n)) / 100
        g = graph_from(np.triu(W, 1) + np.triu(W, 1).T)
        rho = optimal_ratio_bruteforce(g).rho
        float_checked += 1
        if not (isinstance(rho, float) and 1 <= rho <= n - 2):
            problems.append(f"float n={n}: rho {rho!r} outside [1, {n - 2}]")
    _report(capsys, 6, not problems,
            problems or f"bounds hold on {len(_corpus())} graphs, "
                        f"{dp_checked} DP optima at n = 11..13 "
                        f"({connected_checked} connected unweighted) and "
                        f"{float_checked} float graphs at n = 3..9")


def test_criterion_07_perturbation_guarantee(capsys):
    rng = np.random.default_rng(7)
    delta = Fraction(3, 2)
    d2 = delta * delta            # 9/4
    bound = 1 + d2                # 13/4
    problems = []
    done = 0
    while done < 50 and not problems:
        n = int(rng.integers(4, 9))
        g = _random_graph(rng, n, wmax=3, keep=0.7)
        if not build_bisection(g).perfect:
            continue
        # scale the perfect graph by 12, then stretch each positive weight
        # by an integer factor in [8, 18]: a 3/2-distortion of 12*g
        iu = np.triu_indices(n, 1)
        K = rng.integers(8, 19, size=len(iu[0]))
        H = np.zeros((n, n), dtype=np.int64)
        H[iu] = g.weights[iu] * K
        h = graph_from(H + H.T)
        done += 1
        t = approx_tree(h, delta)
        if t is None:
            problems.append(f"approximation refused a {delta}-perturbation")
            break
        opt = optimal_ratio_bruteforce(h)
        achieved = ratio_cost(h, t)
        if not isinstance(achieved, Fraction) or not isinstance(opt.rho, Fraction):
            problems.append("non-exact arithmetic in guarantee check")
        elif opt.rho > d2:
            problems.append(f"optimum {opt.rho} exceeds delta^2 {d2}")
        elif achieved > bound * opt.rho:
            problems.append(f"achieved {achieved} > {bound} * {opt.rho}")
    _report(capsys, 7, not problems,
            problems or f"{done} perturbed instances within (1+delta^2) "
                        "of optimum, optimum <= delta^2")


def test_criterion_08_large_random_concentration(capsys):
    t0 = time.perf_counter()
    model = ErModel(300, 0.5)
    rep = run_experiment(model, trials=20, seed_base=7)
    problems = []
    ebc = rep.expected_base_cost
    for b, rho in zip(rep.base_costs, rep.rho_estimates):
        if not 0.95 <= b / ebc <= 1.05:
            problems.append(f"base {b} off expectation {ebc:.1f}")
        if abs(rho / 1.6 - 1.0) > 0.05:
            problems.append(f"rho estimate {rho} not within 5% of 1.6")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(capsys, 8, not problems,
            problems or f"20 trials at n=300: base within "
                        f"{rep.max_base_deviation:.3f} of expectation, "
                        f"rho-hat mean {rep.rho_mean:.4f}, {elapsed:.1f}s")


def test_criterion_08_large_random_concentration_n2000(capsys):
    t0 = time.perf_counter()
    rep = run_experiment(ErModel(2000, 0.5), trials=5, seed_base=7)
    problems = []
    ebc = rep.expected_base_cost
    for b, rho in zip(rep.base_costs, rep.rho_estimates):
        if not 0.95 <= b / ebc <= 1.05:
            problems.append(f"base {b} off expectation {ebc:.1f}")
        if abs(rho / 1.6 - 1.0) > 0.05:
            problems.append(f"rho estimate {rho} not within 5% of 1.6")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    _report(capsys, 8, not problems,
            problems or f"5 trials at n=2000: base within "
                        f"{rep.max_base_deviation:.4f} of expectation, "
                        f"rho-hat mean {rep.rho_mean:.4f}, {elapsed:.1f}s")


def test_criterion_08_large_random_concentration_n5000(capsys):
    t0 = time.perf_counter()
    rep = run_experiment(ErModel(5000, 0.5), trials=2, seed_base=7)
    problems = []
    ebc = rep.expected_base_cost
    for b, rho in zip(rep.base_costs, rep.rho_estimates):
        if not 0.95 <= b / ebc <= 1.05:
            problems.append(f"base {b} off expectation {ebc:.1f}")
        if abs(rho / 1.6 - 1.0) > 0.05:
            problems.append(f"rho estimate {rho} not within 5% of 1.6")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    _report(capsys, 8, not problems,
            problems or f"2 trials at n=5000: base within "
                        f"{rep.max_base_deviation:.4f} of expectation, "
                        f"rho-hat mean {rep.rho_mean:.4f}, {elapsed:.1f}s")


def test_criterion_09_planted_reduction_and_turning_point(capsys):
    problems = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in np.linspace(0.1, 0.9, 9):
            p = round(float(p), 3)
            diff = abs(predicted_rho(PlantedModel(10, p, p))
                       - predicted_rho(ErModel(10, p)))
            if diff > 1e-12:
                problems.append(f"q=p reduction off by {diff} at p={p}")
        for p in (0.3, 0.6, 0.9):
            d = 0.02
            lo = predicted_rho(PlantedModel(10, p, p / 3 - d))
            mid = predicted_rho(PlantedModel(10, p, p / 3))
            hi = predicted_rho(PlantedModel(10, p, p / 3 + d))
            if not (lo < mid and mid > hi):
                problems.append(f"no sign flip around q=p/3 at p={p}: "
                                f"{lo}, {mid}, {hi}")
    _report(capsys, 9, not problems,
            problems or "planted(q=p) = uniform to 1e-12 on p-grid; "
                        "d(rho)/dq flips sign at q=p/3")


def test_criterion_10_cli_determinism(capsys):
    args = ["random", "--er", "300", "0.5", "--trials", "20", "--seed", "7"]
    code1 = cli_main(args + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    code2 = cli_main(args + ["--jobs", "8"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and out1
    _report(capsys, 10, ok, "jobs=1 and jobs=8 produce byte-identical output"
            if ok else f"codes {code1},{code2}; outputs equal: {out1 == out2}")
