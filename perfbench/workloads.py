"""The benchmark's workloads: seeded inputs on disk plus the CLI jobs over them.

random-unit   `random --er` / `--planted` on 0/1 weights with --jobs 2.  Time
              goes to base_cost and expected_base_cost; detection, the
              approximation, brute force and the tree code are bypassed.
cluster-levels  larger graphs with about n weight levels: detect on perfect
              ultrametrics (integer and float copies), on delta-perturbations
              and on random weights; approx on the perturbations; cost on big
              perfect graphs against their generating tree (the full
              consistency scan).  Per-triplet Python loops dominate.
exact-small   many graphs with 4 to 8 vertices through brute, detect, approx
              and cost, a quarter of them holding a claw so that detection's
              claw split runs.  Brute force dominates; per-call overhead of
              the CLI, loaders and SimilarityGraph shows.

A job's check sees every job's outcome, so it can relate one command's
verdict to another's (detect says perfect exactly when brute's rho is 1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks
import inputs
from inputs import DELTA

WORKLOADS = ("random-unit", "cluster-levels", "exact-small")
JOBS = 2  # --jobs for `random`: the only threaded stage

# Sizes per workload and mode.  "tiny" keeps the same job mix at sizes that
# finish in about a second, for the self-test.
PARAMS = {
    "random-unit": {
        "full": {"n": 400, "trials": 4, "tol": 0.05},
        "tiny": {"n": 40, "trials": 2, "tol": 0.25},
    },
    "cluster-levels": {
        "full": {"detect_n": [50, 60], "cost_n": [300]},
        "tiny": {"detect_n": [12], "cost_n": [30]},
    },
    "exact-small": {
        "full": {"graphs": 40, "n_max": 8},
        "tiny": {"graphs": 6, "n_max": 6},
    },
}


@dataclass
class Outcome:
    code: Optional[int]  # None when main raised
    out: str
    seconds: float


@dataclass
class Job:
    id: str
    argv: list[str]
    # check(own outcome, all outcomes by job id) raises checks.Bad
    check: Callable[[Outcome, dict], None]
    before: Optional[Callable[[dict], None]] = None  # writes chained inputs

    @property
    def command(self) -> str:
        return self.argv[0]


def build(workload: str, seed: int, size: str, workdir: str) -> list[Job]:
    """Generate the workload's inputs under ``workdir`` and return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, PARAMS[workload][size], workdir)


def _random_unit(rng, p, workdir) -> list[Job]:
    jobs = []
    n, trials = p["n"], p["trials"]
    for model, probs in (("er", (0.5,)), ("planted", (0.5, 0.1))):
        s = int(rng.integers(1, 1_000_000))
        argv = ["random", f"--{model}", str(n), *map(str, probs),
                "--trials", str(trials), "--seed", str(s), "--jobs", str(JOBS)]
        jobs.append(Job(f"random-{model}", argv,
                        _expect_random(model, n, probs, trials, s, p["tol"])))
    return jobs


def _cluster_levels(rng, p, workdir) -> list[Job]:
    jobs = []
    delta = str(float(DELTA))
    for k, n in enumerate(p["detect_n"]):
        um = inputs.ultrametric(rng, n)
        for name, w, write, exact in (
                (f"perfect{k}", um.weights, inputs.write_edge_list, True),
                (f"float{k}", inputs.float_copy(um.weights), inputs.write_matrix,
                 False)):
            g = os.path.join(workdir, name + ".txt")
            t = os.path.join(workdir, name + ".detect.nwk")
            write(g, w)
            jobs.append(Job(f"detect-{name}", ["detect", g, "--emit-tree", t],
                            _expect_detect(perfect=True)))
            jobs.append(Job(f"cost-{name}-detected", ["cost", g, t],
                            _expect_cost_perfect(exact=exact)))
        h = os.path.join(workdir, f"perturbed{k}.txt")
        inputs.write_edge_list(h, inputs.perturb(rng, um.weights))
        jobs.append(Job(f"detect-perturbed{k}", ["detect", h],
                        _expect_detect(perfect=None)))
        jobs.append(Job(f"approx-perturbed{k}", ["approx", h, "--delta", delta],
                        _expect_approx(perturbed=True)))
        r = os.path.join(workdir, f"random{k}.txt")
        inputs.write_matrix(r, inputs.random_weights(rng, n, wmax=100))
        jobs.append(Job(f"detect-random{k}", ["detect", r],
                        _expect_detect(perfect=False)))
    for k, n in enumerate(p["cost_n"]):
        um = inputs.ultrametric(rng, n)
        tree = inputs.binarize(um.tree)
        g = os.path.join(workdir, f"big{k}.txt")
        t = os.path.join(workdir, f"big{k}.nwk")
        inputs.write_edge_list(g, um.weights)
        with open(t, "w", encoding="utf-8") as fh:
            fh.write(inputs.newick(tree) + "\n")
        jobs.append(Job(f"cost-big{k}", ["cost", g, t],
                        _expect_cost_perfect(inputs.dasgupta_of(um.weights, tree))))
    return jobs


def _exact_small(rng, p, workdir) -> list[Job]:
    jobs = []
    delta = str(float(DELTA))
    kinds = ("perfect", "random", "perturbed", "claw")
    for idx in range(p["graphs"]):
        # every (n, kind) pair equally often, so the mix is the same per seed
        n = 4 + idx % (p["n_max"] - 3)
        kind = kinds[idx % len(kinds)]
        perfect = True if kind in ("perfect", "claw") else None
        if kind == "random":
            w = inputs.random_weights(rng, n, wmax=3, keep=0.7)
        elif kind == "claw":
            w = inputs.claw(rng, n)
        else:
            w = inputs.ultrametric(rng, n, max_step=2).weights
            if kind == "perturbed":
                w = inputs.perturb(rng, w)
        name = f"g{idx}-{kind}-n{n}"
        g = os.path.join(workdir, name + ".txt")
        (inputs.write_edge_list if idx % 2 else inputs.write_matrix)(g, w)
        t_detect = os.path.join(workdir, name + ".detect.nwk")
        t_brute = os.path.join(workdir, name + ".brute.nwk")
        jd, jb = f"detect-{name}", f"brute-{name}"
        jobs.append(Job(jd, ["detect", g, "--emit-tree", t_detect],
                        _expect_detect(perfect)))
        jobs.append(Job(jb, ["brute", g], _expect_brute(n, jd)))
        jobs.append(Job(f"approx-{name}", ["approx", g, "--delta", delta],
                        _expect_approx(perturbed=kind == "perturbed", brute_id=jb)))
        jobs.append(Job(f"cost-{name}-brute", ["cost", g, t_brute],
                        _expect_cost_matches(jb),
                        before=_write_brute_tree(jb, t_brute)))
        if perfect:
            jobs.append(Job(f"cost-{name}-detected", ["cost", g, t_detect],
                            _expect_cost_perfect()))
    return jobs


_BUILDERS = {"random-unit": _random_unit, "cluster-levels": _cluster_levels,
             "exact-small": _exact_small}


# ---------------------------------------------------------------------------
# checks: each factory returns check(own outcome, all outcomes)


def _expect_random(model, n, probs, trials, seed, tol):
    p, q = probs[0], probs[-1] if model == "planted" else 0.0
    return lambda o, res: checks.check_random(o.out, o.code, model, n, p, q,
                                              trials, seed, tol)


def _expect_detect(perfect: Optional[bool]):
    def check(o, res):
        said = checks.parse_detect(o.out, o.code) is None
        if perfect is not None:
            checks.need(said == perfect,
                        f"detect says {'perfect' if said else 'not-perfect'}")
    return check


def _expect_cost_perfect(dasgupta=None, exact=True):
    return lambda o, res: checks.check_cost_perfect(o.out, o.code, dasgupta, exact)


def _expect_brute(n, detect_id):
    def check(o, res):
        d = res[detect_id]
        perfect = checks.parse_detect(d.out, d.code) is None
        checks.check_brute(o.out, o.code, n, perfect)
    return check


def _brute_rho(res, brute_id):
    b = res[brute_id]
    checks.need(b.code == 0, f"{brute_id} did not succeed")
    return checks.parse_brute(b.out)["rho"]


def _expect_approx(perturbed: bool, brute_id=None):
    def check(o, res):
        rho = _brute_rho(res, brute_id) if brute_id else None
        checks.check_approx(o.out, o.code, rho, perturbed)
    return check


def _expect_cost_matches(brute_id):
    return lambda o, res: checks.check_cost_matches(o.out, o.code,
                                                    _brute_rho(res, brute_id))


def _write_brute_tree(brute_id, path):
    """Chain brute's optimal tree into a cost job (empty file if it failed)."""
    def before(res):
        lines = res[brute_id].out.splitlines()
        tree = next((ln[5:] for ln in lines if ln.startswith("tree ")), "")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(tree + "\n")
    return before
