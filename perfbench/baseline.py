"""Measure a baseline: every workload on two sets of seeds, written as JSON.

    python3 perfbench/baseline.py --seeds 101-110,201-210 --label <commit> \
        --out perfbench/baseline.json

Each set runs every workload untraced once per seed, the sets one after the
other.  Per set and workload the file holds the end-to-end samples with
median, quartiles as ``statistics.quantiles(n=4)`` gives them, and their
spread as a share of the median; ``between_sets`` holds how far each median
of the second set lies from the first's, as a share of the first.  One
traced run per workload on the first seed gives the per-layer numbers.  The
file also records the machine and which end-to-end metric each layer metric
is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Which end-to-end metric each layer metric should move, and where.
LAYER_TO_END_TO_END = {
    "graph.base_cost_s, graph.base_cost_triplets":
        "wall_s on random-unit; cost part of wall_s on cluster-levels",
    "randgraph.expected_base_cost_s, randgraph.run_experiment_s (self time: sampling)":
        "wall_s on random-unit",
    "detect.build_bisection_s, detect.valid_bisect_calls, "
    "detect.minimal_valid_partition_s, detect.detect_claw_s, "
    "detect.claw_hit_ratio, detect.case1_bipartition_s, "
    "detect.case2_bipartition_s, detect.triplet_type_calls, graph.induced_s":
        "wall_s on cluster-levels, where they dominate; small on exact-small",
    "approx.build_constraints_s, approx.constraints, approx.rtc_build_s, "
    "approx.ok_ratio": "wall_s on cluster-levels",
    "cost.find_inconsistent_triplet_s, cost.scan_triplets, "
    "tree.lca_leaf_counts_s, tree.newick_s": "wall_s on cluster-levels",
    "brute.optimal_ratio_bruteforce_s, brute.trees_searched": "wall_s on exact-small",
    "graph.load_graph_s, cli.self_s": "wall_s on exact-small",
    "cmd.<command>_s (untraced time per CLI command)":
        "the command's share of wall_s on the workloads that run it",
}


def seed_sets(text: str) -> list[list[int]]:
    """'101-110,201-210' -> [[101, ..., 110], [201, ..., 210]]."""
    sets = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        sets.append(list(range(int(lo), int(hi or lo) + 1)))
    return sets


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, check=True)
    res = json.loads(p.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, json.dumps(res), file=sys.stderr)
    return res


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med, "samples": values}


def machine() -> dict:
    import numpy
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def end_to_end(seeds: list[int], seconds: int) -> dict:
    out = {}
    for w in WORKLOADS:
        runs = [run(w, s, seconds, 0) for s in seeds]
        out[w] = {"failed": sum(r["failed"] for r in runs),
                  "attempted": sum(r["attempted"] for r in runs),
                  **{m: summary([r["metrics"][m]["value"] for r in runs])
                     for m in runs[0]["metrics"]}}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="101-110,201-210",
                    help="two comma-separated seed ranges")
    ap.add_argument("--label", required=True, help="commit measured")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    first, second = seed_sets(a.seeds)
    sets = [{"seeds": seeds, "end_to_end": end_to_end(seeds, seconds)}
            for seeds in (first, second)]
    between = {w: {m["name"]: sets[1]["end_to_end"][w][m["name"]]["median"]
                   / sets[0]["end_to_end"][w][m["name"]]["median"] - 1
                   for m in spec["end_to_end"]}
               for w in WORKLOADS}
    per_layer = {}
    for w in WORKLOADS:
        traced = run(w, first[0], seconds, 1)
        per_layer[w] = {"seed": first[0], "failed": traced["failed"],
                        **{k: v["value"] for k, v in traced["metrics"].items()}}
    out = {"label": a.label, "machine": machine(), "run_seconds": seconds,
           "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
           "layer_to_end_to_end": LAYER_TO_END_TO_END, "sets": sets,
           "between_sets": between, "per_layer": per_layer}
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
