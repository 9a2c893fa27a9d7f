"""hcratio benchmark: repeated passes of one workload, medians as one JSON line.

    python3 perfbench/run.py --workload cluster-levels --seed 3 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/hcratio`` and
``BENCHMARK.json``.  Each pass is a fresh process (``worker.py``) that
imports hcratio, writes the seeded inputs and drives ``hcratio.cli.main``
in-process over every job of the workload.  Passes repeat until ``--seconds``
is used up; the result reports medians over passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: span times and counts from the traced pass of median
wall time, per-command medians from the untraced passes, and the tracing
overhead (traced minus untraced median wall time).  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
failure reasons go to stderr.  The span log of the last traced pass is kept
under ``.perfbench/``.

``--write-golden`` runs one untraced pass, checks its invariants and records
its stdout digests in ``perfbench/golden.json`` for that seed and size.
Later runs with that seed then fail any job whose stdout or exit code
changed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("random-unit", "cluster-levels", "exact-small")
BUDGET_S = 150  # whole-run cap; the contract allows 180


def run_pass(a, kind: str, workdir: str, index: int, deadline: float) -> dict:
    """One worker process; returns its result dict or exits on a crash."""
    result = os.path.join(workdir, f"pass{index}.json")
    inputs = os.path.join(workdir, f"in{index}")
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", a.workload, "--seed", str(a.seed), "--size", a.size,
           "--trace", "1" if kind == "traced" else "0",
           "--spawned-at", repr(spawned), "--workdir", inputs,
           "--result", result]
    if not a.write_golden:
        cmd += ["--golden", GOLDEN]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"pass {index} ({kind}) ran past the {BUDGET_S}s budget")
    if proc.returncode != 0 or not os.path.exists(result):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"pass {index} ({kind}) exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res.update(kind=kind, elapsed=time.monotonic() - spawned, inputs=inputs)
    if kind != "traced":
        shutil.rmtree(inputs, ignore_errors=True)
    return res


def run_passes(a, workdir: str) -> list[dict]:
    """Alternate pass kinds until the next pass would overrun --seconds."""
    start = time.monotonic()
    stop = start + a.seconds
    deadline = start + BUDGET_S
    kinds = ["plain", "traced"] if a.trace else ["plain"]
    done: list[dict] = []
    last: dict[str, float] = {}
    while True:
        kind = kinds[len(done) % len(kinds)]
        first_round = len(done) < len(kinds)
        if not first_round and time.monotonic() + last[kind] > stop:
            break
        res = run_pass(a, kind, workdir, len(done), deadline)
        last[kind] = res["elapsed"]
        done.append(res)
        if a.write_golden:
            break
    return done


def median_of(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def metrics(a, passes: list[dict], spec: dict) -> dict:
    plain = [p for p in passes if p["kind"] == "plain"]
    if not a.trace:
        values = {m: median_of(plain, m) for m in ("wall_s", "setup_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    else:
        # all layer numbers from one traced pass, the one with the median
        # wall time, so that they add up as within a pass
        traced = sorted((p for p in passes if p["kind"] == "traced"),
                        key=lambda p: p["layers"]["traced_wall_s"])
        values = dict(traced[(len(traced) - 1) // 2]["layers"])
        values["trace_overhead_s"] = values["traced_wall_s"] - median_of(plain, "wall_s")
        for cmd in ("cost", "detect", "approx", "brute", "random"):
            values[f"cmd.{cmd}_s"] = statistics.median(
                p["cmd_s"].get(cmd, 0.0) for p in plain)
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"benchmark produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def write_golden(a, res: dict) -> None:
    if res["failed"]:
        sys.exit("not recording goldens: the pass has failed jobs")
    recorded = {"seed": a.seed, "digests": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            recorded = json.load(fh)
    if recorded["seed"] != a.seed:
        recorded = {"seed": a.seed, "digests": {}}
    recorded["digests"][f"{a.workload}/{a.size}"] = res["digests"]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-golden", action="store_true")
    a = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "hcratio", "__init__.py")):
        sys.exit(f"no hcratio sources under {ROOT}/src: run from a checkout")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    workdir = os.path.join(ROOT, ".perfbench", f"work-{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        passes = run_passes(a, workdir)
        if a.write_golden:
            write_golden(a, passes[0])
            return 0
        traced = [p for p in passes if p["kind"] == "traced"]
        if traced:
            shutil.copy(os.path.join(traced[-1]["inputs"], "spans.jsonl"),
                        os.path.join(ROOT, ".perfbench",
                                     f"spans-{a.workload}-{a.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    for i, p in enumerate(passes):
        for job, why in sorted(p.get("failed", {}).items()):
            failed += 1
            print(f"pass {i} ({p['kind']}) job {job} failed: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.get("attempted", 0) for p in passes),
        "failed": failed,
        "metrics": metrics(a, passes, spec),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
