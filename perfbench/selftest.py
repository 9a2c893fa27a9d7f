"""Self-test of the benchmark; exits 0 when every case holds.

    python3 perfbench/selftest.py

1. The tiny size of every workload runs through run.py with and without
   tracing, on the recorded seed (golden digests enforced) and on another
   seed (invariants only), and reports no failed job.
2. A corrupted or missing golden digest fails the job it belongs to.
3. A wrong output fails its job: stdout edits that a golden digest would
   catch are caught by the invariants alone, and so is a wrong program (a
   base cost off by one, rebound into every hcratio namespace).
4. Without hcratio sources beside it, run.py exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hcratio.cli as cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import check_jobs, run_jobs  # noqa: E402

with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)
SEED = GOLDEN["seed"]
OTHER_SEED = SEED + 1
problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def run_cli(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in workloads.WORKLOADS:
        for seed in (SEED, OTHER_SEED):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                p = run_cli(["--workload", w, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"])
                lines = p.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if p.returncode == 0 and lines else {}
                names = {m["name"] for m in spec[key]}
                expect(res.get("correct") is True and res.get("failed") == 0
                       and set(res.get("metrics", {})) == names,
                       f"tiny {w} seed {seed} trace {trace} passes with every metric"
                       + ("" if res else f": {p.stderr[-500:]}"))


def outcomes(workload: str, seed: int, tmp: str):
    jobs = workloads.build(workload, seed, "tiny", tmp)
    results, _ = run_jobs(cli, jobs)
    return jobs, results


def golden_cases(tmp: str) -> None:
    for w in workloads.WORKLOADS:
        jobs, results = outcomes(w, SEED, os.path.join(tmp, f"golden-{w}"))
        golden = dict(GOLDEN["digests"][f"{w}/tiny"])
        expect(not check_jobs(jobs, results, golden), f"{w}: goldens hold")
        victim = jobs[0].id
        golden[victim] = "0" * 16
        expect(set(check_jobs(jobs, results, golden)) == {victim},
               f"{w}: a corrupted golden digest fails exactly its job")
        del golden[victim]
        expect(victim in check_jobs(jobs, results, golden),
               f"{w}: a missing golden digest fails its job")


# (workload, job id prefix, text replaced, replacement): each edit keeps the
# output well-formed, so only an invariant can notice it.
EDITS = [
    ("random-unit", "random-er", " base ", " base 1"),
    ("random-unit", "random-planted", "expected-base ", "expected-base 1"),
    ("cluster-levels", "cost-perfect0-detected", "consistent true", "consistent false"),
    ("cluster-levels", "cost-big0", "dasgupta ", "dasgupta 1"),
    ("cluster-levels", "detect-random0", "not-perfect", "perfect"),
    ("exact-small", "brute-", "trees-searched ", "trees-searched 1"),
    ("exact-small", "approx-g2-perturbed", "ratio ", "ratio 9"),
]


def wrong_output_cases(tmp: str) -> None:
    for i, (w, prefix, old, new) in enumerate(EDITS):
        jobs, results = outcomes(w, OTHER_SEED, os.path.join(tmp, f"edit{i}"))
        victim = next(j.id for j in jobs if j.id.startswith(prefix))
        o = results[victim]
        expect(old in o.out, f"{victim}: output contains {old!r}")
        o.out = o.out.replace(old, new, 1)
        if new == "perfect":  # a verdict flip also flips the exit code
            o.out, o.code = "perfect\n", 0
        failed = check_jobs(jobs, results, None)
        expect(victim in failed, f"{victim}: edit {old!r} -> {new!r} is a failure")

    undo = spans.rebind("graph", "base_cost", lambda fn: lambda g: fn(g) + 1)
    try:
        for w in workloads.WORKLOADS:
            jobs, results = outcomes(w, OTHER_SEED, os.path.join(tmp, f"mut-{w}"))
            failed = check_jobs(jobs, results, None)
            expect(bool(failed), f"{w}: base_cost off by one fails "
                                 f"{len(failed)} of {len(jobs)} jobs")
    finally:
        for obj, key, val in reversed(undo):
            setattr(obj, key, val)


def no_sources_case(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = run_cli(["--workload", "exact-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "without src/hcratio: non-zero exit and no result")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        tiny_runs()
        golden_cases(tmp)
        wrong_output_cases(tmp)
        no_sources_case(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
