"""One pass of one workload, in a process of its own.

Imports hcratio from the checkout's ``src``, writes the workload's inputs,
then drives ``hcratio.cli.main(argv)`` in-process for every job, capturing
stdout and the exit code.  After the timed loop it checks every output and
writes one JSON result file.  With ``--trace`` the loop runs under the span
recorder and the result carries per-layer numbers instead of being an
end-to-end sample.

    python3 perfbench/worker.py --workload W --seed S --size full \
        --trace 0 --spawned-at T --workdir DIR --result FILE

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_jobs(cli, jobs) -> tuple[dict, float]:
    """Run every job through cli.main; returns outcomes and loop wall time."""
    results: dict = {}
    start = time.perf_counter()
    for job in jobs:
        if job.before is not None:
            job.before(results)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(job.argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            buf.write(traceback.format_exc())
        results[job.id] = workloads.Outcome(code, buf.getvalue(), time.perf_counter() - t0)
    return results, time.perf_counter() - start


def check_jobs(jobs, results, golden: dict | None) -> dict[str, str]:
    """Failure reason per failed job id: invariant, then golden digest."""
    failed = {}
    for job in jobs:
        o = results[job.id]
        try:
            checks.need(o.code is not None, "raised:\n" + o.out)
            job.check(o, results)
            if golden is not None:
                checks.need(golden.get(job.id) == checks.digest(o.code, o.out),
                            "stdout or exit code differs from the golden digest")
        except checks.Bad as exc:
            failed[job.id] = str(exc)
        except Exception:  # a check that cannot read the output fails the job
            failed[job.id] = traceback.format_exc()
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--golden", help="golden.json; enforced for its seed")
    a = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hcratio.cli as cli  # import time belongs to set-up

    jobs = workloads.build(a.workload, a.seed, a.size, a.workdir)
    golden = None
    if a.golden:
        with open(a.golden, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if recorded["seed"] == a.seed:  # a missing entry fails every job
            golden = recorded["digests"].get(f"{a.workload}/{a.size}", {})

    tracer = spans.Tracer() if a.trace else None
    uninstall = tracer.install() if tracer else None
    setup_s = time.monotonic() - a.spawned_at
    try:
        results, wall = run_jobs(cli, jobs)
    finally:
        if uninstall:
            uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = check_jobs(jobs, results, golden)
    per_cmd: dict[str, float] = {}
    for job in jobs:
        per_cmd[job.command] = per_cmd.get(job.command, 0.0) + results[job.id].seconds
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,  # before the checks allocate
        "cmd_s": per_cmd,
        "attempted": len(jobs),
        "failed": failed,
        "digests": {j.id: checks.digest(results[j.id].code, results[j.id].out)
                    for j in jobs},
    }
    if tracer:
        out["layers"] = spans.layer_metrics(tracer, wall)
        tracer.dump(os.path.join(a.workdir, "spans.jsonl"))
    with open(a.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
