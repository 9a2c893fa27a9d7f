"""Command-line front end.

Subcommands: cost, detect, approx, brute, random.  Verdicts ride the exit
code (0 positive, 1 negative, 2 error; 141 closed stdout) so pipelines
can branch without scraping text.  Global flags --epsilon, --jobs,
--records are accepted before or after the subcommand.  All output is
deterministic: identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from math import isinf
from typing import Optional, Sequence

from .approx import _delta_squared, approx_tree
from .brute import optimal_ratio_bruteforce
from .cost import cost_report, ratio_cost
from .detect import build_bisection
from .errors import HcratioError, InvalidParam, ParseError
from .graph import SimilarityGraph, load_graph
from .randgraph import ErModel, PlantedModel, run_experiment
from .tree import _newick_name, parse_newick, serialize_newick


def _fmt(x) -> str:
    """Canonical text for a value: bools as true/false, floats via repr."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (str, int, Fraction)):
        return str(x)
    if isinf(x):
        return "inf"
    return repr(x)


_RATIOS = ("ratio", "bound", "rho")  # fields printed exact with a decimal


def _print(ns, verdict: Optional[str], fields=()) -> None:
    """Print one result: an optional verdict word, then ``(key, value)`` fields.

    Plain lines are ``key value`` and records ``key<TAB>value``; a verdict is
    a bare word, or the record ``verdict<TAB>word``.  A ratio field prints
    exact with its decimal, ``4/3 (1.3333333333333333)``, and as a record
    prints exact followed by a ``key-decimal`` record.
    """
    sep = "\t" if ns.records else " "
    lines = [] if verdict is None else [
        f"verdict\t{verdict}" if ns.records else verdict]
    for key, value in fields:
        lines.append(f"{key}{sep}{_fmt(value)}")
        if key in _RATIOS:
            decimal = _fmt(float(value))
            if ns.records:
                lines.append(f"{key}-decimal\t{decimal}")
            elif isinstance(value, Fraction):
                lines[-1] += f" ({decimal})"
    print("\n".join(lines))


def _emit_tree(ns, t, g: SimilarityGraph) -> None:
    """Write ``t`` as Newick to ``--emit-tree``, if given, before any output."""
    if ns.emit_tree:
        with open(ns.emit_tree, "w", encoding="utf-8") as fh:
            fh.write(serialize_newick(t, labels=g.labels) + "\n")


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark and reads all else as utf-8
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None


def _load_graph(path: str, epsilon: float) -> SimilarityGraph:
    return load_graph(_read(path), epsilon=epsilon)


def _param(name: str, text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InvalidParam(f"{name} must be {what}, got {text!r}") from None


def cmd_cost(ns) -> int:
    g = _load_graph(ns.graph, ns.epsilon)
    t = parse_newick(_read(ns.tree), labels=g.labels)
    rep = cost_report(g, t)
    _print(ns, None, [("dasgupta", rep.dasgupta), ("total", rep.total),
                      ("base", rep.base), ("ratio", rep.ratio),
                      ("consistent", rep.consistent)])
    return 0


def cmd_detect(ns) -> int:
    g = _load_graph(ns.graph, ns.epsilon)
    result = build_bisection(g)
    if result.perfect:
        _emit_tree(ns, result.tree, g)
        _print(ns, "perfect")
        return 0
    failing = ",".join(_newick_name(g.labels[v])
                       for v in sorted(result.failed_on))
    if ns.records:
        _print(ns, "not-perfect", [("failing", failing)])
    else:
        print(f"not-perfect {failing}")
    return 1


def cmd_approx(ns) -> int:
    bound = 1 + _delta_squared(ns.delta)  # validates delta >= 1 up front
    g = _load_graph(ns.graph, ns.epsilon)
    t = approx_tree(g, ns.delta)
    if t is None:
        _print(ns, "failed")
        return 1
    r = ratio_cost(g, t)
    _emit_tree(ns, t, g)
    # the positive verdict is a record only: plain output starts at ratio
    _print(ns, "ok" if ns.records else None, [("ratio", r), ("bound", bound)])
    return 0


def cmd_brute(ns) -> int:
    g = _load_graph(ns.graph, ns.epsilon)
    opt = optimal_ratio_bruteforce(g)
    _print(ns, None, [("rho", opt.rho),
                      ("tree", serialize_newick(opt.tree, labels=g.labels)),
                      ("trees-searched", opt.trees_searched)])
    return 0


def cmd_random(ns) -> int:
    if ns.er is not None:
        n, p = ns.er
        model = ErModel(n=_param("N", n, int), p=_param("P", p))
        params = [("model", "er"), ("n", _fmt(model.n)), ("p", _fmt(model.p))]
    else:
        n, p, q = ns.planted
        model = PlantedModel(n=_param("N", n, int), p=_param("P", p),
                             q=_param("Q", q))
        params = [("model", "planted"), ("n", _fmt(model.n)),
                  ("p", _fmt(model.p)), ("q", _fmt(model.q))]
    report = run_experiment(model, trials=ns.trials, seed_base=ns.seed)
    summary = [
        ("predicted-rho", _fmt(report.predicted_rho)),
        ("expected-base", _fmt(report.expected_base_cost)),
        ("expectation-tree-total", _fmt(report.expectation_tree_total_cost)),
    ]
    if ns.records:
        for key, val in params + summary:
            print(f"# {key}\t{val}")
        print("trial\tseed\tbase\trho")
        for t in range(report.samples):
            print(f"{t}\t{report.seeds[t]}\t{report.base_costs[t]}"
                  f"\t{_fmt(report.rho_estimates[t])}")
        print(f"# base-max-rel-dev\t{_fmt(report.max_base_deviation)}")
        print(f"# rho-mean\t{_fmt(report.rho_mean)}")
    else:
        print(f"model {params[0][1]} "
              + " ".join(f"{k}={v}" for k, v in params[1:]))
        for key, val in summary:
            print(f"{key} {val}")
        for t in range(report.samples):
            print(f"trial {t} seed {report.seeds[t]} base {report.base_costs[t]}"
                  f" rho {_fmt(report.rho_estimates[t])}")
        print(f"base-max-rel-dev {_fmt(report.max_base_deviation)}")
        print(f"rho-mean {_fmt(report.rho_mean)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged: each ``parse_args`` fills a fresh
    namespace, and the global flags default to SUPPRESS so ``main`` sets
    them itself.  Building it costs about a millisecond, which a process
    calling ``main`` many times would otherwise pay per call.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                        help="weight-equality tolerance (default 0: exact)")
    shared.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="must be >= 1; no stage starts worker threads, "
                             "so output is the same for any value (default 1)")
    shared.add_argument("--records", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable tab-separated output")

    ap = argparse.ArgumentParser(
        prog="hcratio", parents=[shared],
        description="Ratio-cost analysis of similarity graphs under "
                    "hierarchical clustering trees.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cost", parents=[shared],
                       help="evaluate all costs of a graph/tree pair")
    c.add_argument("graph")
    c.add_argument("tree")
    c.set_defaults(fn=cmd_cost)

    d = sub.add_parser("detect", parents=[shared],
                       help="decide whether some tree reaches ratio 1")
    d.add_argument("graph")
    d.add_argument("--emit-tree", metavar="PATH",
                   help="write the ratio-1 tree as Newick on success")
    d.set_defaults(fn=cmd_detect)

    a = sub.add_parser("approx", parents=[shared],
                       help="constraint-built tree within (1+delta^2) of optimal")
    a.add_argument("graph")
    a.add_argument("--delta", required=True,
                   help="distortion bound, >= 1 (decimal, e.g. 1.5)")
    a.add_argument("--emit-tree", metavar="PATH")
    a.set_defaults(fn=cmd_approx)

    b = sub.add_parser("brute", parents=[shared],
                       help="exact optimum by subset DP and pruned tree search (small n)")
    b.add_argument("graph")
    b.set_defaults(fn=cmd_brute)

    r = sub.add_parser("random", parents=[shared],
                       help="sample random graphs and compare to predictions")
    grp = r.add_mutually_exclusive_group(required=True)
    grp.add_argument("--er", nargs=2, metavar=("N", "P"))
    grp.add_argument("--planted", nargs=3, metavar=("N", "P", "Q"))
    r.add_argument("--trials", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.set_defaults(fn=cmd_random)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    ns.epsilon = getattr(ns, "epsilon", 0.0)
    ns.jobs = getattr(ns, "jobs", 1)
    ns.records = getattr(ns, "records", False)
    try:
        if ns.jobs < 1:
            raise InvalidParam(f"need --jobs >= 1, got {ns.jobs}")
        return ns.fn(ns)
    except HcratioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # stdout's reader left; ``main_entry`` ends quietly
    except (OSError, MemoryError) as exc:
        # an n within the n^3 < 2^63 bound may still not fit in memory;
        # exit 1 would read as a negative verdict
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main_entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (`| head`): exit quietly as SIGPIPE would, with
        # fd 1 on devnull so that the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(status)


if __name__ == "__main__":
    main_entry()
