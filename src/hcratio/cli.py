"""Command-line front end.

Subcommands: cost, detect, approx, brute, random.  Verdicts ride the exit
code (0 positive, 1 negative, 2+ error) so shell pipelines can branch
without scraping text.  Global flags --epsilon, --jobs, --records are
accepted before or after the subcommand.  All output is deterministic:
identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
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
from .tree import parse_newick, serialize_newick


def _fmt(x) -> str:
    """Canonical text for a number: ints plain, floats via repr."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinf(x):
        return "inf"
    return repr(x)


def _fmt_ratio(r) -> str:
    """Exact form with decimal in parentheses, e.g. '4/3 (1.3333333333333333)'."""
    if isinstance(r, Fraction):
        return f"{r} ({float(r)!r})"
    return _fmt(r)


def _ratio_decimal(r) -> str:
    return _fmt(float(r)) if not (isinstance(r, float) and isinf(r)) else "inf"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
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
    if ns.records:
        print(f"dasgupta\t{_fmt(rep.dasgupta)}")
        print(f"total\t{_fmt(rep.total)}")
        print(f"base\t{_fmt(rep.base)}")
        print(f"ratio\t{_fmt(rep.ratio)}")
        print(f"ratio-decimal\t{_ratio_decimal(rep.ratio)}")
        print(f"consistent\t{_fmt(rep.consistent)}")
    else:
        print(f"dasgupta {_fmt(rep.dasgupta)}")
        print(f"total {_fmt(rep.total)}")
        print(f"base {_fmt(rep.base)}")
        print(f"ratio {_fmt_ratio(rep.ratio)}")
        print(f"consistent {_fmt(rep.consistent)}")
    return 0


def cmd_detect(ns) -> int:
    g = _load_graph(ns.graph, ns.epsilon)
    result = build_bisection(g)
    if result.perfect:
        if ns.records:
            print("verdict\tperfect")
        else:
            print("perfect")
        if ns.emit_tree:
            with open(ns.emit_tree, "w", encoding="utf-8") as fh:
                fh.write(serialize_newick(result.tree, labels=g.labels) + "\n")
        return 0
    failing = ",".join(g.labels[v] for v in sorted(result.failed_on))
    if ns.records:
        print("verdict\tnot-perfect")
        print(f"failing\t{failing}")
    else:
        print(f"not-perfect {failing}")
    return 1


def cmd_approx(ns) -> int:
    bound = 1 + _delta_squared(ns.delta)  # validates delta >= 1 up front
    g = _load_graph(ns.graph, ns.epsilon)
    t = approx_tree(g, ns.delta)
    if t is None:
        if ns.records:
            print("verdict\tfailed")
        else:
            print("failed")
        return 1
    r = ratio_cost(g, t)
    if ns.records:
        print("verdict\tok")
        print(f"ratio\t{_fmt(r)}")
        print(f"ratio-decimal\t{_ratio_decimal(r)}")
        print(f"bound\t{_fmt(bound)}")
        print(f"bound-decimal\t{float(bound)!r}")
    else:
        print(f"ratio {_fmt_ratio(r)}")
        print(f"bound {_fmt_ratio(bound)}")
    if ns.emit_tree:
        with open(ns.emit_tree, "w", encoding="utf-8") as fh:
            fh.write(serialize_newick(t, labels=g.labels) + "\n")
    return 0


def cmd_brute(ns) -> int:
    g = _load_graph(ns.graph, ns.epsilon)
    opt = optimal_ratio_bruteforce(g)
    newick = serialize_newick(opt.tree, labels=g.labels)
    if ns.records:
        print(f"rho\t{_fmt(opt.rho)}")
        print(f"rho-decimal\t{_ratio_decimal(opt.rho)}")
        print(f"tree\t{newick}")
        print(f"trees-searched\t{opt.trees_searched}")
    else:
        print(f"rho {_fmt_ratio(opt.rho)}")
        print(f"tree {newick}")
        print(f"trees-searched {opt.trees_searched}")
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
    report = run_experiment(model, trials=ns.trials, seed_base=ns.seed,
                            jobs=ns.jobs)
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


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                        help="weight-equality tolerance (default 0: exact)")
    shared.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker cap for parallel stages (default 1)")
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
