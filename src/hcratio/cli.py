"""Command-line front end.

Subcommands: cost, detect, approx, brute, random.  Verdicts ride the exit
code (0 positive, 1 negative, 2 error; 141 closed stdout) so pipelines
can branch without scraping text.  Global flags --epsilon, --jobs,
--records are accepted before or after the subcommand.  All output is
deterministic: identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from math import isinf
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

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


# The command table: each command's help line, positionals and options.  An
# option is (flag, value names, type, required, help); a switch has no value
# names, and exactly one of a command's options whose required is "one" must
# be given.  The global options are accepted on either side of the command,
# and a repeated flag's last value wins.  ``main`` runs ``cmd_<command>``,
# looked up when it is called.
_GLOBAL = (
    ("--epsilon", "EPSILON", float, False,
     "weight-equality tolerance (default 0: exact)"),
    ("--jobs", "JOBS", int, False, "must be >= 1; output never depends on it"),
    ("--records", "", bool, False, "machine-readable tab-separated output"),
)
_EMIT = ("--emit-tree", "PATH", str, False, "write the tree as Newick on success")
COMMANDS = {
    "cost": ("evaluate all costs of a graph/tree pair", ("graph", "tree"), ()),
    "detect": ("decide whether some tree reaches ratio 1", ("graph",), (_EMIT,)),
    "approx": ("constraint-built tree within (1+delta^2) of optimal", ("graph",),
               (("--delta", "DELTA", str, True,
                 "distortion bound, >= 1 (decimal, e.g. 1.5)"), _EMIT)),
    "brute": ("exact optimum by subset DP and pruned tree search (small n)",
              ("graph",), ()),
    "random": ("sample random graphs and compare to predictions", (), (
        ("--er", "N P", str, "one", "N vertices, each pair with probability P"),
        ("--planted", "N P Q", str, "one",
         "two halves of N/2: probability P inside a half, Q across"),
        ("--trials", "TRIALS", int, True, "number of sampled graphs"),
        ("--seed", "SEED", int, True, "trial t samples with seed SEED + t"))),
}
_HELP = ("-h", "", None, False, "show this help message and exit")
_OPTIONS = {c: (_HELP, *_GLOBAL, *(COMMANDS[c][2] if c else ()))
            for c in (None, *COMMANDS)}
_FLAGS = {c: {"--help": _HELP, **{o[0]: o for o in opts}}
          for c, opts in _OPTIONS.items()}
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, as in argparse


def _usage(command: Optional[str]) -> str:
    words = ["usage: hcratio", command] if command else ["usage: hcratio"]
    group = []
    for flag, names, _, required, _ in _OPTIONS[command]:
        text = f"{flag} {names}".rstrip()
        (group if required == "one" else words).append(
            text if required else f"[{text}]")
    words += [f"({' | '.join(group)})"] * bool(group)
    return " ".join(words + list(COMMANDS[command][1] if command else
                                 ["{" + ",".join(COMMANDS) + "} ..."]))


def _help(command: Optional[str]) -> str:
    """Usage, a summary, the commands (at the top) and the options."""
    about = COMMANDS[command][0] if command else (
        "Ratio-cost analysis of similarity graphs under hierarchical "
        "clustering trees.\n\ncommands:\n" + "\n".join(
            f"  {name:<18} {spec[0]}" for name, spec in COMMANDS.items()))
    return "\n".join([_usage(command), "", about, "", "options:"] + [
        f"  {'-h, --help' if o is _HELP else f'{o[0]} {o[1]}':<18} {o[4]}"
        for o in _OPTIONS[command]])


def _fail(command: Optional[str], message: str) -> NoReturn:
    name = f"hcratio {command}" if command else "hcratio"
    sys.stderr.write(f"{_usage(command)}\n{name}: error: {message}\n")
    raise SystemExit(2)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _flag(arg: str, command: Optional[str]):
    """``(flag, explicit value or None)`` when ``arg`` reads as an option of
    ``command``, else None.  An option outside the table comes back whole;
    ``-``, a negative number and a dashed word with a space are values."""
    if arg[:1] != "-" or arg == "-":
        return None
    flags = _FLAGS[command]
    if arg in flags:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return name, value
    if arg[1] == "-":  # a unique prefix of a long flag
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option {name}: " + ", ".join(hits))
        if hits:
            return hits[0], value if eq else None
    elif arg.startswith("-h"):  # -h with a value attached: a usage error
        return "-h", arg[2:]
    return None if _NUMBER.match(arg) or " " in arg else (arg, None)


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """One command line, parsed by the command table into a fresh namespace.

    The first ``--`` makes every later argument a positional; it must follow
    a positional of the command or precede a missing one.  ``-h`` prints
    help and exits 0; a usage error writes the usage line and an ``error:``
    line to stderr and exits 2.
    """
    ns = SimpleNamespace(command=None, epsilon=0.0, jobs=1, records=False)
    args, todo, one, rest, after = list(argv), [], None, False, False
    while args:
        arg, command = args.pop(0), ns.command
        if arg == "--" and not rest:
            rest = True
            if command and (todo or after):
                continue
        hit = None if rest else _flag(arg, command)
        if hit is None:  # a positional
            if command is None and arg in COMMANDS:
                ns.command, todo = arg, list(COMMANDS[arg][1])
                ns.__dict__.update((_dest(o[0]), None) for o in COMMANDS[arg][2])
            elif not todo:
                _fail(command, f"unexpected argument {arg!r}" if command else
                      f"no command {arg!r}: choose " + ", ".join(COMMANDS))
            else:
                setattr(ns, todo.pop(0), arg)
            after = command is not None
            continue
        flag, explicit = hit
        spec = _FLAGS[command].get(flag) or _fail(command, f"no option {arg}")
        if spec is _HELP and explicit is None:
            print(_help(command))
            raise SystemExit(0)
        _, names, kind, required, _ = spec
        count, values = len(names.split()), [explicit]
        if explicit is None:
            values, args = args[:count], args[count:]
            if any(v == "--" or _flag(v, command) for v in values):
                values = []
        if len(values) != count:
            _fail(command, f"{flag} takes {count or 'no'} value(s)")
        if required == "one":
            if one not in (None, flag):
                _fail(command, f"{flag} is not allowed with {one}")
            one = flag
        try:  # a switch is True, and --er and --planted keep their strings
            value = kind(values[0]) if count == 1 else values or True
        except ValueError:
            _fail(command, f"{flag} takes {kind.__name__} values, got "
                           f"{values[0]!r}")
        setattr(ns, _dest(flag), value)
        after = False
    opts = COMMANDS[ns.command or _fail(None, "a command is required")][2]
    missing = todo + [o[0] for o in opts
                      if o[3] is True and getattr(ns, _dest(o[0])) is None]
    if one is None and any(o[3] == "one" for o in opts):
        missing.append(" or ".join(o[0] for o in opts if o[3] == "one"))
    if missing:
        _fail(ns.command, "missing " + ", ".join(missing))
    return ns


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if ns.jobs < 1:
            raise InvalidParam(f"need --jobs >= 1, got {ns.jobs}")
        return globals()[f"cmd_{ns.command}"](ns)
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
