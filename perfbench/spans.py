"""In-memory span recorder that wraps hcratio's public functions from outside.

The program has no tracing of its own, so the benchmark rebinds each traced
function in every hcratio namespace that holds it (``hcratio.graph.base_cost``
is also bound in cost, detect, approx, brute and randgraph) and restores the
originals afterwards.  Each call of a wrapped function records one span
(name, start, end, parent, thread); ``triplet_type`` is only counted, because
it runs once per vertex triplet.

Spans opened in a worker thread with no open span of their own take the
innermost open span of the main thread as parent: ``run_experiment`` is the
only threaded stage, and its main thread waits inside it while the pool runs.
A function's ``_s`` metric sums its spans' durations over all threads; the
per-layer ``self_s`` metrics split wall-clock time, so with the layers'
harness share (``bench.self_s``) they add up to the traced pass's wall time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from math import comb

LAYERS = ("graph", "tree", "cost", "detect", "approx", "brute", "randgraph",
          "cli")

# (module, attribute) pairs wrapped in a span.  "Class.method" names a method.
SPANNED = [
    ("graph", "load_graph"), ("graph", "load_edge_list"),
    ("graph", "load_matrix"), ("graph", "base_cost"),
    ("graph", "SimilarityGraph.__init__"),
    ("graph", "SimilarityGraph.induced"),
    ("tree", "parse_newick"), ("tree", "serialize_newick"), ("tree", "binarize"),
    ("tree", "HcTree.from_nested"), ("tree", "HcTree.lca_leaf_counts"),
    ("cost", "cost_report"), ("cost", "total_cost"),
    ("cost", "ratio_cost"), ("cost", "is_consistent"),
    ("cost", "find_inconsistent_triplet"),
    ("detect", "build_bisection"), ("detect", "valid_bisect"),
    ("detect", "minimal_valid_partition"), ("detect", "detect_claw"),
    ("detect", "case1_bipartition"), ("detect", "case2_bipartition"),
    ("detect", "zero_base_cost_tree"),
    ("approx", "approx_tree"), ("approx", "build_constraints"),
    ("approx", "rtc_build"),
    ("brute", "optimal_ratio_bruteforce"),
    ("randgraph", "run_experiment"), ("randgraph", "expected_base_cost"),
    ("randgraph", "expectation_tree_total_cost"),
    ("randgraph", "predicted_rho"),
    ("cli", "main"),
]
COUNTED = [("graph", "triplet_type")]


def _triplet_rank(n: int, t) -> int:
    """1-based position of triplet (i, j, k) in lexicographic order."""
    i, j, k = t
    before = sum(comb(n - 1 - a, 2) for a in range(i))
    before += sum(n - 1 - b for b in range(i + 1, j))
    return before + (k - j)


def _graph_arg(args, kwargs):
    return kwargs.get("g", args[0] if args else None)


def _count_result(counts: Counter, name: str, args, kwargs, result) -> None:
    """Work counters taken at the function boundary from arguments and result."""
    if name == "graph.base_cost":
        counts["graph.base_cost_triplets"] += comb(_graph_arg(args, kwargs).n, 3)
    elif name == "detect.valid_bisect":
        counts["detect.valid_bisect_calls"] += 1
    elif name == "detect.detect_claw":
        counts["detect.detect_claw_calls"] += 1
        counts["detect.claws_found"] += result is not None
    elif name == "approx.build_constraints":
        counts["approx.constraints"] += len(result)
    elif name == "approx.approx_tree":
        counts["approx.approx_tree_calls"] += 1
        counts["approx.approx_tree_ok"] += result is not None
    elif name == "cost.find_inconsistent_triplet":
        n = _graph_arg(args, kwargs).n
        counts["cost.scan_triplets"] += (
            comb(n, 3) if result is None else _triplet_rank(n, result))
    elif name == "brute.optimal_ratio_bruteforce":
        counts["brute.trees_searched"] += result.trees_searched


def rebind(mod: str, attr: str, wrap) -> list[tuple]:
    """Replace hcratio.<mod>.<attr> by wrap(original) wherever it is bound.

    ``attr`` may be "Class.method".  Returns (object, name, old value)
    triples that undo the change when set back in reverse order.
    """
    home = importlib.import_module(f"hcratio.{mod}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, meth, wrap(raw))
        return [(cls, meth, raw)]
    orig = getattr(home, attr)
    new = wrap(orig)
    undo = []
    namespaces = [importlib.import_module("hcratio")]
    namespaces += [importlib.import_module(f"hcratio.{m}") for m in LAYERS]
    for ns in namespaces:
        for key, val in list(vars(ns).items()):
            if val is orig:
                setattr(ns, key, new)
                undo.append((ns, key, orig))
    return undo


class Tracer:
    """Records spans and counts while installed; ``install`` returns an undo."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._count_lock = threading.Lock()  # worker threads count too

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, counts, stack_of = self.spans, self.counts, self._stack
        main_stack, ids, lock = self._main_stack, self._ids, self._count_lock

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              threading.get_ident()))
            with lock:
                _count_result(counts, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Rebind every traced name; the returned callable restores them."""
        undo: list[tuple] = []
        for mod, attr in SPANNED:
            undo += rebind(mod, attr, lambda fn, n=f"{mod}.{attr}": self._wrap(n, fn))
        for mod, attr in COUNTED:
            undo += rebind(mod, attr,
                           lambda fn, n=f"{mod}.{attr}": self._wrap_counter(n, fn))

        def uninstall():
            for obj, key, val in reversed(undo):
                setattr(obj, key, val)

        return uninstall

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines, earliest first."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in sorted(
                    self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": thread}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Wall-clock self time per span id.

    At each instant the spans that are open and have no open child share the
    elapsed time equally, so self times over all spans add up to the time
    covered by root spans even when worker threads overlap.  A span with an
    open child in another thread gets no time while that child runs.
    """
    events = []
    for sid, _, start, end, parent, _ in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, sid, parent))
    events.sort(key=lambda e: (e[0], e[1]))  # close before open at equal time
    open_kids: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    out: dict[int, float] = defaultdict(float)
    last = None
    for t, is_open, sid, parent in events:
        if last is not None and active:
            leaves = [s for s in active if open_kids[s] == 0]
            share = (t - last) / len(leaves)
            for s in leaves:
                out[s] += share
        last = t
        if is_open:
            active.add(sid)
            if parent is not None:
                open_kids[parent] += 1
        else:
            active.discard(sid)
            if parent is not None:
                open_kids[parent] -= 1
    return out


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (inclusive, self, counts)."""
    spans = tracer.spans
    c = tracer.counts
    own = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sid, name, start, end, _, _ in spans:
        incl[name] += end - start
        self_by_name[name] += own.get(sid, 0.0)
        layer_self[name.split(".")[0]] += own.get(sid, 0.0)
    roots = sum(end - start for _, _, start, end, parent, _ in spans
                if parent is None)

    def ratio(hit: str, calls: str) -> float:
        return c[hit] / c[calls] if c[calls] else 0.0

    m = {
        "graph.base_cost_s": incl["graph.base_cost"],
        "graph.base_cost_triplets": c["graph.base_cost_triplets"],
        "graph.induced_s": incl["graph.SimilarityGraph.induced"],
        "graph.load_graph_s": incl["graph.load_graph"],
        "tree.lca_leaf_counts_s": incl["tree.HcTree.lca_leaf_counts"],
        "tree.newick_s": incl["tree.parse_newick"] + incl["tree.serialize_newick"],
        "cost.find_inconsistent_triplet_s": incl["cost.find_inconsistent_triplet"],
        "cost.scan_triplets": c["cost.scan_triplets"],
        "detect.build_bisection_s": incl["detect.build_bisection"],
        "detect.valid_bisect_calls": c["detect.valid_bisect_calls"],
        "detect.minimal_valid_partition_s": incl["detect.minimal_valid_partition"],
        "detect.detect_claw_s": incl["detect.detect_claw"],
        "detect.claw_hit_ratio": ratio("detect.claws_found",
                                       "detect.detect_claw_calls"),
        "detect.case1_bipartition_s": incl["detect.case1_bipartition"],
        "detect.case2_bipartition_s": incl["detect.case2_bipartition"],
        "detect.triplet_type_calls": c["graph.triplet_type"],
        "approx.build_constraints_s": incl["approx.build_constraints"],
        "approx.constraints": c["approx.constraints"],
        "approx.rtc_build_s": incl["approx.rtc_build"],
        "approx.ok_ratio": ratio("approx.approx_tree_ok",
                                 "approx.approx_tree_calls"),
        "brute.optimal_ratio_bruteforce_s": incl["brute.optimal_ratio_bruteforce"],
        "brute.trees_searched": c["brute.trees_searched"],
        "randgraph.expected_base_cost_s": incl["randgraph.expected_base_cost"],
        "randgraph.run_experiment_s": self_by_name["randgraph.run_experiment"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["bench.self_s"] = wall - roots
    m["traced_wall_s"] = wall
    return m
