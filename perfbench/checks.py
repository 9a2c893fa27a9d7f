"""Output parsers and invariants for the CLI's text output.

Each check returns quietly when an output is right and raises ``Bad`` with a
one-line reason when it is not.  Invariants hold for any seed; golden digests pin every byte of
stdout and the exit code for the recorded seed only.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from inputs import DELTA

D2 = DELTA * DELTA
APPROX_BOUND = 1 + D2  # the bound `approx` prints


class Bad(Exception):
    """Raised by a parser or check; its message is the failure reason."""


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def need(cond: bool, why: str) -> None:
    if not cond:
        raise Bad(why)


def number(tok: str):
    """int, Fraction or float from the CLI's canonical number text."""
    if tok == "inf":
        return math.inf
    if "/" in tok:
        return Fraction(tok)
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def ratio_of(text: str):
    """'4/3 (1.333...)' -> Fraction(4, 3); '1 (1.0)' -> 1; '1.25' -> 1.25."""
    exact = text.split(" (", 1)[0]
    return number(exact)


def fields(out: str, keys: list[str]) -> dict[str, str]:
    """Lines 'key value...' in the given order, nothing more."""
    lines = out.splitlines()
    need(len(lines) == len(keys), f"expected {len(keys)} lines, got {len(lines)}")
    got = {}
    for line, key in zip(lines, keys):
        head, _, rest = line.partition(" ")
        need(head == key and rest, f"expected '{key} ...', got {line!r}")
        got[key] = rest
    return got


# ---------------------------------------------------------------------------
# parsers


def parse_cost(out: str) -> dict:
    f = fields(out, ["dasgupta", "total", "base", "ratio", "consistent"])
    need(f["consistent"] in ("true", "false"), "consistent is not a bool")
    return {"dasgupta": number(f["dasgupta"]), "total": number(f["total"]),
            "base": number(f["base"]), "ratio": ratio_of(f["ratio"]),
            "consistent": f["consistent"] == "true"}


def parse_detect(out: str, code) -> Optional[list[str]]:
    """None for 'perfect', else the failing vertex labels."""
    if code == 0:
        need(out == "perfect\n", f"exit 0 but output {out!r}")
        return None
    need(code == 1, f"detect exit code {code}")
    lines = out.splitlines()
    need(len(lines) == 1 and lines[0].startswith("not-perfect "),
         f"exit 1 but output {out!r}")
    failing = lines[0].split(" ", 1)[1].split(",")
    need(all(failing), "empty failing label")
    return failing


def parse_approx(out: str, code) -> Optional[object]:
    """The achieved ratio, or None for 'failed'."""
    if code == 1:
        need(out == "failed\n", f"exit 1 but output {out!r}")
        return None
    need(code == 0, f"approx exit code {code}")
    f = fields(out, ["ratio", "bound"])
    need(ratio_of(f["bound"]) == APPROX_BOUND, f"bound {f['bound']}")
    return ratio_of(f["ratio"])


def parse_brute(out: str) -> dict:
    f = fields(out, ["rho", "tree", "trees-searched"])
    return {"rho": ratio_of(f["rho"]), "tree": f["tree"],
            "trees": int(f["trees-searched"])}


def parse_random(out: str) -> dict:
    lines = out.splitlines()
    need(len(lines) >= 6, "random output too short")
    head = lines[0].split()
    need(head[0] == "model", f"bad first line {lines[0]!r}")
    params = dict(kv.split("=") for kv in head[2:])
    rep = {"model": head[1], "params": {k: number(v) for k, v in params.items()}}
    for line, key in zip(lines[1:4], ["predicted-rho", "expected-base",
                                      "expectation-tree-total"]):
        k, v = line.split(" ")
        need(k == key, f"expected {key}, got {line!r}")
        rep[key] = number(v)
    trials = []
    for line in lines[4:-2]:
        tok = line.split()
        need(len(tok) == 8 and tok[0::2] == ["trial", "seed", "base", "rho"],
             f"bad trial line {line!r}")
        trials.append((int(tok[1]), int(tok[3]), int(tok[5]), number(tok[7])))
    rep["trials"] = trials
    for line, key in zip(lines[-2:], ["base-max-rel-dev", "rho-mean"]):
        k, v = line.split(" ")
        need(k == key, f"expected {key}, got {line!r}")
        rep[key] = number(v)
    return rep


# ---------------------------------------------------------------------------
# invariants


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def expected_base(model: str, n: int, p: float, q: float = 0.0) -> float:
    """Closed-form expected base cost of a unit-weight random graph.

    A triplet with edge probabilities a, b, c has expected base cost
    ab + ac + bc - abc (two edges pay 1, three pay 2).
    """
    def tri(a, b, c):
        return a * b + a * c + b * c - a * b * c

    if model == "er":
        return comb(n, 3) * tri(p, p, p)
    h = n // 2
    return 2 * comb(h, 3) * tri(p, p, p) + 2 * comb(h, 2) * h * tri(p, q, q)


def sampled_base(model: str, n: int, p: float, q: float, seed: int) -> int:
    """Base cost of the graph `random` samples for one trial seed.

    Redraws the sample as the program documents it (one uniform draw per
    pair in ascending (i, j) order; planted blocks [0, n/2) and [n/2, n))
    and counts it with the unit-weight identity base = wedges - triangles,
    independently of hcratio's triplet loop.
    """
    iu = np.triu_indices(n, 1)
    draws = np.random.default_rng(seed).random(len(iu[0]))
    prob = p if model == "er" else np.where((iu[0] < n // 2) == (iu[1] < n // 2), p, q)
    a = np.zeros((n, n))
    a[iu] = draws < prob
    a += a.T
    deg = a.sum(axis=1)
    wedges = int((deg * (deg - 1) / 2).sum())
    triangles = int(round(((a @ a) * a).sum() / 6))
    return wedges - triangles


def check_random(out: str, code, model: str, n: int, p: float, q: float,
                 trials: int, seed: int, tol: float) -> None:
    """Closed-form predictions, and each sampled base within ``tol`` of its
    expectation (concentration; looser for the tiny sizes)."""
    need(code == 0, f"random exit code {code}")
    rep = parse_random(out)
    need(rep["model"] == model and rep["params"]["n"] == n,
         "model line does not echo the request")
    eb = rep["expected-base"]
    need(close(eb, expected_base(model, n, p, q), 1e-9),
         f"expected-base {eb} off the closed form")
    need(len(rep["trials"]) == trials, f"{len(rep['trials'])} trials")
    total = rep["expectation-tree-total"]
    devs, rhos = [], []
    for t, (idx, s, base, rho) in enumerate(rep["trials"]):
        need(idx == t and s == seed + t, f"trial {t} has seed {s}")
        need(base == sampled_base(model, n, p, q, s),
             f"trial {t} base {base} differs from a recount of the sample")
        need(abs(base / eb - 1) < tol, f"trial {t} base {base} far from {eb}")
        need(close(rho, total / base, 1e-12), f"trial {t} rho != total/base")
        devs.append(abs(base / eb - 1))
        rhos.append(rho)
    need(close(rep["base-max-rel-dev"], max(devs), 1e-9), "base-max-rel-dev")
    need(close(rep["rho-mean"], sum(rhos) / len(rhos), 1e-12), "rho-mean")


def check_cost_perfect(out: str, code, dasgupta=None, exact: bool = True) -> None:
    """Ratio 1 and consistent: the tree respects every triplet.

    Float-weighted graphs get float sums, so ratio and total are only held to
    rounding.  Their ``consistent`` flag is not checked: the program compares
    differently rounded float sums exactly, and says ``consistent false``
    (ratio 0.9999999999999998) on some trees that detect built as ratio-1
    trees.  Which rule float consistency should follow is an open item of
    the project; the golden digests still pin what it prints.
    """
    need(code == 0, f"cost exit code {code}")
    c = parse_cost(out)
    if exact:
        need(c["consistent"], "consistent false on a ratio-1 tree")
        need(c["ratio"] == 1, f"ratio {c['ratio']} on a ratio-1 tree")
        need(c["total"] == c["base"], "total != base on a ratio-1 tree")
    else:
        need(close(c["ratio"], 1.0, 1e-9), f"ratio {c['ratio']} on a ratio-1 tree")
        need(close(c["total"], c["base"], 1e-9), "total != base on a ratio-1 tree")
    if dasgupta is not None:
        need(close(c["dasgupta"], dasgupta, 1e-12),
             f"dasgupta {c['dasgupta']}, expected {dasgupta}")


def check_cost_matches(out: str, code, rho) -> None:
    """Cost of brute's optimal tree reports brute's rho."""
    need(code == 0, f"cost exit code {code}")
    c = parse_cost(out)
    need(c["ratio"] == rho, f"cost ratio {c['ratio']} != brute rho {rho}")
    need(c["consistent"] == (rho == 1), "consistent disagrees with rho")


def check_brute(out: str, code, n: int, perfect: Optional[bool]) -> None:
    need(code == 0, f"brute exit code {code}")
    b = parse_brute(out)
    need(b["trees"] == double_factorial(2 * n - 3),
         f"trees-searched {b['trees']} for n={n}")
    need(b["rho"] >= 1, f"rho {b['rho']} below 1")
    if perfect is not None:
        need((b["rho"] == 1) == perfect,
             f"rho {b['rho']} but detect says perfect={perfect}")


def check_approx(out: str, code, rho=None, perturbed: bool = False) -> None:
    """No tree beats the optimum; a perturbation stays within the guarantee."""
    r = parse_approx(out, code)
    if perturbed:
        need(r is not None, "approximation refused a delta-perturbation")
        need(r <= APPROX_BOUND * D2, f"ratio {r} > (1+d^2)*d^2")
        if rho is not None:
            need(r <= APPROX_BOUND * rho, f"ratio {r} > (1+d^2)*rho {rho}")
    if r is not None and rho is not None:
        need(r >= rho, f"ratio {r} below the optimum {rho}")
