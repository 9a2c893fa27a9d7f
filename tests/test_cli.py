import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import venv
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcratio import cli
from hcratio.cli import _parse, main

from helpers import oracle_parser


P4_EDGES = "0 1 1\n1 2 1\n2 3 1\n"
P5_EDGES = "0 1 1\n1 2 1\n2 3 1\n3 4 1\n"
WOBBLY = "4\n0 1.0 0 0.99\n1.0 0 1.01 0\n0 1.01 0 1.0\n0.99 0 1.0 0\n"


@pytest.fixture
def p4(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text(P4_EDGES)
    return str(f)


@pytest.fixture
def p5(tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(P5_EDGES)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cost_text(capsys, p4, tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text("((0,1),(2,3));\n")
    code, out, _ = run(capsys, "cost", p4, str(tree))
    assert code == 0
    assert out == ("dasgupta 8\n"
                   "total 2\n"
                   "base 2\n"
                   "ratio 1 (1.0)\n"
                   "consistent true\n")


def test_cost_records(capsys, p4, tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text("((0,1),(2,3));\n")
    code, out, _ = run(capsys, "cost", p4, str(tree), "--records")
    assert code == 0
    assert out == ("dasgupta\t8\n"
                   "total\t2\n"
                   "base\t2\n"
                   "ratio\t1\n"
                   "ratio-decimal\t1.0\n"
                   "consistent\ttrue\n")


def test_cost_float_weights(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("3\n0 0.5 0\n0.5 0 0.25\n0 0.25 0\n")
    tree = tmp_path / "t.nwk"
    tree.write_text("((0,1),2);\n")
    code, out, _ = run(capsys, "cost", str(g), str(tree))
    assert code == 0
    assert "ratio 1.0\n" in out


def test_cost_wrong_tree_leaves(capsys, p4, tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text("((0,1),(2,9));\n")
    code, _, err = run(capsys, "cost", p4, str(tree))
    assert code == 2
    assert err.startswith("error:")


def test_cost_rejects_second_top_level_tree(capsys, tmp_path):
    g = tmp_path / "k4.txt"
    g.write_text("0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n")
    tree = tmp_path / "bad.nwk"
    tree.write_text("(2,3)(0,1,2,3);\n")
    code, out, err = run(capsys, "cost", str(g), str(tree))
    assert (code, out, err) == (2, "", "error: unexpected '(' after the root\n")


def test_detect_perfect_and_emit(capsys, p4, tmp_path):
    emitted = tmp_path / "out.nwk"
    code, out, _ = run(capsys, "detect", p4, "--emit-tree", str(emitted))
    assert code == 0
    assert out == "perfect\n"
    assert emitted.read_text() == "((0,1),(2,3));\n"


def test_detect_not_perfect(capsys, p5):
    code, out, _ = run(capsys, "detect", p5)
    assert code == 1
    assert out == "not-perfect 0,1,2,3,4\n"


def test_detect_records(capsys, p4, p5):
    code, out, _ = run(capsys, "detect", p4, "--records")
    assert (code, out) == (0, "verdict\tperfect\n")
    code, out, _ = run(capsys, "detect", p5, "--records")
    assert code == 1
    assert out == "verdict\tnot-perfect\nfailing\t0,1,2,3,4\n"


def test_detect_failing_names_are_quoted(capsys, tmp_path):
    g = tmp_path / "named.txt"
    g.write_text("a,1 b 1\nb c 1\nc d 1\nd e'x 1\n")
    code, out, _ = run(capsys, "detect", str(g))
    assert (code, out) == (1, "not-perfect 'a,1',b,c,d,'e''x'\n")
    code, out, _ = run(capsys, "detect", str(g), "--records")
    assert (code, out) == (1, "verdict\tnot-perfect\n"
                              "failing\t'a,1',b,c,d,'e''x'\n")


def test_detect_epsilon_flag(capsys, tmp_path):
    g = tmp_path / "wobbly.txt"
    g.write_text(WOBBLY)
    code, out, _ = run(capsys, "detect", str(g))
    assert code == 1
    code, out, _ = run(capsys, "--epsilon", "0.1", "detect", str(g))
    assert code == 0
    assert out == "perfect\n"


def test_nan_epsilon_is_rejected(capsys, tmp_path):
    g = tmp_path / "triangle.txt"
    g.write_text("0 1 1\n1 2 1\n0 2 1\n")
    code, out, err = run(capsys, "--epsilon", "nan", "detect", str(g))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_approx_ok(capsys, p4):
    code, out, _ = run(capsys, "approx", p4, "--delta", "1.5")
    assert code == 0
    assert out == "ratio 1 (1.0)\nbound 13/4 (3.25)\n"


def test_approx_records_and_emit(capsys, p4, tmp_path):
    emitted = tmp_path / "a.nwk"
    code, out, _ = run(capsys, "approx", p4, "--delta", "1.5",
                       "--records", "--emit-tree", str(emitted))
    assert code == 0
    assert out == ("verdict\tok\n"
                   "ratio\t1\n"
                   "ratio-decimal\t1.0\n"
                   "bound\t13/4\n"
                   "bound-decimal\t3.25\n")
    assert emitted.read_text().endswith(";\n")


def test_approx_failed(capsys, p5):
    code, out, _ = run(capsys, "approx", p5, "--delta", "1.5")
    assert code == 1
    assert out == "failed\n"


def test_approx_bad_delta(capsys, p4):
    code, _, err = run(capsys, "approx", p4, "--delta", "0.5")
    assert code == 2
    assert err.startswith("error:")


def test_approx_delta_whose_square_overflows(capsys, p4):
    code, out, err = run(capsys, "approx", p4, "--delta", "1e200")
    assert (code, out) == (2, "")
    assert err == ("error: delta 1e200 is too large: its square overflows "
                   "a float\n")


def test_brute_text(capsys, p5):
    code, out, _ = run(capsys, "brute", p5)
    assert code == 0
    assert out == ("rho 4/3 (1.3333333333333333)\n"
                   "tree (((0,1),2),(3,4));\n"
                   "trees-searched 105\n")


def test_brute_records(capsys, p5):
    code, out, _ = run(capsys, "brute", p5, "--records")
    assert code == 0
    assert out.splitlines()[0] == "rho\t4/3"
    assert "trees-searched\t105" in out


@pytest.mark.parametrize("model", [["1", "0.5"], ["2", "0.5"], ["10", "0"]])
def test_random_zero_over_zero_prints_one(capsys, model):
    code, out, _ = run(capsys, "random", "--er", *model,
                       "--trials", "2", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[-1] for line in lines if line.startswith("trial")] \
        == ["1.0", "1.0"]
    assert lines[-1] == "rho-mean 1.0"


def test_brute_float_clique_is_exactly_one(capsys, tmp_path):
    n = 9
    g = tmp_path / "clique.txt"
    g.write_text(f"{n}\n" + "".join(
        " ".join("0" if i == j else "0.3" for j in range(n)) + "\n"
        for i in range(n)))
    code, out, _ = run(capsys, "brute", str(g))
    assert code == 0
    assert out == ("rho 1.0\n"
                   "tree ((((((((0,1),8),7),6),5),4),3),2);\n"
                   "trees-searched 2027025\n")


def test_float_zero_base_prints_float_ratio(capsys, tmp_path):
    g = tmp_path / "half.txt"
    g.write_text("a b 0.5\n")
    t = tmp_path / "t.nwk"
    t.write_text("(a,b);\n")
    runs = {
        ("brute",): "rho 1.0\ntree (a,b);\ntrees-searched 1\n",
        ("brute", "--records"): ("rho\t1.0\nrho-decimal\t1.0\ntree\t(a,b);\n"
                                 "trees-searched\t1\n"),
        ("approx", "--delta", "1.5"): "ratio 1.0\nbound 13/4 (3.25)\n",
        ("approx", "--delta", "1.5", "--records"): (
            "verdict\tok\nratio\t1.0\nratio-decimal\t1.0\n"
            "bound\t13/4\nbound-decimal\t3.25\n"),
        ("cost", str(t)): ("dasgupta 1.0\ntotal 0.0\nbase 0.0\nratio 1.0\n"
                           "consistent true\n"),
        ("cost", str(t), "--records"): (
            "dasgupta\t1.0\ntotal\t0.0\nbase\t0.0\nratio\t1.0\n"
            "ratio-decimal\t1.0\nconsistent\ttrue\n"),
    }
    for (command, *rest), want in runs.items():
        code, out, _ = run(capsys, command, str(g), *rest)
        assert (code, out) == (0, want)


@pytest.mark.parametrize("records", [[], ["--records"]])
@pytest.mark.parametrize("command", [["detect"], ["approx", "--delta", "1.5"]])
def test_failed_emit_tree_prints_no_verdict(capsys, p4, tmp_path, command,
                                            records):
    # the tree is written before the verdict, so exit 2 comes with no verdict
    missing = tmp_path / "missing" / "t.nwk"
    code, out, err = run(capsys, command[0], p4, *command[1:], *records,
                         "--emit-tree", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- plain and --records print the same fields --------------------------------

def _call(*argv):
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _records_of(plain):
    """The ``--records`` lines that the plain output ``plain`` stands for."""
    lines = []
    for line in plain.splitlines():
        key, _, value = line.partition(" ")
        if not value:  # a bare verdict
            lines.append(f"verdict\t{key}")
        elif key == "not-perfect":
            lines += [f"verdict\t{key}", f"failing\t{value}"]
        elif key in ("ratio", "bound", "rho"):
            exact, decimal = re.fullmatch(r"(\S+)(?: \((\S+)\))?",
                                          value).groups()
            lines += [f"{key}\t{exact}", f"{key}-decimal\t{decimal or exact}"]
        else:
            lines.append(f"{key}\t{value}")
    return lines


@st.composite
def graphs_and_trees(draw):
    """(weight rows, nested binary tree): integer, float (x0.1), all-zero
    or claw graphs on 2..6 vertices, with a random tree on the same leaves."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["int", "float", "zero", "claw"]))
    W = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind in ("int", "float"):
                w = draw(st.sampled_from([0, 0, 1, 2, 3]))
            elif kind == "claw":  # a star: centre 0 with tied legs
                w = 2 if i == 0 else 0
            else:
                w = 0
            W[i][j] = W[j][i] = w * 0.1 if kind == "float" else w
    items = list(draw(st.permutations(range(n))))
    while len(items) > 1:
        a = items.pop(draw(st.integers(0, len(items) - 1)))
        b = items.pop(draw(st.integers(0, len(items) - 1)))
        items.append((a, b))
    return W, items[0]


@given(graphs_and_trees(), st.sampled_from(["1", "1.5", "3"]))
@example(([[0, 1, 0], [1, 0, 0], [0, 0, 0]], ((0, 2), 1)), "1.5")  # inf
@example(([[0] * 3] * 3, ((0, 1), 2)), "1")  # 0/0
@example(([[int(abs(i - j) == 1) for j in range(5)] for i in range(5)],
          (((0, 1), 2), (3, 4))), "1.5")  # approx fails on the 5-path
@settings(max_examples=60, deadline=None)
def test_plain_and_records_carry_the_same_fields(case, delta):
    W, nested = case
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "g.txt")
        with open(graph, "w") as fh:
            fh.write(f"{len(W)}\n" + "".join(
                " ".join(map(str, row)) + "\n" for row in W))
        code, brute = _call("brute", graph)
        assert code == 0
        trees = []
        for text in (brute.splitlines()[1].split(" ", 1)[1],
                     repr(nested).replace(" ", "") + ";"):
            trees.append(os.path.join(tmp, f"t{len(trees)}.nwk"))
            with open(trees[-1], "w") as fh:
                fh.write(text + "\n")
        for argv in (["cost", graph, trees[0]], ["cost", graph, trees[1]],
                     ["detect", graph], ["approx", graph, "--delta", delta],
                     ["brute", graph]):
            plain_code, plain = _call(*argv)
            code, records = _call(*argv, "--records")
            assert code == plain_code
            want = _records_of(plain)
            if argv[0] == "approx" and code == 0:
                want.insert(0, "verdict\tok")  # a record only
            assert records.splitlines() == want


@pytest.mark.parametrize("char", list("(),;:'"))
def test_newick_metacharacter_names_round_trip(capsys, tmp_path, char):
    name = f"a{char}1"
    g = tmp_path / "g.txt"
    g.write_text(f"{name} b 2\nb c 1\n{name} c 1\n")
    emitted = tmp_path / "t.nwk"
    code, out, _ = run(capsys, "detect", str(g), "--emit-tree", str(emitted))
    assert (code, out) == (0, "perfect\n")
    quoted = "'" + name.replace("'", "''") + "'"
    assert emitted.read_text() == f"(({quoted},b),c);\n"
    code, out, err = run(capsys, "cost", str(g), str(emitted))
    assert (code, err) == (0, "")
    assert out.endswith("ratio 1 (1.0)\nconsistent true\n")


def test_random_er_text(capsys):
    code, out, _ = run(capsys, "random", "--er", "12", "0.5",
                       "--trials", "2", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model er n=12 p=0.5"
    assert lines[1] == "predicted-rho 1.6"
    assert lines[2] == "expected-base 137.5"
    assert lines[3] == "expectation-tree-total 220.0"
    assert lines[4].startswith("trial 0 seed 3 base ")
    assert lines[5].startswith("trial 1 seed 4 base ")
    assert lines[6].startswith("base-max-rel-dev ")
    assert lines[7].startswith("rho-mean ")


@pytest.mark.parametrize("model, want", [
    (["--er", "40", "0.5"], "expected-base 6175.0"),
    (["--planted", "40", "0.5", "0.1"], "expected-base 2223.0"),
])
def test_random_expected_base_closed_form(capsys, model, want):
    code, out, _ = run(capsys, "random", *model, "--trials", "1", "--seed", "1")
    assert code == 0
    assert want in out.splitlines()


def test_random_records_layout(capsys):
    code, out, _ = run(capsys, "random", "--planted", "10", "0.8", "0.2",
                       "--trials", "3", "--seed", "11", "--records")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# model\tplanted"
    assert lines[1] == "# n\t10"
    assert lines[2] == "# p\t0.8"
    assert lines[3] == "# q\t0.2"
    header = lines.index("trial\tseed\tbase\trho")
    rows = lines[header + 1:header + 4]
    assert [r.split("\t")[:2] for r in rows] == \
        [["0", "11"], ["1", "12"], ["2", "13"]]
    assert lines[-2].startswith("# base-max-rel-dev\t")
    assert lines[-1].startswith("# rho-mean\t")


def test_random_jobs_do_not_change_output(capsys):
    code1, out1, _ = run(capsys, "random", "--er", "60", "0.3",
                         "--trials", "8", "--seed", "5", "--jobs", "1")
    code2, out2, _ = run(capsys, "--jobs", "8", "random", "--er", "60", "0.3",
                         "--trials", "8", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_random_out_of_memory_is_an_error(capsys):
    # an n within the n^3 < 2^63 bound whose sample does not fit; exit 1
    # would read as a negative verdict
    def no_memory(model, seeds):  # like _samples, fails at its first sample
        raise MemoryError("Unable to allocate 15.3 TiB for an array")
        yield

    with mock.patch("hcratio.randgraph._samples", no_memory):
        code, out, err = run(capsys, "random", "--er", "2000000", "0.5",
                             "--trials", "1", "--seed", "0")
    assert (code, out) == (2, "")
    assert err == "error: Unable to allocate 15.3 TiB for an array\n"
    with mock.patch("hcratio.randgraph._samples", side_effect=MemoryError):
        code, out, err = run(capsys, "random", "--er", "10", "0.5",
                             "--trials", "1", "--seed", "0")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_random_rejects_odd_planted(capsys):
    code, _, err = run(capsys, "random", "--planted", "9", "0.8", "0.2",
                       "--trials", "1", "--seed", "0")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("args, message", [
    (["--er", "10", "abc"], "error: P must be a number, got 'abc'\n"),
    (["--er", "10.5", "0.5"], "error: N must be an integer, got '10.5'\n"),
    (["--planted", "10", "0.5", "x"], "error: Q must be a number, got 'x'\n"),
    (["--er", "10", "0.5", "--seed", "-1"], "error: need seed >= 0, got -1\n"),
])
def test_random_rejects_bad_parameters(capsys, args, message):
    code, out, err = run(capsys, "random", "--trials", "1", "--seed", "0",
                         *args)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("model", [["--er", "99999999999", "0.5"],
                                   ["--planted", "99999999998", "0.5", "0.1"]])
def test_random_rejects_n_whose_cube_reaches_2_63(capsys, model):
    code, out, err = run(capsys, "random", *model, "--trials", "1", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == f"error: n = {model[1]} is too large: n^3 must stay below 2^63\n"


def test_random_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "random", "--er", "10", "0.5",
                       "--trials", "0", "--seed", "0")
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_rejected(capsys, p4, jobs):
    code, out, err = run(capsys, "--jobs", jobs, "random", "--er", "10", "0.5",
                         "--trials", "2", "--seed", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--jobs" in err
    code, out, err = run(capsys, "detect", p4, "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_missing_file_is_reported(capsys, tmp_path):
    code, _, err = run(capsys, "detect", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_malformed_graph_is_reported(capsys, tmp_path):
    g = tmp_path / "bad.txt"
    g.write_text("0 0 1\n")  # self-loop
    code, _, err = run(capsys, "detect", str(g))
    assert code == 2
    assert err.startswith("error:")


def test_non_utf8_files_are_reported(capsys, p4, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("0 1 1\n1 2 1\n# caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "detect", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text\n"
    code, out, err = run(capsys, "cost", p4, str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text\n"


@pytest.mark.parametrize("command, texts", [
    ("detect", ["a b 1\nb c 2\na c 1\n"]),
    ("detect", ["3\n0 1 1\n1 0 2\n1 2 0\n"]),
    ("cost", [P4_EDGES, "((0,1),(2,3));\n"]),
], ids=["edge-list", "matrix", "newick"])
def test_byte_order_mark_changes_nothing(capsys, tmp_path, command, texts):
    # the same files, once with a UTF-8 byte-order mark on the last
    results = []
    for mark in ("", "\ufeff"):
        paths = []
        for i, text in enumerate(texts):
            f = tmp_path / f"{len(mark)}-{i}.txt"
            f.write_text(mark * (i == len(texts) - 1) + text, encoding="utf-8")
            paths.append(str(f))
        code, out, _ = run(capsys, command, *paths)
        results.append((code, out))
    assert Path(paths[-1]).read_bytes().startswith(b"\xef\xbb\xbf")
    assert results[0][0] == 0
    assert results[1] == results[0]


@pytest.mark.parametrize("command", ["detect", "brute"])
def test_empty_matrix_is_reported(capsys, tmp_path, command):
    g = tmp_path / "empty.txt"
    g.write_text("0\n")  # no vertices: rejected before any stage runs
    code, _, err = run(capsys, command, str(g))
    assert code == 2
    assert err == "error: vertex count must be positive\n"


def test_flags_accepted_on_either_side(capsys, p4, tmp_path):
    tree = tmp_path / "t.nwk"
    tree.write_text("((0,1),(2,3));\n")
    _, before, _ = run(capsys, "--records", "cost", p4, str(tree))
    _, after, _ = run(capsys, "cost", p4, str(tree), "--records")
    assert before == after


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


# -- the command table --------------------------------------------------------

def test_cli_import_loads_neither_argparse_nor_gettext():
    # a fresh interpreter: the parser is the module's own command table
    code = ("import sys, hcratio.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=_env_without_pythonpath(PYTHONPATH=str(REPO / "src")),
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


GLOBAL_FLAGS = ["--help", "--epsilon", "--jobs", "--records"]
HELP_NAMES = {  # what each help text must name, besides the global flags
    None: ["cost", "detect", "approx", "brute", "random"],
    "cost": ["graph", "tree"],
    "detect": ["graph", "--emit-tree"],
    "approx": ["graph", "--delta", "--emit-tree"],
    "brute": ["graph"],
    "random": ["--er", "--planted", "--trials", "--seed"],
}


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["--records", "-h"],
    *([command, "-h"] for command in HELP_NAMES if command),
    ["detect", "g.txt", "--help"], ["random", "--er", "4", "0.5", "-h"],
])
def test_help_names_every_argument_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    command = next((a for a in argv if a in HELP_NAMES), None)
    assert out.startswith(f"usage: hcratio {command or ''}".rstrip() + " ")
    words = set(re.findall(r"[\w-]+", out))
    assert set(GLOBAL_FLAGS + HELP_NAMES[command]) <= words
    flags = {w for names in HELP_NAMES.values() for w in names if w[0] == "-"}
    assert not (flags - set(HELP_NAMES[command])) & words  # no other's flags


def _outcome(parse, argv):
    """``("ok", namespace as a dict)`` or ``("exit", code)`` of one parse,
    with the global flags' defaults filled in as ``main`` used to."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            ns = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code
    return "ok", {"epsilon": 0.0, "jobs": 1, "records": False, **vars(ns)}


def _same_as_oracle(argv):
    want = _outcome(oracle_parser().parse_args, argv)
    got = _outcome(_parse, argv)
    assert got == (want if want[0] == "ok" else ("exit", 2)), argv
    return got


WORDS = ["cost", "detect", "approx", "brute", "random",
         "--epsilon", "--eps", "--jobs", "--j", "--records", "--rec",
         "--emit-tree", "--emit", "--e", "--delta", "--del", "--er",
         "--planted", "--pl", "--trials", "--tri", "--seed", "--s",
         "--epsilon=0.5", "--jobs=2", "--records=1", "--emit=o.nwk",
         "--delta=1.5", "--er=4", "--seed=-1", "--tri=2", "--x", "-x",
         "--", "-", "-1", "1.5", "x", "4", "0.5", "g.txt", "t.nwk"]
PIECES = {  # argument groups that a command accepts, in any order
    "cost": [["g.txt"], ["t.nwk"]],
    "detect": [["g.txt"], ["--emit-tree", "o.nwk"], ["--emit=-"]],
    "approx": [["g.txt"], ["--delta", "1.5"], ["--del=-1"], ["--emit", "-1"]],
    "brute": [["g.txt"]],
    "random": [["--er", "4", "0.5"], ["--planted", "4", "0.5", "-1"],
               ["--trials", "2"], ["--tri=x"], ["--seed", "-1"], ["--s=3"]],
}
GLOBAL_PIECES = [["--epsilon", "0.5"], ["--eps=-1"], ["--jobs", "2"],
                 ["--j", "-1"], ["--records"], ["--rec"]]


@st.composite
def command_lines(draw):
    """Argument lists: words at random (mostly usage errors), or a command
    with global flags on either side and its own groups shuffled in, with
    a stray word now and then."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(WORDS), max_size=9))
    command = draw(st.sampled_from(sorted(PIECES)))
    pick = st.sampled_from(PIECES[command] + GLOBAL_PIECES
                           + [[w] for w in ("--", "-", "-1", "x")])
    before = draw(st.lists(st.sampled_from(GLOBAL_PIECES), max_size=2))
    after = draw(st.lists(pick, max_size=6))
    return [w for group in before + [[command]] + after for w in group]


@given(command_lines())
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_argparse_oracle(argv):
    # argparse hands a second ``--`` to a positional as an empty list
    # (``cost g -- --`` gives tree []); the table reads it as a plain value
    assume(argv.count("--") <= 1)
    _same_as_oracle(argv)


def test_a_second_double_dash_is_a_plain_value():
    assert _parse(["cost", "g", "--", "--"]).tree == "--"
    assert oracle_parser().parse_args(["cost", "g", "--", "--"]).tree == []


@pytest.mark.parametrize("argv, fields", [
    (["detect", "g", "--emit-tree=o.nwk", "--epsilon=0.5"],
     {"emit_tree": "o.nwk", "epsilon": 0.5}),
    (["detect", "g", "--emit-tree="], {"emit_tree": ""}),
    (["--rec", "detect", "g", "--emit", "o.nwk", "--ep", "0.5"],
     {"records": True, "emit_tree": "o.nwk", "epsilon": 0.5}),
    (["--jobs", "2", "brute", "g", "--jobs", "3", "--jobs=4"], {"jobs": 4}),
    (["random", "--er", "4", "0.5", "--er", "6", "0.1", "--trials", "1",
      "--seed", "1", "--seed", "2"], {"er": ["6", "0.1"], "seed": 2}),
    (["cost", "--", "-g", "--records"], {"graph": "-g", "tree": "--records"}),
    (["cost", "g", "--", "-t"], {"graph": "g", "tree": "-t"}),
    (["cost", "g", "t", "--"], {"graph": "g", "tree": "t"}),
    (["detect", "-", "--emit-tree", "-"], {"graph": "-", "emit_tree": "-"}),
    (["random", "--planted", "4", "-1", "-.5", "--trials", "1",
      "--seed", "-1"], {"planted": ["4", "-1", "-.5"], "seed": -1}),
    (["--jobs", "-1", "detect", "-1.5"], {"jobs": -1, "graph": "-1.5"}),
    (["detect", "-x y"], {"graph": "-x y"}),
])
def test_accepted_forms(argv, fields):
    kind, ns = _same_as_oracle(argv)
    assert kind == "ok"
    assert {key: ns[key] for key in fields} == fields


@pytest.mark.parametrize("argv", [
    [], ["--records"], ["detect", "g", "extra"], ["det", "g"],
    ["random", "--er", "4", "0.5", "--planted", "4", "0.5", "0.1",
     "--trials", "1", "--seed", "1"],
    ["random", "--trials", "1", "--seed", "1"],
    ["random", "--er", "4", "--trials", "1", "--seed", "1"],
    ["approx", "g"], ["--jobs", "x", "detect", "g"], ["detect", "g", "--e", "x"],
    ["detect", "g", "--records=1"], ["detect", "g", "--emit-tree", "--"],
    ["detect", "g", "--emit-tree", "o", "--"], ["--", "detect", "g"],
    ["detect", "g", "-x"], ["detect", "g", "-hx"], ["--=x", "detect", "g"],
])
def test_usage_errors(capsys, argv):
    _same_as_oracle(argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: hcratio ")
    assert re.fullmatch(r"hcratio( [a-z]+)?: error: .+", error)


def test_flags_do_not_leak_into_the_next_call(capsys, tmp_path):
    g = tmp_path / "wobbly.txt"
    g.write_text(WOBBLY)
    emitted = tmp_path / "out.nwk"
    code, out, _ = run(capsys, "--records", "--epsilon", "0.1", "--jobs", "2",
                       "detect", str(g), "--emit-tree", str(emitted))
    assert (code, out) == (0, "verdict\tperfect\n")
    emitted.unlink()
    code, out, _ = run(capsys, "detect", str(g))
    assert (code, out) == (1, "not-perfect 0,1,2,3\n")
    assert not emitted.exists()

    er = ["random", "--er", "12", "0.5", "--trials", "1", "--seed", "3"]
    with mock.patch.object(cli, "cmd_random", wraps=cli.cmd_random) as command:
        run(capsys, "--jobs", "2", *er)
        run(capsys, *er)
    assert [c.args[0].jobs for c in command.call_args_list] == [2, 1]


@pytest.mark.parametrize("bad", [[], ["--records", "detect"], ["cost", "g"],
                                 ["--jobs", "x", "brute", "g"]])
def test_usage_error_leaves_the_next_call_alone(capsys, p4, bad):
    alone = run(capsys, "detect", p4)
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "detect", p4) == alone == (0, "perfect\n", "")


REPO = Path(__file__).resolve().parent.parent

# Seconds allowed for the install and for one run of the script, so that a
# hang fails the test instead of stalling the suite.
SUBPROCESS_TIMEOUT = 120


def _env_without_pythonpath(**extra):
    # An inherited relative PYTHONPATH=src (the source-tree test command) puts
    # the copy's src on sys.path during the install, so easy_install writes no
    # .pth entry and the installed script then cannot find its distribution.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(extra)
    return env


@pytest.fixture(scope="module")
def installed_bin(tmp_path_factory):
    """``bin`` of a throwaway venv that has this checkout installed.

    A copy of the project (``pyproject.toml``, ``README.md``, ``src/``) is
    installed with setuptools' ``develop --no-deps``, which needs neither
    the network nor ``wheel`` and writes the console script from the
    ``[project.scripts]`` metadata.  The venv sees the system site-packages
    for numpy.  Nothing is written into the working tree.
    """
    pytest.importorskip("setuptools")
    root = tmp_path_factory.mktemp("install")
    project = root / "project"
    project.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, project / name)
    shutil.copytree(REPO / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env_dir = root / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / "bin"
    proc = subprocess.run(
        [str(bin_dir / "python"), "-c", "import setuptools; setuptools.setup()",
         "develop", "--no-deps"],
        cwd=project, env=_env_without_pythonpath(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, (
        f"install failed\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}")
    return bin_dir


def test_installed_script_runs(installed_bin, p4):
    path = os.pathsep.join([str(installed_bin),
                            os.environ.get("PATH", os.defpath)])
    proc = subprocess.run(["hcratio", "detect", p4],
                          env=_env_without_pythonpath(PATH=path),
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "perfect\n"
    proc = subprocess.run(["hcratio", "-h"],
                          env=_env_without_pythonpath(PATH=path),
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: hcratio ")


def _readme_examples():
    """(command, printed lines) for each ``$ `` line of the README's CLI
    Examples block."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\nExamples:\n\n```sh\n(.*?)```", text, re.S).group(1)
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((line[2:], []))
        else:
            steps[-1][1].append(line)
    return steps


def test_readme_examples_print_what_they_show(tmp_path):
    steps = _readme_examples()
    assert sum(cmd.startswith("hcratio ") for cmd, _ in steps) >= 3
    # `hcratio` runs this checkout's CLI with the interpreter running the tests
    prelude = 'hcratio() { "$PYTHON" -m hcratio.cli "$@"; }\n'
    # stdout unbuffered: `random ... | head -4` writes line by line and meets
    # the pipe head has closed, which must still leave stderr empty
    env = _env_without_pythonpath(PYTHON=sys.executable, PYTHONUNBUFFERED="1",
                                  PYTHONPATH=str(REPO / "src"))
    for cmd, shown in steps:
        proc = subprocess.run(["sh", "-c", prelude + cmd], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        assert (proc.returncode, proc.stderr) == (0, ""), cmd
        assert proc.stdout.splitlines() == shown, cmd


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_quietly(unbuffered):
    # the reader takes one line and leaves, as `| head -1` does, while the
    # table (155 KB, more than a pipe holds) is still being written
    env = _env_without_pythonpath(PYTHONPATH=str(REPO / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "hcratio.cli", "random", "--er", "20", "0.5",
            "--trials", "3000", "--seed", "1"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=SUBPROCESS_TIMEOUT)
    assert first == b"model er n=20 p=0.5\n"
    assert (status, err) == (141, b"")
