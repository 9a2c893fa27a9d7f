import os
import shutil
import subprocess
import venv
from pathlib import Path

import pytest

from hcratio.cli import main


P4_EDGES = "0 1 1\n1 2 1\n2 3 1\n"
P5_EDGES = "0 1 1\n1 2 1\n2 3 1\n3 4 1\n"


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


def test_detect_epsilon_flag(capsys, tmp_path):
    g = tmp_path / "wobbly.txt"
    g.write_text("4\n0 1.0 0 0.99\n1.0 0 1.01 0\n0 1.01 0 1.0\n0.99 0 1.0 0\n")
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
