"""The test settings themselves: a failing test must report its failure."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # every warning is an error, so a warning raised while hypothesis
    # reports a failure would replace the report with an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "@settings(database=None)\n"
        "def test_fails(x):\n"
        "    assert x < 0\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
