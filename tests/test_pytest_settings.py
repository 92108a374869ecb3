"""The project's pytest settings: warnings are errors, yet a failing
property-based test is reported as a failure, with its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_is_a_failure_not_an_internal_error(tmp_path):
    """Under ``filterwarnings = ["error"]`` the hypothesis plugin's report
    once raised a third-party DeprecationWarning, which ended the run in an
    INTERNALERROR (exit 3) and lost the example and every later test."""
    (tmp_path / "test_fail.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fail.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
