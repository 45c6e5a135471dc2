"""The suite's own pytest configuration (``pyproject.toml``)."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(k):
    assert k < 0


def test_passes():
    pass
'''


def test_a_failing_test_does_not_stop_the_suite(tmp_path):
    # hypothesis reports a failing example through hypothesis.extra._patching,
    # whose imports warn; under the suite's warnings-as-errors that warning
    # must not end the run with INTERNALERROR before the passing test runs
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
