"""pytest's own settings in pyproject.toml, run on a test file written for
the purpose in a temporary directory, so that nothing lands in the repo."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# A failing property test makes hypothesis import its patch writer, which
# warns (DeprecationWarning) on import; the test after it must still run.
FAILING_PROPERTY_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
