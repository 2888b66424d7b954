"""The suite's pytest settings let every test run after a property test fails."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # a failing @given test makes hypothesis import libcst to print an
    # @example patch; that import warns DeprecationWarning, and under the
    # suite's warnings-as-errors it ended the session in INTERNALERROR,
    # so no later test ran
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
