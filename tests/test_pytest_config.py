"""The repository's pytest settings, applied to a throwaway test file."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED_AND_PASSING = """\
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_passing():
    pass
"""


def test_a_falsified_property_does_not_end_the_session(tmp_path):
    # Reporting a falsified property imports modules that warn on import;
    # unless the configuration ignores that warning, warnings as errors
    # stop pytest with INTERNALERROR before the next test runs.
    (tmp_path / "test_sample.py").write_text(FALSIFIED_AND_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout, output
