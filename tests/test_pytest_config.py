"""The repository's pytest configuration reports every test, failing ones too."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=3))
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test_after_it():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """``filterwarnings = error`` must not turn the hypothesis plugin's own
    deprecation warning, raised while it reports a failure, into an
    INTERNALERROR that stops the session before the tests after it run."""
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert proc.returncode == 1
