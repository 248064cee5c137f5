"""The suite's own pytest settings report a failing property as a failure.

``pyproject.toml`` turns every warning into an error.  Hypothesis 6.155
touches the deprecated ``mypy_extensions.TypedDict`` while it reports a
failing example, inside pytest's report hook, where that error ends the
run as an INTERNALERROR with no falsifying example.  The settings ignore
that one warning; the test runs a property that always fails under them
and checks that pytest reports it the normal way.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
