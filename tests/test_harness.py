"""The pytest configuration in pyproject.toml, run in a child session on a planted file."""
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path, child_env):
    # the hypothesis plugin warns while it reports the failure; under the "error"
    # filter alone that warning is an INTERNALERROR, and the passing test never runs
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_planted.py"],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
