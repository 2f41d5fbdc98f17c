"""The test harness: the pytest configuration in pyproject.toml, run in a child
session on a planted file, and the long-ring targets that CI and README name."""
import ast
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
TEST_ID = re.compile(r"tests/\w+\.py(?:::\w+)*")

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


def _long_ring_ids():
    """(CI ids, README ids): read by regex, since CI installs no YAML parser."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    job = re.search(r"^  long-ring:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S).group(1)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"targets of the CI `long-ring` job:\s*```sh\n(.*?)```", readme, re.S).group(1)
    return set(TEST_ID.findall(job)), set(TEST_ID.findall(block))


def test_ci_and_readme_name_the_same_long_ring_targets():
    ci, readme = _long_ring_ids()
    assert ci and ci == readme, (ci - readme, readme - ci)


def test_every_long_ring_target_exists():
    # file, class and function read with ast; nothing is imported
    for test_id in set().union(*_long_ring_ids()):
        path, *names = test_id.split("::")
        assert (ROOT / path).is_file(), test_id
        body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                         and n.name == name), None)
            assert node is not None, test_id
            body = node.body
