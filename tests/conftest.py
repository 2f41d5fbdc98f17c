import os
import pathlib

import pytest
from hypothesis import HealthCheck, settings

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

settings.register_profile(
    "swapnet",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("swapnet")


@pytest.fixture(autouse=True)
def _no_caller_budget(monkeypatch):
    """Keep a SWAPNET_BUDGET set in the calling shell out of every test."""
    monkeypatch.delenv("SWAPNET_BUDGET", raising=False)


@pytest.fixture
def child_env():
    """Environment for a child Python process.

    Starts from os.environ, puts this checkout's src/ first on PYTHONPATH
    so the child imports swapnet from here without an install, drops
    SWAPNET_BUDGET (a test that wants a budget sets it on the copy), and
    turns every warning into an error, as pyproject.toml does in this process.
    """
    env = dict(os.environ)
    env.pop("SWAPNET_BUDGET", None)
    env["PYTHONWARNINGS"] = "error"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def no_factoring(monkeypatch):
    """Factorization.of gives up on every n above 100, and brute force in cycles raises.

    So d=6 fails on 3^6 - 1 = 728 (2^6 - 1 = 63 still factors) and d=25 on 5^4 - 1 = 624.
    """
    from swapnet import cycles
    from swapnet.errors import FactoringError
    from swapnet.factor import Factorization

    true_of = Factorization.of

    def of(n):
        if n > 100:
            raise FactoringError(f"cannot split composite {n}", cofactor=n)
        return true_of(n)

    def no_brute_force(*args):
        raise AssertionError("brute force was called")

    monkeypatch.setattr(Factorization, "of", staticmethod(of))
    monkeypatch.setattr(cycles, "first_window_return", no_brute_force)
