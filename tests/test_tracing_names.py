"""The benchmark's traced run wraps swapnet functions by name."""
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_wrapped_name_exists():
    # a missing attribute would make ``Tracer.install`` fail under --trace 1
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
