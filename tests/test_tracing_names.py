"""The benchmark's traced run wraps swapnet functions by name."""
import importlib
import importlib.util
import pathlib

from swapnet import cli, seqcore

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_name_exists():
    # a missing attribute would make ``Tracer.install`` fail under --trace 1
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for module_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_traced_check_run(capsys):
    # the wrappers read each result (``result[0]``, ``len(result)``), so a traced
    # run also pins the return shapes the benchmark relies on
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["check"]) == 0
        seqcore.seq_stream(4, 4, 100)
    finally:
        tracer.uninstall()
    assert "FAIL" not in capsys.readouterr().out
    assert not [s for s in tracer.spans if s.get("raised")]
    window = [s for s in tracer.spans if s["name"] == "seqcore.first_window_return"]
    assert window and all("steps" in s for s in window)
    assert [s["terms"] for s in tracer.spans if s["name"] == "seqcore.seq_stream"][-1] == 100
