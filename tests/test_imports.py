"""What a swapnet process imports: the lazy package namespace and each CLI verb's modules."""
import functools
import importlib
import subprocess
import sys

import pytest

import swapnet
from swapnet.cli import main
from swapnet.network import build_cyclic_network, export_circuit

# the 48 public names, by the submodule that defines them
EXPORTS = {
    "cycles": {"CycleReport", "ScanFailure", "cycle_length", "cycle_length_direct",
               "predicted_cycle", "scan"},
    "errors": {"FactoringError", "InconclusiveError", "InvalidModulusError",
               "InvalidPrimeError", "MismatchError", "NumericError", "SizeBudgetError",
               "SwapnetError", "VerificationError"},
    "factor": {"Factorization"},
    "genfun": {"ClosedForm", "closed_form", "compare_closed_vs_exact", "eval_closed",
               "find_roots", "max_deviation", "series_denominator"},
    "network": {"Circuit", "LinearMapZd", "StateVector", "TraceArray",
                "build_cyclic_network", "export_circuit", "full_operator", "linear_map",
                "parse_circuit", "permutation_matrix_text", "random_qudit", "simulate",
                "trace_array", "verify_swap"},
    "seqcore": {"binom_exact", "binom_mod", "exact_sequence",
                "first_window_return", "hockey_stick_check", "lu_tsai_period",
                "prime_binomial_residue", "seq_stream", "term_exact", "term_exact_range",
                "term_mod"},
}
NAMES = sorted(set().union(*EXPORTS.values()))
POOL = "concurrent.futures.process"
FFT = "numpy.fft"  # absent only where numpy loads it lazily
NUMERIC = {"numpy", "swapnet.ring", "swapnet.cycles", "swapnet.network", "swapnet.genfun"}
PERIODS = {"swapnet.cycles", "swapnet.ring"}


@functools.cache
def _numpy_loads_fft_lazily() -> bool:
    proc = subprocess.run([sys.executable, "-c", f"import sys, numpy; print({FFT!r} in sys.modules)"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "False"


def _loaded(stderr: str) -> set[str]:
    """Module names from ``python -X importtime`` lines: 'import time: self | cumulative | name'."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


class TestNamespace:
    def test_export_table_is_pinned(self):
        assert len(NAMES) == 48
        assert {m: set(names) for m, names in swapnet._EXPORTS.items()} == EXPORTS

    @pytest.mark.parametrize("name", NAMES)
    def test_name_is_the_submodule_object(self, name):
        module = next(m for m, names in EXPORTS.items() if name in names)
        assert getattr(swapnet, name) is getattr(importlib.import_module(f"swapnet.{module}"), name)

    def test_dir_and_all_list_every_name(self):
        assert set(NAMES) <= set(dir(swapnet)) and "SwapVerdict" not in dir(swapnet)
        assert sorted(swapnet.__all__) == NAMES
        namespace = {}
        exec("from swapnet import *", namespace)
        assert set(NAMES) <= set(namespace)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(swapnet, "no_such_name")

    def test_bare_import_loads_no_submodule(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, swapnet; print(' '.join(sorted(sys.modules)))"],
            capture_output=True, text=True, env=child_env, check=True)
        loaded = set(proc.stdout.split())
        assert "swapnet" in loaded
        assert not {m for m in loaded if m.startswith("swapnet.")}
        assert "numpy" not in loaded


class TestVerbImports:
    """Each verb runs as ``python -X importtime -m swapnet``: same stdout, fewer modules."""

    @pytest.fixture
    def circuit(self, tmp_path):
        path = tmp_path / "qutrit.txt"
        path.write_text(export_circuit(build_cyclic_network(3, 8), "gatelist"), encoding="ascii")
        return str(path)

    def _run(self, capsys, child_env, argv):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "swapnet", *argv],
                              capture_output=True, text=True, env=child_env)
        code = main(list(argv))
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
        return _loaded(proc.stderr)

    @pytest.mark.parametrize("argv, absent", [
        (["seq", "--d", "4", "--count", "26"], NUMERIC | {"logging", "dataclasses"}),
        (["seq", "--d", "5", "--count", "40", "--mod", "7", "--json"],
         NUMERIC | {"logging", "dataclasses"}),
        (["simulate", "--circuit", "CIRCUIT", "--state", "120"], PERIODS),
        (["trace", "--d", "4", "--steps", "12"], PERIODS),
        (["export", "--d", "3", "--gates", "8", "--json"], PERIODS),
        (["closed-form", "--n", "4"], {"swapnet.network", "swapnet.cycles"}),
        (["cycle", "--d", "9"], {"swapnet.network", "swapnet.genfun", FFT}),
    ])
    def test_verb_loads_only_what_it_runs(self, capsys, child_env, circuit, argv, absent):
        argv = [circuit if a == "CIRCUIT" else a for a in argv]
        if FFT in absent and not _numpy_loads_fft_lazily():
            absent = absent - {FFT}
        loaded = self._run(capsys, child_env, argv)
        assert "swapnet.cli" in loaded
        assert not (absent | {POOL}) & loaded

    def test_scan_loads_no_pool(self, capsys, child_env):
        assert POOL not in self._run(capsys, child_env, ["scan", "--max", "5"])
