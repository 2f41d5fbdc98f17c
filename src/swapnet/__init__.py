"""Cyclic CNOT networks for d-level systems.

A network of CNOT gates applied round-robin to d systems of dimension d
evolves basis labels exactly like a binomial summation sequence mod d.
This package generates that sequence by independent routes, measures
its period (which fixes the network's gate count), classifies the
permutation one full cycle induces (full SWAP, grouped swaps, or
identity), simulates the circuits on state vectors, and evaluates the
partial-fraction closed form of the sequence.

The public names resolve on first use (PEP 562), so ``import swapnet``
loads no submodule and a verb that never touches numpy never imports it.
"""
import importlib

_EXPORTS = {
    "cycles": (
        "CycleReport", "ScanFailure", "cycle_length", "cycle_length_direct",
        "predicted_cycle", "scan",
    ),
    "errors": (
        "FactoringError", "InconclusiveError", "InvalidModulusError", "InvalidPrimeError",
        "MismatchError", "NumericError", "SizeBudgetError", "SwapnetError",
        "VerificationError",
    ),
    "factor": ("Factorization",),
    "genfun": (
        "ClosedForm", "closed_form", "compare_closed_vs_exact", "eval_closed", "find_roots",
        "max_deviation", "series_denominator",
    ),
    "network": (
        "Circuit", "LinearMapZd", "StateVector", "TraceArray", "build_cyclic_network",
        "export_circuit", "full_operator", "linear_map", "parse_circuit",
        "permutation_matrix_text", "random_qudit", "simulate", "trace_array", "verify_swap",
    ),
    "seqcore": (
        "binom_exact", "binom_mod", "exact_sequence", "first_window_return", "hockey_stick_check",
        "lu_tsai_period", "prime_binomial_residue", "seq_stream", "term_exact", "term_exact_range",
        "term_mod",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
