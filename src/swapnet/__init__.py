"""Cyclic CNOT networks for d-level systems.

A network of CNOT gates applied round-robin to d systems of dimension d
evolves basis labels exactly like a binomial summation sequence mod d.
This package generates that sequence by independent routes, measures
its period (which fixes the network's gate count), classifies the
permutation one full cycle induces (full SWAP, grouped swaps, or
identity), simulates the circuits on state vectors, and evaluates the
partial-fraction closed form of the sequence.
"""
from .cycles import (
    CycleReport,
    ScanFailure,
    cycle_length,
    cycle_length_direct,
    predicted_cycle,
    scan,
    scan_csv,
    verify_conjecture,
)
from .errors import (
    FactoringError,
    InconclusiveError,
    InvalidModulusError,
    InvalidPrimeError,
    MismatchError,
    NumericError,
    SizeBudgetError,
    SwapnetError,
    VerificationError,
)
from .factor import Factorization
from .genfun import (
    ClosedForm,
    closed_form,
    compare_closed_vs_exact,
    distinct_roots_check,
    eval_closed,
    find_roots,
    max_deviation,
    series_denominator,
)
from .network import (
    Circuit,
    Gate,
    LinearMapZd,
    StateVector,
    SwapVerdict,
    TraceArray,
    build_cyclic_network,
    export_circuit,
    full_operator,
    linear_map,
    parse_circuit,
    permutation_matrix_text,
    random_qudit,
    simulate,
    trace_array,
    verify_swap,
)
from .seqcore import (
    PascalTable,
    binom_exact,
    binom_mod,
    exact_sequence,
    first_window_return,
    hockey_stick_check,
    lu_tsai_period,
    prime_binomial_residue,
    seq_stream,
    term_exact,
    term_exact_range,
    term_mod,
)

__version__ = "0.1.0"
