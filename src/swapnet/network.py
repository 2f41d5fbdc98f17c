"""Cyclic CNOT networks over d-level systems and their verification.

Conventions used throughout:

* A CNOT gate with control c and target t maps basis labels by
  ``x[t] <- (x[t] + x[c]) mod d`` and leaves everything else alone.
* Basis indices are big-endian over system digits:
  ``|x0 x1 ... x_{n-1}>  <->  sum x_k * d^(n-1-k)``.
* Operators built from such gates permute basis states, so they are
  represented as index permutations; dense 0/1 matrices exist only as a
  rendering for eyeballing.
* ``LinearMapZd`` describes the same action on the exponent vector:
  after the circuit, system i carries ``sum_j M[i][j] * x[j] mod d``.
* Every permutation reads from input to output: entry j is where input j
  ends up, a system for ``LinearMapZd.permutation``, a basis index for
  ``full_operator``, as for ``CycleReport.permutation``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import SizeBudgetError, SwapnetError, _check_int
from .seqcore import _ASCII_INT, _ascii_int, _check_modulus, _terms

OPERATOR_SIZE_LIMIT = 10 ** 6
TRACE_LIMIT = 10 ** 7
GATE_LIMIT = 10 ** 6
CIRCUIT_CHAR_LIMIT = 64 * GATE_LIMIT  # characters of a circuit file: 64 a gate at the gate limit
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines breaks; "\r\n" holds two
NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Circuit:
    """CNOT gates on ``n_systems`` systems of dimension ``d``: ``gates`` is one read-only (G, 2) int64 array."""

    d: int
    n_systems: int
    gates: np.ndarray = ()

    def __post_init__(self):
        _check_modulus(self.d)
        _check_int("n_systems", self.n_systems, 1)
        gates = np.array(self.gates)  # a copy in the inferred type, so no float or str is cast yet
        if gates.size and gates.dtype.kind not in "iu":  # the empty list infers float64
            raise ValueError(f"gate entries must be integers in int64, got {gates.dtype}")
        if gates.shape[1:] != (2,) and gates.shape != (0,):  # (0,) is an empty list
            raise ValueError(f"gates must be (control, target) rows, got shape {gates.shape}")
        gates = gates.reshape(-1, 2)
        bad = ((gates < 0) | (gates >= self.n_systems)).any(axis=1) | (gates[:, 0] == gates[:, 1])
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"gate {k} {gates[k].tolist()} needs distinct control and target "
                             f"in 0..{self.n_systems - 1}")
        gates = gates.astype(np.int64, copy=False)  # exact: every index is in range
        gates.flags.writeable = False  # and so every view of it
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __reduce__(self):  # pickle and deepcopy rebuild through __post_init__: checked, read-only
        return Circuit, (self.d, self.n_systems, self.gates)

    def __eq__(self, other):
        return (isinstance(other, Circuit) and (self.d, self.n_systems) == (other.d, other.n_systems)
                and np.array_equal(self.gates, other.gates))


def _check_digits(digits, n: int) -> list:
    """Exactly n digits as a list, each a Python or numpy integer; else ValueError."""
    digits = list(digits)
    if len(digits) != n:
        raise ValueError(f"need {n} digits, got {len(digits)}")
    for v in digits:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"digit {v!r} is not an integer")
    return digits


def _check_gate_count(count: int) -> None:
    if count > GATE_LIMIT:
        raise SizeBudgetError(f"{count} gates exceed the {GATE_LIMIT} gate limit")


def build_cyclic_network(d: int, gate_count: int) -> Circuit:
    """The periodic schedule: gate k controls system k mod d, targets k+1 mod d."""
    _check_modulus(d)
    _check_int("gate_count", gate_count, 0)
    _check_gate_count(gate_count)
    # every k <= gate_count, so k mod d is k mod min(d, gate_count + 1), which fits int64
    k = np.arange(gate_count + 1) % min(d, gate_count + 1)
    return Circuit(d, d, np.column_stack((k[:-1], k[1:])))


@dataclass(frozen=True, eq=False)
class LinearMapZd:
    """Action of a circuit on the exponent vector, as a matrix over Z_d; compared by identity (``eq=False``)."""

    d: int
    matrix: np.ndarray

    def apply(self, exponents) -> tuple[int, ...]:
        digits = _check_digits(exponents, self.matrix.shape[1])
        vec = np.array([int(v) for v in digits], dtype=object)  # Python ints: exact at any d
        return tuple((self.matrix.astype(object) @ vec) % self.d)

    def permutation(self) -> tuple[int, ...] | None:
        """For each input digit j, the system holding it after the circuit; None if digits mix."""
        n = self.matrix.shape[0]
        sigma = self.matrix.argmax(axis=0)  # also 0 on an all-zero column, so compare whole columns
        unit_columns = np.array_equal(self.matrix.T, np.eye(n, dtype=np.int64)[sigma])
        return tuple(sigma.tolist()) if unit_columns and (self.matrix.sum(axis=1) == 1).all() else None


def _check_matrix(n: int) -> None:
    if n * n > OPERATOR_SIZE_LIMIT:
        raise SizeBudgetError(f"a {n} x {n} matrix exceeds the {OPERATOR_SIZE_LIMIT} entry limit")


def _check_trace_rows(d: int, T: int) -> None:
    _check_modulus(d)
    _check_int("T", T, 0)
    if d * (T + d) > TRACE_LIMIT:
        raise SizeBudgetError(f"{d} rows of {T + d} coefficients exceed the {TRACE_LIMIT} trace limit")


def linear_map(circuit: Circuit) -> LinearMapZd:
    """Compose all gates into one matrix over Z_d (identity if empty)."""
    _check_matrix(circuit.n_systems)
    # entries stay below d, so a sum of two fits int64 while 2(d - 1) < 2^63
    mat = np.eye(circuit.n_systems, dtype=np.int64 if circuit.d <= 2 ** 62 else object)
    for c, t in zip(*circuit.gates.T.tolist()):  # two flat lists; a list per row costs 0.5 us a gate
        mat[t] = (mat[t] + mat[c]) % circuit.d
    return LinearMapZd(circuit.d, mat)


@dataclass(frozen=True, eq=False)
class TraceArray:
    """Per-system coefficient rows of the network over time.

    Column at time t (t runs from -(d-1) to T) gives each system's
    current digit as a linear form in the initial digits: dotting the
    column with the initial-digit vector yields that system's state.
    Columns at t <= 0 are the unit vectors of the initial preparation;
    later columns obey column(t) = column(t-1) + column(t-d) mod d.
    Row i is row 0 delayed by i steps, so only row 0 is stored, from
    t = -2(d-1) to T (``row0[k]`` at t = k - 2(d-1)): the sequence mod d,
    run back for t < 0 by term(j-d) = term(j) - term(j-1) to zeros and a 1 at -d.
    ``row0`` is one read-only array of the smallest unsigned type holding
    d - 1; every reading is a slice of it.  ``eq=False``: an ndarray has no
    truth value to compare or hash by, so equality is identity.
    """

    d: int
    row0: np.ndarray

    def __post_init__(self):
        self.row0.flags.writeable = False

    def __reduce__(self):  # pickle and deepcopy rebuild through __post_init__: read-only
        return TraceArray, (self.d, self.row0)

    @property
    def t_start(self) -> int:
        return -(self.d - 1)

    @property
    def t_end(self) -> int:
        return len(self.row0) - 2 * self.d + 1

    def column(self, t: int) -> tuple[int, ...]:
        _check_int("t", t)
        if not self.t_start <= t <= self.t_end:
            raise IndexError(f"column {t} outside {self.t_start}..{self.t_end}")
        k = t + 2 * (self.d - 1)
        return tuple(self.row0[k - self.d + 1:k + 1][::-1].tolist())

    def row(self, i: int) -> list[int]:
        """Coefficient sequence of initial digit i across all columns."""
        _check_int("i", i)
        if not 0 <= i < self.d:
            raise IndexError(f"row {i} outside 0..{self.d - 1}")
        return self.row0[self.d - 1 - i:len(self.row0) - i].tolist()

    def header(self, exponents=None) -> list[int]:
        """Scalar sequence obtained by dotting columns with initial digits.

        With the all-ones digit vector (the default) this is exactly the
        binomial summation sequence mod d, starting at its term 0.  Any d
        ints serve as digits: they are reduced mod d first.  Its d (T + d) steps
        are refused past TRACE_LIMIT, so d^2 <= TRACE_LIMIT and int64 holds d^3.
        """
        _check_trace_rows(self.d, self.t_end)
        e = _check_digits(exponents if exponents is not None else (1,) * self.d, self.d)
        digits = np.array([int(v) % self.d for v in e], dtype=np.int64)
        return (np.convolve(self.row0.astype(np.int64), digits, "valid") % self.d).tolist()

    def linear_map(self) -> LinearMapZd:
        """The network's linear map after T gates, read off the columns.

        Gate t (counting from 1) updates system t mod d, so system s
        holds the column of its last update, t = T - (T - s) mod d.
        """
        T, d = self.t_end, self.d
        _check_matrix(d)
        t = T - (T - np.arange(d)) % d  # entry i of column t is row0[t + 2(d-1) - i]
        return LinearMapZd(d, self.row0[(t + 2 * (d - 1))[:, None] - np.arange(d)].astype(np.int64))


def trace_array(d: int, T: int) -> TraceArray:
    """Row 0 for t = -2(d-1) .. T of the dimension-d construction."""
    _check_modulus(d)
    _check_int("T", T, 0)
    if T + 2 * d - 1 > TRACE_LIMIT:
        raise SizeBudgetError(f"{T + 2 * d - 1} trace coefficients exceed the {TRACE_LIMIT} limit")
    # t = -2(d-1) .. -1 as TraceArray says, then the sequence, cut by fromiter's count
    terms = chain(repeat(0, d - 2), (1,), repeat(0, d - 1), _terms(d, d))
    row0 = np.fromiter(terms, dtype=np.min_scalar_type(d - 1), count=T + 2 * d - 1)
    return TraceArray(d, row0)


def _check_size(d: int, n: int) -> None:
    """Refuse more than OPERATOR_SIZE_LIMIT basis states before allocating them."""
    _check_modulus(d)
    _check_int("n", n, 1)
    # with d >= 2, any n beyond the limit's bit length exceeds it; this
    # keeps d ** n from being evaluated for an absurd system count
    if n > OPERATOR_SIZE_LIMIT.bit_length() or d ** n > OPERATOR_SIZE_LIMIT:
        raise SizeBudgetError(
            f"{n} systems of dimension {d} exceed the {OPERATOR_SIZE_LIMIT} basis-state limit"
        )


class StateVector:
    """Complex amplitudes over the d^n computational basis, unit norm."""

    __slots__ = ("d", "n", "amplitudes")

    def __init__(self, d: int, n: int, amplitudes):
        _check_size(d, n)
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (d ** n,):
            raise ValueError(f"expected {d ** n} amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        self.d = d
        self.n = n
        self.amplitudes = amps

    @classmethod
    def basis(cls, d: int, n: int, digits) -> "StateVector":
        """Computational basis state from a digit sequence, or a string of ASCII digits, one a system."""
        _check_size(d, n)
        if isinstance(digits, str):
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"digit string {digits!r} is not ASCII digits")
            digits = [int(ch) for ch in digits]
        digits = _check_digits(digits, n)
        if any(not 0 <= x < d for x in digits):
            raise ValueError(f"need {n} digits in [0, {d})")
        amps = np.zeros(d ** n, dtype=np.complex128)
        amps[np.ravel_multi_index(digits, (d,) * n)] = 1.0
        return cls(d, n, amps)

    @classmethod
    def product(cls, d: int, factors) -> "StateVector":
        """Tensor product of per-system amplitude vectors (each unit norm)."""
        parts = [np.asarray(f, dtype=np.complex128) for f in factors]
        if any(f.shape != (d,) for f in parts):
            raise ValueError(f"each factor needs {d} amplitudes")
        _check_size(d, len(parts))
        amps = np.ones(1, dtype=np.complex128)
        for f in parts:
            amps = np.kron(amps, f)
        return cls(d, len(parts), amps)

    @classmethod
    def random(cls, d: int, n: int, seed: int) -> "StateVector":
        """Reproducible Haar-ish random state from a seed."""
        _check_size(d, n)
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
        return cls(d, n, amps / np.linalg.norm(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def random_qudit(d: int, rng) -> np.ndarray:
    """One random unit vector in C^d drawn from the given generator."""
    _check_int("d", d, 1)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def simulate(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit gate by gate on the basis labels, then move the amplitudes once.

    Row k of ``x`` is digit k of every basis state.  Each gate (c, t) applies
    its own rule x[t] <- x[t] + x[c] mod d, in order, with no matrix and no
    composition.  The unsigned sum s is below 2d, so min(s, s - d) is exact,
    since s - d wraps above s when s < d.  One scatter fills a new array.
    """
    if state.d != circuit.d or state.n != circuit.n_systems:
        raise ValueError(f"state is {state.n} systems of dimension {state.d}, "
                         f"circuit wants {circuit.n_systems} of {circuit.d}")
    d, n = circuit.d, circuit.n_systems
    x = np.indices((d,) * n, dtype=np.min_scalar_type(2 * (d - 1))).reshape(n, -1)
    for c, t in zip(*circuit.gates.T.tolist()):
        x[t] += x[c]
        np.minimum(x[t], x[t] - d, out=x[t])
    out = np.empty_like(state.amplitudes)
    out[np.ravel_multi_index(tuple(x), (d,) * n)] = state.amplitudes
    return StateVector(d, n, out)


def full_operator(circuit: Circuit) -> np.ndarray:
    """The whole circuit as one forward basis permutation.

    ``perm[i]`` is the basis index that ``|i>`` is sent to: the digits
    of i, mapped through the circuit's linear map over Z_d.  Refuses
    sizes beyond the in-memory budget of 10^6 basis states.
    """
    d, n = circuit.d, circuit.n_systems
    _check_size(d, n)
    digits = np.indices((d,) * n).reshape(n, d ** n)
    images = (linear_map(circuit).matrix @ digits) % d
    return np.ravel_multi_index(tuple(images), (d,) * n)


def permutation_matrix_text(perm: np.ndarray) -> str:
    """Rows of space-separated 0/1 digits for the permutation operator.

    Row r has a single 1 in column c whenever basis c maps to basis r;
    this is the dense unitary as it would be printed for inspection.
    """
    _check_matrix(len(perm))
    dense = np.zeros((len(perm), len(perm)), dtype=np.int8)
    dense[perm, np.arange(len(perm))] = 1
    return "".join(" ".join(map(str, row)) + "\n" for row in dense.tolist())


def verify_swap(d: int, budget: int | None = None):
    """The ``CycleReport`` of one full cycle of N gates, N the certified period mod d.

    Row 0 of the trace is the sequence mod d from t = -2(d-1) on, so
    after N gates every column equals the unit column N steps earlier:
    the cycle's map is the cyclic shift by N mod d, whose ``kind`` the
    report names.  The trace row and the gates are its oracles.
    """
    from . import cycles  # simulate, trace and export need neither it nor the ring
    return cycles.cycle_length(d, budget)


def export_circuit(circuit: Circuit, format: str = "gatelist") -> str:
    """Serialize deterministically as compact JSON or as a line-per-gate list."""
    if format not in ("json", "gatelist"):
        raise ValueError(f"unknown format {format!r}")
    pairs = zip(*circuit.gates.T.tolist())  # two flat lists; a list per row costs 0.5 us a gate
    if format == "json":  # the bytes of json.dumps(..., separators=(",", ":")), from int fields
        gates = ",".join(f"[{c},{t}]" for c, t in pairs)
        return f'{{"d":{circuit.d},"systems":{circuit.n_systems},"gates":[{gates}]}}'
    return "\n".join([f"DIM {circuit.d} SYSTEMS {circuit.n_systems}", *(f"CNOT {c} {t}" for c, t in pairs)])


def parse_circuit(text: str) -> Circuit:
    """Read back export_circuit's text; any fault, or a size past its limit, raises SwapnetError."""
    if len(text) > CIRCUIT_CHAR_LIMIT:
        raise SizeBudgetError(f"circuit text exceeds the {CIRCUIT_CHAR_LIMIT} character limit")
    try:
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            # type(...) is int: JSON true/false load as bool, a subclass of int
            if not (type(doc.get("d")) is int and type(doc.get("systems")) is int
                    and isinstance(doc.get("gates"), list)):
                raise SwapnetError("circuit JSON needs integers 'd' and 'systems' and a 'gates' list")
            _check_gate_count(len(doc["gates"]))
            for g in doc["gates"]:
                if not (isinstance(g, list) and len(g) == 2 and all(type(v) is int for v in g)):
                    raise SwapnetError(f"malformed gate: {g!r}")
            return Circuit(doc["d"], doc["systems"], doc["gates"])
        # a non-blank line from its first non-space character: every str.splitlines break is
        # whitespace, so a match holds none, and a blank line makes none; a well-formed gate
        # line matches the first branch of ``gate``, with its numbers in groups 1 and 2
        line, space = f"\\S[^{_LINE_BREAKS}]*", f"[^\\S{_LINE_BREAKS}]"
        gate = re.compile(f"CNOT{space}+({_ASCII_INT}){space}+({_ASCII_INT}){space}*(?![^{_LINE_BREAKS}])|{line}")
        first = gate.search(text)
        head = first.group().split() if first else []
        if len(head) != 4 or head[0] != "DIM" or head[2] != "SYSTEMS":
            raise SwapnetError("gatelist must start with a 'DIM <d> SYSTEMS <n>' header")
        # the lines after the header are counted, none kept, before any gate number is read
        _check_gate_count(sum(1 for _ in re.compile(line).finditer(text, first.end())))
        d, n = _ascii_int(head[1]), _ascii_int(head[3])
        gates = []
        for ln in gate.finditer(text, first.end()):
            if ln[1] is None:  # not a gate line; where only a number is wrong, _ascii_int names it
                parts = ln[0].split()
                if len(parts) == 3 and parts[0] == "CNOT":
                    _ascii_int(parts[1]), _ascii_int(parts[2])
                raise SwapnetError(f"malformed gate line: {ln[0]!r}")
            gates.append((int(ln[1]), int(ln[2])))
        return Circuit(d, n, gates)
    # bad integers, what Circuit refuses, and JSON nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise SwapnetError(f"bad circuit: {exc}") from exc
