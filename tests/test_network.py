"""Tests for circuits, linear maps, trace arrays, and simulation."""
import copy
import dataclasses
import json
import math
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnet import network
from swapnet.cli import main
from swapnet.errors import InconclusiveError, SizeBudgetError, SwapnetError
from swapnet.factor import Factorization
from swapnet.cycles import CycleReport, cycle_length, cycle_length_direct
from swapnet.network import (
    GATE_LIMIT,
    OPERATOR_SIZE_LIMIT,
    TRACE_LIMIT,
    Circuit,
    StateVector,
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
from swapnet.seqcore import seq_stream, term_mod

# top coefficient row of the worked dimension-4 array, first 30 columns
D4_ROW0 = [0, 0, 0, 1, 1, 1, 1, 2, 3, 0, 1, 3, 2, 2, 3, 2, 0, 2, 1, 3,
           3, 1, 2, 1, 0, 1, 3, 0, 0, 1]


def index_of_digits(d, digits):
    # the module docstring's big-endian index, sum x_k d^(n-1-k), written out without numpy
    return sum(x * d ** (len(digits) - 1 - k) for k, x in enumerate(digits))


def digits_of_index(d, n, index):
    return tuple(index // d ** (n - 1 - k) % d for k in range(n))


def basis_map_oracle(d, gates, digits):
    # direct digit-by-digit gate application, no matrices involved
    x = list(digits)
    for c, t in gates:
        x[t] = (x[t] + x[c]) % d
    return tuple(x)


def gather_oracle(circuit, state):
    # gate by gate on the amplitudes: one full-size index and one gather per gate
    d, n = circuit.d, circuit.n_systems
    index = np.arange(d ** n, dtype=np.int64).reshape((d,) * n)
    digit = np.arange(d, dtype=np.int64)
    amps = state.amplitudes
    for c, t in zip(*circuit.gates.T.tolist()):
        xc = digit.reshape([d if k == c else 1 for k in range(n)])
        xt = digit.reshape([d if k == t else 1 for k in range(n)])
        amps = amps[(index + ((xt - xc) % d - xt) * d ** (n - 1 - t)).ravel()]
    return amps


class TestConstruction:
    def test_gate_validation(self):
        for gates in (
            [[1, 1]],  # control equals target
            [[0, 2]],  # outside two systems
            [[0, 1], [-1, 0]],  # negative index
            [[0, 2 ** 63]],  # past int64
            [[-(2 ** 63) - 1, 0]],
            [[0, 1], [1]],  # ragged rows
            np.zeros((2, 3), dtype=np.int64),  # (G, 3)
            [0, 1],  # a flat list
            [[[0, 1]]],
        ):
            with pytest.raises(ValueError):
                Circuit(3, 2, gates)

    def test_gates_are_one_read_only_array(self):
        source = np.array([[0, 1], [1, 2]])
        c = Circuit(3, 3, source)
        assert c.gates.shape == (2, 2) and c.gates.dtype == np.int64 and len(c) == 2
        with pytest.raises(ValueError):
            c.gates[0, 0] = 2
        source[0, 0] = 2  # a copy: the caller's array stays the caller's
        assert c.gates.tolist() == [[0, 1], [1, 2]]
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.gates = np.zeros((0, 2), dtype=np.int64)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_read_only(self, clone):
        # a copy is rebuilt through the constructor, so its array is checked and frozen again
        c = build_cyclic_network(3, 5)
        twin = clone(c)
        assert twin == c and not twin.gates.flags.writeable
        with pytest.raises(ValueError):
            twin.gates[0, 0] = 2

    @pytest.mark.parametrize("gates", [
        [[0, 1.9]], [["0", "2"]], [[0, "2"]], [[True, False]], np.array([[0.0, 1.0]]),
    ])
    def test_entries_that_are_not_integers_raise(self, gates):
        # a cast to int64 would truncate 1.9 to 1 and parse "2" as 2
        with pytest.raises(ValueError, match="must be integers"):
            Circuit(3, 3, gates)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_every_integer_dtype_is_accepted(self, dtype):
        c = Circuit(3, 3, np.array([[0, 1], [2, 0]], dtype=dtype))
        assert c.gates.dtype == np.int64 and c == Circuit(3, 3, [[0, 1], [2, 0]])

    @pytest.mark.parametrize("gates", [(), [], np.zeros((0, 2), dtype=np.int64)])
    def test_empty_circuit(self, gates):
        c = Circuit(4, 4, gates)
        assert c.gates.shape == (0, 2) and len(c) == 0 and not c.gates.flags.writeable
        assert c == Circuit(4, 4)

    def test_equality_by_value(self):
        c = Circuit(3, 3, [[0, 1], [1, 2]])
        assert c == Circuit(3, 3, ((0, 1), (1, 2)))
        assert c == Circuit(3, 3, np.array([[0, 1], [1, 2]], dtype=np.int8))
        assert c != Circuit(4, 3, [[0, 1], [1, 2]])
        assert c != Circuit(3, 4, [[0, 1], [1, 2]])
        assert c != Circuit(3, 3, [[0, 1], [1, 0]])
        assert c != Circuit(3, 3, [[0, 1]])
        assert c != Circuit(3, 3)
        assert c != ((0, 1), (1, 2))

    def test_cyclic_schedule(self):
        c = build_cyclic_network(3, 8)
        assert c.gates.tolist() == [[0, 1], [1, 2], [2, 0], [0, 1], [1, 2], [2, 0], [0, 1], [1, 2]]

    def test_qubit_swap_is_three_gates(self):
        c = build_cyclic_network(2, 3)
        assert c.gates.tolist() == [[0, 1], [1, 0], [0, 1]]

    @given(st.integers(2, 10 ** 40), st.integers(0, 40))
    @settings(max_examples=60)
    def test_schedule_matches_the_formula(self, d, count):
        # d past int64 too: the indices stay below the gate count
        c = build_cyclic_network(d, count)
        assert (c.d, c.n_systems) == (d, d)
        assert c.gates.tolist() == [[k % d, (k + 1) % d] for k in range(count)]

    def test_wide_dimension_exports_unchanged(self):
        d = 10 ** 30
        assert export_circuit(build_cyclic_network(d, 3)) == f"DIM {d} SYSTEMS {d}\nCNOT 0 1\nCNOT 1 2\nCNOT 2 3"

    def test_empty(self):
        assert len(build_cyclic_network(5, 0)) == 0

    def test_gate_limit_before_allocation(self):
        # one past the limit allocates no gate array
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                build_cyclic_network(2, GATE_LIMIT + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


class TestLinearMap:
    def test_identity_for_empty_circuit(self):
        m = linear_map(Circuit(4, 4))
        assert np.array_equal(m.matrix, np.eye(4, dtype=int))
        assert m.permutation() == (0, 1, 2, 3)

    def test_single_gate(self):
        m = linear_map(Circuit(3, 3, [[0, 1]]))
        assert m.apply((1, 0, 0)) == (1, 1, 0)
        assert m.permutation() is None

    def test_qutrit_cycle_shifts_by_one(self):
        m = linear_map(build_cyclic_network(3, 8))
        assert m.permutation() == (2, 0, 1)  # digit j ends on system j - 1

    def test_d4_transposition_matrix(self):
        m = linear_map(build_cyclic_network(4, 30))
        assert m.permutation() == (2, 3, 0, 1)
        expected = np.zeros((4, 4), dtype=int)
        for i in range(4):
            expected[i][(i + 2) % 4] = 1
        assert np.array_equal(m.matrix, expected)

    @pytest.mark.parametrize("rows", [
        [[0, 0], [0, 1]],  # an all-zero row: argmax alone would read it as digit 0
        [[0, 1], [0, 1]],  # unit rows that repeat a digit
        [[1, 0, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 1], [1, 1]],
    ])
    def test_permutation_needs_distinct_unit_rows(self, rows):
        assert network.LinearMapZd(3, np.array(rows, dtype=np.int64)).permutation() is None

    def test_wide_modulus_matrix_is_exact(self):
        # 2(d - 1) passes int64, where a row sum would wrap silently; column j is unit j's image
        d, pairs = 2 ** 63 - 25, [[0, 1], [1, 0]] * 60
        m = linear_map(Circuit(d, 2, pairs))
        assert m.matrix[0].tolist() == [790376312002928789, 4376692037230634858]
        assert m.matrix.T.tolist() == [list(basis_map_oracle(d, pairs, (1, 0))),
                                       list(basis_map_oracle(d, pairs, (0, 1)))]

    def test_apply_is_exact(self):
        # every entry fits int64, but a dot product of two of them does not
        d, pairs = 2 ** 40 + 15, [[0, 1], [1, 0]] * 30
        m = linear_map(Circuit(d, 2, pairs))
        assert m.matrix.dtype == np.int64
        assert m.apply((d - 3, d - 7)) == (341444035124, 753547455654)
        assert m.apply((d - 3, d - 7)) == basis_map_oracle(d, pairs, (d - 3, d - 7))

    @given(st.integers(2, 10 ** 25), st.lists(st.sampled_from([[0, 1], [1, 2], [2, 0], [1, 0]]),
                                              max_size=40), st.integers(0, 10 ** 25))
    @settings(max_examples=40, deadline=None)
    def test_wide_maps_match_the_digit_oracle(self, d, pairs, x):
        digits = (x % d, (x // 3 + 1) % d, d - 1)
        assert linear_map(Circuit(d, 3, pairs)).apply(digits) == basis_map_oracle(d, pairs, digits)

    @given(st.integers(2, 5), st.integers(0, 40), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matrix_matches_digit_oracle(self, d, count, seed):
        rng = np.random.default_rng(seed)
        circuit = build_cyclic_network(d, count)
        digits = tuple(int(v) for v in rng.integers(0, d, size=d))
        pairs = circuit.gates.tolist()
        assert linear_map(circuit).apply(digits) == basis_map_oracle(d, pairs, digits)

    def test_matrix_past_the_size_limit_is_refused_before_allocation(self):
        # 2^70 systems: unchecked, numpy raises a bare ValueError for the shape
        with pytest.raises(SizeBudgetError, match="matrix exceeds"):
            linear_map(build_cyclic_network(2 ** 70, 5))
        side = math.isqrt(OPERATOR_SIZE_LIMIT)
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                linear_map(Circuit(2, side + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        assert linear_map(Circuit(2, side)).matrix.shape == (side, side)  # exactly the limit


class TestTraceArray:
    def test_row0_matches_worked_array(self):
        arr = trace_array(4, 26)
        assert arr.row(0) == D4_ROW0

    def test_initial_columns_are_units(self):
        for d in (2, 3, 4, 7):
            arr = trace_array(d, 3)
            for t in range(-(d - 1), 1):
                unit = [0] * d
                unit[t % d] = 1
                assert arr.column(t) == tuple(unit)

    def test_column_recurrence(self):
        arr = trace_array(5, 60)
        for t in range(1, 61):
            prev, old = arr.column(t - 1), arr.column(t - 5)
            assert arr.column(t) == tuple((a + b) % 5 for a, b in zip(prev, old))

    def test_rows_are_translates(self):
        arr = trace_array(4, 26)
        rows = [arr.row(i) for i in range(4)]
        for i in range(3):
            assert rows[i][:-1] == rows[i + 1][1:]

    def test_header_reproduces_sequence(self):
        # the row is built from seq_stream, so the ring is the second route
        for d in (2, 3, 4, 6):
            header = trace_array(d, 40).header()
            assert header == [term_mod(j, d, d) for j in range(len(header))]

    def test_header_with_custom_digits(self):
        arr = trace_array(4, 1)
        # column at t=1 is (1,1,0,0): first gate adds digit 0 into digit 1
        assert arr.column(1) == (1, 1, 0, 0)
        assert arr.header((2, 3, 0, 0))[-1] == (2 + 3) % 4
        assert arr.header((-2, 7, 4, -9))[-1] == (-2 + 7) % 4

    @given(st.integers(2, 9), st.integers(0, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_header_matches_column_loop(self, d, T, data):
        # columns from the recurrence alone, dotted one by one: no row, no slice
        digits = data.draw(st.lists(st.integers(-10 ** 20, 10 ** 20) | st.integers(-3, 3 * d),
                                    min_size=d, max_size=d), label="digits")
        cols = [[int(i == t % d) for i in range(d)] for t in range(-(d - 1), 1)]
        for _ in range(T):
            cols.append([(a + b) % d for a, b in zip(cols[-1], cols[-d])])
        want = [sum(e * c for e, c in zip(digits, col)) % d for col in cols]
        assert trace_array(d, T).header(digits) == want

    @pytest.mark.parametrize("read, error", [
        (lambda arr: arr.column(-4), IndexError),  # a negative index would wrap to the end
        (lambda arr: arr.column(27), IndexError),
        (lambda arr: arr.row(4), IndexError),  # a slice past the end would be empty
        (lambda arr: arr.row(-1), IndexError),  # a slice would give a shifted row
        (lambda arr: arr.header((2, 3)), ValueError),  # zip would drop two digits
        (lambda arr: arr.header((1,) * 5), ValueError),
        (lambda arr: arr.header([[1, 1], [1, 1]]), ValueError),
    ])
    def test_readings_outside_the_array_raise(self, read, error):
        arr = trace_array(4, 26)
        assert arr.column(-3) == (0, 1, 0, 0) and arr.column(26) == (1, 0, 0, 3)
        with pytest.raises(error):
            read(arr)

    def test_header_past_the_trace_limit_is_refused_before_any_work(self, monkeypatch):
        # d rows of T + d coefficients, the bound that `trace` applies: 1000 * 10001 is past it
        arr, big = trace_array(1000, 9001), trace_array(2 ** 21, 10 ** 6)
        monkeypatch.setattr(np, "convolve", lambda *args: pytest.fail("header convolved"))
        with pytest.raises(SizeBudgetError, match="trace limit"):
            arr.header()
        with pytest.raises(SizeBudgetError, match="trace limit"):
            big.header()  # 2^21 rows of about 3 * 10^6 coefficients: hours of convolution
        monkeypatch.undo()
        header = trace_array(1000, 9000).header()  # exactly the limit
        assert len(header) == 10 ** 4 and header[-5:] == seq_stream(1000, 1000, 10 ** 4)[-5:]

    def test_row_is_read_only_and_compared_by_identity(self):
        arr, twin = trace_array(4, 26), trace_array(4, 26)
        with pytest.raises(ValueError):
            arr.row0[0] = 1
        # an ndarray field cannot be compared or hashed by value; equality is identity
        for a, b in ((arr, twin), (linear_map(Circuit(3, 3)), linear_map(Circuit(3, 3)))):
            assert a == a and a != b and len({a, b, a}) == 2
        assert arr.row(0) == twin.row(0)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_read_only(self, clone):
        arr = trace_array(4, 26)
        twin = clone(arr)
        assert twin.row0.dtype == arr.row0.dtype and twin.header() == arr.header()
        assert not twin.row0.flags.writeable
        with pytest.raises(ValueError):
            twin.row0[0] = 1


class TestTraceLinearMap:
    """The trace row read as the network's linear map, against the gates."""

    @given(st.integers(2, 7), st.integers(0, 300))
    @settings(max_examples=80, deadline=None)
    def test_matches_gate_by_gate_map(self, d, T):
        got = trace_array(d, T).linear_map().matrix
        want = linear_map(build_cyclic_network(d, T)).matrix
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_matrix_past_the_size_limit_is_refused(self):
        with pytest.raises(SizeBudgetError, match="matrix exceeds"):
            trace_array(10 ** 6, 10).linear_map()  # 10^12 entries
        side = math.isqrt(OPERATOR_SIZE_LIMIT)
        with pytest.raises(SizeBudgetError):
            trace_array(side + 1, 0).linear_map()
        assert trace_array(side, 0).linear_map().matrix.shape == (side, side)  # exactly the limit

    @pytest.mark.parametrize("d, T, limit_mb", [
        (125, 390600, 20),  # one d=125 cycle; a column tuple per step would need ~400 MB
        (2, TRACE_LIMIT - 3, 25),  # the largest row, 10 MB; beside a list of Python ints, 99 MB
        (256, 1000, 1),
        (257, 1000, 1),
    ])
    def test_row_bytes_and_peak_memory(self, d, T, limit_mb):
        # one row of small ints: one byte each up to d = 256, two bytes above
        tracemalloc.start()
        try:
            arr = trace_array(d, T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 10 ** 6
        assert arr.t_end == T and len(arr.row0) == T + 2 * d - 1
        assert arr.row0.nbytes == (T + 2 * d - 1) * (1 if d <= 256 else 2)

    @pytest.mark.parametrize("call,message", [
        (lambda: StateVector(2, 0, [1.0]), "n must be >= 1"),
        (lambda: StateVector(2, -1, [1.0]), "n must be >= 1"),
        (lambda: StateVector(2, 2, [1.0, 0.0, 0.0]), "expected 4 amplitudes, got (3,)"),
        (lambda: StateVector(2, 1, [[1.0, 0.0]]), "expected 2 amplitudes, got (1, 2)"),
        # every integer parameter is an int: a bool or a float is refused, never read as a number
        (lambda: StateVector(2, True, [1.0, 0.0]), "n must be an integer, got True"),
        (lambda: StateVector(2, 1.0, [1.0, 0.0]), "n must be an integer, got 1.0"),
        (lambda: StateVector.random(2, True, 0), "n must be an integer, got True"),
        (lambda: StateVector.basis(2, 2.0, "01"), "n must be an integer, got 2.0"),
        (lambda: Circuit(3, 0), "n_systems must be >= 1"),
        (lambda: Circuit(3, True), "n_systems must be an integer, got True"),
        (lambda: Circuit(3, 3.0), "n_systems must be an integer, got 3.0"),
        (lambda: build_cyclic_network(3, -1), "gate_count must be >= 0"),
        (lambda: build_cyclic_network(3, True), "gate_count must be an integer, got True"),
        (lambda: build_cyclic_network(3, 8.0), "gate_count must be an integer, got 8.0"),
        (lambda: trace_array(3, -1), "T must be >= 0"),
        (lambda: trace_array(3, True), "T must be an integer, got True"),
        (lambda: trace_array(3, 5.0), "T must be an integer, got 5.0"),
        # a column or row index is an int too; one in the wrong range stays an IndexError
        (lambda: trace_array(4, 10).column(True), "t must be an integer, got True"),
        (lambda: trace_array(4, 10).column(2.0), "t must be an integer, got 2.0"),
        (lambda: trace_array(4, 10).row(True), "i must be an integer, got True"),
        (lambda: trace_array(4, 10).row(1.0), "i must be an integer, got 1.0"),
        (lambda: random_qudit(True, np.random.default_rng(0)), "d must be an integer, got True"),
        (lambda: random_qudit(2.0, np.random.default_rng(0)), "d must be an integer, got 2.0"),
        (lambda: random_qudit(0, np.random.default_rng(0)), "d must be >= 1"),
        # one digit count check serves every reader of a digit vector
        (lambda: linear_map(build_cyclic_network(3, 8)).apply((1, 2)), "need 3 digits, got 2"),
        (lambda: StateVector.basis(3, 3, "12"), "need 3 digits, got 2"),
    ], ids=["no-system", "negative", "short", "two-dimensional", "n-bool", "n-float",
            "random-n-bool", "basis-n-float", "circuit-no-system", "circuit-bool", "circuit-float",
            "gates-negative", "gates-bool", "gates-float", "trace-negative", "trace-bool", "trace-float",
            "column-bool", "column-float", "row-bool", "row-float", "qudit-bool", "qudit-float",
            "qudit-zero", "apply-short", "basis-short"])
    def test_refusals(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message

    def test_size_budget_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):  # T + 2d - 1 is one past the limit
                trace_array(2, TRACE_LIMIT - 2)
            with pytest.raises(SizeBudgetError):
                trace_array(10, 1736327236)  # one full d=10 cycle
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


class TestStateVector:
    def test_basis_indexing(self):
        sv = StateVector.basis(3, 3, "102")
        assert sv.amplitudes[11] == 1.0 and np.count_nonzero(sv.amplitudes) == 1
        assert index_of_digits(3, (1, 0, 2)) == 11 and digits_of_index(3, 3, 11) == (1, 0, 2)

    @pytest.mark.parametrize("text", ["\u0661\u0660", "\u00b91", "1 0", "", "-1"])
    def test_digit_string_is_ascii_digits_only(self, text):
        # str.isdigit and int() also read Arabic-Indic digits and superscripts
        with pytest.raises(ValueError, match=re.escape(f"digit string {text!r} is not ASCII digits")):
            StateVector.basis(10, 2, text)

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            StateVector(2, 1, [1.0, 1.0])

    def test_size_budget_before_allocation(self):
        # 10^7 amplitudes would take 160 MB; every constructor refuses first
        tracemalloc.start()
        try:
            for make in (lambda: StateVector.basis(10, 7, "0" * 7),
                         lambda: StateVector.random(10, 7, seed=0),
                         lambda: StateVector.product(10, [np.eye(10)[0]] * 7),
                         lambda: StateVector(10, 7, [1.0]),
                         lambda: StateVector.basis(2, 10 ** 9, "0")):
                with pytest.raises(SizeBudgetError):
                    make()
            with pytest.raises(ValueError):  # factors longer than d
                StateVector.product(2, [np.ones(1000) / 1000 ** 0.5] * 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        assert StateVector.basis(10, 6, "0" * 6).amplitudes.size == 10 ** 6

    def test_random_is_reproducible(self):
        a = StateVector.random(3, 2, seed=7)
        b = StateVector.random(3, 2, seed=7)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert abs(a.norm() - 1.0) < 1e-12

    def test_product(self):
        rng = np.random.default_rng(3)
        f = [random_qudit(3, rng) for _ in range(3)]
        sv = StateVector.product(3, f)
        assert abs(sv.norm() - 1.0) < 1e-12
        assert sv.amplitudes[4] == pytest.approx(f[0][0] * f[1][1] * f[2][1])

    def test_product_accepts_generator(self):
        rng = np.random.default_rng(4)
        factors = [random_qudit(2, rng) for _ in range(3)]
        sv = StateVector.product(2, (f for f in factors))
        assert sv.n == 3
        assert abs(sv.norm() - 1.0) < 1e-12


# every entry point that reads digits: int() would truncate 1.7, astype(int64) 1.5,
# a float index would raise numpy's bare IndexError, and True would read as 1
DIGIT_READERS = {
    "apply": lambda digits: linear_map(Circuit(3, 3, [[0, 1]])).apply(digits),
    "header": lambda digits: trace_array(3, 10).header(digits),
    "basis": lambda digits: int(StateVector.basis(3, 3, digits).amplitudes.argmax()),
}


@pytest.mark.parametrize("read", DIGIT_READERS.values(), ids=DIGIT_READERS.keys())
@pytest.mark.parametrize("bad", [1.7, 1.5, 1.0, np.float64(1.0), "1", True, np.bool_(True)],
                         ids=["1.7", "1.5", "1.0", "np-float", "str", "bool", "np-bool"])
def test_non_integer_digits_are_refused(read, bad):
    with pytest.raises(ValueError, match=re.escape(f"digit {bad!r} is not an integer")):
        read([bad, 0, 0])


@pytest.mark.parametrize("read", DIGIT_READERS.values(), ids=DIGIT_READERS.keys())
def test_numpy_integer_digits_are_accepted(read):
    want = read([1, 0, 2])
    assert read(np.array([1, 0, 2], dtype=np.uint8)) == read((np.int64(1), 0, np.int32(2))) == want


class TestSimulate:
    def test_single_gate_on_basis(self):
        circuit = Circuit(3, 3, [[0, 1]])
        out = simulate(circuit, StateVector.basis(3, 3, "100"))
        assert out.amplitudes[index_of_digits(3, (1, 1, 0))] == 1.0

    def test_identity_circuit(self):
        sv = StateVector.random(3, 3, seed=11)
        out = simulate(Circuit(3, 3), sv)
        assert np.array_equal(out.amplitudes, sv.amplitudes)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simulate(Circuit(3, 3), StateVector.random(3, 2, seed=0))

    def test_qutrit_swap_on_product_states(self):
        circuit = build_cyclic_network(3, 8)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a, b, c = (random_qudit(3, rng) for _ in range(3))
            out = simulate(circuit, StateVector.product(3, [a, b, c]))
            expected = StateVector.product(3, [b, c, a])
            assert np.max(np.abs(out.amplitudes - expected.amplitudes)) < 1e-12

    def test_qutrit_swap_on_entangled_states(self):
        circuit = build_cyclic_network(3, 8)
        perm = full_operator(circuit)
        for seed in range(10):
            sv = StateVector.random(3, 3, seed=seed)
            out = simulate(circuit, sv)
            expected = np.empty_like(sv.amplitudes)
            expected[perm] = sv.amplitudes
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_norm_preserved(self):
        circuit = build_cyclic_network(4, 30)
        for seed in range(5):
            out = simulate(circuit, StateVector.random(4, 4, seed=seed))
            assert abs(out.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_agrees_with_linear_map_on_all_basis_states(self, d):
        circuit = build_cyclic_network(d, 2 * d + 1)
        mapping = linear_map(circuit)
        for index in range(d ** d):
            digits = digits_of_index(d, d, index)
            out = simulate(circuit, StateVector.basis(d, d, digits))
            expected = index_of_digits(d, mapping.apply(digits))
            assert out.amplitudes[expected] == 1.0

    def test_agrees_with_linear_map_sampled_d5(self):
        circuit = build_cyclic_network(5, 24)
        mapping = linear_map(circuit)
        rng = np.random.default_rng(55)
        for _ in range(40):
            digits = tuple(int(v) for v in rng.integers(0, 5, size=5))
            out = simulate(circuit, StateVector.basis(5, 5, digits))
            assert out.amplitudes[index_of_digits(5, mapping.apply(digits))] == 1.0

    @given(st.integers(2, 5), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_digit_loop_on_random_states(self, d, n, data):
        # d^n <= 5^5 = 3125; gates from every ordered pair, c > t and non-adjacent too
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        picks = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
        sv = StateVector.random(d, n, seed=data.draw(st.integers(0, 2 ** 32 - 1)))
        expected = np.empty_like(sv.amplitudes)
        for index in range(d ** n):
            image = basis_map_oracle(d, picks, digits_of_index(d, n, index))
            expected[index_of_digits(d, image)] = sv.amplitudes[index]
        out = simulate(Circuit(d, n, picks), sv)
        assert np.array_equal(out.amplitudes, expected)

    @pytest.mark.parametrize("gates", [[], [[0, 2]]])
    def test_result_never_aliases_the_input(self, gates):
        sv = StateVector.random(3, 3, seed=5)
        before = sv.amplitudes.copy()
        out = simulate(Circuit(3, 3, gates), sv)
        assert not np.shares_memory(out.amplitudes, sv.amplitudes)
        out.amplitudes[:] = 0
        assert np.array_equal(sv.amplitudes, before)

    # labels are uint8 up to d = 128 (sums to 254), uint16 from d = 129
    @pytest.mark.parametrize("d, n, count", [(128, 2, 40), (129, 2, 40), (1000, 2, 24), (2, 19, 64)])
    def test_label_width_boundaries(self, d, n, count):
        rng = np.random.default_rng(d)
        controls = rng.integers(0, n, size=count)
        circuit = Circuit(d, n, np.stack([controls, (controls + rng.integers(1, n, size=count)) % n], 1))
        sv = StateVector.random(d, n, seed=d * n)
        out = simulate(circuit, sv)
        assert np.array_equal(out.amplitudes, gather_oracle(circuit, sv))
        pairs = circuit.gates.tolist()
        for index in rng.integers(0, d ** n, size=200).tolist():
            image = basis_map_oracle(d, pairs, digits_of_index(d, n, index))
            assert out.amplitudes[index_of_digits(d, image)] == sv.amplitudes[index]

    def test_d7_cycle_is_the_shift(self):
        circuit = build_cyclic_network(7, 48)
        sv = StateVector.random(7, 7, seed=7)
        out = simulate(circuit, sv)
        shifted = np.transpose(sv.amplitudes.reshape((7,) * 7), np.roll(np.arange(7), -1)).ravel()
        assert np.array_equal(out.amplitudes, shifted)
        assert np.array_equal(out.amplitudes, gather_oracle(circuit, sv))

    def test_d7_cycle_peak_memory(self):
        # held at the peak: the input state (allocated before tracing, so not
        # counted), the output state, n uint8 label rows of a sixteenth of a
        # state each and one intp index of half a state
        circuit = build_cyclic_network(7, 48)
        sv = StateVector.random(7, 7, seed=7)
        tracemalloc.start()
        try:
            simulate(circuit, sv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * sv.amplitudes.nbytes


class TestFullOperator:
    def test_first_gate_action(self):
        circuit = Circuit(3, 3, [[0, 1]])
        perm = full_operator(circuit)
        assert perm[index_of_digits(3, (1, 0, 0))] == index_of_digits(3, (1, 1, 0))

    def test_qutrit_swap_permutation(self):
        perm = full_operator(build_cyclic_network(3, 8))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert perm[9 * a + 3 * b + c] == 9 * b + 3 * c + a

    def test_empty_is_identity(self):
        assert np.array_equal(full_operator(Circuit(3, 3)), np.arange(27))

    def test_always_a_bijection(self):
        for d, count in [(2, 7), (3, 5), (4, 9)]:
            perm = full_operator(build_cyclic_network(d, count))
            assert sorted(perm) == list(range(d ** d))

    def test_size_budget(self):
        with pytest.raises(SizeBudgetError):
            full_operator(Circuit(10, 7))

    @given(st.integers(2, 4), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_gate_by_gate_simulation(self, d, n, data):
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        picks = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
        circuit = Circuit(d, n, picks)
        perm = full_operator(circuit)
        for index in range(d ** n):
            out = simulate(circuit, StateVector.basis(d, n, digits_of_index(d, n, index)))
            assert out.amplitudes[perm[index]] == 1.0

    def test_dense_rendering(self):
        text = permutation_matrix_text(full_operator(Circuit(2, 1 + 1)))
        assert text == "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        swap = permutation_matrix_text(np.array([1, 0]))
        assert swap == "0 1\n1 0\n"
        # basis c goes to perm[c]: row r holds its 1 in the column that maps to r
        assert permutation_matrix_text(np.array([1, 2, 0])) == "0 0 1\n1 0 0\n0 1 0\n"

    def test_dense_rendering_past_the_size_limit_is_refused(self):
        side = math.isqrt(OPERATOR_SIZE_LIMIT)
        perms = np.arange(side + 1), np.arange(10 ** 6)  # 10^6 states, as full_operator allows: 1 TB
        tracemalloc.start()
        try:
            for perm in perms:
                with pytest.raises(SizeBudgetError, match="matrix exceeds"):
                    permutation_matrix_text(perm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        text = permutation_matrix_text(np.arange(side))  # exactly the limit
        assert text.count("1") == side and len(text) == 2 * side * side


# which kind of cycle verify_swap finds for each d <= 43; grouped has shift d - d/p
SWAP_CENSUS = {
    "swap": (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43),
    "grouped": (4, 8, 9, 16, 25, 27, 32),
    "identity": (6, 12, 26, 33),
    "other": (10, 14, 15, 18, 20, 21, 22, 24, 28, 30, 34, 35, 36, 38, 39, 40, 42),
}


def refuse_row_and_gates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_swap must read neither the trace row nor the gates")

    for name in ("trace_array", "build_cyclic_network", "linear_map"):
        monkeypatch.setattr(network, name, refuse)


class TestVerifySwap:
    def test_d5_swap(self):
        verdict = verify_swap(5)
        assert verdict.kind == "swap"
        assert verdict.gate_count == 24
        assert verdict.shift == 4

    def test_d3_swap_is_eight_gates(self):
        verdict = verify_swap(3)
        assert verdict.kind == "swap" and verdict.gate_count == 8

    def test_d8_grouped(self):
        verdict = verify_swap(8)
        assert verdict.kind == "grouped"
        assert verdict.shift == 4
        # groups are the residue classes mod 4: each state moves 4 along
        assert verdict.permutation == (4, 5, 6, 7, 0, 1, 2, 3)

    def test_d4_grouped_transpositions(self):
        verdict = verify_swap(4)
        assert verdict.kind == "grouped"
        assert verdict.permutation == (2, 3, 0, 1)

    def test_d6_identity(self):
        verdict = verify_swap(6)
        assert verdict.kind == "identity"
        assert verdict.gate_count == 6552

    def test_shift_and_permutation_are_derived(self):
        report = verify_swap(8)
        assert [f.name for f in dataclasses.fields(report)] == [
            "d", "length", "per_factor", "method", "conjecture_ok"]
        assert report == CycleReport(8, 252, ((8, 252),), "predicted-and-verified", True)
        assert (report.kind, report.shift, report.gate_count) == ("grouped", 4, 252)
        assert report.permutation == (4, 5, 6, 7, 0, 1, 2, 3)

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 10, 12, 25])
    def test_is_the_cycle_report(self, d):
        report = verify_swap(d)
        assert type(report) is CycleReport and report == cycle_length(d)
        assert pickle.loads(pickle.dumps(report)) == report and report.gate_count == report.length

    @pytest.mark.parametrize("d, text", [
        (3, "SWAP: cyclic shift by -1, 8 gates"),
        (8, "GROUPED: shift 4, 252 gates"),
        (6, "IDENTITY: shift 0, 6552 gates"),
        (10, "OTHER: permutation [6, 7, 8, 9, 0, 1, 2, 3, 4, 5], 1736327236 gates"),
    ])
    def test_describe_each_kind(self, capsys, d, text):
        # the swap verb's text line names each kind of full cycle
        assert main(["swap", "--d", str(d)]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_budget_is_passed_on(self):
        assert verify_swap(8, 252) == cycle_length(8)
        with pytest.raises(InconclusiveError, match="within 251 steps"):
            verify_swap(8, 251)

    # every d <= 43 whose cycle has at most 10^7 gates, and prime powers up to 125
    @pytest.mark.parametrize("d", [*range(2, 10), 11, 12, 13, 16, 17, 19, 23, 25, 27, 29,
                                   31, 32, 37, 41, 43, 49, 64, 81, 121, 125])
    def test_shift_matches_cycle_module(self, d):
        # the verdict from the certified period against the map read off the
        # trace row, and off the gates where the cycle is short enough to build
        verdict = verify_swap(d)
        assert verdict.gate_count <= 10 ** 7
        row_map = trace_array(d, verdict.gate_count).linear_map()
        assert row_map.permutation() == verdict.permutation
        assert verdict.shift == verdict.permutation[0]
        if verdict.gate_count <= 10 ** 5:
            gate_map = linear_map(build_cyclic_network(d, verdict.gate_count))
            assert gate_map.permutation() == verdict.permutation
            assert np.array_equal(gate_map.matrix, row_map.matrix)

    def test_d125_builds_no_gates(self, monkeypatch):
        refuse_row_and_gates(monkeypatch)
        verdict = verify_swap(125)
        assert verdict.kind == "grouped"
        assert verdict.shift == 100
        assert verdict.gate_count == 390600

    def test_d10_shift_from_factor_periods(self, monkeypatch):
        refuse_row_and_gates(monkeypatch)
        verdict = verify_swap(10)
        assert verdict.kind == "other" and verdict.gate_count == 1736327236
        # brute force gives the periods mod 2 and mod 5; the shift is their LCM mod 10
        periods = cycle_length_direct(10, 2, 10 ** 3), cycle_length_direct(10, 5, 2 * 10 ** 6)
        assert periods == (889, 1953124)
        assert verdict.shift == math.lcm(*periods) % 10 == 6
        assert verdict.permutation == (6, 7, 8, 9, 0, 1, 2, 3, 4, 5)

    @pytest.mark.parametrize("d", range(2, 44))
    def test_census_up_to_43(self, d):
        verdict = verify_swap(d)
        kind = next(k for k, dims in SWAP_CENSUS.items() if d in dims)
        assert verdict.kind == kind
        if kind == "grouped":
            p = next(q for q in range(2, d + 1) if d % q == 0)
            assert verdict.shift == d - d // p

    def test_partial_cycle_is_other(self):
        # half a cycle of the qutrit network is not a digit permutation
        report = cycle_length(3)
        circuit = build_cyclic_network(3, report.length // 2)
        assert linear_map(circuit).permutation() is None


def schedule_map(d: int, gates: int) -> network.LinearMapZd:
    """The map of ``gates`` cyclic gates as P A^(gates div d) over Z_d, building one round at most.

    The schedule repeats every d gates: A is the map of one round and P
    that of the first ``gates`` mod d gates.  A's powers come by repeated
    squaring in float64, each product reduced mod d, which is exact while
    d (d - 1)^2 < 2^53.
    """
    assert d * (d - 1) ** 2 < 2 ** 53
    rounds, rest = divmod(gates, d)
    power, out = (linear_map(build_cyclic_network(d, g)).matrix.astype(np.float64) for g in (d, rest))
    while rounds:
        if rounds & 1:
            out = out @ power % d
        rounds >>= 1
        power = power @ power % d
    return network.LinearMapZd(d, out.astype(np.int64))


# every d <= 43, every prime power up to 125, then 243 and 343
SCHEDULE_DIMS = [*range(2, 44), *(d for d in range(44, 126) if Factorization.of(d).is_prime_power),
                 243, 343]


class TestScheduleOracle:
    """The verdict against the gate schedule's map, past where the gates can be built."""

    @pytest.mark.parametrize("d", range(2, 12))
    def test_equals_the_gate_map(self, d):
        for gates in range(3 * d + 2):
            want = linear_map(build_cyclic_network(d, gates)).matrix
            assert np.array_equal(schedule_map(d, gates).matrix, want), gates

    @pytest.mark.parametrize("d", SCHEDULE_DIMS)
    def test_permutation_is_the_verdict(self, d):
        report = cycle_length(d)
        assert schedule_map(d, report.length).permutation() == report.permutation

    @pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                        reason="set SWAPNET_LONG=1 for d = 625, 729 and 997 (about 5 s)")
    @pytest.mark.parametrize("d", [625, 729, 997])
    def test_permutation_is_the_verdict_long(self, d):
        report = cycle_length(d)
        assert schedule_map(d, report.length).permutation() == report.permutation


class TestSerialization:
    def test_gatelist_format(self):
        text = export_circuit(build_cyclic_network(2, 3), "gatelist")
        assert text == "DIM 2 SYSTEMS 2\nCNOT 0 1\nCNOT 1 0\nCNOT 0 1"

    def test_gatelist_empty(self):
        assert export_circuit(Circuit(4, 4), "gatelist") == "DIM 4 SYSTEMS 4"

    def test_json_format(self):
        text = export_circuit(build_cyclic_network(3, 2), "json")
        assert text == '{"d":3,"systems":3,"gates":[[0,1],[1,2]]}'

    @pytest.mark.parametrize("build", [
        lambda: build_cyclic_network(7, 10 ** 6), lambda: build_cyclic_network(10 ** 30, 3),
        lambda: Circuit(2, 2), lambda: Circuit(5, 12, [[11, 0], [3, 10]]),
    ], ids=["d7-million", "d10^30", "empty", "wide"])
    def test_json_is_the_json_module_text(self, build):
        circuit = build()
        doc = {"d": circuit.d, "systems": circuit.n_systems, "gates": circuit.gates.tolist()}
        assert export_circuit(circuit, "json") == json.dumps(doc, separators=(",", ":"))

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            export_circuit(Circuit(2, 2), "xml")

    @pytest.mark.parametrize("fmt", ["json", "gatelist"])
    def test_round_trip(self, fmt):
        for circuit in (build_cyclic_network(3, 8), Circuit(5, 5), build_cyclic_network(2, 3)):
            assert parse_circuit(export_circuit(circuit, fmt)) == circuit

    @pytest.mark.parametrize("text", [
        '{"d":3,"systems":3}',
        '{"d":3,"systems":3,"gates":5}',
        '{"d":3,"systems":3,"gates":[[0,1,2]]}',
        '{"d": 3, "systems": 3, "gates": [[true, false], [0, 2]]}',
        '{"d": 3, "systems": true, "gates": []}',
    ])
    def test_parse_rejects_bad_json_schema(self, text):
        with pytest.raises(SwapnetError):
            parse_circuit(text)

    @pytest.mark.parametrize("text", [
        "DIM x SYSTEMS 3",
        "DIM 1 SYSTEMS 3",
        "DIM 3 SYSTEMS 3\nCNOT 0 0",
        "DIM 3 SYSTEMS 3\nCNOT 0 7",
        '{"d":1,"systems":3,"gates":[]}',
        '{"d":3,"systems":3,"gates":[[0,0]]}',
        # int() reads each of these, which export_circuit never writes
        "DIM 1_1 SYSTEMS 3",
        "DIM 3 SYSTEMS 12\nCNOT 1_0 2",
        "DIM 3 SYSTEMS 3\nCNOT -0 +2",
        "DIM 3 SYSTEMS 3\nCNOT +1 2",
        "DIM 3 SYSTEMS 3\nCNOT \u0661 2",
    ])
    def test_parse_numeric_faults_are_circuit_errors(self, text):
        with pytest.raises(SwapnetError) as err:
            parse_circuit(text)
        assert not isinstance(err.value, ValueError)

    def test_parse_rejects_garbage(self):
        with pytest.raises(SwapnetError):
            parse_circuit("HELLO\nCNOT 0 1")
        with pytest.raises(SwapnetError):
            parse_circuit("DIM 3 SYSTEMS 3\nNOT 0 1")

    @pytest.mark.parametrize("fmt", ["json", "gatelist"])
    def test_parse_refuses_gates_past_the_limit(self, monkeypatch, fmt):
        text = export_circuit(build_cyclic_network(3, 5), fmt) + "\n\n"
        monkeypatch.setattr(network, "GATE_LIMIT", 5)
        assert len(parse_circuit(text)) == 5
        monkeypatch.setattr(network, "GATE_LIMIT", 4)
        monkeypatch.setattr(network, "Circuit", lambda *args: pytest.fail("a Circuit was built"))
        # a quoted last index fails any per-gate read, so the count must come first
        head, _, tail = text.rpartition("2")
        for unread in (text, head + '"2"' + tail):
            with pytest.raises(SizeBudgetError, match="5 gates exceed the 4 gate limit"):
                parse_circuit(unread)

    @pytest.mark.parametrize("fmt", ["json", "gatelist"])
    def test_parse_refuses_text_past_the_char_limit(self, monkeypatch, fmt):
        text = export_circuit(build_cyclic_network(3, 5), fmt)
        monkeypatch.setattr(network, "CIRCUIT_CHAR_LIMIT", len(text))
        assert len(parse_circuit(text)) == 5
        monkeypatch.setattr(network, "json", None)  # nothing is decoded past the limit
        monkeypatch.setattr(network, "re", None)
        with pytest.raises(SizeBudgetError, match=f"exceeds the {len(text)} character limit"):
            parse_circuit(text + " ")

    @pytest.mark.parametrize("text", [
        '{"d":3,"systems":3,"gates":[[0,1],[0,10000000000000000000000000]]}',
        '{"d":3,"systems":3,"gates":[[-10000000000000000000000000,1]]}',
        "DIM 3 SYSTEMS 3\nCNOT 0 1\nCNOT 0 10000000000000000000000000",
        "DIM 3 SYSTEMS 3\nCNOT 9223372036854775808 1",
    ])
    def test_index_past_int64_is_a_bad_circuit(self, text):
        with pytest.raises(SwapnetError, match="^bad circuit: "):
            parse_circuit(text)

    @pytest.mark.parametrize("br", ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                    "\x85", "\u2028", "\u2029"])
    def test_blank_lines_do_not_count(self, monkeypatch, br):
        # each str.splitlines break, and blank lines of whitespace that breaks no line
        lines = export_circuit(build_cyclic_network(3, 5), "gatelist").split("\n")
        blanks = ["", " ", "\t", "\x1f", "\xa0", "\u3000"]
        text = "".join(blank + br + line + br for blank, line in zip(blanks, lines))
        monkeypatch.setattr(network, "GATE_LIMIT", 5)
        assert parse_circuit(text) == build_cyclic_network(3, 5)
        monkeypatch.setattr(network, "GATE_LIMIT", 4)
        with pytest.raises(SizeBudgetError, match="5 gates exceed the 4 gate limit"):
            parse_circuit(text)

    def test_gatelist_past_the_limit_refused_before_splitting(self):
        text = "DIM 3 SYSTEMS 3\n" + "CNOT 0 1\n" * (GATE_LIMIT + 1)  # 9 MB
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError):
                parse_circuit(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 10 ** 6  # a list of the lines alone would be 8 MB of pointers

    def test_blank_padded_gatelist_lists_no_line(self):
        # twice GATE_LIMIT blank lines pass any bound read off the line breaks, yet hold no gate
        circuit = build_cyclic_network(3, 10)
        text = export_circuit(circuit, "gatelist") + "\n" * (2 * GATE_LIMIT)
        tracemalloc.start()
        try:
            parsed = parse_circuit(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == circuit
        assert peak < 10 ** 6  # a list of the lines alone would be 16 MB of pointers

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_circuit(Circuit(2, 2), "yaml")
