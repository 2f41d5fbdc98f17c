"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s``).  The
optional long-run extension of criterion 3 to dimension 3125 (billions
of window steps, tens of minutes) is enabled by SWAPNET_LONG=1.
"""
import functools
import math
import os
import time

import numpy as np
import pytest

from swapnet.cycles import cycle_length, cycle_length_direct, predicted_cycle, scan
from swapnet.genfun import closed_form, compare_closed_vs_exact, eval_closed
from swapnet.network import (
    StateVector,
    build_cyclic_network,
    full_operator,
    linear_map,
    random_qudit,
    simulate,
    trace_array,
    verify_swap,
)
from swapnet.seqcore import (
    _pascal_rows,
    binom_exact,
    exact_sequence,
    hockey_stick_check,
    lu_tsai_period,
    seq_stream,
    term_exact,
    term_exact_range,
    term_mod,
)

TABLE_LENGTHS = [3, 8, 30, 24, 6552, 48, 252, 240]
SEQ_D4_26 = [1, 1, 1, 1, 2, 3, 4, 5, 7, 10, 14, 19, 26, 36, 50, 69, 95,
             131, 181, 250, 345, 476, 657, 907, 1252, 1728]
SEQ_D8_26 = [1] * 8 + [2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 18, 23, 29, 36,
             44, 53, 64, 78]
PRIME_POWER_INSTANCES = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")
        return wrapper
    return deco


@criterion(1, "cycle lengths for d=2..9 reproduce the table in under 1 s")
def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    entries = scan(9)
    elapsed = time.perf_counter() - start
    assert [e.length for e in entries] == TABLE_LENGTHS
    assert elapsed < 1.0, f"table scan took {elapsed:.2f} s"


@criterion(2, "brute-force period equals p^2 - 1 for every prime p <= 31, under 10 s")
def test_criterion_2_prime_theorem():
    start = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert cycle_length_direct(p, p, 2 * p * p) == p * p - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"prime sweep took {elapsed:.2f} s"


@criterion(3, "brute-force periods match the prime-power prediction up to 256, under 60 s")
def test_criterion_3_prime_power_conjecture():
    start = time.perf_counter()
    for d in PRIME_POWER_INSTANCES:
        p = min(p for p in (2, 3, 5, 7) if d % p == 0)
        m = round(math.log(d, p))
        expected = predicted_cycle(p, m)
        assert cycle_length_direct(d, d, 2 * expected) == expected, f"d={d}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"prime-power sweep took {elapsed:.2f} s"


@pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                    reason="set SWAPNET_LONG=1 for the ~6e9-step run")
@criterion(3, "long-run extension: dimension 3125 matches the prediction")
def test_criterion_3_long_run_3125():
    expected = predicted_cycle(5, 5)
    assert cycle_length_direct(3125, 3125, 2 * expected) == expected


@criterion(4, "first 26 terms for n=4 and n=8 agree across all three routes")
def test_criterion_4_sequence_reproduction():
    for n, printed in ((4, SEQ_D4_26), (8, SEQ_D8_26)):
        by_sum = [term_exact(j, n) for j in range(26)]
        by_recurrence = exact_sequence(n, 26)
        assert by_sum == printed
        assert by_recurrence == printed
        cf = closed_form(n)
        worst = 0.0
        for j, target in enumerate(printed):
            approx, rounded = eval_closed(cf, j)
            worst = max(worst, abs(approx - target))
            assert rounded == target
        assert worst < 1e-6, f"n={n}: pre-rounding residual {worst}"


@criterion(5, "dominant root and weight match the printed values within 1e-6")
def test_criterion_5_root_weight_reproduction():
    cf4 = closed_form(4)
    assert abs(cf4.alphas[-1] - 1.380277569) < 1e-6
    assert abs(cf4.betas[-1] - 0.5474879784) < 1e-6
    cf8 = closed_form(8)
    assert abs(cf8.alphas[-1] - 1.232054631) < 1e-6
    assert abs(cf8.betas[-1] - 0.4313256714) < 1e-6


@criterion(6, "8-gate qutrit network swaps 100 random product states and the 27 basis indices")
def test_criterion_6_qutrit_swap():
    circuit = build_cyclic_network(3, 8)
    rng = np.random.default_rng(612)
    for _ in range(100):
        a, b, c = (random_qudit(3, rng) for _ in range(3))
        out = simulate(circuit, StateVector.product(3, [a, b, c]))
        expected = StateVector.product(3, [b, c, a])
        assert np.max(np.abs(out.amplitudes - expected.amplitudes)) < 1e-12
    perm = full_operator(circuit)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert perm[9 * a + 3 * b + c] == 9 * b + 3 * c + a


@criterion(7, "linear-map classification: d=4 transpositions, d=5 full shift, d=6 identity")
def test_criterion_7_permutation_classification():
    mapping4 = linear_map(build_cyclic_network(4, 30))
    assert mapping4.permutation() == (2, 3, 0, 1)  # (0 2)(1 3)
    mapping5 = linear_map(build_cyclic_network(5, 24))
    assert mapping5.permutation() == (4, 0, 1, 2, 3)  # digit j ends on system j - 1
    mapping6 = linear_map(build_cyclic_network(6, 6552))
    assert mapping6.permutation() == (0, 1, 2, 3, 4, 5)
    assert verify_swap(4).kind == "grouped"
    assert verify_swap(5).kind == "swap"
    assert verify_swap(6).kind == "identity"


@criterion(8, "oracle equivalences, identities, and diagonal periods hold with zero failures")
def test_criterion_8_property_suite():
    for d in range(2, 13):
        exact = exact_sequence(d, 2001)
        assert term_exact_range(d, 2001) == exact, f"sum route diverges for d={d}"
        moduli = {2, 3, 4, 5, 7, 8, 9, d}
        moduli.update(q for q in range(2, d + 1) if d % q == 0)
        for m in sorted(moduli):
            stream = seq_stream(d, m, 2001)
            for j in range(2001):
                assert stream[j] == exact[j] % m, (d, m, j)
            for j in (0, 1, d - 1, d, 2 * d + 1, 777, 2000):
                assert term_mod(j, d, m) == exact[j] % m

    assert all(hockey_stick_check(j, k) for j in range(51) for k in range(51))
    for m in (2, 3, 4, 7, 9):
        for n, row in enumerate(_pascal_rows(m, 50, 50)):
            assert row == [binom_exact(n, k) % m for k in range(n + 1)], (m, n)

    for p in (2, 3, 5):
        for a in (1, 2, 3):
            for k in range(1, 11):
                e = 0
                while p ** (e + 1) <= k:
                    e += 1
                predicted = p ** (a + e)
                assert lu_tsai_period(p, a, k) == predicted


@criterion(9, "the swap verdict equals the map read off the trace row for every d <= 9")
def test_criterion_9_cross_module_consistency():
    for d in range(2, 10):
        verdict = verify_swap(d)
        row_map = trace_array(d, verdict.gate_count).linear_map()
        assert row_map.permutation() == verdict.permutation, f"d={d}"
        assert verdict.shift == cycle_length(d).shift


@criterion(4, "closed-form comparison helper agrees at the printed prefixes")
def test_criterion_4_compare_helper():
    assert compare_closed_vs_exact(4, 26, 1e-6) < 1e-6
    assert compare_closed_vs_exact(8, 26, 1e-6) < 1e-6


def test_table_lengths_against_reports():
    # the scan values also carry shifts used by criteria 7 and 9
    for d, expected in zip(range(2, 10), TABLE_LENGTHS):
        report = cycle_length(d)
        assert report.length == expected
        assert report.shift == expected % d
