"""Tests for the sequence core: dual routes, identities, periods."""
import logging
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnet import seqcore
from swapnet.cycles import predicted_cycle
from swapnet.errors import InconclusiveError, InvalidModulusError, InvalidPrimeError, VerificationError
from swapnet.factor import Factorization
from swapnet.seqcore import (
    _pascal_rows,
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


def binom_oracle(n: int, k: int) -> int:
    # independent multiplicative route: product of (n-i+1)/i, never math.comb
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(1, k + 1):
        out = out * (n - i + 1) // i
    return out


def seq_oracle(d: int, count: int, m: int | None = None) -> list[int]:
    # plain recurrence unrolling, independent of the library internals
    vals = [1] * min(d, count)
    while len(vals) < count:
        vals.append(vals[-1] + vals[-d] if m is None else (vals[-1] + vals[-d]) % m)
    return vals


def window_oracle(d: int, m: int, cap: int):
    # first j whose terms j..j+d-1 mod m are all ones, with the d-1 terms before them
    vals = [1] * d
    for j in range(1, cap + 1):
        vals.append((vals[-1] + vals[-d]) % m)
        if vals[j:] == [1] * d:
            return j, tuple(vals[j - d + 1:j])
    return None, None


SEQ_D4_26 = [1, 1, 1, 1, 2, 3, 4, 5, 7, 10, 14, 19, 26, 36, 50, 69, 95,
             131, 181, 250, 345, 476, 657, 907, 1252, 1728]
SEQ_D8_26 = [1] * 8 + [2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 18, 23, 29, 36,
             44, 53, 64, 78]


class TestBinomials:
    def test_exact_examples(self):
        assert binom_exact(4, 2) == 6
        assert binom_exact(0, 0) == 1
        assert binom_exact(10, 5) == 252
        assert binom_exact(3, 7) == 0
        assert binom_exact(3, -1) == 0

    @given(st.integers(0, 80), st.integers(-2, 85))
    def test_exact_matches_multiplicative_oracle(self, n, k):
        assert binom_exact(n, k) == binom_oracle(n, k)

    def test_mod_examples(self):
        assert binom_mod(5, 2, 3) == 1        # C(5,2) = 10 = 1 mod 3
        assert binom_mod(6, 3, 4) == 0        # C(6,3) = 20 = 0 mod 4
        for n in (0, 1, 7, 40):
            assert binom_mod(n, 0, 6) == 1

    def test_mod_invalid_modulus(self):
        with pytest.raises(InvalidModulusError):
            binom_mod(5, 2, 1)

    @given(st.integers(0, 300), st.integers(0, 300), st.sampled_from([2, 3, 4, 5, 7, 9, 12, 49]))
    def test_mod_matches_exact(self, n, k, m):
        assert binom_mod(n, k, m) == (math.comb(n, k) if k <= n else 0) % m

    @given(st.integers(0, 3000), st.integers(-2, 3000),
           st.sampled_from([2, 3, 5, 7, 13, 101, 2999, 3001, 10 ** 9 + 7, 2 ** 61 - 1]))
    def test_lucas_for_prime_moduli(self, n, k, m):
        # m > n included; a prime m never walks Pascal rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seqcore, "_pascal_rows", lambda *args: pytest.fail("Pascal walk"))
            assert binom_mod(n, k, m) == (math.comb(n, k) if 0 <= k <= n else 0) % m

    @given(st.integers(0, 400), st.integers(-2, 400),
           st.sampled_from([4, 6, 8, 9, 10, 15, 25, 49, 91, 561, 1024]))
    def test_composite_moduli(self, n, k, m):
        assert binom_mod(n, k, m) == (math.comb(n, k) if 0 <= k <= n else 0) % m

    def test_unprovable_prime_modulus_walks_pascal_rows(self, monkeypatch):
        # 2^89 - 1 is prime past the Miller-Rabin range: no FactoringError, no factoring run
        monkeypatch.setattr(Factorization, "of", staticmethod(lambda n: pytest.fail("factoring ran")))
        m = 2 ** 89 - 1
        assert binom_mod(300, 120, m) == math.comb(300, 120) % m

    def test_lucas_at_large_n(self):
        assert binom_mod(10 ** 4, 5000, 7) == math.comb(10 ** 4, 5000) % 7
        assert binom_mod(10 ** 5, 4 * 10 ** 4, 100003) == math.comb(10 ** 5, 4 * 10 ** 4) % 100003


class TestPascalTable:
    """Pascal's triangle mod m, row by row, as `_pascal_rows` builds it."""

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 9, 10, 49])
    def test_rows_match_exact_binomials(self, m):
        rows = list(_pascal_rows(m, 60, 60))
        assert [len(row) for row in rows] == list(range(1, 62))
        for n, row in enumerate(rows):
            assert row == [binom_oracle(n, k) % m for k in range(n + 1)]

    @pytest.mark.parametrize("m, width", [(6, 0), (7, 1), (10, 5), (49, 17)])
    def test_cut_rows_are_prefixes(self, m, width):
        # binom_mod and lu_tsai_period read column <= width of rows far longer than it
        for n, row in enumerate(_pascal_rows(m, width, 60)):
            assert row == [binom_oracle(n, k) % m for k in range(min(n, width) + 1)]

    def test_addition_rule_elementwise(self):
        rows = list(_pascal_rows(7, 40, 40))
        for n in range(1, 41):
            row, prev = rows[n], rows[n - 1]
            assert row[0] == row[n] == 1
            for k in range(1, n):
                assert row[k] == (prev[k - 1] + prev[k]) % 7


class TestSequenceRoutes:
    def test_first_terms_are_ones(self):
        assert exact_sequence(10 ** 30, 3) == seq_stream(10 ** 30, 7, 3) == [1] * 3  # no d-term list
        for d in range(2, 13):
            assert exact_sequence(d, d) == [1] * d
            for j in range(d):
                assert term_exact(j, d) == 1
                assert term_mod(j, d, 9) == 1

    def test_printed_sequences(self):
        assert exact_sequence(4, 26) == SEQ_D4_26
        assert exact_sequence(8, 26) == SEQ_D8_26
        assert term_exact(25, 4) == 1728
        assert term_exact(25, 8) == 78
        assert term_exact(10, 2) == 89
        assert seq_stream(4, 10 ** 9 + 7, 26) == SEQ_D4_26
        assert seq_stream(8, 10 ** 9 + 7, 26) == SEQ_D8_26

    def test_term_mod_examples(self):
        assert term_mod(25, 4, 4) == 0       # 1728 mod 4
        assert term_mod(30, 2, 2) == 1       # period 3, position 0
        with pytest.raises(InvalidModulusError):
            term_mod(5, 3, 1)

    def test_empty_stream(self):
        assert seq_stream(5, 7, 0) == []
        assert exact_sequence(3, 0) == []
        for route in (lambda c: seq_stream(5, 7, c), lambda c: exact_sequence(3, c)):
            with pytest.raises(ValueError, match="count must be >= 0"):
                route(-1)

    @given(st.integers(2, 12), st.integers(2, 50), st.integers(0, 500))
    @settings(max_examples=100)
    def test_routes_equal_plain_loops(self, d, m, count):
        for n in (0, d - 1, d, d + 1, count):
            assert exact_sequence(d, n) == seq_oracle(d, n)
            assert seq_stream(d, m, n) == seq_oracle(d, n, m)

    def test_stream_invalid_modulus(self):
        with pytest.raises(InvalidModulusError):
            seq_stream(4, 1, 5)

    @pytest.mark.parametrize("d", range(2, 41))
    def test_sum_route_equals_recurrence_route(self, d):
        exact = exact_sequence(d, 400)
        assert exact == seq_oracle(d, 400)
        # empty, below d, ending at j = d*i where column i starts, and the full run
        for count in (0, d - 1, d + 1, 2 * d + 1, (399 // d) * d + 1, 400):
            assert term_exact_range(d, count) == exact[:count]

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 40])
    def test_batch_sum_matches_per_term_sum(self, d):
        batch = term_exact_range(d, 400)
        assert batch == [term_exact(j, d) for j in range(400)]

    def test_growth_strictly_increasing(self):
        for d in (2, 4, 9):
            terms = exact_sequence(d, 200)
            assert all(terms[j] > terms[j - 1] for j in range(d, 200))

    def test_modular_routes_return_plain_ints(self):
        assert type(term_mod(25, 4, 4)) is int
        assert type(term_mod(2, 4, 4)) is int
        assert all(type(v) is int for v in seq_stream(4, 4, 26))
        assert type(binom_mod(6, 3, 4)) is int
        assert type(binom_mod(3, 7, 4)) is int
        assert type(prime_binomial_residue(5, 4)) is int

    @given(
        st.integers(2, 10),
        st.integers(0, 300),
        st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_modular_routes_agree(self, d, j, m):
        expected = term_exact(j, d) % m
        assert term_mod(j, d, m) == expected
        assert seq_stream(d, m, j + 1)[j] == expected


class TestTermModJumpAhead:
    """term_mod reads the coefficient sum of x^j; seq_stream walks j steps."""

    @given(st.integers(2, 12), st.integers(2, 50), st.integers(0, 3000))
    @settings(max_examples=150)
    def test_matches_stream(self, d, m, j):
        assert term_mod(j, d, m) == seq_stream(d, m, j + 1)[j]

    def test_below_order_is_one(self):
        for d in (2, 5, 12):
            assert [term_mod(j, d, 7) for j in range(d)] == [1] * d

    def test_large_order_takes_the_fft_product(self):
        # j a few times d: each squaring is a 3000-coefficient ring product
        assert term_mod(10 ** 4, 3000, 7) == seq_stream(3000, 7, 10 ** 4 + 1)[-1] == 5

    def test_modulus_past_int64_products(self):
        m = 2 ** 32 + 15  # 6 * (m-1)^2 passes 2^63, so the kernel uses exact ints
        exact = exact_sequence(6, 501)
        for j in (0, 5, 6, 250, 500):
            value = term_mod(j, 6, m)
            assert type(value) is int
            assert value == exact[j] % m


class TestSequenceWindow:
    """The d-term window that first_window_return advances."""

    def test_first_return_small_cases(self):
        assert first_window_return(2, 2, 10)[0] == 3
        assert first_window_return(3, 3, 100)[0] == 8
        assert first_window_return(6, 2, 100)[0] == 63
        assert first_window_return(6, 3, 1000)[0] == 728
        assert first_window_return(3, 3, 2 ** 70) == (8, (0, 0))  # a budget past sys.maxsize

    def test_first_return_budget_exhausted(self):
        assert first_window_return(3, 3, 7) == (None, None)

    @given(st.integers(2, 12), st.integers(2, 50))
    @settings(max_examples=100)
    def test_budget_edges_match_oracle(self, d, m):
        period, tail = window_oracle(d, m, 5000)
        if period is None:
            assert first_window_return(d, m, 5000) == (None, None)
        else:
            assert first_window_return(d, m, period) == (period, tail)
            assert first_window_return(d, m, period - 1) == (None, None)

    def test_tail_is_zeros_then_one(self):
        for d, m in [(2, 2), (3, 3), (4, 4), (5, 5), (9, 9), (6, 2), (6, 3)]:
            steps, tail = first_window_return(d, m, 10 ** 5)
            assert steps is not None
            assert tail == (0,) * (d - 1)
            stream = seq_stream(d, m, steps + d)
            assert stream[steps:steps + d] == [1] * d
            assert stream[steps - d + 1:steps] == [0] * (d - 1)


class TestHockeyStick:
    def test_worked_example(self):
        # sum = 1 + 4 + 10 + 20 + 35 = 70 = C(8, 4)
        assert sum(binom_oracle(3 + i, i) for i in range(5)) == 70 == binom_oracle(8, 4)
        assert hockey_stick_check(3, 4)

    def test_boundaries(self):
        assert hockey_stick_check(0, 17)
        assert hockey_stick_check(23, 0)

    def test_full_grid_to_50(self):
        assert all(hockey_stick_check(j, k) for j in range(51) for k in range(51))


class TestPrimeBinomialResidue:
    def test_lemma_pattern(self):
        assert prime_binomial_residue(3, 2) == 1
        assert prime_binomial_residue(3, 0) == 0

    def test_pattern_across_primes(self):
        for p in (2, 3, 5, 7, 11):
            for j in range(3 * p):
                expected = 1 if j % p == p - 1 else 0
                assert prime_binomial_residue(p, j) == expected
                assert binom_oracle(p + j, p - 1) % p == expected

    def test_boundary_minus_one(self, caplog):
        # C(p-1, p-1) = 1; consistent with the j = p-1 branch, not the 0 branch
        caplog.set_level(logging.DEBUG, logger="swapnet")
        assert binom_oracle(4, 4) == 1
        primes = [p for p in range(2, 102) if Factorization.of(p).factors == ((p, 1),)]
        assert all(prime_binomial_residue(p, -1) == 1 for p in primes)
        assert caplog.records == []  # asserted like every j, so nothing to log

    def test_minus_one_is_asserted(self, monkeypatch):
        monkeypatch.setattr(seqcore, "binom_mod", lambda n, k, m: 0)
        with pytest.raises(VerificationError):
            prime_binomial_residue(5, -1)

    def test_not_prime(self):
        with pytest.raises(InvalidPrimeError):
            prime_binomial_residue(6, 1)


class TestLuTsaiPeriod:
    def test_examples(self):
        assert lu_tsai_period(3, 1, 2) == 3
        assert lu_tsai_period(2, 2, 1) == 4
        assert lu_tsai_period(2, 1, 4) == 8

    def test_full_grid(self):
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                for k in range(1, 11):
                    e = 0
                    while p ** (e + 1) <= k:
                        e += 1
                    predicted = p ** (a + e)
                    assert lu_tsai_period(p, a, k) == predicted

    def test_period_is_genuine(self):
        # spot-check the detected period against direct binomials
        period = lu_tsai_period(3, 2, 4)
        for j in range(4, 40):
            assert binom_oracle(j, 4) % 9 == binom_oracle(j + period, 4) % 9

    def test_not_prime(self):
        with pytest.raises(InvalidPrimeError):
            lu_tsai_period(4, 1, 1)


def _aperiodic_rows(m, width, n_max):
    return ([j, j] for j in range(n_max + 1))  # column 1 counts up: no period


@pytest.mark.parametrize("call,error,message", [
    (lambda mp: term_exact(-1, 3), ValueError, "j must be >= 0"),
    (lambda mp: term_mod(-1, 3, 5), ValueError, "j must be >= 0"),
    (lambda mp: first_window_return(3, 5, 0), ValueError, "budget must be >= 1"),
    (lambda mp: first_window_return(3, 5, True), ValueError, "budget must be an integer, got True"),
    (lambda mp: first_window_return(3, 5, 2.0), ValueError, "budget must be an integer, got 2.0"),
    (lambda mp: hockey_stick_check(-1, 2), ValueError, "j must be >= 0"),
    (lambda mp: hockey_stick_check(2, -1), ValueError, "k must be >= 0"),
    (lambda mp: prime_binomial_residue(5, -2), ValueError, "j must be >= -1"),
    (lambda mp: lu_tsai_period(2, 0, 1), ValueError, "a must be >= 1"),
    (lambda mp: lu_tsai_period(2, 1, 0), ValueError, "k must be >= 1"),
    (lambda mp: (mp.setattr(seqcore, "_pascal_rows", _aperiodic_rows),
                 lu_tsai_period(2, 1, 1)),
     InconclusiveError, "no period <= 4 found for C(j,1) mod 2^1"),
    # every integer parameter is an int: a bool or a float is refused, never read as a number
    (lambda mp: term_exact(3, True), ValueError, "order must be an integer, got True"),
    (lambda mp: exact_sequence(3.0, 5), ValueError, "order must be an integer, got 3.0"),
    (lambda mp: term_exact(True, 3), ValueError, "j must be an integer, got True"),
    (lambda mp: term_exact(5.5, 3), ValueError, "j must be an integer, got 5.5"),
    (lambda mp: term_mod(True, 3, 5), ValueError, "j must be an integer, got True"),
    (lambda mp: term_mod(2.0, 3, 5), ValueError, "j must be an integer, got 2.0"),
    (lambda mp: exact_sequence(3, True), ValueError, "count must be an integer, got True"),
    (lambda mp: exact_sequence(3, 2.5), ValueError, "count must be an integer, got 2.5"),
    (lambda mp: seq_stream(3, 5, True), ValueError, "count must be an integer, got True"),
    (lambda mp: seq_stream(3, 5, 4.0), ValueError, "count must be an integer, got 4.0"),
    (lambda mp: term_exact_range(3, True), ValueError, "count must be an integer, got True"),
    (lambda mp: term_exact_range(3, 4.0), ValueError, "count must be an integer, got 4.0"),
    (lambda mp: term_exact_range(3, -5), ValueError, "count must be >= 0"),
    (lambda mp: binom_mod(True, 1, 7), ValueError, "n must be an integer, got True"),
    (lambda mp: binom_mod(5.0, 2, 7), ValueError, "n must be an integer, got 5.0"),
    (lambda mp: binom_mod(5, True, 7), ValueError, "k must be an integer, got True"),
    (lambda mp: binom_mod(5, 2.0, 7), ValueError, "k must be an integer, got 2.0"),
    (lambda mp: hockey_stick_check(True, 2), ValueError, "j must be an integer, got True"),
    (lambda mp: hockey_stick_check(2.0, 2), ValueError, "j must be an integer, got 2.0"),
    (lambda mp: hockey_stick_check(2, True), ValueError, "k must be an integer, got True"),
    (lambda mp: hockey_stick_check(2, 2.0), ValueError, "k must be an integer, got 2.0"),
    (lambda mp: prime_binomial_residue(5, True), ValueError, "j must be an integer, got True"),
    (lambda mp: prime_binomial_residue(5, 4.0), ValueError, "j must be an integer, got 4.0"),
    (lambda mp: prime_binomial_residue(5.0, 4), InvalidPrimeError, "p must be an integer, got 5.0"),
    (lambda mp: seq_stream(3, 5.0, 4), InvalidModulusError, "modulus must be an integer, got 5.0"),
    (lambda mp: seq_stream(3, True, 4), InvalidModulusError, "modulus must be an integer, got True"),
    (lambda mp: seq_stream(3, 1, 4), InvalidModulusError, "modulus must be >= 2"),
    (lambda mp: lu_tsai_period(2, True, 1), ValueError, "a must be an integer, got True"),
    (lambda mp: lu_tsai_period(2, 1.0, 1), ValueError, "a must be an integer, got 1.0"),
    (lambda mp: lu_tsai_period(2, 1, True), ValueError, "k must be an integer, got True"),
    (lambda mp: lu_tsai_period(2, 1, 1.0), ValueError, "k must be an integer, got 1.0"),
], ids=["term-exact", "term-mod", "window-budget", "window-bool", "window-float", "hockey-j",
        "hockey-k", "residue-j", "lu-tsai-a", "lu-tsai-k", "lu-tsai-no-period",
        "order-bool", "order-float", "term-exact-bool", "term-exact-float", "term-mod-bool",
        "term-mod-float", "exact-count-bool", "exact-count-float", "stream-count-bool",
        "stream-count-float", "range-count-bool", "range-count-float", "range-count-negative",
        "binom-n-bool", "binom-n-float", "binom-k-bool", "binom-k-float", "hockey-j-bool",
        "hockey-j-float", "hockey-k-bool", "hockey-k-float", "residue-j-bool", "residue-j-float",
        "residue-p-float", "modulus-float", "modulus-bool", "modulus-1", "lu-tsai-a-bool", "lu-tsai-a-float", "lu-tsai-k-bool", "lu-tsai-k-float"])
def test_refusals(monkeypatch, call, error, message):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("text, value", [("0", 0), ("42", 42), ("-3", -3), ("-0", 0), ("007", 7),
                                         (str(10 ** 30), 10 ** 30)])
def test_ascii_int_reads(text, value):
    assert seqcore._ascii_int(text) == value


# int() reads ' 6', '6 ', '+6', '1_0' and the Arabic-Indic and fullwidth digits; '¹1' passes str.isdigit
@pytest.mark.parametrize("text", ["", "-", "--3", " 6", "6 ", "+6", "1_0", "\u0663", "\u00b91", "\uff11"])
def test_ascii_int_refuses(text):
    with pytest.raises(ValueError, match=re.escape(f"{text!r} is not an integer in ASCII digits")):
        seqcore._ascii_int(text)


def test_is_prime():
    def is_prime(n):
        return Factorization.of(n).factors == ((n, 1),)

    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(7919 * 7927)
    assert is_prime(7919)
    for p in (0, 1, 4, 7919 * 7927):
        with pytest.raises(InvalidPrimeError):
            prime_binomial_residue(p, 0)
    with pytest.raises(InvalidPrimeError):
        predicted_cycle(1, 1)
