"""Tests for period detection, composition, and induced shifts."""
import dataclasses
import json
import logging
import math
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnet import cycles, factor, ring
from swapnet.cli import main
from swapnet.errors import FactoringError, InconclusiveError, InvalidPrimeError, VerificationError
from swapnet.cycles import (
    CycleReport,
    ScanFailure,
    cycle_length,
    cycle_length_direct,
    predicted_cycle,
    scan,
)
from swapnet.factor import Factorization, _check_prime
from swapnet.seqcore import seq_stream
from test_kronecker_periods import x_power

TABLE = {2: 3, 3: 8, 4: 30, 5: 24, 6: 6552, 7: 48, 8: 252, 9: 240}


class TestFactorization:
    def test_basic(self):
        assert Factorization.of(360).factors == ((2, 3), (3, 2), (5, 1))
        assert Factorization.of(7).factors == ((7, 1),)
        assert Factorization.of(64).is_prime_power
        assert not Factorization.of(12).is_prime_power
        assert [p ** e for p, e in Factorization.of(90).factors] == [2, 9, 5]

    def test_value_semantics(self):
        f = Factorization.of(12)
        assert f == Factorization(12, ((2, 2), (3, 1))) and hash(f) == hash(Factorization.of(12))
        assert f != Factorization.of(18) and len({f, Factorization.of(12), Factorization.of(18)}) == 2
        assert repr(f) == "Factorization(n=12, factors=((2, 2), (3, 1)))"
        for change in (lambda: setattr(f, "n", 13), lambda: setattr(f, "extra", 1),
                       lambda: delattr(f, "factors")):
            with pytest.raises(AttributeError):
                change()
        back = pickle.loads(pickle.dumps(f))
        assert back == f and type(back) is Factorization and back.is_prime_power is False

    def test_product_invariant(self):
        for n in range(2, 500):
            f = Factorization.of(n)
            assert math.prod(p ** e for p, e in f.factors) == n
            assert list(f.factors) == sorted(f.factors)

    # strong pseudoprimes to the first 9 and the first 12 prime bases
    PSEUDOPRIMES = (3825123056546413051, 318665857834031151167461)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        ns = [p ** k - 1 for p in (2, 3, 5, 7, 11, 13) for k in range(2, 81) if p ** k < 10 ** 24]
        ns += [10 ** 8 + 7, 9999991 * 10000019, 2 ** 61 - 1, 2 ** 64 + 1, *self.PSEUDOPRIMES]
        for n in ns:
            assert dict(Factorization.of(n).factors) == sympy.factorint(n), n

    @given(st.integers(2, 10 ** 18))
    @settings(max_examples=200)
    def test_primality_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert (Factorization.of(n).factors == ((n, 1),)) == sympy.isprime(n)

    def test_strong_pseudoprimes_are_composite(self):
        for n in self.PSEUDOPRIMES:
            assert len(Factorization.of(n).factors) > 1
            with pytest.raises(InvalidPrimeError):
                _check_prime(n)
        _check_prime(2 ** 61 - 1)  # proven by Miller-Rabin, no exception

    def test_unprovable_prime_raises(self):
        # 2^89 - 1 is prime but above the deterministic Miller-Rabin range
        with pytest.raises(FactoringError) as info:
            Factorization.of(3 * (2 ** 89 - 1))
        assert info.value.cofactor == 2 ** 89 - 1

    def test_unsplit_composite_raises(self, monkeypatch):
        monkeypatch.setattr(factor, "RHO_STEPS", 10)
        n = 1000003 * 1000033
        with pytest.raises(FactoringError) as info:
            Factorization.of(n)
        assert info.value.cofactor == n


class TestIsProvenPrime:
    @given(st.integers(-5, 10 ** 18))
    @settings(max_examples=300)
    def test_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert factor.is_proven_prime(n) == sympy.isprime(n)

    def test_small_values_and_pseudoprimes(self):
        assert [n for n in range(60) if factor.is_proven_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        for n in TestFactorization.PSEUDOPRIMES:
            assert not factor.is_proven_prime(n)
        assert factor.is_proven_prime(2 ** 61 - 1)

    def test_no_proof_past_the_deterministic_range(self):
        # 2^89 - 1 is prime, but Miller-Rabin on the 13 bases proves nothing past MR_LIMIT
        assert not factor.is_proven_prime(2 ** 89 - 1)

    def test_never_factors(self, monkeypatch):
        monkeypatch.setattr(Factorization, "of", staticmethod(lambda n: pytest.fail("factoring ran")))
        assert factor.is_proven_prime(10 ** 8 + 7)
        assert not factor.is_proven_prime(9999991 * 10000019)


class TestCheckPrime:
    # a composite past MR_LIMIT with no small factor, and a prime past it
    UNPROVABLE = ((2 ** 127 - 1) * (2 ** 61 - 1), 2 ** 89 - 1)

    @pytest.mark.parametrize("n", UNPROVABLE, ids=["composite", "prime"])
    def test_refuses_what_miller_rabin_cannot_prove(self, monkeypatch, n):
        monkeypatch.setattr(Factorization, "of", staticmethod(lambda n: pytest.fail("factoring ran")))
        with pytest.raises(InvalidPrimeError):
            _check_prime(n)
        with pytest.raises(InvalidPrimeError):
            predicted_cycle(n, 1)


@pytest.mark.parametrize("call,error,message", [
    (lambda: predicted_cycle(2, 0), ValueError, "m must be >= 1"),
    (lambda: predicted_cycle(3, -1), ValueError, "m must be >= 1"),
    (lambda: predicted_cycle(2, 1.5), ValueError, "m must be an integer, got 1.5"),
    (lambda: predicted_cycle(2, True), ValueError, "m must be an integer, got True"),
    (lambda: cycle_length(10, True), ValueError, "budget must be an integer, got True"),
    (lambda: cycle_length(10, 2.5), ValueError, "budget must be an integer, got 2.5"),
    (lambda: cycle_length_direct(3, 3, True), ValueError, "budget must be an integer, got True"),
    (lambda: cycle_length_direct(3, 3, 9.5), ValueError, "budget must be an integer, got 9.5"),
    (lambda: scan(True), ValueError, "max_n must be an integer, got True"),
    (lambda: scan(5.5), ValueError, "max_n must be an integer, got 5.5"),
    (lambda: Factorization.of(1), ValueError, "n must be >= 2"),
    (lambda: Factorization.of(-6), ValueError, "n must be >= 2"),
    (lambda: Factorization.of(True), ValueError, "n must be an integer, got True"),
    (lambda: Factorization.of(12.0), ValueError, "n must be an integer, got 12.0"),
    (lambda: predicted_cycle(2.0, 1), InvalidPrimeError, "p must be an integer, got 2.0"),
    (lambda: predicted_cycle(True, 1), InvalidPrimeError, "p must be an integer, got True"),
    (lambda: cycle_length(True), ValueError, "order must be an integer, got True"),
    (lambda: cycle_length(6.0), ValueError, "order must be an integer, got 6.0"),
    (lambda: cycles.order_from_multiple(6, 2, 0, [2]), ValueError, "n must be >= 1"),
    (lambda: cycles.order_from_multiple(6, 2, True, [2]), ValueError, "n must be an integer, got True"),
    (lambda: cycles.ring_order(6, 2, 0), ValueError, "e must be >= 1"),
    (lambda: cycles.ring_order(6, 2, -1), ValueError, "e must be >= 1"),
    (lambda: cycles.ring_order(8, 2, True), ValueError, "e must be an integer, got True"),
], ids=["predicted-m0", "predicted-m-1", "predicted-float", "predicted-bool", "budget-bool",
        "budget-float", "direct-bool", "direct-float", "scan-bool", "scan-float",
        "factor-1", "factor-neg", "factor-bool", "factor-float", "predicted-p-float", "predicted-p-bool",
        "order-bool", "order-float", "multiple-0", "multiple-bool", "ring-order-e0", "ring-order-e-1",
        "ring-order-bool"])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestPredictedCycle:
    def test_values(self):
        assert predicted_cycle(2, 2) == 30
        assert predicted_cycle(2, 3) == 252
        assert predicted_cycle(5, 1) == 24
        assert predicted_cycle(3, 2) == 240

    def test_reduces_to_prime_theorem(self):
        for p in (2, 3, 5, 7, 11):
            assert predicted_cycle(p, 1) == p * p - 1

    def test_rejects_composite_base(self):
        with pytest.raises(InvalidPrimeError):
            predicted_cycle(6, 2)


class TestDirectDetection:
    def test_examples(self):
        assert cycle_length_direct(3, 3, 100) == 8
        assert cycle_length_direct(6, 2, 100) == 63
        assert cycle_length_direct(6, 3, 1000) == 728

    def test_budget_exceeded(self):
        with pytest.raises(InconclusiveError) as err:
            cycle_length_direct(6, 3, 100)
        assert err.value.steps == 100

    def test_minimality_no_earlier_return(self):
        # every earlier window must differ from all-ones
        for d, m in [(2, 2), (3, 3), (4, 4), (5, 5), (4, 3), (5, 2), (3, 9), (6, 4)]:
            period = cycle_length_direct(d, m, 10 ** 4)
            vals = [int(r) for r in seq_stream(d, m, period + d)]
            windows = [tuple(vals[s:s + d]) for s in range(1, period)]
            assert (1,) * d not in windows
            assert tuple(vals[period:period + d]) == (1,) * d

    def test_prime_stride_property(self):
        # for prime d the subsampled terms at multiples of d count upward
        for d in (3, 5, 7):
            vals = [int(r) for r in seq_stream(d, d, d * d)]
            for l in range(d):
                assert vals[l * d] == (l + 1) % d

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_detection_agrees_with_stream_scan(self, d, m):
        # reference route: materialize the stream and scan windows directly
        try:
            period = cycle_length_direct(d, m, 30_000)
        except InconclusiveError:
            return
        vals = [int(r) for r in seq_stream(d, m, period + d)]
        assert vals[period:period + d] == [1] * d
        ones = (1,) * d
        assert all(tuple(vals[s:s + d]) != ones for s in range(1, period))


class TestCycleLength:
    @pytest.mark.parametrize("d,expected", sorted(TABLE.items()))
    def test_table_values(self, d, expected):
        report = cycle_length(d)
        assert report.length == expected
        assert report.shift == expected % d

    def test_composed_d6(self):
        report = cycle_length(6)
        assert report.per_factor == ((2, 63), (3, 728))
        assert report.length == math.lcm(63, 728) == 6552
        assert report.method == "composed"

    def test_prime_method(self):
        report = cycle_length(7)
        assert report.method == "predicted-and-verified"
        assert report.conjecture_ok is None

    def test_prime_power_annotation(self):
        report = cycle_length(8)
        assert report.conjecture_ok is True
        assert report.method == "predicted-and-verified"
        assert report.per_factor == ((8, 252),)

    def test_prime_theorem_up_to_31(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert cycle_length_direct(p, p, p * p) == p * p - 1

    def test_composition_direct_equals_lcm(self):
        # d = 10 is gated below: its direct period is LCM(889, 1953124),
        # about 1.7e9 steps of brute force
        for d in (6, 12):
            assert cycle_length_direct(d, d, 10 ** 7) == cycle_length(d).length

    @pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                        reason="set SWAPNET_LONG=1 for the ~1.7e9-step run")
    def test_composition_d10_long(self):
        composed = cycle_length(10)
        assert cycle_length_direct(10, 10, 2 * composed.length) == composed.length

    def test_d12_factors(self):
        report = cycle_length(12)
        assert report.per_factor == ((4, 6510), (3, 6560))
        assert report.length == math.lcm(6510, 6560)


class TestVerifyConjecture:
    """The predicted period N of d = p^m against the brute-force oracle, with budget 2N."""

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2)])
    def test_instances(self, p, m):
        n = predicted_cycle(p, m)
        assert cycle_length_direct(p ** m, p ** m, 2 * n) == n

    def test_expected_values(self):
        assert predicted_cycle(2, 4) == 8 * (2 ** 8 - 1) == 2040
        assert predicted_cycle(5, 2) == 5 * (5 ** 4 - 1) == 3120

    def test_no_window_return(self, monkeypatch):
        monkeypatch.setattr(cycles, "first_window_return", lambda d, m, budget: (None, None))
        with pytest.raises(InconclusiveError, match="no window return within 480 steps") as info:
            cycle_length_direct(9, 9, 2 * predicted_cycle(3, 2))
        assert info.value.steps == 480

    @pytest.mark.parametrize("tail", [(0, 0, 0, 0, 0, 0, 0, 1), (2, 0, 0, 0, 0, 0, 0, 0)])
    def test_nonzero_tail_is_refused(self, monkeypatch, tail):
        # a window of ones that is not preceded by d - 1 zeros closes no cycle
        monkeypatch.setattr(cycles, "first_window_return", lambda d, m, budget: (240, tail))
        with pytest.raises(VerificationError, match="step 240 not preceded by 8 zeros"):
            cycle_length_direct(9, 9, 480)


class TestInducedShift:
    """Shift and system permutation carried by the cycle report."""

    def test_d3_full_cycle(self):
        report = cycle_length(3)
        assert report.shift == 2
        assert report.permutation == (2, 0, 1)  # state of system i moves to system i-1

    def test_d4_transpositions(self):
        report = cycle_length(4)
        assert report.shift == 2
        assert report.permutation == (2, 3, 0, 1)

    def test_d6_identity(self):
        report = cycle_length(6)
        assert report.shift == 0
        assert report.permutation == (0, 1, 2, 3, 4, 5)

    def test_shift_and_permutation_are_derived(self):
        report = cycle_length(4)
        names = [f.name for f in dataclasses.fields(report)]
        assert names == ["d", "length", "per_factor", "method", "conjecture_ok"]
        built = CycleReport(4, 30, ((4, 30),), "predicted-and-verified", True)
        assert pickle.loads(pickle.dumps(report)) == report == built
        assert (built.shift, built.permutation) == (2, (2, 3, 0, 1))

    def test_prime_shift_is_minus_one(self):
        for d in (2, 3, 5, 7, 11, 13):
            assert cycle_length(d).shift == d - 1


class TestScan:
    def test_table_reproduction(self):
        entries = scan(9)
        assert [e.length for e in entries] == [3, 8, 30, 24, 6552, 48, 252, 240]

    def test_single_entry(self):
        entries = scan(2)
        assert len(entries) == 1
        assert entries[0].d == 2 and entries[0].length == 3

    def test_d10_composed(self):
        entries = scan(10)
        last = entries[-1]
        assert last.d == 10
        assert last.per_factor == ((2, 889), (5, 1953124))
        assert last.length == math.lcm(889, 1953124)

    def test_inconclusive_marker(self):
        entries = scan(7, budget=10)
        kinds = {e.d: type(e) for e in entries}
        assert kinds[2] is CycleReport          # period 3 fits in 10 steps
        assert kinds[6] is ScanFailure
        assert all(isinstance(e, (CycleReport, ScanFailure)) for e in entries)

    def test_csv(self, capsys):
        assert main(["scan", "--max", "4", "--csv"]) == 0
        assert capsys.readouterr().out == "d,length\n2,3\n3,8\n4,30\n"


class TestDefaultBudget:
    """SWAPNET_BUDGET, the one default cap for every d (``env_budget``)."""

    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv("SWAPNET_BUDGET", raising=False)
        assert cycles.env_budget() is None
        monkeypatch.setenv("SWAPNET_BUDGET", "12345")
        assert cycles.env_budget() == 12345

    def test_env_empty_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("SWAPNET_BUDGET", "")
        assert cycles.env_budget() is None

    @pytest.mark.parametrize("value", ["abc", "1e3", "0", "-5", " ", "\u0661\u0660", " 1_000 ", "+5"])
    def test_env_invalid_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("SWAPNET_BUDGET", value)
        with pytest.raises(ValueError, match="SWAPNET_BUDGET"):
            cycles.env_budget()
        for d in (6, 9):  # read for prime powers as for composites
            with pytest.raises(ValueError, match="SWAPNET_BUDGET"):
                cycle_length(d)


def test_report_json_schema(capsys):
    assert main(["cycle", "--d", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "d": 6,
        "length": 6552,
        "factors": [{"pm": 2, "len": 63}, {"pm": 3, "len": 728}],
        "shift": 0,
        "permutation": [0, 1, 2, 3, 4, 5],
        "method": "composed",
    }


def _no_brute_force(*args):
    raise AssertionError("brute force was called")


class TestRingCertificate:
    """The prime-power multiple: x^N = 1 and x^(N/r) != 1 in Z_d[x]/(x^d - x^(d-1) - 1)."""

    SMALL = [d for d in range(2, 41) if Factorization.of(d).is_prime_power
             and predicted_cycle(*Factorization.of(d).factors[0]) <= 3 * 10 ** 6]

    @pytest.mark.parametrize("d", SMALL)
    def test_agrees_with_brute_force(self, d):
        p, m = Factorization.of(d).factors[0]
        n = predicted_cycle(p, m)
        length = cycle_length_direct(d, d, 2 * n)
        brute = CycleReport(d, length, ((d, length),),
                            "predicted-and-verified" if length == n else "direct",
                            None if m == 1 else length == n)
        assert cycle_length(d) == brute
        assert brute.shift == length % d  # derived from d and length, not stored
        assert brute.permutation == tuple((i + length) % d for i in range(d))

    @pytest.mark.parametrize("d", SMALL)
    def test_wrong_orders_rejected(self, d):
        n = predicted_cycle(*Factorization.of(d).factors[0])

        def order(k, primes_of):
            primes = [r for r, _ in Factorization.of(primes_of).factors]
            return cycles.order_from_multiple(d, d, k, primes)

        assert order(n, n) == n
        assert order(2 * n, 2 * n) == n  # a multiple, stripped to the order
        with pytest.raises(VerificationError, match=f"x\\^{n + 1} != 1 mod {d} "):
            order(n + 1, n + 1)  # x^(N+1) = x
        for r, _ in Factorization.of(n).factors:
            with pytest.raises(VerificationError, match="not a multiple of the order"):
                order(n // r, n)

    @pytest.mark.parametrize("d", [343, 729, 1024, 3125])
    def test_large_prime_powers_without_brute_force(self, monkeypatch, d):
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        p, m = Factorization.of(d).factors[0]
        report = cycle_length(d)
        assert report.length == predicted_cycle(p, m) == p ** (m - 1) * (p ** (2 * m) - 1)
        assert report.method == "predicted-and-verified"
        assert report.conjecture_ok is True

    def test_wrong_predictions_keep_the_verdicts(self, monkeypatch):
        # the prediction is only compared with the certified period, never fed to the ring:
        # a wrong one is recorded for p^m with m > 1 and raises for prime d
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        true_cycle = cycles.predicted_cycle
        for wrong in (lambda p, m: 2 * true_cycle(p, m), lambda p, m: true_cycle(p, m) + 1):
            monkeypatch.setattr(cycles, "predicted_cycle", wrong)
            report = cycle_length(8)
            assert (report.length, report.method, report.conjecture_ok) == (252, "direct", False)
            with pytest.raises(VerificationError, match="prime d=7: measured period 48"):
                cycle_length(7)

    def test_non_multiple_raises_naming_it(self, monkeypatch):
        # without the factor of highest degree mod p, the lcm is no multiple of the order:
        # the ring raises, naming it
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        true_split = ring.distinct_degree

        def drop_highest(d, p):
            split = true_split(d, p)
            del split[max(split)]
            return split

        monkeypatch.setattr(ring, "distinct_degree", drop_highest)
        # degrees mod 2: [6], so the empty lcm 1 (x^1 = x); [3, 7] -> 7; [3, 4, 5] -> lcm(7, 15)
        for d, n in ((6, 1), (10, 7), (12, 105)):
            with pytest.raises(VerificationError, match=f"x\\^{n} != 1 mod 2 \\(order {d}\\)"):
                cycle_length(d)

    @pytest.mark.parametrize("d", [4, 8, 9, 25, 27, 49, 343])
    def test_repeated_p_strips(self, d):
        # the lift strips p as often as it divides: N p^2 comes down to N, which no known d needs
        p, m = Factorization.of(d).factors[0]
        n = predicted_cycle(p, m)
        assert cycles.order_from_multiple(d, d, n * p ** 2, [p]) == n

    @pytest.mark.parametrize("d", [d for d in range(2, 65) if Factorization.of(d).is_prime_power]
                             + [343, 729, 1024, 3125])
    def test_prime_powers_never_use_ddf(self, monkeypatch, d):
        # x^N = 1 always holds for d = p^m, so the distinct-degree multiple is never needed
        def no_ddf(*args):
            raise AssertionError("distinct_degree was called")

        monkeypatch.setattr(ring, "distinct_degree", no_ddf)
        p, m = Factorization.of(d).factors[0]
        assert cycles.ring_order(d, p, m) == predicted_cycle(p, m)

    def test_certified_period_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="swapnet.cycles"):
            cycle_length(25)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        # (d, q, order, multiple): N = 3120 = 2^4 * 3 * 5 * 13, no prime stripped
        assert record.args == (25, 25, 3120, 3120)

    def test_default_route_logs_nothing_visible(self, caplog):
        with caplog.at_level(logging.INFO, logger="swapnet.cycles"):
            cycle_length(27)
            cycle_length(6)
        assert caplog.records == []


# Composite d <= 33 whose factor period mod p^e is at most 2e6: every other
# factor's period is larger (TestRingOrder.test_list_is_complete)
SMALL_FACTORS = [(6, 2, 1), (6, 3, 1), (10, 2, 1), (10, 5, 1), (12, 2, 2), (12, 3, 1),
                 (14, 2, 1), (18, 2, 1), (20, 2, 2), (26, 2, 1)]
COMPOSITE = [d for d in range(4, 34) if not Factorization.of(d).is_prime_power]
# every (d, p, e) with composite d < 64 and p^e || d, e >= 2: all 17 are decided
LIFTS = [(d, p, e) for d in range(4, 64) if not Factorization.of(d).is_prime_power
         for p, e in Factorization.of(d).factors if e >= 2]
# the same for 64 <= d < 130, under SWAPNET_LONG: 24 cases, seconds each
LONG_LIFTS = [(d, p, e) for d in range(64, 130) if not Factorization.of(d).is_prime_power
              for p, e in Factorization.of(d).factors if e >= 2]


def _sympy_order_mod_p(d, p):
    """Order of x mod p by an independent route: the lcm of its orders mod each irreducible
    factor of f, with sympy's factoring and its own modular powers."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod
    x = sympy.symbols("x")
    want = 1
    for h, _ in sympy.Poly(x ** d - x ** (d - 1) - 1, x, modulus=p).factor_list()[1]:
        coeffs = [int(c) % p for c in h.all_coeffs()]
        n = p ** h.degree() - 1
        for r in sympy.factorint(n):
            while n % r == 0 and gf_pow_mod([1, 0], n // r, coeffs, p, ZZ) == [1]:
                n //= r
        want = math.lcm(want, n)
    return want


class TestRingOrder:
    """Composite d: the order of x mod p^e from the distinct-degree multiple."""

    @pytest.mark.parametrize("d,p,e", SMALL_FACTORS)
    def test_agrees_with_brute_force(self, d, p, e):
        assert cycles.ring_order(d, p, e) == cycle_length_direct(d, p ** e, 2 * 10 ** 6)

    def test_list_is_complete(self):
        for d in COMPOSITE:
            for p, e in Factorization.of(d).factors:
                if (d, p, e) not in SMALL_FACTORS:
                    assert cycles.ring_order(d, p, e) > 2 * 10 ** 6, (d, p, e)

    @pytest.mark.parametrize("d", COMPOSITE)
    def test_order_mod_p_matches_sympy(self, d):
        for p, e in Factorization.of(d).factors:
            want = _sympy_order_mod_p(d, p)
            assert cycles.ring_order(d, p, 1) == want
            lifted = cycles.ring_order(d, p, e)
            assert lifted in [want * p ** j for j in range(e)]

    @staticmethod
    def _assert_lift_matches_kronecker(d, p, e, got):
        # the order mod p^e is want * p^j for the least j with x^(want p^j) = 1 mod p^e,
        # found with the numpy-free Kronecker arithmetic of test_kronecker_periods
        want = _sympy_order_mod_p(d, p)
        one = [1] + [0] * (d - 1)
        lifts = [want * p ** j for j in range(e) if x_power(want * p ** j, d, p ** e) == one]
        assert got == lifts[0]

    @pytest.mark.parametrize("d,p,e", LIFTS)
    def test_lift_matches_kronecker(self, d, p, e):
        self._assert_lift_matches_kronecker(d, p, e, cycles.ring_order(d, p, e))

    def test_long_lift_table(self):
        assert len(LONG_LIFTS) == 24 and LONG_LIFTS[0] == (68, 2, 2) and LONG_LIFTS[-1] == (126, 3, 2)

    @pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                        reason="set SWAPNET_LONG=1 for every lift with 64 <= d < 130 (about 15 s)")
    @pytest.mark.parametrize("d,p,e", LONG_LIFTS)
    def test_lift_matches_kronecker_long(self, d, p, e):
        try:
            got = cycles.ring_order(d, p, e)
        except FactoringError as exc:  # d = 75 and 126, before sympy tries the same cofactor
            pytest.skip(f"order mod {p} undecided: {exc}")
        self._assert_lift_matches_kronecker(d, p, e, got)

    @staticmethod
    def _assert_ddf_route_predicts(d):
        # a second algebraic route to p^(m-1) * (p^(2m) - 1), besides its certificate:
        # the order mod p from the distinct-degree multiple, then the lift
        p, m = Factorization.of(d).factors[0]
        degrees = ring.distinct_degree(d, p)
        n = math.lcm(*(p ** k - 1 for k in degrees))
        primes = sorted({r for k in degrees for r, _ in Factorization.of(p ** k - 1).factors})
        order = cycles.order_from_multiple(d, p, n, primes)
        assert cycles.order_from_multiple(d, d, order * p ** (m - 1), [p]) == predicted_cycle(p, m)

    @pytest.mark.parametrize("d", [d for d in range(2, 1025) if Factorization.of(d).is_prime_power])
    def test_prime_powers_match_the_prediction(self, d):
        self._assert_ddf_route_predicts(d)

    @pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                        reason="set SWAPNET_LONG=1 for 3^7, 5^5 and 2^12 (about 2 s)")
    @pytest.mark.parametrize("d", [2187, 3125, 4096])
    def test_prime_powers_match_the_prediction_long(self, d):
        self._assert_ddf_route_predicts(d)

    def test_rejects_a_prime_not_dividing_d(self):
        with pytest.raises(ValueError):
            cycles.ring_order(10, 3, 1)
        with pytest.raises(InvalidPrimeError):
            cycles.ring_order(12, 4, 1)

    @pytest.mark.parametrize("d", [6, 10, 12])
    def test_composite_reports_without_brute_force(self, monkeypatch, d):
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        report = cycle_length(d)
        assert report.method == "composed"
        assert report.length == math.lcm(*(ln for _, ln in report.per_factor))

    def test_d14_and_d22(self):
        # beyond brute force: d=14 mod 7 alone needs 1.6e8 window steps
        assert cycle_length(14).per_factor == ((2, 11811), (7, 164766024))
        assert cycle_length(14).length == 648683836488
        report = cycle_length(22)
        assert report.per_factor == ((2, 4194303), (11, 22424999831085333640))
        assert report.length == math.lcm(4194303, 22424999831085333640)

    def test_scan_decides_every_d_up_to_33(self):
        entries = scan(33)
        assert all(isinstance(e, CycleReport) for e in entries)
        assert [e.d for e in entries if e.shift == 0] == [6, 12, 26, 33]

    def test_one_debug_record_per_factor(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="swapnet.cycles"):
            cycle_length(10)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
        # (d, q, order, multiple): degrees 3, 7 mod 2 and 1, 9 mod 5
        assert [r.args for r in caplog.records] == [
            (10, 2, 889, 889),
            (10, 5, 1953124, 1953124),
        ]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="swapnet.cycles"):
            cycle_length(12)
            cycle_length(14)
        # 6510 = 2 * lcm(2^3 - 1, 2^4 - 1, 2^5 - 1); mod 7 one factor 2 is stripped
        assert [r.args for r in caplog.records] == [
            (12, 4, 6510, 6510),
            (12, 3, 6560, 6560),
            (14, 2, 11811, 11811),
            (14, 7, 164766024, 329532048),
        ]


def _brute_force_outcome(d, budget):
    """What cycle_length(d, budget) gave when brute force ran every factor."""
    per_factor = []
    for q in (p ** e for p, e in Factorization.of(d).factors):
        try:
            per_factor.append((q, cycle_length_direct(d, q, budget)))
        except InconclusiveError as exc:
            return ("inconclusive", str(exc), exc.steps)
    return ("report", tuple(per_factor))


def _outcome(d, budget):
    try:
        return ("report", cycle_length(d, budget).per_factor)
    except InconclusiveError as exc:
        return ("inconclusive", str(exc), exc.steps)


class TestCompositeBudget:
    """An explicit budget keeps its brute-force meaning on the ring route, prime powers included."""

    @pytest.mark.parametrize("d", [4, 6, 8, 9, 10, 12, 25])
    def test_budget_edges_match_brute_force(self, monkeypatch, d):
        orders = [ln for _, ln in cycle_length(d).per_factor]
        budgets = sorted({b for n in orders for b in (n - 1, n)})
        want = {b: _brute_force_outcome(d, b) for b in budgets}
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        for b in budgets:
            assert _outcome(d, b) == want[b], b
        assert want[max(orders)][0] == "report"
        assert want[max(orders) - 1][0] == "inconclusive"

    def test_env_budget_is_a_cap(self, monkeypatch):
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        monkeypatch.setenv("SWAPNET_BUDGET", "727")
        assert _outcome(6, None) == ("inconclusive",
                                     "no window return within 727 steps (order 6, mod 3)", 727)
        monkeypatch.setenv("SWAPNET_BUDGET", "728")
        assert _outcome(6, None) == ("report", ((2, 63), (3, 728)))
        # a prime power is capped alike
        monkeypatch.setenv("SWAPNET_BUDGET", "239")
        assert _outcome(9, None) == ("inconclusive",
                                     "no window return within 239 steps (order 9, mod 9)", 239)
        monkeypatch.setenv("SWAPNET_BUDGET", "240")
        assert _outcome(9, None) == ("report", ((9, 240),))

    def test_without_a_cap_the_ring_has_no_step_limit(self):
        # 1953124 > 10^6, yet no budget and no SWAPNET_BUDGET means no cap
        assert cycle_length(10).per_factor[1] == (5, 1953124)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_a_usage_error(self, budget):
        for d in (6, 9):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                cycle_length(d, budget)


class TestFactoringFallback:
    """A factoring failure is inconclusive at once: steps 0, the cofactor named, no brute force.

    The class and test names are kept so that their ids stay stable.
    """

    def test_composite_falls_back(self, no_factoring, caplog):
        with caplog.at_level(logging.INFO, logger="swapnet.cycles"):
            assert _outcome(6, None) == ("inconclusive",
                                         "cannot split composite 728 (order 6, mod 3)", 0)
        assert caplog.records == []

    def test_fallback_keeps_the_budget(self, no_factoring):
        # the factoring failure decides before any cap is compared
        assert _outcome(6, 700) == ("inconclusive",
                                    "cannot split composite 728 (order 6, mod 3)", 0)

    def test_prime_power_falls_back(self, no_factoring):
        assert _outcome(25, None) == ("inconclusive",
                                      "cannot split composite 624 (order 25, mod 25)", 0)

    def test_d44_names_the_cofactor(self, monkeypatch):
        # 11^43 - 1 holds a composite cofactor that Brent's rho cannot split
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        assert _outcome(44, None) == ("inconclusive", "cannot split composite "
                                      "60240069161242191853638732882447801140033173 "
                                      "(order 44, mod 11)", 0)


# every d = p^m with m >= 2 up to 20000: 66 of them
PRIME_POWERS = sorted(p ** m for p in range(2, 142) if factor.is_proven_prime(p)
                     for m in range(2, 15) if p ** m <= 20000)


class TestPrimePowerSweep:
    """cycle_length(p^m) certifies N = p^(m-1) (p^(2m) - 1), with FFT ring products."""

    def _assert_predicted(self, monkeypatch, d):
        monkeypatch.setattr(cycles, "first_window_return", _no_brute_force)
        p, m = Factorization.of(d).factors[0]
        report = cycle_length(d)
        assert (report.length, report.method) == (predicted_cycle(p, m), "predicted-and-verified")

    def test_table(self):
        assert len(PRIME_POWERS) == 66 and PRIME_POWERS[-1] == 19683

    @pytest.mark.parametrize("d", [d for d in PRIME_POWERS if ring.FFT_MIN_D <= d <= 1000])
    def test_fft_range(self, monkeypatch, d):
        self._assert_predicted(monkeypatch, d)

    @pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                        reason="set SWAPNET_LONG=1 for every p^m up to 20000 (about 10 s)")
    @pytest.mark.parametrize("d", PRIME_POWERS)
    def test_every_prime_power_to_20000(self, monkeypatch, d):
        self._assert_predicted(monkeypatch, d)


class TestLift:
    """The order mod p^e from one power mod p^2 (mod 8 for p = 2), checked against the p-strip."""

    @staticmethod
    def _assert_matches_the_p_strip(monkeypatch, d, p, e):
        # the oracle strips p from order * p^(e-1) at full width, mod p^e, given the
        # order mod p that ring_order hands to the lift test
        seen = []
        test = cycles._lifts_fully

        def spy(d, p, order):
            seen.append(order)
            return test(d, p, order)

        monkeypatch.setattr(cycles, "_lifts_fully", spy)
        got = cycles.ring_order(d, p, e)
        [order] = seen
        assert got == cycles.order_from_multiple(d, p ** e, order * p ** (e - 1), [p])

    @pytest.mark.parametrize("d", [d for d in PRIME_POWERS if d <= 1100])
    def test_prime_powers_match_the_p_strip(self, monkeypatch, d):
        p, m = Factorization.of(d).factors[0]
        self._assert_matches_the_p_strip(monkeypatch, d, p, m)

    @pytest.mark.parametrize("d,p,e", LIFTS)
    def test_composite_lifts_match_the_p_strip(self, monkeypatch, d, p, e):
        self._assert_matches_the_p_strip(monkeypatch, d, p, e)

    @pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                        reason="set SWAPNET_LONG=1 for every p^m up to 20000")
    @pytest.mark.parametrize("d", PRIME_POWERS)
    def test_prime_powers_match_the_p_strip_long(self, monkeypatch, d):
        p, m = Factorization.of(d).factors[0]
        self._assert_matches_the_p_strip(monkeypatch, d, p, m)

    @pytest.mark.parametrize("d", [8, 9, 12, 25, 343])
    def test_fallback_keeps_the_order(self, monkeypatch, caplog, d):
        # a test reporting z = 1 (s >= 2, which no d has shown) leaves the lift to the p-strip
        p, e = Factorization.of(d).factors[0]
        want = cycles.ring_order(d, p, e)
        monkeypatch.setattr(cycles, "_lifts_fully", lambda d, p, order: False)
        with caplog.at_level(logging.WARNING, logger="swapnet.cycles"):
            assert cycles.ring_order(d, p, e) == want
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.args == (d, p, e, want)
        assert f"d={d}, p={p}, e={e}" in record.getMessage() and str(want) in record.getMessage()

    def test_one_power_mod_p_squared(self, monkeypatch):
        moduli = []
        true_power = ring.x_power

        def counting(n, d, q):
            moduli.append(q)
            return true_power(n, d, q)

        monkeypatch.setattr(ring, "x_power", counting)
        assert cycle_length(343).length == predicted_cycle(7, 3)
        assert moduli.count(49) == 1 and set(moduli) == {7, 49}  # none mod 343

    def test_power_not_one_mod_p_raises(self):
        # x^1 = x is not 1 mod 3: 1 is not the order mod 3, and the test says so
        with pytest.raises(VerificationError, match="x\\^1 != 1 mod 3 \\(order 9\\)"):
            cycles._lifts_fully(9, 3, 1)
        with pytest.raises(VerificationError, match="x\\^2 != 1 mod 4 \\(order 8\\)"):
            cycles._lifts_fully(8, 2, 1)
