"""Tests for root finding and the partial-fraction evaluation."""
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from swapnet import cli, genfun
from swapnet.errors import MismatchError, NumericError
from swapnet.genfun import (
    ClosedForm,
    closed_form,
    compare_closed_vs_exact,
    denominator_derivative,
    eval_closed,
    find_roots,
    max_deviation,
    series_denominator,
)
from swapnet.seqcore import exact_sequence

# printed reciprocal roots and weights for orders 4 and 8
ALPHA4 = [-0.8191725134, 0.219447421 - 0.9144736630j, 0.219447421 + 0.9144736630j, 1.380277569]
BETA4 = [0.1305102698, 0.1610008758 + 0.1534011260j, 0.1610008758 - 0.1534011260j, 0.5474879784]
ALPHA8_DOM = 1.232054631
BETA8_DOM = 0.4313256714


def numpy_roots_oracle(coefficients: tuple[float, ...]) -> list[complex]:
    return sorted(
        (complex(z) for z in np.roots(list(reversed(coefficients)))),
        key=lambda z: (z.real, z.imag),
    )


def evaluate(coefficients: tuple[float, ...], z: complex) -> complex:
    return sum(c * z ** k for k, c in enumerate(coefficients))


def scalar_sweep(n: int, max_iter: int, blown: list | None = None) -> tuple[list[complex], float]:
    """The root iteration one Python complex at a time: (sorted roots, last best residual).

    The oracle for ``find_roots``, which must return the same roots bit
    for bit, or raise with this residual when it is not below ROOT_TOL.
    A given ``blown`` list gets the number of each sweep whose correction
    was not finite and was replaced by the cap.
    """
    monic = [-c for c in reversed(series_denominator(n))]

    def ev(z: complex) -> complex:
        acc = 0j
        for c in monic:
            acc = acc * z + c
        return acc

    seed = 0.4 + 0.9j
    roots = [seed ** (k + 1) for k in range(n)]
    best = float("inf")
    for sweep in range(1, max_iter + 1):
        moved = 0.0
        current = list(roots)
        for i in range(n):
            z = current[i]
            den = 1 + 0j
            for j in range(n):
                if j != i:
                    den *= z - current[j]
            if den == 0:
                den = complex(genfun.ROOT_TOL, genfun.ROOT_TOL)
            delta = ev(z) / den
            step = abs(delta)
            cap = 1.0 + abs(z)
            if not step < float("inf"):
                delta = complex(cap, 0.0)
                if blown is not None:
                    blown.append(sweep)
            elif step > cap:
                delta *= cap / step
            roots[i] = z - delta
            moved = max(moved, abs(delta))
        best = max(abs(ev(r)) for r in roots)
        if best < genfun.ROOT_TOL or moved < 1e-16:
            break
    return sorted(roots, key=lambda z: (z.real, z.imag)), best


def hex_parts(roots: list[complex]) -> list[tuple[str, str]]:
    return [(z.real.hex(), z.imag.hex()) for z in roots]


def assert_matches_scalar_sweep(n: int, max_iter: int = genfun.ROOT_MAX_ITER) -> None:
    want, best = scalar_sweep(n, max_iter)
    if best < genfun.ROOT_TOL:
        assert hex_parts(find_roots(n)) == hex_parts(want)
    else:
        with pytest.raises(NumericError) as err:
            find_roots(n)
        assert err.value.residual.hex() == best.hex()


class TestDenominator:
    def test_values_and_derivative(self):
        b = series_denominator(4)
        assert b == (1.0, -1.0, 0.0, 0.0, -1.0)
        assert evaluate(b, 0) == 1
        assert evaluate(b, 1) == -1
        # B'(z) = -1 - 4 z^3: its coefficients are (-1, 0, 0, -4)
        assert denominator_derivative(4, 0) == -1
        assert denominator_derivative(4, 1) == -5
        assert denominator_derivative(4, 2) == -33
        assert denominator_derivative(4, -1) == 3
        with pytest.raises(ValueError):
            series_denominator(1)


class TestFindRoots:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 16, 32, 64])
    def test_matches_numpy_oracle(self, n):
        mine = find_roots(n)
        ref = numpy_roots_oracle(series_denominator(n))
        assert len(mine) == n
        # roots are distinct, so nearest-match distance pins the multisets
        assert max(min(abs(a - b) for b in ref) for a in mine) < 1e-8
        assert max(min(abs(b - a) for a in mine) for b in ref) < 1e-8

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64])
    def test_residuals(self, n):
        b = series_denominator(n)
        for r in find_roots(n):
            assert abs(evaluate(b, r)) < 1e-12

    def test_reciprocal_root_values(self):
        alphas = [1 / r for r in find_roots(4)]
        alphas.sort(key=lambda z: (z.real, z.imag))
        assert abs(alphas[-1] - 1.380277569) < 1e-6
        assert abs(alphas[0] - (-0.8191725134)) < 1e-6
        alphas8 = [1 / r for r in find_roots(8)]
        assert abs(max(a.real for a in alphas8) - 1.232054631) < 1e-6

    def test_nonconvergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(genfun, "ROOT_MAX_ITER", 2)
        with pytest.raises(NumericError) as err:
            find_roots(16)
        assert err.value.residual is not None and err.value.residual > 1e-12


class TestBitIdentity:
    """``find_roots`` against the same iteration one Python complex at a time."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_every_root_bit_for_bit(self, n):
        assert_matches_scalar_sweep(n)

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 5, 12])
    @pytest.mark.parametrize("n", [3, 16, 40])
    def test_cut_short_runs_report_the_same_residual(self, monkeypatch, n, max_iter):
        # ROOT_MAX_ITER is read at call time
        monkeypatch.setattr(genfun, "ROOT_MAX_ITER", max_iter)
        assert_matches_scalar_sweep(n, max_iter)

    def test_capped_step_recovery_bit_for_bit(self):
        # n = 187 converges only after non-finite corrections, which the cap replaces
        blown = []
        want, best = scalar_sweep(187, genfun.ROOT_MAX_ITER, blown)
        assert blown and best < genfun.ROOT_TOL
        assert hex_parts(find_roots(187)) == hex_parts(want)

    @pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                        reason="set SWAPNET_LONG=1 for n = 65..160, 200 and 241..295 (minutes of scalar sweeps)")
    def test_high_orders_bit_for_bit(self):
        # 241, 250, 284, 285 and 295 converge through the capped step too
        for n in [*range(65, 161), 200, 241, 250, 284, 285, 295]:
            assert_matches_scalar_sweep(n)

    def test_working_memory_is_linear_in_n(self, monkeypatch):
        # one sweep at n = 10^4; an n x n matrix of differences alone would be 1.6 GB
        monkeypatch.setattr(genfun, "ROOT_MAX_ITER", 1)
        tracemalloc.start()
        try:
            with pytest.raises(NumericError):
                find_roots(10 ** 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 10 ** 6


class TestClosedForm:
    def test_printed_values_order4(self):
        cf = closed_form(4)
        for got, want in zip(cf.alphas, ALPHA4):
            assert abs(got - want) < 1e-6
        for got, want in zip(cf.betas, BETA4):
            assert abs(got - want) < 1e-6

    def test_printed_values_order8(self):
        cf = closed_form(8)
        assert abs(cf.alphas[-1] - ALPHA8_DOM) < 1e-6
        assert abs(cf.betas[-1] - BETA8_DOM) < 1e-6

    def test_golden_ratio_pair(self):
        cf = closed_form(2)
        phi = (1 + math.sqrt(5)) / 2
        assert abs(cf.alphas[-1] - phi) < 1e-9
        assert abs(cf.alphas[0] - (1 - phi)) < 1e-9
        seq = exact_sequence(2, 25)
        for j, target in enumerate(seq):
            assert eval_closed(cf, j)[1] == target

    def test_weight_sums(self):
        for n in (2, 3, 4, 8, 11):
            cf = closed_form(n)
            assert abs(sum(cf.betas) - 1) < 1e-9
            assert abs(sum(b * a for a, b in zip(cf.alphas, cf.betas)) - 1) < 1e-9

    def test_conjugate_closure(self):
        for n in (4, 8, 9):
            cf = closed_form(n)
            pairs = list(zip(cf.alphas, cf.betas))
            for a, b in pairs:
                match = min(pairs, key=lambda p: abs(p[0] - a.conjugate()))
                assert abs(match[0] - a.conjugate()) < 1e-9
                assert abs(match[1] - b.conjugate()) < 1e-9

    def test_residual_small(self):
        assert closed_form(4).residual < 1e-7
        assert closed_form(8).residual < 1e-7

    def test_dominant_root_growth(self):
        cf = closed_form(4)
        dominant = max(abs(a) for a in cf.alphas)
        seq = exact_sequence(4, 51)
        assert seq[50] / seq[49] == pytest.approx(dominant, rel=0.01)

    @pytest.mark.parametrize("roots, msg", [
        ([0.5, 0.5], "reciprocal roots 0 and 1 coincide"),
        ([0.5 + 0.5j, 0.6 - 0.1j], "not closed under conjugation"),
        ([0.5, 2.0], "weights sum to"),  # real and distinct, but not the roots of 1 - z - z^2
    ])
    def test_guards_refuse_wrong_roots(self, monkeypatch, roots, msg):
        monkeypatch.setattr(genfun, "find_roots", lambda n: [complex(r) for r in roots])
        with pytest.raises(NumericError, match=msg):
            closed_form(2)

    def test_to_dict_shape(self, capsys):
        assert cli.main(["closed-form", "--n", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3
        assert len(doc["alphas"]) == len(doc["betas"]) == 3
        assert all(len(pair) == 2 for pair in doc["alphas"])


class TestEvalClosed:
    def test_examples(self):
        assert eval_closed(closed_form(4), 25)[1] == 1728
        assert eval_closed(closed_form(8), 25)[1] == 78
        for n in (2, 4, 8):
            approx, rounded = eval_closed(closed_form(n), 0)
            assert rounded == 1 and abs(approx - 1) < 1e-9

    def test_imaginary_residue_guard(self):
        bad = ClosedForm(2, (1j, 2 + 0j), (0.5 + 0j, 0.5 + 0j), 0.0)
        with pytest.raises(NumericError):
            eval_closed(bad, 1)


class TestDistinctRoots:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_distinct(self, n):
        roots = find_roots(n)
        assert all(abs(a - b) > genfun.DISTINCT_TOL for i, a in enumerate(roots) for b in roots[i + 1:])

    def test_quadratic_discriminant(self):
        # z^2 - z - 1 has discriminant 5, so its roots cannot collide
        r1, r2 = find_roots(2)
        assert abs((r1 - r2) ** 2 - 5) < 1e-9


class TestCompare:
    def test_order4_full_prefix(self):
        assert compare_closed_vs_exact(4, 26, 1e-6) < 1e-6

    def test_order8_full_prefix(self):
        assert compare_closed_vs_exact(8, 26, 1e-6) < 1e-6

    def test_order2_prefix(self):
        assert compare_closed_vs_exact(2, 30, 1e-6) < 1e-6

    def test_mismatch_reports_index(self):
        with pytest.raises(MismatchError) as err:
            compare_closed_vs_exact(4, 26, 1e-16)
        assert err.value.index is not None


@pytest.mark.parametrize("call,message", [
    (lambda cf: eval_closed(cf, -1), "j must be >= 0"),
    (lambda cf: eval_closed(cf, -10), "j must be >= 0"),
    (lambda cf: eval_closed(cf, True), "j must be an integer, got True"),
    (lambda cf: eval_closed(cf, 2.0), "j must be an integer, got 2.0"),
    (lambda cf: series_denominator(1), "order must be >= 2"),
    (lambda cf: series_denominator(True), "order must be an integer, got True"),
    (lambda cf: series_denominator(4.0), "order must be an integer, got 4.0"),
], ids=["-1", "-10", "j-bool", "j-float", "order-1", "order-bool", "order-float"])
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call(closed_form(4))
    assert type(info.value) is ValueError and str(info.value) == message


class TestMaxDeviation:
    def test_infinite_tol_gives_the_residual(self):
        cf = closed_form(8)
        assert max_deviation(cf, 51, math.inf) == cf.residual

    def test_matches_compare(self):
        for n in (2, 4, 8):
            assert max_deviation(closed_form(n), 26, 1e-6) == compare_closed_vs_exact(n, 26, 1e-6)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_tol_is_a_number_at_least_zero(self, tol):
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            max_deviation(closed_form(4), 26, tol)


class TestOneSolve:
    """Each entry point runs the root iteration exactly once."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = genfun.find_roots

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(genfun, "find_roots", spy)
        return calls

    def test_cli(self, solves, capsys):
        assert cli.main(["closed-form", "--n", "8", "--count", "40", "--json"]) == 0
        assert solves == [8]

    def test_compare(self, solves):
        compare_closed_vs_exact(4, 26, 1e-6)
        assert solves == [4]
