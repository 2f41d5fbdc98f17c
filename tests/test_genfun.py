"""Tests for root finding and the partial-fraction evaluation."""
import math

import numpy as np
import pytest

from swapnet import cli, genfun
from swapnet.errors import MismatchError, NumericError
from swapnet.genfun import (
    ClosedForm,
    closed_form,
    compare_closed_vs_exact,
    denominator_derivative,
    distinct_roots_check,
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

    def test_to_dict_shape(self):
        doc = closed_form(3).to_dict()
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
        assert distinct_roots_check(n)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_analytic_half_checks_the_candidate(self, monkeypatch, n):
        # a B' vanishing at the lone repeated-root candidate n/(n-1) must fail the check
        real = genfun.denominator_derivative
        monkeypatch.setattr(genfun, "denominator_derivative",
                            lambda m, z: 0.0 if z == m / (m - 1) else real(m, z))
        assert not distinct_roots_check(n)

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

    def test_distinct_roots_check(self, solves):
        assert distinct_roots_check(8)
        assert solves == [8]
