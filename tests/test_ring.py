"""Tests for the arithmetic kernel over Z_q[x]/(x^d - x^(d-1) - 1)."""
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnet import ring
from swapnet.factor import Factorization
from swapnet.seqcore import exact_sequence, seq_stream


def mul_oracle(a, b, d, q):
    """Schoolbook product reduced one degree at a time, from the top."""
    prod = [0] * (2 * d - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += int(u) * int(v)
    for k in range(2 * d - 2, d - 1, -1):  # x^k = x^(k-1) + x^(k-d)
        prod[k - 1] += prod[k]
        prod[k - d] += prod[k]
    return [c % q for c in prod[:d]]


@st.composite
def ring_elements(draw):
    d = draw(st.integers(2, 9))
    q = draw(st.sampled_from([2, 3, 4, 7, 9, 50, 2 ** 31 - 1, 2 ** 40 + 15]))
    return d, q, draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))


class TestSquare:
    @given(ring_elements())
    @settings(max_examples=200)
    def test_matches_schoolbook(self, case):
        d, q, a = case
        got = ring.square(np.array(a, dtype=ring._dtype(d, q)), d, q)
        assert [int(c) for c in got] == mul_oracle(a, a, d, q)

    def test_d2_high_half_has_one_entry(self):
        # x * x = x^2 = x + 1; broadcasting the one high coefficient over
        # the whole low half would add it to x^1 twice
        x = np.array([0, 1], dtype=np.int64)
        assert ring.square(x, 2, 5).tolist() == [1, 1]


def largest_modulus(d, limbs):
    """The largest q of an int64 ring of order d whose FFT product takes at most ``limbs`` limbs."""
    lo, hi = 2, 2 ** 63
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fits = ring._dtype(d, mid) is np.int64 and ring.fft_limbs(d, mid)[0] <= limbs
        lo, hi = (mid, hi) if fits else (lo, mid)
    return lo


def all_top_square(d, q):
    """mul_oracle of the all-(q-1) vector by itself, in O(d): the product is a triangle."""
    prod = [(q - 1) ** 2 * min(k + 1, 2 * d - 1 - k) for k in range(2 * d - 1)]
    for k in range(2 * d - 2, d - 1, -1):
        prod[k - 1] += prod[k]
        prod[k - d] += prod[k]
    return [c % q for c in prod[:d]]


@st.composite
def crossover_elements(draw):
    """Elements on both sides of FFT_MIN_D, with moduli of one and of two limbs."""
    lo = ring.FFT_MIN_D
    d = draw(st.one_of(st.integers(lo - 6, lo + 6), st.integers(2 * lo - 3, 2 * lo + 3)))
    q = draw(st.sampled_from([2, 3, 7, d, 2 ** 16 + 1, largest_modulus(d, 1),
                              largest_modulus(d, 1) + 1, largest_modulus(d, 2)]))
    return d, q, draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))


class TestFFTProduct:
    """The exact real-FFT route of ``square``, from FFT_MIN_D coefficients per limb up."""

    @given(crossover_elements())
    @settings(max_examples=40)
    def test_matches_schoolbook_and_convolve(self, case):
        d, q, a = case
        a = np.array(a, dtype=np.int64)
        assert ring.square(a, d, q).tolist() == mul_oracle(a, a, d, q)
        assert ring._fft_square(a, d, q).tolist() == (np.convolve(a, a) % q).tolist()

    @pytest.mark.parametrize("limbs", [1, 2])
    def test_square_makes_one_transform_per_limb(self, monkeypatch, limbs):
        d = 2 * ring.FFT_MIN_D
        q = largest_modulus(d, limbs)
        assert ring.fft_limbs(d, q)[0] == limbs
        a = np.random.default_rng(limbs).integers(0, q, d)
        calls, inverse = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft
        monkeypatch.setattr(np.fft, "rfft", lambda v, n: calls.append(n) or rfft(v, n))
        monkeypatch.setattr(np.fft, "irfft", lambda v, n: inverse.append(n) or irfft(v, n))
        square = ring.square(a, d, q)
        assert len(calls) == limbs
        assert len(inverse) == limbs * (limbs + 1) // 2  # one per limb pair i <= j
        assert square.tolist() == mul_oracle(a, a, d, q)

    @pytest.mark.parametrize("limbs", [1, 2])
    def test_worst_case_operands_at_the_largest_modulus(self, limbs):
        d = 4096
        q = largest_modulus(d, limbs)
        count, width, size = ring.fft_limbs(d, q)
        assert count == limbs
        top = np.full(d, q - 1, dtype=np.int64)
        assert ring.square(top, d, q).tolist() == all_top_square(d, q)
        assert ring._fft_square(top, d, q).tolist() == (np.convolve(top, top) % q).tolist()
        # the float error the bound covers, measured on the largest limb
        limb = np.full(d, min(q - 1, 2 ** width - 1), dtype=np.int64)
        spectrum = np.fft.rfft(limb, size)
        raw = np.fft.irfft(spectrum * spectrum, size)[:2 * d - 1]
        exact = np.convolve(limb, limb).astype(float)
        assert np.abs(raw - exact).max() < ring.fft_error(d, int(limb[0]), size) < 0.5

    def test_worst_case_where_periods_leave_one_limb(self):
        # q = d is the largest modulus of a period; one limb holds up to d = 19856
        for d, limbs in ((19856, 1), (19857, 2)):
            assert ring.fft_limbs(d, d)[0] == limbs
            top = np.full(d, d - 1, dtype=np.int64)
            assert ring.square(top, d, d).tolist() == all_top_square(d, d)

    def test_bound_edges_pick_the_limb_count(self):
        d = 4096
        q = largest_modulus(d, 1)
        size = ring.fft_limbs(d, q)[2]
        assert size == 8192
        assert ring.fft_error(d, q - 1, size) < 0.5 <= ring.fft_error(d, q, size)
        assert ring.fft_limbs(d, q)[0] == 1 and ring.fft_limbs(d, q + 1)[0] == 2
        assert ring.fft_limbs(d, 4 * q)[:2] == (2, -(-(4 * q - 1).bit_length() // 2))
        assert ring.fft_limbs(10 ** 6, 10 ** 6)[0] == 2  # two limbs up to RING_LIMIT
        assert ring.fft_limbs(2, 2) == (1, 1, 4)
        assert ring.fft_error(d, 0, size) == 0

    def test_routes_at_the_crossover(self, monkeypatch):
        calls = []
        fft_square = ring._fft_square
        monkeypatch.setattr(ring, "_fft_square", lambda *args: calls.append(args[1]) or fft_square(*args))
        lo = ring.FFT_MIN_D
        for d in (lo - 1, lo):
            one = np.zeros(d, dtype=np.int64)
            one[0] = 1
            assert ring.square(one, d, d).tolist() == one.tolist()
        assert calls == [lo]
        q = largest_modulus(lo, 2)  # two limbs double the crossover
        ring.square(one, lo, q)
        assert calls == [lo]

    def test_exact_ints_stay_on_convolve(self, monkeypatch):
        monkeypatch.setattr(ring, "_fft_square", lambda *args: pytest.fail("FFT on object dtype"))
        d, q = 2 * ring.FFT_MIN_D, 2 ** 40 + 15
        assert ring._dtype(d, q) is object
        a = np.array([int(c) for c in np.random.default_rng(0).integers(0, q, d)], dtype=object)
        assert [int(c) for c in ring.square(a, d, q)] == mul_oracle(a, a, d, q)

    def test_bound_failure_raises_under_python_o(self, child_env):
        # one limb of 20 bits at d = 256 breaks the bound; -O must not silence the check
        code = ("import numpy as np\n"
                "from swapnet import ring\n"
                "from swapnet.errors import VerificationError\n"
                "ring.fft_limbs = lambda d, q: (1, 20, 512)\n"
                "a = np.full(256, 2 ** 20 - 2, dtype=np.int64)\n"
                "try:\n"
                "    ring.square(a, 256, 2 ** 20 - 1)\n"
                "except VerificationError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("FFT error bound ")
        assert proc.stdout.endswith(" >= 1/2 at d=256, q=1048575, 1 limbs\n")

    @pytest.mark.parametrize("size", [2 ** 4, 2 ** 10, 2 ** 16])
    def test_twiddles_are_within_the_stated_error(self, size):
        mpmath = pytest.importorskip("mpmath")
        impulse = np.zeros(size)
        impulse[1] = 1
        got = np.fft.rfft(impulse, size)  # X_k = exp(-2 pi i k / size)
        with mpmath.workdps(40):
            for k in range(0, size // 2 + 1, 2 * (size >> 12) + 1):  # odd stride, <= 1025 roots
                exact = mpmath.exp(-2j * mpmath.pi * k / size)
                assert abs(mpmath.mpc(complex(got[k])) - exact) < ring.TWIDDLE_ERROR


class TestXPower:
    @given(st.integers(2, 8), st.integers(2, 30), st.integers(0, 400), st.integers(0, 400))
    @settings(max_examples=100)
    def test_exponents_add(self, d, q, a, b):
        got = ring.x_power(a + b, d, q)
        assert got.tolist() == mul_oracle(ring.x_power(a, d, q), ring.x_power(b, d, q), d, q)

    def test_low_powers_are_monomials(self):
        for d in (2, 3, 7):
            for n in range(d):
                assert ring.x_power(n, d, 5).tolist() == [int(k == n) for k in range(d)]

    def test_coefficient_sum_is_the_term(self):
        for d in (2, 3, 5, 8):
            for q in (2, 6, 9):
                stream = seq_stream(d, q, 200)
                assert [int(ring.x_power(j, d, q).sum() % q) for j in range(200)] == stream

    def test_dtype_switches_to_exact_ints(self):
        assert ring.x_power(10, 4, 10 ** 9).dtype == np.int64
        q = 2 ** 32 + 15  # 4 * (q-1)^2 passes 2^63
        big = ring.x_power(300, 4, q)
        assert big.dtype == object
        assert int(big.sum() % q) == exact_sequence(4, 301)[300] % q


class TestIsOne:
    def test_period_returns_to_one(self):
        # the order-3 sequence mod 3 has period 8
        assert ring.is_one(ring.x_power(8, 3, 3))
        assert ring.is_one(ring.x_power(0, 3, 3))
        assert not any(ring.is_one(ring.x_power(n, 3, 3)) for n in range(1, 8))


def poly_mul(a, b, p):
    """Schoolbook product over F_p, trimmed."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] = (prod[i + j] + u * v) % p
    while prod and prod[-1] == 0:
        prod.pop()
    return prod


@st.composite
def fp_polys(draw, nonzero, maybe_zero=1):
    """A prime p and polynomials over F_p; the first ``nonzero`` are nonzero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 31]))
    polys = []
    for i in range(nonzero + maybe_zero):
        coeffs = draw(st.lists(st.integers(0, p - 1), max_size=12))
        if coeffs or i < nonzero:
            coeffs.append(draw(st.integers(1, p - 1)))
        polys.append(coeffs)
    return p, polys


class TestPolynomialsModP:
    @given(fp_polys(1))
    @settings(max_examples=200)
    def test_a_times_b_rem_b_is_zero(self, case):
        p, (b, a) = case
        quot, rem = ring.poly_divmod(poly_mul(a, b, p), b, p)
        assert rem == [] and quot == poly_mul(a, [1], p)

    @given(fp_polys(1))
    @settings(max_examples=200)
    def test_division_identity(self, case):
        p, (b, a) = case
        quot, rem = ring.poly_divmod(a, b, p)
        assert len(rem) < len(b)
        back = poly_mul(quot, b, p) + [0] * len(a)
        for i, c in enumerate(rem):
            back[i] = (back[i] + c) % p
        assert poly_mul(back, [1], p) == a

    @given(fp_polys(2))
    @settings(max_examples=200)
    def test_gcd_divides_both(self, case):
        p, (c, a, b) = case
        a, b = poly_mul(a, c, p), poly_mul(b, c, p)
        g = ring.poly_gcd(a, b, p)
        assert g[-1] == 1
        assert ring.poly_divmod(a, g, p)[1] == [] and ring.poly_divmod(b, g, p)[1] == []
        assert ring.poly_divmod(g, ring.poly_gcd(c, c, p), p)[1] == []  # the common factor divides g


class TestDistinctDegree:
    @pytest.mark.parametrize("d", [d for d in range(4, 41) if not Factorization.of(d).is_prime_power])
    def test_degrees_match_sympy(self, d):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for p, _ in Factorization.of(d).factors:
            split = ring.distinct_degree(d, p)
            got = Counter({k: (len(g) - 1) // k for k, g in split.items()})
            factors = sympy.Poly(x ** d - x ** (d - 1) - 1, x, modulus=p).factor_list()[1]
            assert got == Counter(g.degree() for g, _ in factors), (d, p)
            assert all(mult == 1 for _, mult in factors)  # squarefree since p | d

    @pytest.mark.parametrize("d,p", [(42, 2), (42, 3), (42, 7), (102, 2), (210, 2)])
    def test_products_match_sympy_past_40(self, d, p):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.galoistools import gf_ddf_zassenhaus
        f = [1, p - 1] + [0] * (d - 2) + [p - 1]  # f mod p, highest degree first
        want = {k: [int(c) for c in reversed(g)] for g, k in gf_ddf_zassenhaus(f, p, sympy.ZZ)}
        assert ring.distinct_degree(d, p) == want

    @pytest.mark.parametrize("d,p", [(6, 2), (10, 5), (12, 3), (22, 11)])
    def test_product_is_f(self, d, p):
        prod = [1]
        for g in ring.distinct_degree(d, p).values():
            prod = poly_mul(prod, g, p)
        assert prod == [p - 1] + [0] * (d - 2) + [p - 1, 1]

    def test_needs_p_dividing_d(self):
        with pytest.raises(ValueError):
            ring.distinct_degree(10, 3)
