"""Tests for the arithmetic kernel over Z_q[x]/(x^d - x^(d-1) - 1)."""
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
def ring_pairs(draw):
    d = draw(st.integers(2, 9))
    q = draw(st.sampled_from([2, 3, 4, 7, 9, 50, 2 ** 31 - 1, 2 ** 40 + 15]))
    coeffs = st.lists(st.integers(0, q - 1), min_size=d, max_size=d)
    return d, q, draw(coeffs), draw(coeffs)


class TestMul:
    @given(ring_pairs())
    @settings(max_examples=200)
    def test_matches_schoolbook(self, case):
        d, q, a, b = case
        dtype = ring._dtype(d, q)
        got = ring.mul(np.array(a, dtype=dtype), np.array(b, dtype=dtype), d, q)
        assert [int(c) for c in got] == mul_oracle(a, b, d, q)

    def test_d2_high_half_has_one_entry(self):
        # x * x = x^2 = x + 1; broadcasting the one high coefficient over
        # the whole low half would add it to x^1 twice
        x = np.array([0, 1], dtype=np.int64)
        assert ring.mul(x, x, 2, 5).tolist() == [1, 1]


class TestXPower:
    @given(st.integers(2, 8), st.integers(2, 30), st.integers(0, 400), st.integers(0, 400))
    @settings(max_examples=100)
    def test_exponents_add(self, d, q, a, b):
        got = ring.x_power(a + b, d, q)
        want = ring.mul(ring.x_power(a, d, q), ring.x_power(b, d, q), d, q)
        assert got.tolist() == want.tolist()

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
