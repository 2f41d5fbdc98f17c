"""Tests for the arithmetic kernel over Z_q[x]/(x^d - x^(d-1) - 1)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swapnet import ring
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
