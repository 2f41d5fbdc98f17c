"""A second route to the prime-power periods, with no numpy and nothing from swapnet.

For d = p^m the period of the order-d sequence mod d is the order of x in
Z_d[x]/(x^d - x^(d-1) - 1), predicted to be N = p^(m-1) * (p^(2m) - 1).
This file checks x^N = 1 and x^(N/r) != 1 for every prime r | N with its
own arithmetic: a product is one Python int multiply (Kronecker
substitution), reduced by x^k = x^(k-1) + x^(k-d); N is factored by trial
division.
"""
import os

import pytest

# every p^m with m >= 2 from 4 to 343
PRIME_POWERS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 2), (3, 3),
                (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2), (17, 2)]


def prime_factors(n):
    """The distinct primes of n > 1, by trial division."""
    primes, r = [], 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return primes + [n] if n > 1 else primes


def mul(a, b, d, q):
    """a * b in Z_q[x]/(x^d - x^(d-1) - 1), for coefficient lists of length d, lowest first."""
    width = (d * (q - 1) ** 2).bit_length() // 8 + 1  # bytes that hold any product coefficient

    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    raw = (pack(a) * pack(b)).to_bytes(width * (2 * d - 1), "little")
    prod = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    for k in reversed(range(d, 2 * d - 1)):  # x^k = x^(k-1) + x^(k-d), from the top down
        prod[k - 1] += prod[k]
        prod[k - d] += prod[k]
    return [c % q for c in prod[:d]]


def x_power(n, d, q):
    """x^n in Z_q[x]/(x^d - x^(d-1) - 1) by square-and-multiply."""
    r = [1] + [0] * (d - 1)
    for bit in bin(n)[2:]:
        r = mul(r, r, d, q)
        if bit == "1":
            r = [r[-1]] + r[:-1]  # x * r, then x^d = x^(d-1) + 1
            r[-1] = (r[-1] + r[0]) % q
    return r


def assert_period(p, m):
    d = p ** m
    n = p ** (m - 1) * (p ** (2 * m) - 1)
    one = [1] + [0] * (d - 1)
    assert x_power(n, d, d) == one, d
    for r in prime_factors(n):
        assert x_power(n // r, d, d) != one, (d, r)


def test_prime_power_table():
    found = [q for q in range(4, 344) if len(prime_factors(q)) == 1 and prime_factors(q) != [q]]
    assert sorted(p ** m for p, m in PRIME_POWERS) == found and len(found) == 18


def test_coefficient_sums_are_the_sequence():
    # the d initial terms are ones, so term j is the coefficient sum of x^j
    for d, q in ((2, 10 ** 6), (4, 7), (5, 5), (9, 9)):
        terms = [1] * d
        for j in range(d, 60):
            terms.append(terms[j - 1] + terms[j - d])
        assert [sum(x_power(j, d, q)) % q for j in range(60)] == [t % q for t in terms], d


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_period_is_p_squared_minus_one(p):
    assert_period(p, 1)


@pytest.mark.parametrize("p,m", PRIME_POWERS)
def test_period_is_predicted(p, m):
    assert_period(p, m)


@pytest.mark.skipif(not os.environ.get("SWAPNET_LONG"),
                    reason="set SWAPNET_LONG=1 for d = 729, 3125, 4096 (seconds each) and 16807 (~15 s)")
@pytest.mark.parametrize("p,m", [(3, 6), (5, 5), (2, 12), (7, 5)])
def test_period_is_predicted_long(p, m):
    assert_period(p, m)
