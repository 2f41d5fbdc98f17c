"""Arithmetic in R_q = Z_q[x]/(x^d - x^(d-1) - 1).

The sequence's generating function is 1/(1 - z - z^d), so the sequence
mod q is the impulse response of the order-d recurrence: its period is
the multiplicative order of x in R_q, and term j is the coefficient sum
of x^j (the d initial terms are all ones).  Elements are numpy vectors
of d coefficients, lowest degree first.
"""
from __future__ import annotations

import numpy as np


def _dtype(d: int, q: int):
    # a product coefficient is a sum of d terms below q^2; past int64, exact ints
    return np.int64 if d * (q - 1) ** 2 < 2 ** 63 else object


def mul(a: np.ndarray, b: np.ndarray, d: int, q: int) -> np.ndarray:
    """a * b in R_q, for coefficient vectors of length d."""
    prod = np.convolve(a, b) % q
    # x^d = x^(d-1) + 1: degree k >= d flows to k-1 and k-d, from the top down,
    # so the d-1 high coefficients reach the low half as a reversed cumulative sum
    s = np.cumsum(prod[:d - 1:-1])[::-1]
    low = prod[:d]
    low[:d - 1] += s  # s has d-1 entries; a bare `low += s` would broadcast at d=2
    low[d - 1] += s[0]
    return low % q


def x_power(n: int, d: int, q: int) -> np.ndarray:
    """x^n in R_q by square-and-multiply; a multiply by x is one shift."""
    low_bits = 0
    while n >> low_bits >= d:
        low_bits += 1
    r = np.zeros(d, dtype=_dtype(d, q))
    r[n >> low_bits] = 1  # the leading bits of n give a power below d: a bare monomial
    for i in reversed(range(low_bits)):
        r = mul(r, r, d, q)
        if n >> i & 1:
            carry = r[d - 1]
            r = np.roll(r, 1)  # x * r, then x^d -> x^(d-1) + 1
            r[d - 1] += carry
            r %= q
    return r


def is_one(a: np.ndarray) -> bool:
    """True iff a is the unit of R_q."""
    return a[0] == 1 and not a[1:].any()
