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


# Polynomials over F_p, for splitting f = x^d - x^(d-1) - 1 mod p: lists of
# ints, lowest degree first, with no trailing zeros (the zero polynomial is []).

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by nonzero b over F_p."""
    r = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(r) - db, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = r[i + db] * inv % p
        if c:
            for j, v in enumerate(b):
                r[i + j] = (r[i + j] - c * v) % p
    return _trim(quot), _trim(r[:db])


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b over F_p ([] when both are zero)."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def distinct_degree(d: int, p: int) -> dict[int, list[int]]:
    """{k: g_k}, where g_k is the product of the degree-k irreducible factors of f mod p.

    Distinct-degree factorisation: g_k = gcd(x^(p^k) - x, rest), with x^(p^k)
    from ``x_power`` in R_p, since every g_k divides f; the gcd's first
    division reduces it mod rest.  It assumes f is squarefree mod p, which
    holds whenever p | d: then f' = x^(d-2) and f(0) = -1.
    """
    if d % p:
        raise ValueError(f"f is split only mod a prime p dividing d, got d={d}, p={p}")
    rest = [p - 1] + [0] * (d - 2) + [p - 1, 1]  # f mod p
    split = {}
    k = 1
    while 2 * k < len(rest):  # otherwise rest has at most one factor left
        h = x_power(p ** k, d, p).tolist()
        h[1] = (h[1] - 1) % p  # x^(p^k) - x; d >= 2, so h has a degree-1 slot
        g = poly_gcd(_trim(h), rest, p)
        if len(g) > 1:
            split[k] = g
            rest = poly_divmod(rest, g, p)[0]
        k += 1
    if len(rest) > 1:
        split[len(rest) - 1] = rest  # what is left is irreducible
    return split
