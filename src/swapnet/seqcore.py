"""Binomial summation sequences, exactly and modulo m.

The order-``d`` sequence starts with ``d`` ones and satisfies

    term(j) = term(j - 1) + term(j - d)        for j >= d,

which is equivalent to the direct binomial sum

    term(j) = sum_{i=0}^{j // d} C(j - (d-1)*i, i).

Both routes are implemented independently (``exact_sequence`` walks the
recurrence, ``term_exact`` evaluates the sum) so that each one can serve
as the other's oracle.  Modular variants reduce everything into Z_m
without ever building large integers.
"""
from __future__ import annotations

import math
import re
from collections import deque
from itertools import islice

from .errors import InconclusiveError, InvalidModulusError, VerificationError, _check_int
from .factor import _check_prime, is_proven_prime


def _check_modulus(m: int) -> None:
    _check_int("modulus", m, 2, InvalidModulusError)


_ASCII_INT = "-?[0-9]+"  # an optional '-', then ASCII digits: int() also reads ' ', '+', '_' and other scripts


def _ascii_int(text: str) -> int:
    """An integer read from text (a CLI flag, SWAPNET_BUDGET, a seed, a gatelist header) by ``_ASCII_INT``."""
    if not re.fullmatch(_ASCII_INT, text):
        raise ValueError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def _pascal_rows(m: int, width: int, n_max: int):
    """Rows 0..n_max of Pascal's triangle mod m, each cut to columns 0..width.

    Row n is C(n, k) mod m for k <= min(n, width), built from row n-1 by
    the addition rule alone, so each row costs O(width).
    """
    row = [1]
    yield row
    for n in range(1, n_max + 1):
        row = [1] + [(a + b) % m for a, b in zip(row, row[1:])] + ([1] if n <= width else [])
        yield row


def binom_exact(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 outside the triangle."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_mod(n: int, k: int, m: int) -> int:
    """C(n, k) mod m without constructing the exact integer.

    For m that ``is_proven_prime`` proves prime, Lucas' theorem: C(n, k)
    is the product of C(n_i, k_i) over the base-m digits n_i and k_i, and
    each C(n_i, k_i) is a falling product over k_i!, which is invertible
    since k_i < m.  Any other m walks Pascal rows cut to min(k, n-k) + 1
    columns, so single queries stay cheap even for large n.
    """
    _check_modulus(m)
    _check_int("n", n)
    _check_int("k", k)
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    if is_proven_prime(m):
        result = 1
        while k:
            (n, ni), (k, ki) = divmod(n, m), divmod(k, m)
            if ki > ni:
                return 0
            num = den = 1
            for t in range(min(ki, ni - ki)):
                num, den = num * (ni - t) % m, den * (t + 1) % m
            result = result * num * pow(den, -1, m) % m
        return result
    for row in _pascal_rows(m, k, n):
        pass
    return row[k]


def term_exact(j: int, d: int) -> int:
    """The j-th sequence term as an exact integer, via the direct sum."""
    _check_int("order", d, 2)
    _check_int("j", j, 0)
    return sum(binom_exact(j - (d - 1) * i, i) for i in range(j // d + 1))


def term_exact_range(d: int, count: int) -> list[int]:
    """First ``count`` exact terms via the direct sum, batched.

    Keeps col[i] = C(j - (d-1)*i, i) for the current j.  Column i starts
    at j = d*i as C(i, i) = 1, and each step of j advances it exactly by
    C(n, i) = C(n-1, i) * n / (n-i), with no recurrence involved.
    Agrees elementwise with ``term_exact``.
    """
    _check_int("order", d, 2)
    _check_int("count", count, 0)
    out, col = [], []
    for j in range(count):
        col = [c * (j - (d - 1) * i) // (j - d * i) for i, c in enumerate(col)]
        if j % d == 0:
            col.append(1)
        out.append(sum(col))
    return out


def _terms(d: int, m: int | None = None):
    """term(0), term(1), ... forever, each reduced mod m unless m is None.

    The one loop that steps the recurrence.  ``window`` holds the last d
    terms, its left end term(j-d); both addends are below m, so one
    subtraction reduces their sum, and with m None the terms stay exact.
    """
    bound = math.inf if m is None else m
    yield from (1 for _ in range(d))  # no window yet, so a huge d serves a short count
    window = deque([1] * d)
    prev = 1
    while True:
        prev += window.popleft()
        if prev >= bound:
            prev -= bound
        window.append(prev)
        yield prev


def exact_sequence(d: int, count: int) -> list[int]:
    """First ``count`` exact terms via the order-d recurrence.

    Terms are strictly increasing from index d onward since every step
    adds two positive values.
    """
    _check_int("order", d, 2)
    _check_int("count", count, 0)
    return list(islice(_terms(d), count))


def term_mod(j: int, d: int, m: int) -> int:
    """term_exact(j, d) mod m: the coefficient sum of x^j in the ring.

    The d initial terms are all ones, so term j is the sum of the
    coefficients of x^j in Z_m[x]/(x^d - x^(d-1) - 1), which costs
    O(d^2 log j), or O(d log d log j) where ``ring.square`` takes the FFT
    (d >= ring.FFT_MIN_D per limb).  ``seq_stream`` walks the recurrence instead.
    """
    _check_int("order", d, 2)
    _check_modulus(m)
    _check_int("j", j, 0)
    from . import ring  # the only use of the ring, which needs numpy
    return int(ring.x_power(j, d, m).sum() % m)


def seq_stream(d: int, m: int, count: int) -> list[int]:
    """First ``count`` terms mod m, oldest first."""
    _check_int("order", d, 2)
    _check_modulus(m)
    _check_int("count", count, 0)
    return list(islice(_terms(d, m), count))


def first_window_return(order: int, modulus: int, budget: int) -> tuple[int | None, tuple[int, ...] | None]:
    """Steps until the window first returns to all ones, or None.

    The recurrence has trailing coefficient 1, hence is reversible mod
    any m and the sequence is purely periodic: the first return of the
    window equals the period.  Returns ``(P, tail)`` where ``tail`` is
    the (order-1)-tuple of terms immediately preceding the returned
    window, or ``(None, None)`` if no return happens within ``budget``
    advance steps.  Run backwards, term(j-d) = term(j) - term(j-1)
    gives d-1 zeros before the d initial ones, so by periodicity the
    tail is always d-1 zeros, and P > d.
    """
    _check_int("order", order, 2)
    _check_modulus(modulus)
    _check_int("budget", budget, 1)
    terms = _terms(order, modulus)
    kept = deque(islice(terms, order), maxlen=2 * order - 1)  # the tail, then the window
    run = order  # length of the current suffix run of ones
    # range, unlike islice, takes a budget past sys.maxsize
    for step, term in zip(range(1, budget + 1), terms):
        kept.append(term)
        if term != 1:
            run = 0
        else:
            run += 1
            if run >= order:
                return step, tuple(kept)[:order - 1]
    return None, None


def hockey_stick_check(j: int, k: int) -> bool:
    """Exact check of sum_{i=0}^{k} C(j+i, i) == C(j+k+1, k)."""
    _check_int("j", j, 0)
    _check_int("k", k, 0)
    lhs = sum(binom_exact(j + i, i) for i in range(k + 1))
    return lhs == binom_exact(j + k + 1, k)


def prime_binomial_residue(p: int, j: int) -> int:
    """C(p+j, p-1) mod p, verified against its residue pattern.

    For every j >= -1 the value is 1 exactly when j = p-1 (mod p) and 0
    otherwise; that pattern is asserted.  At j = -1 it reads C(p-1, p-1) = 1,
    and -1 = p-1 (mod p).
    """
    _check_prime(p)
    _check_int("j", j, -1)
    res = binom_mod(p + j, p - 1, p)
    expected = 1 if j % p == p - 1 else 0
    if res != expected:
        raise VerificationError(
            f"C({p}+{j}, {p}-1) mod {p} = {res}, expected {expected}"
        )
    return res


def lu_tsai_period(p: int, a: int, k: int) -> int:
    """Empirical period of j -> C(j, k) mod p^a for j >= k.

    Detects the smallest shift under which the sampled stretch is
    invariant and checks it against p^(a+e) with e = floor(log_p k).
    Samples three predicted periods, so the detected value is forced to
    be the true one.
    """
    _check_prime(p)
    _check_int("a", a, 1)
    _check_int("k", k, 1)
    e = 0
    while p ** (e + 1) <= k:
        e += 1
    predicted = p ** (a + e)
    vals = [row[k] for row in _pascal_rows(p ** a, k, k + 3 * predicted) if len(row) > k]
    limit = len(vals) // 2
    for period in range(1, limit + 1):
        if vals[period:] == vals[:-period]:
            if period != predicted:
                raise VerificationError(
                    f"detected period {period} for C(j,{k}) mod {p}^{a}, expected {predicted}"
                )
            return period
    raise InconclusiveError(
        f"no period <= {limit} found for C(j,{k}) mod {p}^{a}",
        steps=len(vals),
    )
