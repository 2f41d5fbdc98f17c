"""Arithmetic in R_q = Z_q[x]/(x^d - x^(d-1) - 1).

The sequence's generating function is 1/(1 - z - z^d), so the sequence
mod q is the impulse response of the order-d recurrence: its period is
the multiplicative order of x in R_q, and term j is the coefficient sum
of x^j (the d initial terms are all ones).  Elements are numpy vectors
of d coefficients, lowest degree first.

Every product the package forms is a square, since ``x_power`` squares
and shifts.  ``square`` forms the 2d - 1 coefficients of a^2 in one of
two ways and folds them once by x^d = x^(d-1) + 1.  For exact ints
(dtype object, where d (q-1)^2 passes int64), and for d below FFT_MIN_D
per limb (below), it is ``np.convolve``, O(d^2).  Otherwise it is an
exact real-FFT square, O(d log d): numpy's ``rfft`` of the operand zero
padded to the power of two N >= 2d - 1, a pointwise square, ``irfft``
and ``rint``.  Rounding gives the exact integers when the float64 error
is below 1/2, which ``fft_error`` bounds from d, the largest entry and
N before any transform runs, and which ``square`` checks on every call:

- Percival (Math. Comp. 72 (2003), 387-395, Theorem 5.1): the cyclic
  convolution z of x and y by radix-2 transforms of length 2^n, in
  floating point with unit roundoff eps and twiddles within beta of the
  exact roots of unity, has |z' - z|_inf < |x| |y| ((1 + eps)^(3n)
  (1 + eps sqrt 5)^(3n+1) (1 + beta)^(3n) - 1), |.| the Euclidean norm.
- Operands have d entries in [0, t], so |x| |y| <= d t^2, and the zero
  padding to N changes neither norm.  Float64 has eps = 2^-53.
- Twiddle error: the bound takes beta = TWIDDLE_ERROR = 2^-50 = 8 eps.
  numpy's transform of a unit impulse, which passes its twiddles through
  every layer, lies within 2.1 eps of exp(-2 pi i k / N) for N up to
  2^21 (numpy 2.4; tests/test_ring.py checks it against 40-digit roots).
- Layers: pocketfft runs a power-of-two transform as radix-4 passes;
  each does the additions of two radix-2 layers with one twiddle product
  where those do two.  A real transform of length N is a complex
  transform of length N/2 plus one extra butterfly layer, with twiddles
  of its own, that splits the halves.  The bound charges each transform
  n = log2 N + 1 layers, one more than a complex transform of length N.
- (1 + u)^k <= exp(k u), and exp(y) - 1 <= y / (1 - y) for 0 <= y < 1,
  so the error is below d t^2 y / (1 - y) with
  y = (3n (1 + beta/eps) + (3n + 1) sqrt 5) eps.  sqrt 5 is taken as
  2.2361, which more than covers the rounding of this float64 sum.
- y > 2^-50, so error < 1/2 forces d t^2 < 2^49: every exact coefficient,
  and every input to the transforms, is an integer below 2^53.

Where one limb (t = q - 1) fails the bound, the operand is split into
L limbs of s = ceil(b / L) bits, b the bit length of q - 1, so
t = 2^s - 1 and a = sum a_i 2^(s i).  L is the smallest count that
passes.  For q <= d, as in every period, L = 1 up to d = 19856 and
L = 2 from there to RING_LIMIT.  Each limb is transformed once, and each
limb product c_ij with i <= j is rounded exactly on its own, doubled for
i < j as c_ij = c_ji: L forward and L (L+1)/2 inverse transforms.  Horner's
rule in 2^s mod q recombines sum c_ij 2^(s (i+j)) mod q in int64: every
step stays below q^2, and an int64 vector has d (q-1)^2 < 2^63.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import VerificationError, _check_int

# measured crossover (2-vCPU x86_64, numpy 2.4): a one-limb squaring at d = 192 took
# 39.7 us by np.convolve and 45.4 us by FFT, at d = 208 47.9 and 44.1 us; L limbs
# cost about L times more
FFT_MIN_D = 200
TWIDDLE_ERROR = 2.0 ** -50  # beta, the bound's allowance for each twiddle of pocketfft
EPS = 2.0 ** -53  # unit roundoff of float64


def _dtype(d: int, q: int):
    # a product coefficient is a sum of d terms below q^2; past int64, exact ints
    return np.int64 if d * (q - 1) ** 2 < 2 ** 63 else object


def fft_error(d: int, top: int, size: int) -> float:
    """Bound on the float64 error of one FFT product (module docstring).

    The operands have d entries in [0, top] and the real transforms have
    length ``size``, a power of two.
    """
    layers = size.bit_length()  # log2(size) + 1: the real transform's extra layer
    y = (3 * layers * (1 + TWIDDLE_ERROR / EPS) + (3 * layers + 1) * 2.2361) * EPS
    return d * top * top * y / (1 - y)


@functools.lru_cache(maxsize=None)
def fft_limbs(d: int, q: int) -> tuple[int, int, int]:
    """(L, s, N): the fewest limbs of s bits whose FFT product of length N is exact."""
    size = 1 << (2 * d - 2).bit_length()  # the power of two >= 2d - 1
    bits = (q - 1).bit_length()
    count = 1
    while fft_error(d, min(q - 1, 2 ** -(-bits // count) - 1), size) >= 0.5:
        count += 1
    return count, -(-bits // count), size


def _fft_square(a: np.ndarray, d: int, q: int) -> np.ndarray:
    """The 2d - 1 coefficients of a^2 mod q, by exact real FFTs of int64 limbs."""
    count, width, size = fft_limbs(d, q)
    error = fft_error(d, min(q - 1, 2 ** width - 1), size)
    if error >= 0.5:
        raise VerificationError(f"FFT error bound {error} >= 1/2 at d={d}, q={q}, {count} limbs")
    limbs = [a] if count == 1 else [a >> width * i & 2 ** width - 1 for i in range(count)]
    spectra = [np.fft.rfft(limb, size) for limb in limbs]
    sums = [0] * (2 * count - 1)  # sums[k]: the limb products of weight 2^(s k)
    for i in range(count):
        for j in range(i, count):
            c = np.rint(np.fft.irfft(spectra[i] * spectra[j], size)[:2 * d - 1]).astype(np.int64)
            sums[i + j] += c if i == j else 2 * c  # c_ji = c_ij is not formed
    prod = sums[-1] % q
    for c in reversed(sums[:-1]):  # Horner in 2^s, every step below q^2
        prod = (prod * (2 ** width % q) + c % q) % q
    return prod


def square(a: np.ndarray, d: int, q: int) -> np.ndarray:
    """a^2 in R_q, for a coefficient vector of length d."""
    if a.dtype == object or d < FFT_MIN_D * fft_limbs(d, q)[0]:
        prod = np.convolve(a, a) % q
    else:
        prod = _fft_square(a, d, q)
    # x^d = x^(d-1) + 1: degree k >= d flows to k-1 and k-d, from the top down,
    # so the d-1 high coefficients reach the low half as a reversed cumulative sum
    s = prod[:d - 1:-1].cumsum()[::-1]
    low = prod[:d]
    low[:d - 1] += s  # s has d-1 entries; a bare `low += s` would broadcast at d=2
    low[d - 1] += s[0]
    return low % q


def x_power(n: int, d: int, q: int) -> np.ndarray:
    """x^n in R_q, n >= 0, by square-and-multiply; a multiply by x is one shift."""
    _check_int("n", n, 0)
    low_bits = 0
    while n >> low_bits >= d:
        low_bits += 1
    r = np.zeros(d, dtype=_dtype(d, q))
    r[n >> low_bits] = 1  # the leading bits of n give a power below d: a bare monomial
    for i in reversed(range(low_bits)):
        r = square(r, d, q)
        if n >> i & 1:  # x * r, then x^d -> x^(d-1) + 1: only r[d-1] can pass q
            carry = r[d - 1]
            r[1:] = r[:-1]
            r[0] = carry
            r[d - 1] = (r[d - 1] + carry) % q
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
