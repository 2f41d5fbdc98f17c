"""Partial-fraction closed form for the order-n sequence.

The ordinary generating function of the sequence is 1/(1 - z - z^n).
Writing the denominator's roots as b_1..b_n and their reciprocals as
alpha_1..alpha_n, the terms evaluate as

    term(j) = sum_l beta_l * alpha_l^j,
    beta_l  = -alpha_l / B'(1/alpha_l),   B(z) = 1 - z - z^n.

The denominator has distinct roots, so the expansion needs no
polynomial-in-j correction terms.  A repeated root needs B'(z) =
-1 - n z^(n-1) = 0, so z^(n-1) = -1/n; then B(z) = 1 - z(1 + z^(n-1)) = 0
gives z = n/(n-1), which is positive and real, so its power cannot be
-1/n.  ``closed_form`` still refuses two computed roots that coincide,
which only a failed solve can produce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MismatchError, NumericError, SizeBudgetError, _check_int
from .seqcore import exact_sequence

ROOT_TOL = 1e-12
ROOT_MAX_ITER = 2000
DISTINCT_TOL = 1e-9
IMAG_TOL = 1e-6
DEGREE_LIMIT = 10 ** 6  # largest order n whose denominator is built


def series_denominator(n: int) -> tuple[float, ...]:
    """Coefficients of B(z) = 1 - z - z^n, constant term first.

    n above DEGREE_LIMIT is refused before anything is built.
    """
    _check_int("order", n, 2)
    if n > DEGREE_LIMIT:
        raise SizeBudgetError(f"order {n} exceeds the {DEGREE_LIMIT} degree limit")
    return (1.0, -1.0) + (0.0,) * (n - 2) + (-1.0,)


def denominator_derivative(n: int, z: complex) -> complex:
    """B'(z) = -1 - n z^(n-1)."""
    return -1 - n * z ** (n - 1)


def _values(zr, zi, monic):
    """p(z_i) and prod_{j != i} (z_i - z_j) for every estimate, each as (real, imaginary) arrays.

    Row 0 of (ar, ai) runs Horner's rule for p and row 1 the products, so
    one complex product serves both: column step j multiplies row 0 by
    z_i and row 1 by z_i - z_j, adds ``monic[j + 1]`` to row 0, and puts
    back row 1's entry j, which must skip its factor z_j - z_j.
    """
    zero = np.zeros_like(zr)
    ar = np.array([zero * zr - zero * zi + monic[0], np.ones_like(zr)])  # Horner's first step from 0
    ai = np.array([zero * zi + zero * zr + 0.0, zero])
    br, bi = np.array([zr, zr]), np.array([zi, zi])
    xr, xi = br[1], bi[1]  # z_i - z_j
    t, u = np.empty_like(ar), np.empty_like(ar)
    add, sub, mul = np.add, np.subtract, np.multiply
    for j, c in enumerate(monic[1:]):
        sub(zr, zr[j], out=xr)
        sub(zi, zi[j], out=xi)
        keep = ar[1, j], ai[1, j]
        # (ar br - ai bi, ar bi + ai br); the imaginary part goes to t, which then swaps with ai
        add(mul(ar, bi, out=t), mul(ai, br, out=u), out=t)
        sub(mul(ar, br, out=ar), mul(ai, bi, out=u), out=ar)
        ai, t = t, ai
        horner_r, horner_i = ar[0], ai[0]
        add(horner_r, c, out=horner_r)  # a float c adds as the complex (c, 0.0)
        add(horner_i, 0.0, out=horner_i)
        ar[1, j], ai[1, j] = keep
    return (ar[0], ai[0]), (ar[1], ai[1])


def _correction(zr, zi, num, den):
    """The capped corrections num / den, as the real and imaginary arrays CPython would give."""
    (ar, ai), (br, bi) = num, den
    zero = (br == 0) & (bi == 0)
    br, bi = np.where(zero, ROOT_TOL, br), np.where(zero, ROOT_TOL, bi)
    # Smith's quotient (_Py_c_quot): scale by the larger part of den, NaN if a part is NaN
    by_real, by_imag = np.abs(br) >= np.abs(bi), np.abs(bi) >= np.abs(br)
    ratio = bi / br
    scale = br + bi * ratio
    qr, qi = (ar + ai * ratio) / scale, (ai - ar * ratio) / scale
    ratio = br / bi
    scale = br * ratio + bi
    qr = np.where(by_real, qr, np.where(by_imag, (ar * ratio + ai) / scale, np.nan))
    qi = np.where(by_real, qi, np.where(by_imag, (ai * ratio - ar) / scale, np.nan))
    step, cap = np.hypot(qr, qi), 1.0 + np.hypot(zr, zi)
    blown = ~(step < np.inf)
    shrink = ~blown & (step > cap)
    f = cap / step  # delta *= f multiplies by the complex (f, 0.0)
    qr, qi = (np.where(blown, cap, np.where(shrink, qr * f - qi * 0.0, qr)),
              np.where(blown, 0.0, np.where(shrink, qr * 0.0 + qi * f, qi)))
    return qr, qi


def find_roots(n: int) -> list[complex]:
    """All n complex roots of B(z) by simultaneous (all-at-once) iteration.

    Starts every root estimate on the deterministic spiral
    (0.4 + 0.9i)^k, applies the simultaneous correction
    p(z_i) / prod_{j != i} (z_i - z_j) to the monic p = -B, each step
    capped at 1 + |z_i|, and stops once every residual |p(root)| is below
    ``ROOT_TOL`` or ``ROOT_MAX_ITER`` sweeps are spent; then any residual
    not below ``ROOT_TOL``, NaN included, raises NumericError.  Roots come
    back sorted by (real, imaginary).

    Every correction of a sweep reads the estimates the sweep started
    from (Jacobi style), so the n corrections run side by side: the real
    and imaginary parts are float64 arrays, and a sweep is n column steps
    over them, in O(n) memory.  The roots are bit for bit those of the
    same iteration run one complex number at a time in CPython, because
    each complex operation is written out as CPython computes it, one
    separately rounded float64 ufunc per product and sum: the product as
    (ar br - ai bi, ar bi + ai br); the quotient by Smith's method; a
    float added to or multiplying a complex as the complex (c, 0.0), so
    an imaginary part gains ``+ 0.0``; ``abs`` as ``hypot``.  numpy's
    complex128 ufuncs are not used: their multiply may fuse a
    multiply-add and their divide multiplies by a reciprocal, each of
    which moves the last bit.  The products run left to right from 1,
    and the residual that ends one sweep is the next sweep's numerator.
    """
    monic = [-c for c in reversed(series_denominator(n))]  # leading coefficient first
    seed = 0.4 + 0.9j
    roots = [seed ** (k + 1) for k in range(n)]
    zr, zi = np.array([z.real for z in roots]), np.array([z.imag for z in roots])
    best = float("inf")
    # early sweeps overflow to inf and NaN exactly as the complex numbers do
    with np.errstate(all="ignore"):
        num, den = _values(zr, zi, monic)
        for _ in range(ROOT_MAX_ITER):
            qr, qi = _correction(zr, zi, num, den)
            zr, zi = zr - qr, zi - qi
            # Python's max, as the scalar loop takes it: a NaN after the first item is passed over
            moved = max([0.0, *np.hypot(qr, qi).tolist()])
            num, den = _values(zr, zi, monic)
            best = max(np.hypot(*num).tolist())
            if best < ROOT_TOL or moved < 1e-16:
                break
    if not best < ROOT_TOL:  # a NaN residual, from estimates that overflowed, fails too
        raise NumericError(f"root iteration did not reach residual {ROOT_TOL} (best {best:.3e})",
                           residual=best)
    return sorted(map(complex, zr.tolist(), zi.tolist()), key=lambda z: (z.real, z.imag))


@dataclass(frozen=True)
class ClosedForm:
    """Reciprocal roots and weights evaluating the sequence terms.

    ``residual`` is the largest deviation |evaluated - exact| observed
    over the first 51 terms at construction.
    """

    order: int
    alphas: tuple[complex, ...]
    betas: tuple[complex, ...]
    residual: float


def closed_form(n: int) -> ClosedForm:
    """Roots, weights, and the observed accuracy for order n.

    Raises NumericError if the computed data violates what the partial
    fraction expansion guarantees: pairwise-distinct reciprocal roots,
    conjugate closure, and weights summing to the first two terms; and
    MismatchError if the first 51 terms do not round to the sequence.
    """
    alphas = sorted((1 / r for r in find_roots(n)), key=lambda z: (z.real, z.imag))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(alphas[i] - alphas[j]) <= DISTINCT_TOL:
                raise NumericError(f"reciprocal roots {i} and {j} coincide within {DISTINCT_TOL}")
    betas = [-a / denominator_derivative(n, 1 / a) for a in alphas]
    for a in alphas:
        if min(abs(b - a.conjugate()) for b in alphas) > DISTINCT_TOL:
            raise NumericError("reciprocal roots are not closed under conjugation")
    for moment, label in ((sum(betas), "weights"), (sum(b * a for a, b in zip(alphas, betas)), "first moment")):
        if abs(moment - 1.0) > 1e-9:
            raise NumericError(f"{label} sum to {moment}, expected 1")
    cf = ClosedForm(n, tuple(alphas), tuple(betas), 0.0)
    return replace(cf, residual=max_deviation(cf, 51, math.inf))


def eval_closed(cf: ClosedForm, j: int) -> tuple[float, int]:
    """Evaluate the expansion at j; returns (real value, nearest int).

    The imaginary parts of the summands must cancel; a residue beyond
    1e-6 (relative to the value) means the data is unusable.
    """
    _check_int("j", j, 0)
    total = sum(b * a ** j for a, b in zip(cf.alphas, cf.betas))
    scale = max(1.0, abs(total.real))
    if abs(total.imag) > IMAG_TOL * scale:
        raise NumericError(
            f"imaginary residue {total.imag:.3e} at j={j}", residual=abs(total.imag)
        )
    return total.real, round(total.real)


def check_tol(tol: float) -> None:
    """``tol`` must be a number >= 0: NaN would switch the check off."""
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")


def max_deviation(cf: ClosedForm, count: int, tol: float) -> float:
    """Largest |closed-form - exact| over the first ``count`` terms.

    Rounded closed-form values must reproduce the integer sequence
    exactly and stay within ``tol``; the first failing index is
    reported otherwise.  ``count`` should stay small enough for doubles
    (around 60 terms for n <= 8).
    """
    check_tol(tol)
    worst = 0.0
    for j, target in enumerate(exact_sequence(cf.order, count)):
        approx, rounded = eval_closed(cf, j)
        worst = max(worst, abs(approx - target))
        if rounded != target or worst > tol:
            raise MismatchError(f"closed form diverges from exact terms at j={j}: "
                                f"{approx!r} vs {target}", index=j)
    return worst


def compare_closed_vs_exact(n: int, count: int, tol: float) -> float:
    """``max_deviation`` of order n's closed form, ``tol`` checked before the solve."""
    check_tol(tol)
    return max_deviation(closed_form(n), count, tol)
