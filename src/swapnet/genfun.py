"""Partial-fraction closed form for the order-n sequence.

The ordinary generating function of the sequence is 1/(1 - z - z^n).
Writing the denominator's roots as b_1..b_n and their reciprocals as
alpha_1..alpha_n, the terms evaluate as

    term(j) = sum_l beta_l * alpha_l^j,
    beta_l  = -alpha_l / B'(1/alpha_l),   B(z) = 1 - z - z^n.

The denominator has distinct roots (checked numerically here, and the
single analytic candidate for a repeated root is re-excluded), so the
expansion needs no polynomial-in-j correction terms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchError, NumericError, SizeBudgetError
from .seqcore import exact_sequence, term_exact

ROOT_TOL = 1e-12
ROOT_MAX_ITER = 2000
DISTINCT_TOL = 1e-9
IMAG_TOL = 1e-6
DEGREE_LIMIT = 10 ** 6  # largest order n whose denominator is built


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial, constant term first."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is identically zero")
        coeffs = tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)
        return Polynomial(coeffs)


def series_denominator(n: int) -> Polynomial:
    """B(z) = 1 - z - z^n, the generating function's denominator.

    n above DEGREE_LIMIT is refused before anything is built.
    """
    if n < 2:
        raise ValueError("order must be >= 2")
    if n > DEGREE_LIMIT:
        raise SizeBudgetError(f"order {n} exceeds the {DEGREE_LIMIT} degree limit")
    return Polynomial((1.0, -1.0) + (0.0,) * (n - 2) + (-1.0,))


def find_roots(poly: Polynomial, tol: float = ROOT_TOL, max_iter: int = ROOT_MAX_ITER) -> list[complex]:
    """All complex roots by simultaneous (all-at-once) iteration.

    Starts every root estimate on the deterministic spiral
    (0.4 + 0.9i)^k, applies the simultaneous correction
    p(z_i) / prod_{j != i} (z_i - z_j) with a trust-region cap so
    high-degree runs cannot blow up, and stops once every residual
    |p(root)| is below ``tol``.  Roots come back sorted by
    (real, imaginary).
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    lc = poly.coefficients[-1]
    monic = tuple(c / lc for c in poly.coefficients)
    ev = Polynomial(monic).evaluate
    if n == 1:
        return [-monic[0]]

    seed = 0.4 + 0.9j
    roots = [seed ** (k + 1) for k in range(n)]
    best = float("inf")
    for _ in range(max_iter):
        moved = 0.0
        current = list(roots)
        for i in range(n):
            z = current[i]
            den = 1 + 0j
            for j in range(n):
                if j != i:
                    den *= z - current[j]
            if den == 0:
                den = complex(tol, tol)
            delta = ev(z) / den
            step = abs(delta)
            cap = 1.0 + abs(z)
            if not step < float("inf"):
                delta = complex(cap, 0.0)
            elif step > cap:
                delta *= cap / step
            roots[i] = z - delta
            moved = max(moved, abs(delta))
        best = max(abs(ev(r)) for r in roots)
        if best < tol or moved < 1e-16:
            break
    if best >= tol:
        raise NumericError(
            f"root iteration did not reach residual {tol} (best {best:.3e})",
            residual=best,
        )
    return sorted(roots, key=lambda z: (z.real, z.imag))


@dataclass(frozen=True)
class ClosedForm:
    """Reciprocal roots and weights evaluating the sequence terms.

    ``residual`` is the largest deviation |evaluated - exact| observed
    over the validation range used at construction.
    """

    order: int
    alphas: tuple[complex, ...]
    betas: tuple[complex, ...]
    residual: float

    def to_dict(self) -> dict:
        return {
            "n": self.order,
            "alphas": [[z.real, z.imag] for z in self.alphas],
            "betas": [[z.real, z.imag] for z in self.betas],
            "residual": self.residual,
        }


def _weights(n: int, alphas: list[complex]) -> list[complex]:
    # B'(z) = -1 - n z^(n-1), evaluated at the root 1/alpha
    return [-a / (-1 - n * (1 / a) ** (n - 1)) for a in alphas]


def closed_form(n: int, validation_count: int = 51) -> ClosedForm:
    """Roots, weights, and the observed accuracy for order n.

    Raises NumericError if the computed data violates what the partial
    fraction expansion guarantees: pairwise-distinct reciprocal roots,
    conjugate closure, and weights summing to the first two terms.
    """
    poly = series_denominator(n)
    roots = find_roots(poly)
    alphas = sorted((1 / r for r in roots), key=lambda z: (z.real, z.imag))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(alphas[i] - alphas[j]) <= DISTINCT_TOL:
                raise NumericError(
                    f"reciprocal roots {i} and {j} coincide within {DISTINCT_TOL}"
                )
    betas = _weights(n, alphas)
    for a in alphas:
        if min(abs(b - a.conjugate()) for b in alphas) > DISTINCT_TOL:
            raise NumericError("reciprocal roots are not closed under conjugation")
    for moment, label in ((sum(betas), "weights"), (sum(b * a for a, b in zip(alphas, betas)), "first moment")):
        if abs(moment - 1.0) > 1e-9:
            raise NumericError(f"{label} sum to {moment}, expected 1")
    cf = ClosedForm(n, tuple(alphas), tuple(betas), 0.0)
    exact = exact_sequence(n, validation_count)
    residual = 0.0
    for j, target in enumerate(exact):
        approx, _ = eval_closed(cf, j)
        residual = max(residual, abs(approx - target))
    return ClosedForm(n, tuple(alphas), tuple(betas), residual)


def eval_closed(cf: ClosedForm, j: int) -> tuple[float, int]:
    """Evaluate the expansion at j; returns (real value, nearest int).

    The imaginary parts of the summands must cancel; a residue beyond
    1e-6 (relative to the value) means the data is unusable.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    total = sum(b * a ** j for a, b in zip(cf.alphas, cf.betas))
    scale = max(1.0, abs(total.real))
    if abs(total.imag) > IMAG_TOL * scale:
        raise NumericError(
            f"imaginary residue {total.imag:.3e} at j={j}", residual=abs(total.imag)
        )
    return total.real, round(total.real)


def distinct_roots_check(n: int) -> bool:
    """True iff the denominator's roots are numerically distinct.

    Also re-runs the analytic exclusion: the only candidate for a
    repeated root is n/(n-1) before reciprocation, and it must fail to
    be a root of the derivative.
    """
    poly = series_denominator(n)
    roots = find_roots(poly)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) <= DISTINCT_TOL:
                return False
    candidate = (n - 1) / n  # reciprocal of the lone repeated-root candidate
    return abs(poly.derivative().evaluate(candidate)) > DISTINCT_TOL


def compare_closed_vs_exact(n: int, count: int, tol: float) -> float:
    """Largest |closed-form - exact| over the first ``count`` terms.

    Rounded closed-form values must reproduce the integer sequence
    exactly; the first failing index is reported otherwise.  ``count``
    should stay small enough for doubles (around 60 terms for n <= 8).
    ``tol`` must be a number >= 0: NaN would switch the check off.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    cf = closed_form(n, validation_count=0)
    exact = exact_sequence(n, count)
    worst = 0.0
    for j, target in enumerate(exact):
        approx, rounded = eval_closed(cf, j)
        worst = max(worst, abs(approx - target))
        if rounded != target or worst > tol:
            raise MismatchError(
                f"closed form diverges from exact terms at j={j}: "
                f"{approx!r} vs {target}",
                index=j,
            )
    return worst
