"""Cycle lengths of the sequence mod m and the permutation they induce.

The period mod q is the order of x in R_q = Z_q[x]/(f), f = x^d - x^(d-1) - 1,
since the generating function is 1/(1 - z - z^d); the periods mod the prime
powers p^e | d combine by LCM.  Each is the order mod p, then a lift mod p^e.
The order mod p comes from ``order_from_multiple``, which strips every prime
r of a known multiple n of the order while x^(n/r) = 1.  Mod p, f is
squarefree (f' = x^(d-2), f(0) = -1), so R_p is a product of fields F_(p^k)
and the order ord_p divides n = lcm(p^k - 1) over one list of degrees k:
those of f's factors, from the distinct-degree factorisation, or [2m] for
d = p^m, where the reciprocal y^(p^m) + y - 1 of f gives y^(p^(2m)) = y, so
x^(p^(2m)-1) = 1.

The lift.  The kernel 1 + pR of R_(p^e) -> R_p has exponent p^(e-1), so the
order mod p^e is ord_p * p^j with j < e (the form Wall proved for Fibonacci,
1960), and x^(ord_p * p^(e-1)) = 1 needs no check.  One power mod p^2 (mod 8
for p = 2) decides j.  Write y = x^ord_p = 1 + p^s w, w != 0 mod p:

- Odd p, s >= 1: y^p = 1 + p^(s+1) w' with w' = w mod p, since each binomial
  term past the second has a factor p^(2s+1) or p^(ps), so p^(s+2).  So
  y^(p^(e-2)) = 1 + p^(s+e-2) w'', which is 1 mod p^e iff s >= 2.  The test
  z = x^ord_p mod p^2 is y mod p^2: z != 1 means s = 1, and j = e - 1.
- p = 2: the step needs s >= 2, which y^2 = 1 + 4 (u + u^2) always has
  (y = 1 + 2u).  So the test is z = x^(2 ord_2) mod 8, y^2 mod 8: z != 1
  gives y^(2^(e-2)) = (y^2)^(2^(e-3)) != 1 mod 2^e for e >= 3, and j = e - 1.
- e = 2 needs nothing more.  For odd p the test modulus is q itself.  For
  p = 2, y = 1 mod 4 would make y^2 = 1 mod 8, so z != 1 gives y != 1 mod 4.
- Otherwise (z = 1: s >= 2, or y^2 = 1 mod 8), which no d has shown, the lift
  falls back to stripping p alone from ord_p * p^(e-1) mod p^e, with
  ``order_from_multiple``, and logs a warning.

z reduced mod p (mod 4 for p = 2) is 1 by the order mod p; a z that is not
raises VerificationError.  For d = p^m the period is checked against
N = p^(m-1) * (p^(2m) - 1), proven for prime d.  A multiple not factored into
proven primes is inconclusive, naming the cofactor.  Brute force (the
window's first return to all ones after d-1 zeros) is only the oracle
(``cycle_length_direct``).  The period mod d is the shift by which a network
of that many gates cycles its systems.
"""
from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

from . import ring
from .errors import FactoringError, InconclusiveError, SizeBudgetError, VerificationError, _check_int
from .factor import Factorization, _check_prime
from .seqcore import _ascii_int, first_window_return

log = logging.getLogger(__name__)

RING_LIMIT = 10 ** 6  # largest order d whose ring is built
BUDGET_ENV_VAR = "SWAPNET_BUDGET"


def predicted_cycle(p: int, m: int) -> int:
    """Expected period of the order-p^m sequence mod p^m.

    For m = 1 this is the proven p^2 - 1; for m > 1 it is the value that
    ``cycle_length`` and ``cycle_length_direct`` check instance by instance.
    """
    _check_prime(p)
    _check_int("m", m, 1)
    return p ** (m - 1) * (p ** (2 * m) - 1)


def env_budget() -> int | None:
    """The SWAPNET_BUDGET environment value, or None when unset or empty.

    Any other value that is not a positive integer raises ValueError.
    """
    env = os.environ.get(BUDGET_ENV_VAR, "")
    if not env:
        return None
    try:
        value = _ascii_int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {env!r}")
    return value


def cycle_length_direct(d: int, m: int, budget: int) -> int:
    """Brute-force period of the order-d sequence mod m: the oracle for every period.

    Advances the d-term window until it first returns to all ones,
    which is the period because the recurrence is reversible, and so
    preceded by the d-1 zeros that precede the initial ones; any other
    tail raises VerificationError.
    """
    steps, tail = first_window_return(d, m, budget)
    if steps is None:
        raise InconclusiveError(f"no window return within {budget} steps (order {d}, mod {m})",
                                steps=budget)
    if any(tail):
        raise VerificationError(f"window return at step {steps} not preceded by {d - 1} zeros "
                                f"(order {d}, mod {m})")
    return steps


@dataclass(frozen=True)
class CycleReport:
    """Everything the period mod d says about the induced permutation.

    One full cycle of ``length`` gates shifts the systems cyclically, so
    ``shift`` (length mod d), ``permutation`` and the cycle's ``kind``
    are derived, not stored.  ``permutation[i]`` is the system on which
    the state initially held by system i ends up after one full cycle.
    ``conjecture_ok`` is set for prime-power d with d = p^m, m > 1,
    and records whether the measured period matches the predicted one.
    """

    d: int
    length: int
    per_factor: tuple[tuple[int, int], ...]  # (prime power, period mod it)
    method: str  # "direct" | "composed" | "predicted-and-verified"
    conjecture_ok: bool | None = None

    @property
    def shift(self) -> int:
        return self.length % self.d

    @property
    def permutation(self) -> tuple[int, ...]:
        """i -> (i + shift) mod d, input system to output, as ``LinearMapZd.permutation`` reads."""
        return (*range(self.shift, self.d), *range(self.shift))

    @property
    def gate_count(self) -> int:  # the name the benchmark's network workload reads
        return self.length

    @property
    def kind(self) -> str:
        """One of "identity" (shift 0), "swap" (shift -1), "grouped" (d = p^m, shift d - d/p), "other"."""
        if self.shift == 0:
            return "identity"
        if self.shift == self.d - 1:
            return "swap"
        f = Factorization.of(self.d)
        grouped = f.is_prime_power and self.shift == self.d - self.d // f.factors[0][0]
        return "grouped" if grouped else "other"


@dataclass(frozen=True)
class ScanFailure:
    """Placeholder for a dimension left undecided: over its cap, or unfactored (budget 0)."""

    d: int
    budget: int
    reason: str


def order_from_multiple(d: int, q: int, n: int, primes: list[int]) -> int:
    """Order of x in Z_q[x]/(x^d - x^(d-1) - 1), given a multiple n of it and the primes of n.

    VerificationError when x^n != 1, so n is no multiple; otherwise each
    prime r is removed from n while x^(n/r) = 1.
    """
    _check_int("n", n, 1)
    if not ring.is_one(ring.x_power(n, d, q)):
        raise VerificationError(f"x^{n} != 1 mod {q} (order {d}): not a multiple of the order")
    for r in primes:
        while n % r == 0 and ring.is_one(ring.x_power(n // r, d, q)):
            n //= r
    return n


def _lifts_fully(d: int, p: int, order: int) -> bool:
    """Whether the order of x mod p^e, e >= 2, is ``order`` * p^(e-1), given the order mod p.

    One power (module docstring): z = x^order mod p^2, or x^(2 order)
    mod 8 for p = 2, and the lift is full iff z != 1.
    """
    q, n = (p * p, order) if p > 2 else (8, 2 * order)
    z = ring.x_power(n, d, q)
    if not ring.is_one(z % (q // p)):
        raise VerificationError(f"x^{n} != 1 mod {q // p} (order {d}): {order} is not the order mod {p}")
    return not ring.is_one(z)


def ring_order(d: int, p: int, e: int) -> int:
    """Order of x in Z_(p^e)[x]/(x^d - x^(d-1) - 1), for a prime p | d.

    The order mod p from n = lcm(p^k - 1) over a list of degrees k: [2e]
    if d = p^e, else those of ``ring.distinct_degree`` (each p^k - 1 is
    factored on its own, FactoringError on an unproven cofactor), then
    lifted mod p^e by one power mod p^2 (mod 8 for p = 2).
    """
    _check_prime(p)
    _check_int("e", e, 1)
    # every p^k - 1 > 1: f(1) = -1, so x - 1 never divides f
    degrees = [2 * e] if d == p ** e else list(ring.distinct_degree(d, p))
    n = math.lcm(*(p ** k - 1 for k in degrees))
    primes = sorted({r for k in degrees for r, _ in Factorization.of(p ** k - 1).factors})
    q, order = p, order_from_multiple(d, p, n, primes)
    if e > 1:  # the lift
        q, n = p ** e, order * p ** (e - 1)
        if _lifts_fully(d, p, order):
            order = n
        else:
            order = order_from_multiple(d, q, n, [p])
            log.warning("d=%d, p=%d, e=%d: the lift test gave z = 1; "
                        "stripping p mod p^e gave the order %d", d, p, e, order)
    log.debug("d=%d, mod %d: order %d of x, from the multiple %d", d, q, order, n)
    return order


def cycle_length(d: int, budget: int | None = None) -> CycleReport:
    """Period of the order-d sequence mod d, as the LCM of ``ring_order`` over q = p^e | d.

    d below 2 or above RING_LIMIT is refused before any work.  A factor
    whose period exceeds the cap (the budget, else SWAPNET_BUDGET if set)
    is inconclusive after that many steps, as brute force would be; one
    whose multiple cannot be factored, after 0 steps, naming the cofactor.
    For d = p^m the period is compared with N: a mismatch raises for
    prime d and is recorded in ``conjecture_ok`` for m > 1.
    """
    _check_int("order", d, 2)
    if d > RING_LIMIT:
        raise SizeBudgetError(f"order {d} exceeds the {RING_LIMIT} ring limit")
    f = Factorization.of(d)
    if budget is not None:
        _check_int("budget", budget, 1)
    cap = budget if budget is not None else env_budget()
    per_factor = []
    for p, e in f.factors:
        q = p ** e
        try:
            length = ring_order(d, p, e)
        except FactoringError as exc:
            raise InconclusiveError(f"{exc} (order {d}, mod {q})", steps=0) from exc
        if cap is not None and length > cap:
            raise InconclusiveError(f"no window return within {cap} steps (order {d}, mod {q})",
                                    steps=cap)
        per_factor.append((q, length))
    length = math.lcm(*(ln for _, ln in per_factor))
    if not f.is_prime_power:
        return CycleReport(d, length, tuple(per_factor), "composed")
    p, m = f.factors[0]
    expected = predicted_cycle(p, m)
    if m == 1 and length != expected:
        raise VerificationError(f"prime d={d}: measured period {length} != d^2-1 = {expected}")
    ok = length == expected
    return CycleReport(d, length, tuple(per_factor), "predicted-and-verified" if ok else "direct",
                       None if m == 1 else ok)


def scan(max_n: int, budget: int | None = None) -> list[CycleReport | ScanFailure]:
    """Reports for every dimension 2..max_n, in dimension order.

    Budget exhaustion for one dimension yields a ScanFailure entry and
    never aborts the rest.  max_n above RING_LIMIT is refused before any
    dimension runs.
    """
    _check_int("max_n", max_n)
    if max_n > RING_LIMIT:
        raise SizeBudgetError(f"dimensions up to {max_n} exceed the {RING_LIMIT} ring limit")
    entries = []
    for n in range(2, max_n + 1):
        try:
            entries.append(cycle_length(n, budget))
        except InconclusiveError as exc:
            entries.append(ScanFailure(n, exc.steps, str(exc)))
    return entries

