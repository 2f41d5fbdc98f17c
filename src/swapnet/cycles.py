"""Cycle lengths of the sequence mod m and the permutation they induce.

The period mod q is the order of x in R_q = Z_q[x]/(f), f = x^d - x^(d-1) - 1,
since the generating function is 1/(1 - z - z^d); the periods mod the prime
powers p^e | d combine by LCM.  Each takes two steps of one routine,
``order_from_multiple``, which strips every prime r of a known multiple n of
the order while x^(n/r) = 1.  Mod p, f is squarefree (f' = x^(d-2),
f(0) = -1), so R_p is a product of fields F_(p^k) and the order ord_p
divides lcm(p^k - 1) over the degrees k of f's factors (``degree_multiple``);
for d = p^m the reciprocal y^(p^m) + y - 1 of f gives y^(p^(2m)) = y, so
x^(p^(2m)-1) = 1.  The kernel 1 + pR of R_(p^e) -> R_p has exponent p^(e-1),
so the order mod p^e is ord_p * p^j with j < e (the form Wall proved for
Fibonacci, 1960), and stripping p alone from ord_p * p^(e-1) finds it.  For
d = p^m the period is checked against N = p^(m-1) * (p^(2m) - 1), proven for
prime d.  A multiple not factored into proven primes is inconclusive, naming
the cofactor.  Brute force (the window's first return to all ones) is only
the oracle (``cycle_length_direct``, ``verify_conjecture``).  The period mod
d is the shift by which a network of that many gates cycles its systems.
"""
from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

from . import ring
from .errors import FactoringError, InconclusiveError, SizeBudgetError, VerificationError
from .factor import Factorization, _check_prime
from .seqcore import _check_order, first_window_return

log = logging.getLogger(__name__)

RING_LIMIT = 10 ** 6  # largest order d whose ring is built
BUDGET_ENV_VAR = "SWAPNET_BUDGET"


def predicted_cycle(p: int, m: int) -> int:
    """Expected period of the order-p^m sequence mod p^m.

    For m = 1 this is the proven p^2 - 1; for m > 1 it is the value that
    ``cycle_length`` and ``verify_conjecture`` check instance by instance.
    """
    _check_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    return p ** (m - 1) * (p ** (2 * m) - 1)


def env_budget() -> int | None:
    """The SWAPNET_BUDGET environment value, or None when unset or empty.

    Any other value that is not a positive integer raises ValueError.
    """
    env = os.environ.get(BUDGET_ENV_VAR, "")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {env!r}")
    return value


def cycle_length_direct(d: int, m: int, budget: int) -> int:
    """Brute-force period of the order-d sequence mod m.

    Advances the d-term window until it first returns to all ones,
    which is the period because the recurrence is reversible.
    """
    steps, _ = first_window_return(d, m, budget)
    if steps is None:
        raise InconclusiveError(f"no window return within {budget} steps (order {d}, mod {m})",
                                steps=budget)
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
        """i -> (i + shift) mod d, input system to output: ``LinearMapZd.permutation`` inverted."""
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

    def describe(self) -> str:
        if self.kind == "swap":
            return f"SWAP: cyclic shift by -1, {self.length} gates"
        if self.kind == "identity":
            return f"IDENTITY: shift 0, {self.length} gates"
        if self.kind == "grouped":
            return f"GROUPED: shift {self.shift}, {self.length} gates"
        return f"OTHER: permutation {list(self.permutation)}, {self.length} gates"

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "length": self.length,
            "factors": [{"pm": pm, "len": ln} for pm, ln in self.per_factor],
            "shift": self.shift,
            "permutation": list(self.permutation),
            "method": self.method,
        }
        if self.conjecture_ok is not None:
            out["conjecture_ok"] = self.conjecture_ok
        return out


@dataclass(frozen=True)
class ScanFailure:
    """Placeholder for a dimension left undecided: over its cap, or unfactored (budget 0)."""

    d: int
    budget: int
    reason: str

    def to_dict(self) -> dict:
        return {"d": self.d, "inconclusive": True, "budget": self.budget, "reason": self.reason}


def order_from_multiple(d: int, q: int, n: int, primes: list[int]) -> int | None:
    """Order of x in Z_q[x]/(x^d - x^(d-1) - 1), given a multiple n of it and the primes of n.

    None when x^n != 1, so n is no multiple; otherwise each prime r is
    removed from n while x^(n/r) = 1.
    """
    if not ring.is_one(ring.x_power(n, d, q)):
        return None
    for r in primes:
        while n % r == 0 and ring.is_one(ring.x_power(n // r, d, q)):
            n //= r
    return n


def degree_multiple(d: int, p: int) -> tuple[int, list[int]]:
    """A multiple of the order of x mod p, for a prime p | d, and its primes.

    f = x^d - x^(d-1) - 1 is squarefree mod p, so R_p is a product of
    fields F_(p^k), one per irreducible factor of degree k, and the order
    mod p divides lcm(p^k - 1).  Each p^k - 1 is factored on its own.
    """
    _check_prime(p)
    degrees = ring.distinct_degree(d, p)  # every p^k - 1 > 1: f(1) = -1, so x - 1 never divides f
    primes = {r for k in degrees for r, _ in Factorization.of(p ** k - 1).factors}
    return math.lcm(*(p ** k - 1 for k in degrees)), sorted(primes)


def ring_order(d: int, p: int, e: int) -> int:
    """Order of x in Z_(p^e)[x]/(x^d - x^(d-1) - 1), for a prime p | d.

    The order mod p from p^(2e) - 1 if d = p^e, else ``degree_multiple``
    (FactoringError on an unproven cofactor), then lifted mod p^e.
    """
    _check_prime(p)
    if d == p ** e:
        n = p ** (2 * e) - 1
        primes = [r for r, _ in Factorization.of(n).factors]
    else:
        n, primes = degree_multiple(d, p)
    q, order = p, order_from_multiple(d, p, n, primes)
    if order is not None and e > 1:  # the lift
        q, n = p ** e, order * p ** (e - 1)
        order = order_from_multiple(d, q, n, [p])
    if order is None:
        raise VerificationError(f"x^{n} != 1 mod {q} (order {d}): not a multiple of the order")
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
    _check_order(d)
    if d > RING_LIMIT:
        raise SizeBudgetError(f"order {d} exceeds the {RING_LIMIT} ring limit")
    f = Factorization.of(d)
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
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


def verify_conjecture(p: int, m: int, budget: int | None = None) -> bool:
    """Check one prime-power instance of the predicted period.

    True iff the measured period equals p^(m-1) * (p^(2m) - 1) and the
    window that closes the cycle is preceded by d-1 zeros (the
    sufficient condition for periodicity restated on the sequence).
    """
    expected = predicted_cycle(p, m)
    if budget is None:
        budget = 2 * expected
    if budget < expected:
        raise InconclusiveError(f"budget {budget} below predicted period {expected}", steps=0)
    d = p ** m
    steps, tail = first_window_return(d, d, budget)
    if steps is None:
        raise InconclusiveError(f"no window return within {budget} steps for d={d}", steps=budget)
    return steps == expected and all(v == 0 for v in tail)


def scan(max_n: int, budget: int | None = None, jobs: int = 1) -> list[CycleReport | ScanFailure]:
    """Reports for every dimension 2..max_n, in dimension order.

    Budget exhaustion for one dimension yields a ScanFailure entry and
    never aborts the rest.  ``jobs`` > 1 distributes dimensions across
    worker processes, at most one per dimension and per CPU; each
    dimension is computed sequentially.  max_n above RING_LIMIT is
    refused before any dimension runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if max_n > RING_LIMIT:
        raise SizeBudgetError(f"dimensions up to {max_n} exceed the {RING_LIMIT} ring limit")
    dims = list(range(2, max_n + 1))
    workers = min(jobs, len(dims), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_scan_one, dims, [budget] * len(dims)))
    return [_scan_one(n, budget) for n in dims]


def _scan_one(n: int, budget: int | None) -> CycleReport | ScanFailure:
    try:
        return cycle_length(n, budget)
    except InconclusiveError as exc:
        return ScanFailure(n, exc.steps, str(exc))


def scan_csv(entries: list[CycleReport | ScanFailure]) -> str:
    """Two-column table of dimension and period, one row per entry."""
    rows = (f"{e.d},{e.length if isinstance(e, CycleReport) else 'inconclusive'}" for e in entries)
    return "\n".join(["d,length", *rows]) + "\n"
