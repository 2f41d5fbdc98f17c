"""Cycle lengths of the sequence mod m and the permutation they induce.

The period of the sequence mod q is the multiplicative order of x in
R_q = Z_q[x]/(x^d - x^(d-1) - 1), since the generating function is
1/(1 - z - z^d).  For prime d it is d^2 - 1; for prime powers p^m the
expected period N = p^(m-1) * (p^(2m) - 1) is checked rather than
assumed: a certificate proves that N is the order of x (x^N = 1 and
x^(N/r) != 1 for every prime r dividing N).  Composite d decompose into
prime powers q = p^e whose periods combine by LCM; each is the order of
x in R_q, found from the distinct-degree factorisation of
x^d - x^(d-1) - 1 mod p and lifted to p^e (``ring_order``).  Brute
force advances the d-term window until it returns to all ones; it is
the oracle, and it decides whenever the ring cannot (a failed
certificate, a budget below N, or a factor of p^k - 1 that cannot be
proven prime).  The period mod d, reduced mod d, is the shift by which
a network of that many gates cycles its systems.
"""
from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import ring
from .errors import FactoringError, InconclusiveError, VerificationError
from .seqcore import Factorization, _check_prime, first_window_return

log = logging.getLogger(__name__)

DEFAULT_STEP_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "SWAPNET_BUDGET"


def predicted_cycle(p: int, m: int) -> int:
    """Expected period of the order-p^m sequence mod p^m.

    For m = 1 this is the proven p^2 - 1; for m > 1 it is the value the
    brute-force checks confirm instance by instance.
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


def default_budget(order: int, modulus: int) -> int:
    """Step budget used when the caller does not supply one.

    Twice the predicted period when the order equals a prime-power
    modulus; otherwise the SWAPNET_BUDGET environment value or 10^8.
    """
    if order == modulus:
        f = Factorization.of(modulus)
        if f.is_prime_power:
            p, m = f.factors[0]
            return 2 * predicted_cycle(p, m)
    return env_budget() or DEFAULT_STEP_BUDGET


def cycle_length_direct(d: int, m: int, budget: int) -> int:
    """Brute-force period of the order-d sequence mod m.

    Advances the d-term window until it first returns to all ones,
    which is the period because the recurrence is reversible.
    """
    steps, _ = first_window_return(d, m, budget)
    if steps is None:
        raise InconclusiveError(
            f"no window return within {budget} steps (order {d}, mod {m})",
            steps=budget,
        )
    return steps


@dataclass(frozen=True)
class CycleReport:
    """Everything the period mod d says about the induced permutation.

    ``permutation[i]`` is the system on which the state initially held
    by system i ends up after one full cycle of the network.
    ``conjecture_ok`` is set for prime-power d with d = p^m, m > 1,
    and records whether the measured period matches the predicted one.
    """

    d: int
    length: int
    per_factor: tuple[tuple[int, int], ...]  # (prime power, period mod it)
    shift: int
    permutation: tuple[int, ...]
    method: str  # "direct" | "composed" | "predicted-and-verified"
    conjecture_ok: bool | None = field(default=None)

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
    """Placeholder for a dimension whose search ran out of budget."""

    d: int
    budget: int
    reason: str

    def to_dict(self) -> dict:
        return {"d": self.d, "inconclusive": True, "budget": self.budget, "reason": self.reason}


def _report(d: int, length: int, per_factor, method: str, conjecture_ok=None) -> CycleReport:
    shift = length % d
    perm = tuple((i + shift) % d for i in range(d))
    return CycleReport(d, length, tuple(per_factor), shift, perm, method, conjecture_ok)


def has_order(d: int, q: int, n: int) -> bool:
    """True iff x has multiplicative order exactly n in Z_q[x]/(x^d - x^(d-1) - 1)."""
    if not ring.is_one(ring.x_power(n, d, q)):
        return False
    primes = [r for r, _ in Factorization.of(n).factors]
    if any(ring.is_one(ring.x_power(n // r, d, q)) for r in primes):
        return False
    log.debug("order %d of x certified in the ring (d=%d, mod %d), %d primes checked",
              n, d, q, len(primes))
    return True


def ring_order(d: int, p: int, e: int) -> int:
    """Multiplicative order of x in Z_(p^e)[x]/(x^d - x^(d-1) - 1), for a prime p | d.

    f = x^d - x^(d-1) - 1 splits mod p into g_k, the products of its
    degree-k irreducible factors; mod g_k the order of x divides p^k - 1
    and is found by stripping each prime r while x^(n/r) = 1.  The order
    mod p is the LCM over k, and the order mod p^e is that times the
    least power of p (at most p^(e-1)) that brings x^n back to 1.
    Raises FactoringError when some p^k - 1 cannot be factored into
    proven primes.
    """
    _check_prime(p)
    n = 1
    degrees = []
    for k, g in ring.distinct_degree(d, p).items():
        degrees += [k] * ((len(g) - 1) // k)
        order = p ** k - 1  # > 1: f(1) = -1, so x - 1 never divides f
        for r, _ in Factorization.of(order).factors:
            while order % r == 0 and ring.poly_divmod(ring.x_power(order // r, d, p), g, p)[1] == [1]:
                order //= r
        n = math.lcm(n, order)
    q = p ** e
    for lift in range(e):
        if ring.is_one(ring.x_power(n, d, q)):
            log.debug("d=%d, mod %d: factor degrees %s mod %d, order %d, lifted by %d^%d",
                      d, q, degrees, p, n, p, lift)
            return n
        n *= p
    raise VerificationError(f"x^{n} != 1 mod {q} (order {d}): no lift within {p}^{e - 1}")


def cycle_length(d: int, budget: int | None = None) -> CycleReport:
    """Period of the order-d sequence mod d, via per-prime-power runs.

    For d = p^m whose budget reaches the predicted period N, a ring
    certificate that N is the order of x gives the report directly;
    otherwise brute force runs, so a budget below N is still exhausted
    at its own step count.  Brute-force prime-power results are
    cross-checked against N: a mismatch for prime d is impossible and
    raises; for m > 1 it is recorded in ``conjecture_ok``.

    For composite d each factor's period is ``ring_order``.  An explicit
    budget (the argument, or else SWAPNET_BUDGET) keeps its brute-force
    meaning: a factor whose period exceeds it is inconclusive after that
    many steps.  Without one the ring decides with no step limit.  When
    factoring fails, brute force decides that factor under the default
    budget.
    """
    f = Factorization.of(d)
    if f.is_prime_power:
        p, m = f.factors[0]
        expected = predicted_cycle(p, m)
        b = budget if budget is not None else default_budget(d, d)
        if b >= expected:
            try:
                certified = has_order(d, d, expected)
            except FactoringError as exc:
                log.info("d=%d: cannot factor %d, brute force decides", d, exc.cofactor)
            else:
                if certified:
                    return _report(d, expected, [(d, expected)], "predicted-and-verified",
                                   None if m == 1 else True)
                log.info("d=%d: ring certificate for %d failed, brute force decides", d, expected)
        length = cycle_length_direct(d, d, b)
        if m == 1:
            if length != expected:
                raise VerificationError(
                    f"prime d={d}: measured period {length} != d^2-1 = {expected}"
                )
            return _report(d, length, [(d, length)], "predicted-and-verified")
        ok = length == expected
        method = "predicted-and-verified" if ok else "direct"
        return _report(d, length, [(d, length)], method, conjecture_ok=ok)
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    cap = budget if budget is not None else env_budget()
    per_factor = []
    for p, e in f.factors:
        q = p ** e
        try:
            length = ring_order(d, p, e)
        except FactoringError as exc:
            log.info("d=%d, mod %d: cannot factor %d, brute force decides", d, q, exc.cofactor)
            length = cycle_length_direct(d, q, cap or DEFAULT_STEP_BUDGET)
        if cap is not None and length > cap:
            raise InconclusiveError(
                f"no window return within {cap} steps (order {d}, mod {q})", steps=cap
            )
        per_factor.append((q, length))
    return _report(d, math.lcm(*(ln for _, ln in per_factor)), per_factor, "composed")


def cycle_report_direct(d: int, budget: int | None = None) -> CycleReport:
    """Single-run report measured mod d itself, without factorizing."""
    b = budget if budget is not None else default_budget(d, d)
    length = cycle_length_direct(d, d, b)
    return _report(d, length, [(d, length)], "direct")


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
        raise InconclusiveError(
            f"budget {budget} below predicted period {expected}", steps=0
        )
    d = p ** m
    steps, tail = first_window_return(d, d, budget)
    if steps is None:
        raise InconclusiveError(
            f"no window return within {budget} steps for d={d}", steps=budget
        )
    return steps == expected and all(v == 0 for v in tail)


def scan(max_n: int, budget: int | None = None, jobs: int = 1) -> list[CycleReport | ScanFailure]:
    """Reports for every dimension 2..max_n, in dimension order.

    Budget exhaustion for one dimension yields a ScanFailure entry and
    never aborts the rest.  ``jobs`` > 1 distributes dimensions across
    worker processes, at most one per dimension and per CPU; each
    dimension is computed sequentially.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    dims = list(range(2, max_n + 1))
    workers = min(jobs, len(dims), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_scan_one, dims, [budget] * len(dims)))
    else:
        raw = [_scan_one(n, budget) for n in dims]
    return raw


def _scan_one(n: int, budget: int | None) -> CycleReport | ScanFailure:
    try:
        return cycle_length(n, budget)
    except InconclusiveError as exc:
        return ScanFailure(n, exc.steps, str(exc))


def scan_csv(entries: list[CycleReport | ScanFailure]) -> str:
    """Two-column table of dimension and period, one row per entry."""
    lines = ["d,length"]
    for entry in entries:
        if isinstance(entry, CycleReport):
            lines.append(f"{entry.d},{entry.length}")
        else:
            lines.append(f"{entry.d},inconclusive")
    return "\n".join(lines) + "\n"
