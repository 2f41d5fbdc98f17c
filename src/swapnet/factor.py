"""Integer factorization into proven primes: the ring certifies periods from them."""
from __future__ import annotations

import collections
import math

from .errors import FactoringError, InvalidPrimeError, _check_int

TRIAL_LIMIT = 10 ** 4
# Miller-Rabin with the 13 prime bases up to 41 is deterministic below MR_LIMIT
# (Sorenson & Webster 2015); above it a cofactor that passes is not proven prime.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981
RHO_STEPS = 2 ** 20  # Brent's rho iterations per composite cofactor


def _passes_miller_rabin(n: int) -> bool:
    """True iff odd n > 41 is a strong probable prime to every base in MR_BASES."""
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_proven_prime(n: int) -> bool:
    """True iff n is prime and provably so without factoring: deterministic Miller-Rabin.

    False for every composite, and for any n >= MR_LIMIT, which this test
    cannot prove prime.
    """
    if n <= MR_BASES[-1]:
        return n in MR_BASES
    return n < MR_LIMIT and all(n % a for a in MR_BASES) and _passes_miller_rabin(n)


def _rho_split(n: int) -> int | None:
    """A nontrivial factor of composite odd n by Brent's rho, or None.

    Walks y -> y^2 + c mod n with a doubling search window (Brent 1980),
    batching 128 differences per gcd; gives up after RHO_STEPS steps in all.
    """
    steps = 0
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, q = y, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
            if g == 1 and steps > RHO_STEPS:
                return None
        if g == n:  # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        if steps > RHO_STEPS:
            return None
    return None


class Factorization(collections.namedtuple("Factorization", "n factors")):
    """Prime factorization n = p1^m1 * ... * pr^mr, primes increasing.

    Every prime is proven: trial division up to TRIAL_LIMIT, then each
    cofactor is either below TRIAL_LIMIT^2 (hence prime), proven prime by
    ``is_proven_prime``, or split by Brent's rho.  A cofactor that none of
    these settles raises FactoringError.  Instances are immutable values:
    equal, hashed and shown by (n, factors).
    """

    __slots__ = ()

    @classmethod
    def of(cls, n: int) -> "Factorization":
        _check_int("n", n, 2)
        left = n
        counts: dict[int, int] = {}
        p = 2
        while p * p <= left and p < TRIAL_LIMIT:
            while left % p == 0:
                left //= p
                counts[p] = counts.get(p, 0) + 1
            p += 1 if p == 2 else 2
        pending = [left] if left > 1 else []
        while pending:
            c = pending.pop()
            if c < p * p or is_proven_prime(c):  # no factor below p, so prime if below p^2
                counts[c] = counts.get(c, 0) + 1
            elif _passes_miller_rabin(c):  # probably prime, but past MR_LIMIT
                raise FactoringError(f"cannot prove {c} prime", cofactor=c)
            else:
                g = _rho_split(c)
                if g is None:
                    raise FactoringError(f"cannot split composite {c}", cofactor=c)
                pending += [g, c // g]
        return cls(n, tuple(sorted(counts.items())))

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1


def _check_prime(p: int) -> None:
    _check_int("p", p, error=InvalidPrimeError)
    if not is_proven_prime(p):
        raise InvalidPrimeError(f"p must be a proven prime, got {p}")
