"""
Periods mod d and the permutation they force
============================================

Reduced mod d, the sequence is periodic.  The period is the number of
CNOT gates one full cycle of the network needs, and the period mod d
is the amount by which the systems end up cyclically shifted.  Prime
dimensions give exactly -1, which is the full SWAP.
"""
import time

from swapnet import cycle_length, cycle_length_direct, predicted_cycle, scan, verify_swap

# The table of periods for small dimensions.
entries = scan(9)
for e in entries:
    print(f"d={e.d}:  period {e.length:5d}  shift {e.shift}  ({e.method})")

# Composite dimensions factor: the period mod 6 is the LCM of the
# periods mod 2 and mod 3 of the *same* order-6 recurrence.
d6 = entries[4]
assert d6.per_factor == ((2, 63), (3, 728))
assert d6.length == 6552

# Prime powers follow N = p^(m-1) * (p^(2m) - 1).  That formula is checked
# by brute force here, never assumed: cycle_length_direct, the one
# brute-force oracle, runs the window of the last d terms until it comes
# back to all ones, and refuses a return that is not preceded by d-1
# zeros.  With a budget of 2N, the return must come at exactly step N.
for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]:
    n = predicted_cycle(p, m)
    assert cycle_length_direct(p ** m, p ** m, 2 * n) == n
    print(f"p^m = {p ** m}: predicted {n} confirmed")

# Brute force needs one step per gate: 6.1e9 for d = 3125 = 5^5, tens of
# minutes.  The period is also the multiplicative order of x in
# Z_d[x]/(x^d - x^(d-1) - 1), since the generating function is
# 1/(1 - z - z^d).  cycle_length finds it mod p first: for d = p^m the
# reciprocal y^(p^m) + y - 1 of the modulus gives x^(p^(2m) - 1) = 1, so
# p^(2m) - 1 is a multiple of the order, and each of its primes r is
# stripped while x^(n/r) = 1, by repeated squaring.  The lift to mod p^m is
# one power mod p^2: when x^ord_p is not 1 mod p^2, the order mod p^m is
# ord_p * p^(m-1), and nothing runs mod p^m.  N is not used to find the
# period; the certified period is only compared with it (conjecture_ok).
start = time.perf_counter()
big = cycle_length(3125)
elapsed = time.perf_counter() - start
assert big.length == predicted_cycle(5, 5) and big.conjecture_ok
print(f"d=3125: period {big.length} certified in {elapsed:.1f} s ({big.method})")

# Composite d: the period mod each prime power q = p^e | d is the order
# of x in Z_q[x]/(x^d - x^(d-1) - 1).  Mod p, x^d - x^(d-1) - 1 splits by
# distinct-degree factorisation into g_k (the product of its degree-k
# irreducible factors), where the order of x divides p^k - 1.  So the order
# mod q divides p^(e-1) times the LCM of p^k - 1 over the degrees k, and the
# same stripping and lift find it.  Brute force would need 1.6e8 window steps for
# d = 14 mod 7 alone.
for d in (14, 22):
    start = time.perf_counter()
    report = cycle_length(d)
    elapsed = time.perf_counter() - start
    factors = ", ".join(f"{ln} (mod {q})" for q, ln in report.per_factor)
    print(f"d={d}: period {report.length} = lcm({factors}) in {elapsed * 1000:.0f} ms ({report.method})")

# Shifts read off the table: d=5 gives -1 (full SWAP), d=4 gives 2
# (two transpositions), d=6 gives 0 (the network does nothing).  Every
# permutation in swapnet reads from input to output, so the report's
# permutation[i] is (i + shift) mod d.
for e in entries:
    print(f"d={e.d}: state of system i ends on system (i + {e.shift}) mod {e.d}")

# One full cycle of N gates is the cyclic shift by N mod d, so the verdict
# needs only the period: row 0 of the trace is the sequence mod d, so
# after N steps every column is back at a unit column.  Every d <= 43 has a
# decided period, which gives the whole census: SWAP exactly for the
# primes, grouped swaps for the prime powers, and no composite closes on
# a full SWAP.
census = {}
for d in range(2, 44):
    census.setdefault(verify_swap(d).kind, []).append(d)
for kind in ("swap", "grouped", "identity", "other"):
    print(f"{kind:8s} ({len(census[kind]):2d} values of d <= 43): {census[kind]}")

# The same table as CSV, the rows `swapnet scan --max 9 --csv` prints.  The
# library returns reports, not text: each caller formats them, as here.
print("d,length")
for e in entries:
    print(f"{e.d},{e.length}")
