"""
Three routes to the same sequence
=================================

The order-d binomial summation sequence starts with d ones and then
each term is the previous term plus the term d places back.  The same
numbers fall out of a direct binomial sum, and reducing them mod m
can be done without ever touching a big integer.  This script walks
all three routes and shows they agree.
"""
from swapnet import exact_sequence, seq_stream, term_exact, term_exact_range, term_mod

# Route 1: unroll the recurrence with exact integers.
d = 4
by_recurrence = exact_sequence(d, 26)
print("recurrence:  ", by_recurrence)

# Route 2: evaluate the binomial sum term by term.
by_sum = [term_exact(j, d) for j in range(26)]
print("binomial sum:", by_sum)
assert by_sum == by_recurrence

# The batched form of the sum route is dramatically faster for long
# prefixes and returns the identical integers.
assert term_exact_range(d, 26) == by_sum

# Route 3: the modular stream.  Reducing the recurrence mod 4 keeps
# every value below 4 no matter how far we go.
mod_stream = seq_stream(d, 4, 26)
print("mod 4 stream:", mod_stream)
assert mod_stream == [v % 4 for v in by_recurrence]

# Single modular terms agree with the stream, position by position.
assert term_mod(25, d, 4) == by_recurrence[25] % 4 == 0

# Exact terms grow fast: order 2 gives a Fibonacci-like sequence, and
# term 300 already has dozens of digits, which is why the modular
# routes matter.
big = exact_sequence(2, 301)[-1]
print(f"order-2 term 300 has {len(str(big))} digits")
