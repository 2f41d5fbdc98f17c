"""
A closed form from the generating function
==========================================

The sequence's generating function is 1/(1 - z - z^n).  That
denominator has n distinct roots: a repeated root would also be a root
of the derivative -1 - n z^(n-1), and the two equations together force
z = n/(n-1), a positive real whose (n-1)-th power cannot be -1/n.  So
every term is a plain power sum term(j) = sum_l beta_l * alpha_l^j over
the reciprocal roots alpha_l.
This script computes the roots and weights numerically, prints them,
and checks the power sums round back to the exact integers.
"""
from swapnet import closed_form, eval_closed, exact_sequence, max_deviation

forms = {}
for n in (4, 8):
    cf = forms[n] = closed_form(n)
    print(f"n = {n}")
    for l, (a, b) in enumerate(zip(cf.alphas, cf.betas), start=1):
        print(f"  alpha[{l}] = {a.real:+.10f} {a.imag:+.10f}i    "
              f"beta[{l}] = {b.real:+.10f} {b.imag:+.10f}i")
    print(f"  validation residual: {cf.residual:.3e}")

    # Weights are normalized by the first two terms of the sequence.
    assert abs(sum(cf.betas) - 1) < 1e-9
    assert abs(sum(b * a for a, b in zip(cf.alphas, cf.betas)) - 1) < 1e-9

    # The rounded power sums reproduce the exact prefix.
    worst = max_deviation(cf, 26, 1e-6)
    terms = [eval_closed(cf, j)[1] for j in range(26)]
    assert terms == exact_sequence(n, 26)
    print(f"  first 26 terms match exactly, max deviation {worst:.3e}")
    print()

# The dominant reciprocal root controls growth: consecutive exact
# terms approach it in ratio.
dominant = max(abs(a) for a in forms[4].alphas)
seq = exact_sequence(4, 120)
print(f"dominant reciprocal root for n=4: {dominant:.10f}")
print(f"term ratio at j=119:              {seq[119] / seq[118]:.10f}")
