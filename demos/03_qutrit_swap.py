"""
The eight-gate qutrit SWAP
==========================

For three-level systems the cyclic network closes after 8 CNOT gates
(period of the sequence mod 3), and one full cycle sends |a b c> to
|b c a>.  This script follows one basis state through the gates,
prints the first gate as a dense 0/1 matrix, then verifies the full
permutation and a batch of random product states.
"""
import numpy as np

from swapnet import (
    Circuit,
    StateVector,
    build_cyclic_network,
    export_circuit,
    full_operator,
    linear_map,
    permutation_matrix_text,
    random_qudit,
    simulate,
)

circuit = build_cyclic_network(3, 8)
print(export_circuit(circuit, "gatelist"))
print()

# Follow |1 2 0> through the network one gate at a time.
state = (1, 2, 0)
print("start   ", state)
for k, (control, target) in enumerate(circuit.gates.tolist()):
    step = Circuit(3, 3, circuit.gates[k:k + 1])
    state = linear_map(step).apply(state)
    print(f"gate {k + 1}  ", state, f"  (control {control} -> target {target})")
assert state == (2, 0, 1)  # |b c a> for a,b,c = 1,2,0

# The first gate as the dense unitary one would print for inspection:
# 27 rows of 0/1, a single 1 per row.
u1 = full_operator(Circuit(3, 3, circuit.gates[0:1]))
print()
print(permutation_matrix_text(u1))

# One full cycle is the index permutation 9a+3b+c -> 9b+3c+a.
perm = full_operator(circuit)
for a in range(3):
    for b in range(3):
        for c in range(3):
            assert perm[9 * a + 3 * b + c] == 9 * b + 3 * c + a
print("all 27 basis indices permute as |abc> -> |bca>")

# Superpositions ride along: random product states come out cyclically
# shifted with double-precision accuracy.
rng = np.random.default_rng(7)
worst = 0.0
for _ in range(100):
    a, b, c = (random_qudit(3, rng) for _ in range(3))
    out = simulate(circuit, StateVector.product(3, [a, b, c]))
    want = StateVector.product(3, [b, c, a])
    worst = max(worst, float(np.max(np.abs(out.amplitudes - want.amplitudes))))
print(f"max amplitude error over 100 random product states: {worst:.3e}")
assert worst < 1e-12
