"""The four workloads: fixed operation lists with independent answers.

Each operation is one call into a public swapnet function (or one
``python -m swapnet`` process for ``cli``).  Its expected answer never
comes from the code under test: periods are pinned in ``expected.json``
or computed from the benchmark's own prime-power formula, operators and
states are checked with plain numpy, sequences with plain loops,
binomials with ``math.comb``, roots with ``numpy.roots``, and CLI
output against digests captured at the seed commit or against text the
benchmark renders itself.

The seed drives only the random states, the digit strings and the order
of the ``cli`` invocations; dimensions and sizes never depend on it.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from swapnet import cycles, genfun, network, seqcore

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed call, its answer and the check comparing the two."""

    layer: str
    name: str
    call: Callable[[], object]
    expected: Callable[[], object]  # evaluated once, outside the timed region
    check: Callable[[object, object], bool]


class Run:
    """State shared by one workload's operations during a run."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tracer = None  # set by the worker for traced passes


def _factor(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_power_period(d: int) -> int:
    """p^(m-1) * (p^(2m) - 1) for d = p^m."""
    [(p, m)] = _factor(d)
    return p ** (m - 1) * (p ** (2 * m) - 1)


def period(d: int) -> int:
    pinned = EXPECTED["periods"].get(str(d))
    return pinned["length"] if pinned else prime_power_period(d)


# ---------------------------------------------------------------- periods

def _report(r) -> tuple:
    return (r.length, [list(f) for f in r.per_factor])


def periods_ops(run: Run, quick: bool) -> list[Op]:
    dims = range(2, 10) if quick else range(2, 14)
    certs = (25, 27) if quick else (121, 125, 128, 169, 243, 256, 343)
    ops = []
    for d in dims:
        row = EXPECTED["periods"][str(d)]
        ops.append(Op("cycles", f"cycle_length d={d}", lambda d=d: cycles.cycle_length(d),
                      lambda row=row: (row["length"], row["factors"]),
                      lambda r, e: _report(r) == e))
    for d in certs:
        ops.append(Op("cycles", f"certify d={d}", lambda d=d: cycles.cycle_length(d),
                      lambda d=d: (prime_power_period(d), [[d, prime_power_period(d)]],
                                   "predicted-and-verified", True),
                      lambda r, e: _report(r) + (r.method, r.conjecture_ok) == e))
    return ops


# ---------------------------------------------------------------- network

def swap_verdict(d: int) -> tuple:
    """(kind, shift, gate count) of one full cycle, from the period alone."""
    composite = EXPECTED["swap_composite"].get(str(d))
    if composite:
        return (composite[0], composite[1], period(d))
    [(p, m)] = _factor(d)
    return ("swap" if m == 1 else "grouped", d - p ** (m - 1), period(d))


def _random_state(run: Run, d: int):
    n = d
    amps = run.np_rng.standard_normal(d ** n) + 1j * run.np_rng.standard_normal(d ** n)
    return network.StateVector(d, n, amps / np.linalg.norm(amps))


def _shifted(amps: np.ndarray, d: int) -> np.ndarray:
    """Amplitudes of d systems after a cyclic shift by -1 (system i ends on i-1)."""
    tensor = amps.reshape((d,) * d)
    return np.transpose(tensor, np.roll(np.arange(d), -1)).ravel()


def network_ops(run: Run, quick: bool) -> list[Op]:
    dims = (2, 3, 4, 5, 6, 7, 8, 9, 25) if quick else (2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 25, 27, 49, 125)
    # full_operator of an identity cycle: d=6 closes on the identity after
    # its 6552-gate period; three qutrit SWAP cycles (24 gates) do too
    op_d, op_gates = (3, 3 * period(3)) if quick else (6, period(6))
    sim_d = 3 if quick else 7
    state = _random_state(run, sim_d)
    ops = [Op("network", f"verify_swap d={d}", lambda d=d: network.verify_swap(d),
              lambda d=d: swap_verdict(d),
              lambda r, e: (r.kind, r.shift, r.gate_count) == e) for d in dims]
    ops.append(Op("network", f"full_operator d={op_d} gates={op_gates}",
                  lambda: network.full_operator(network.build_cyclic_network(op_d, op_gates)),
                  lambda: np.arange(op_d ** op_d), np.array_equal))
    ops.append(Op("network", f"simulate d={sim_d} gates={period(sim_d)}",
                  lambda: network.simulate(network.build_cyclic_network(sim_d, period(sim_d)), state),
                  lambda: _shifted(state.amplitudes, sim_d),
                  lambda r, e: np.array_equal(r.amplitudes, e)))
    return ops


# ----------------------------------------------------------------- series

def _mod_stream(d: int, m: int, count: int) -> list[int]:
    terms = [1] * min(d, count)
    for j in range(d, count):
        terms.append((terms[j - 1] + terms[j - d]) % m)
    return terms


def _exact_terms(d: int, count: int) -> list[int]:
    terms = [1] * min(d, count)
    for j in range(d, count):
        terms.append(terms[j - 1] + terms[j - d])
    return terms


def _roots_and_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal roots of 1 - z - z^n (roots of x^n - x^(n-1) - 1) and weights."""
    coeffs = np.zeros(n + 1)
    coeffs[0], coeffs[1], coeffs[-1] = 1.0, -1.0, -1.0
    alphas = np.roots(coeffs)
    return alphas, alphas ** n / (alphas ** (n - 1) + n)


def _closed_form_ok(cf, want, tol=1e-9) -> bool:
    alphas, betas, dominant = want
    if len(cf.alphas) != len(alphas) or not cf.residual <= 1e-6:
        return False
    matched = set()
    for a, b in zip(cf.alphas, cf.betas):
        j = int(np.argmin(np.abs(alphas - a)))
        if j in matched or abs(alphas[j] - a) > tol or abs(betas[j] - b) > tol:
            return False  # a root found twice cannot stand for two roots
        matched.add(j)
    if dominant is not None:
        top = max(range(len(cf.alphas)), key=lambda i: cf.alphas[i].real)
        if abs(cf.alphas[top] - dominant[0]) > 1e-6 or abs(cf.betas[top] - dominant[1]) > 1e-6:
            return False
    return True


def series_ops(run: Run, quick: bool) -> list[Op]:
    k = 10 ** 4 if quick else 10 ** 6
    exact_count, binom_n = (200, 200) if quick else (2000, 4000)
    orders = (4, 8, 16) if quick else (4, 8, 16, 32, 64, 100, 128, 150)
    ops = [
        Op("seqcore", f"seq_stream d=4 m=4 count={k}", lambda: seqcore.seq_stream(4, 4, k),
           lambda: _mod_stream(4, 4, k), lambda r, e: [int(v) for v in r] == e),
        Op("seqcore", f"term_exact_range d=8 count={exact_count}",
           lambda: seqcore.term_exact_range(8, exact_count),
           lambda: _exact_terms(8, exact_count), lambda r, e: r == e),
        Op("seqcore", f"term_mod j={k} d=8 m=8", lambda: seqcore.term_mod(k, 8, 8),
           lambda: _mod_stream(8, 8, k + 1)[k], lambda r, e: int(r) == e),
        Op("seqcore", f"binom_mod n={binom_n} k={binom_n // 2} m=7",
           lambda: seqcore.binom_mod(binom_n, binom_n // 2, 7),
           lambda: math.comb(binom_n, binom_n // 2) % 7, lambda r, e: int(r) == e),
    ]
    for n in orders:
        dominant = EXPECTED["closed_form_dominant"].get(str(n))
        ops.append(Op("genfun", f"closed_form n={n}", lambda n=n: genfun.closed_form(n),
                      lambda n=n, dominant=dominant: _roots_and_weights(n) + (dominant,),
                      _closed_form_ok))
    for n in (4, 8):
        ops.append(Op("genfun", f"compare_closed_vs_exact n={n} count=26",
                      lambda n=n: genfun.compare_closed_vs_exact(n, 26, 1e-6),
                      lambda: 1e-6, lambda r, e: 0 <= r <= e))
    return ops


# -------------------------------------------------------------------- cli

QUTRIT_SWAP = [(k % 3, (k + 1) % 3) for k in range(8)]
QUDIT5_CYCLE = [(k % 5, (k + 1) % 5) for k in range(24)]

# Invocations whose stdout is pinned by digest in expected.json.
CLI_PINNED = [
    "check",
    "seq --d 7 --count 16000 --mod 7 --json",
    "trace --d 5 --steps 2000 --json",
    "cycle --d 6",
    "cycle --d 10 --budget 1000",
    "scan --max 13",
    "scan --max 9 --csv",
    "swap --d 3",
    "closed-form --n 64",
    "closed-form --n 8 --count 40 --json",
    "export --d 4 --gates 30",
    "seq --d 1 --count 5",
]
CLI_QUICK = {"cycle --d 6", "cycle --d 10 --budget 1000", "swap --d 3",
             "closed-form --n 8 --count 40 --json", "export --d 4 --gates 30", "seq --d 1 --count 5"}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_circuits(workdir: Path) -> None:
    gatelist = ["DIM 3 SYSTEMS 3"] + [f"CNOT {c} {t}" for c, t in QUTRIT_SWAP]
    (workdir / "qutrit_swap.txt").write_text("\n".join(gatelist) + "\n")
    (workdir / "qutrit_swap.json").write_text(
        json.dumps({"d": 3, "systems": 3, "gates": QUTRIT_SWAP}))
    (workdir / "qudit5_cycle.json").write_text(
        json.dumps({"d": 5, "systems": 5, "gates": QUDIT5_CYCLE}))


def _rotated_basis_text(digits: str) -> bytes:
    return f"{digits[1:] + digits[0]} 1 0\n".encode()


def _swapped_json(d: int, amps: np.ndarray) -> bytes:
    """``simulate --json`` stdout for a full SWAP cycle applied to ``amps``."""
    doc = {"d": d, "systems": d,
           "amplitudes": [[float(z.real), float(z.imag)] for z in _shifted(amps, d)]}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _basis(d: int, digits: str) -> np.ndarray:
    amps = np.zeros(d ** d, dtype=np.complex128)
    amps[int(digits, d)] = 1.0
    return amps


def _documented_random_state(d: int, seed: int) -> np.ndarray:
    """The state ``random --seed K`` stands for: normal real and imaginary
    parts from ``default_rng(K)``, normalised.  Any other bytes would
    break the CLI's reproducibility contract."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(d ** d) + 1j * rng.standard_normal(d ** d)
    return amps / np.linalg.norm(amps)


def _cli_call(run: Run, args: list[str]) -> Callable[[], tuple[int, bytes]]:
    def execute(argv):
        proc = subprocess.run(argv, capture_output=True, cwd=run.workdir,
                              timeout=CLI_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout

    def call():
        tracer = run.tracer
        if tracer is None:
            return execute([sys.executable, "-m", "swapnet", *args])
        spans_file = run.workdir / "cli_spans.json"
        index = tracer.open("cli.invocation", verb=args[0], stdout_bytes=0)
        try:
            code, out = execute([sys.executable, str(HERE / "cli_shim.py"), str(spans_file), *args])
        finally:
            tracer.close(index)
        tracer.spans[index]["stdout_bytes"] = len(out)
        tracer.adopt(json.loads(spans_file.read_text()), index)
        spans_file.unlink()
        return code, out
    return call


def _cli_op(run: Run, args: list[str], want: Callable[[], tuple[int, str]]) -> Op:
    return Op("cli", "cli " + " ".join(args), _cli_call(run, args), want,
              lambda r, e: (r[0], _digest(r[1])) == e)


def cli_ops(run: Run, quick: bool) -> list[Op]:
    _write_circuits(run.workdir)
    d3 = "".join(str(run.rng.randrange(3)) for _ in range(3))
    d5 = "".join(str(run.rng.randrange(5)) for _ in range(5))
    k = run.rng.randrange(10 ** 6)
    ops = [
        _cli_op(run, ["simulate", "--circuit", "qutrit_swap.txt", "--state", d3],
                lambda: (0, _digest(_rotated_basis_text(d3)))),
        _cli_op(run, ["simulate", "--circuit", "qudit5_cycle.json", "--state", d5, "--json"],
                lambda: (0, _digest(_swapped_json(5, _basis(5, d5))))),
        _cli_op(run, ["simulate", "--circuit", "qutrit_swap.json", "--state", f"random --seed {k}", "--json"],
                lambda: (0, _digest(_swapped_json(3, _documented_random_state(3, k))))),
    ]
    for line in CLI_PINNED:
        if quick and line not in CLI_QUICK:
            continue
        code, digest = EXPECTED["cli_digests"][line]
        ops.append(_cli_op(run, line.split(), lambda want=(code, digest): want))
    run.rng.shuffle(ops)
    return ops


WORKLOADS = {"periods": periods_ops, "network": network_ops, "series": series_ops, "cli": cli_ops}
