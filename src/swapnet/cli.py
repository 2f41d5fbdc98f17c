"""Command-line front end.

Every verb prints deterministic text, or a single JSON document under
--json.  Exit codes: 0 success, 1 internal failure, 2 usage error
(argparse's default), 3 budget exhausted before a verdict.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import seqcore
from .errors import InconclusiveError, SizeBudgetError, SwapnetError, VerificationError, _check_int
from .seqcore import _ascii_int


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)} {sign} {_fmt(abs(z.imag))}i"


def _emit_json(doc) -> None:
    print(json.dumps(doc, separators=(",", ":"), allow_nan=False))


SEQ_LIMIT = 5 * 10 ** 6  # most terms one seq run prints
DIGIT_LIMIT = 7 * 10 ** 7  # most digits one seq run prints


def _too_long(d: int, count: int) -> SizeBudgetError:
    return SizeBudgetError(f"--count {count} at order {d} needs terms longer than "
                           f"the {sys.get_int_max_str_digits()}-digit int-to-str limit")


def _growth(d: int) -> float:
    """alpha, the real root of x^d = x^(d-1) + 1: alpha^(j-d+1) <= term(j) <= alpha^j."""
    lo, hi = 1.0, 2.0  # bisect (d-1) log x + log(x-1) = 0
    while hi - lo > 1e-15:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (d - 1) * math.log(mid) + math.log(mid - 1) < 0 else (lo, mid)
    return hi


def _check_seq_size(d: int, count: int, mod: int | None) -> None:
    """Refuse a ``seq`` run too large to print, before any term is built."""
    if count > SEQ_LIMIT:
        raise SizeBudgetError(f"--count {count} exceeds the {SEQ_LIMIT} term limit")
    rate = math.log10(_growth(d)) if count > d else 0.0  # digits gained per term
    if mod is None and 0 < sys.get_int_max_str_digits() <= (count - d) * rate:
        raise _too_long(d, count)
    digits = count + rate * count * (count - 1) / 2
    if min(digits, count * len(str(mod - 1)) if mod else digits) > DIGIT_LIMIT:
        raise SizeBudgetError(f"--count {count} at order {d} exceeds the {DIGIT_LIMIT} digit limit")


def cmd_seq(args) -> int:
    _check_int("order", args.d, 2)  # usage errors come before any size check
    if args.mod is not None:
        seqcore._check_modulus(args.mod)
    _check_seq_size(args.d, args.count, args.mod)
    values = (seqcore.exact_sequence(args.d, args.count) if args.mod is None
              else seqcore.seq_stream(args.d, args.mod, args.count))
    # The bound lets a few counts past. Terms increase, so only the last can be too
    # long to print; below 2^(3 limit) < 10^limit it fits without building 10^limit.
    last = values[-1] if args.mod is None and values else 0
    limit = sys.get_int_max_str_digits()
    if limit and last.bit_length() > 3 * limit and last >= 10 ** limit:
        raise _too_long(args.d, args.count)
    if args.json:
        _emit_json({
            "d": args.d,
            "mod": args.mod,
            "count": args.count,
            "terms": [str(v) for v in values],
        })
    else:
        print(",".join(str(v) for v in values))
    return 0


def _report_doc(report) -> dict:
    """The JSON object of one ``CycleReport``, as ``cycle --json`` and ``scan --json`` print it."""
    doc = {"d": report.d, "length": report.length,
           "factors": [{"pm": pm, "len": ln} for pm, ln in report.per_factor],
           "shift": report.shift, "permutation": list(report.permutation), "method": report.method}
    if report.conjecture_ok is not None:
        doc["conjecture_ok"] = report.conjecture_ok
    return doc


def cmd_cycle(args) -> int:
    from . import cycles
    report = cycles.cycle_length(args.d, args.budget)
    if args.json:
        _emit_json(_report_doc(report))
    else:
        print(f"length {report.length}")
        factors = ", ".join(f"{ln} (mod {pm})" for pm, ln in report.per_factor)
        print(f"factors: {factors}")
        print(f"shift {report.shift}")
        print("permutation " + " ".join(str(i) for i in report.permutation))
        print(f"method {report.method}")
    return 0


def cmd_scan(args) -> int:
    from . import cycles
    entries = cycles.scan(args.max, args.budget)
    if args.json:
        _emit_json([_report_doc(e) if isinstance(e, cycles.CycleReport)
                    else {"d": e.d, "inconclusive": True, "budget": e.budget, "reason": e.reason}
                    for e in entries])
    elif args.csv:
        rows = (f"{e.d},{e.length if isinstance(e, cycles.CycleReport) else 'inconclusive'}"
                for e in entries)
        print("\n".join(["d,length", *rows]))
    else:
        for e in entries:
            if isinstance(e, cycles.CycleReport):
                note = ""
                if e.conjecture_ok is not None:
                    note = "  conjecture " + ("ok" if e.conjecture_ok else "FAILED")
                print(f"d={e.d}  length={e.length}  shift={e.shift}  method={e.method}{note}")
            else:
                print(f"d={e.d}  inconclusive after {e.budget} steps")
    failed = [e for e in entries if isinstance(e, cycles.ScanFailure)]
    return 3 if failed else 0


def cmd_swap(args) -> int:
    from . import network
    report = network.verify_swap(args.d, args.budget)
    if args.json:
        _emit_json({
            "d": args.d,
            "kind": report.kind,
            "shift": report.shift,
            "permutation": list(report.permutation),
            "gates": report.length,
        })
    else:
        heads = {"swap": "SWAP: cyclic shift by -1", "identity": "IDENTITY: shift 0",
                 "grouped": f"GROUPED: shift {report.shift}"}
        head = heads.get(report.kind) or f"OTHER: permutation {list(report.permutation)}"
        print(f"{head}, {report.length} gates")
    return 0


def cmd_trace(args) -> int:
    from . import network
    network._check_trace_rows(args.d, args.steps)  # usage errors, then the size, before any row is built
    arr = network.trace_array(args.d, args.steps)
    if args.json:
        _emit_json({
            "d": args.d,
            "t_start": arr.t_start,
            "t_end": arr.t_end,
            "rows": [arr.row(i) for i in range(args.d)],
            "header": arr.header(),
        })
    else:
        print(f"d={args.d} t={arr.t_start}..{arr.t_end}")
        for i in range(args.d):
            print(f"row{i}: " + " ".join(str(v) for v in arr.row(i)))
        print("sum:  " + " ".join(str(v) for v in arr.header()))
    return 0


def _parse_state(spec: str, d: int, n: int) -> network.StateVector:
    from . import network
    tokens = spec.split()
    try:
        if tokens and tokens[0] == "random":
            seed = 0
            rest = tokens[1:]
            if rest[:1] == ["--seed"] and len(rest) == 2:
                seed = _ascii_int(rest[1])
            elif rest:
                raise SwapnetError(f"bad state spec {spec!r}: expected 'random --seed K'")
            return network.StateVector.random(d, n, seed)
        if len(tokens) == 1:
            return network.StateVector.basis(d, n, tokens[0])
    # a bad seed or digit string, or digits that do not fit the circuit: a state fault, not a usage error
    except ValueError as exc:
        raise SwapnetError(f"bad state spec {spec!r}: {exc}") from exc
    raise SwapnetError(f"bad state spec {spec!r}: digit string or 'random --seed K'")


def cmd_simulate(args) -> int:
    from . import network
    try:
        with open(args.circuit, "r", encoding="ascii") as fh:
            text = fh.read(network.CIRCUIT_CHAR_LIMIT + 1)  # one past the limit: parse_circuit refuses it
    except UnicodeDecodeError as exc:  # a ValueError, which would read as a usage error
        raise SwapnetError(f"bad circuit: {exc}") from exc
    circuit = network.parse_circuit(text)
    state = _parse_state(args.state, circuit.d, circuit.n_systems)
    out = network.simulate(circuit, state)
    if args.json:
        _emit_json({
            "d": out.d,
            "systems": out.n,
            "amplitudes": [[z.real, z.imag] for z in out.amplitudes],
        })
    else:
        import numpy as np
        kept = np.flatnonzero(np.abs(out.amplitudes) > 1e-12)
        labels = zip(*(x.tolist() for x in np.unravel_index(kept, (out.d,) * out.n)))
        sep = "," if out.d > 10 else ""  # a digit past 9 needs a separator
        for digits, amp in zip(labels, out.amplitudes[kept].tolist()):
            print(f"{sep.join(map(str, digits))} {_fmt(amp.real)} {_fmt(amp.imag)}")
    return 0


def cmd_closed_form(args) -> int:
    from . import genfun
    genfun.series_denominator(args.n)  # an invalid order wins over an invalid tol
    genfun.check_tol(args.tol)  # refused before any root is sought
    if math.isinf(args.tol):  # JSON has no Infinity
        raise ValueError(f"tol must be finite, got {args.tol!r}")
    _check_int("count", args.count, 0)
    # the last term is at least alpha^(count-n); doubles stop being exact at 2^53
    if args.count > args.n and (args.count - args.n) * math.log2(_growth(args.n)) >= 53:
        raise ValueError(f"--count {args.count} at order {args.n} reaches terms past "
                         f"2^53, the limit of exact doubles")
    cf = genfun.closed_form(args.n)
    worst = genfun.max_deviation(cf, args.count, args.tol)
    if args.json:
        _emit_json({"n": cf.order, "alphas": [[z.real, z.imag] for z in cf.alphas],
                    "betas": [[z.real, z.imag] for z in cf.betas], "residual": cf.residual,
                    "max_deviation": worst, "count": args.count, "tol": args.tol})
    else:
        print(f"n = {args.n}")
        for l, (a, b) in enumerate(zip(cf.alphas, cf.betas), start=1):
            print(f"alpha[{l}] = {_fmt_complex(a)}\tbeta[{l}] = {_fmt_complex(b)}")
        print(f"max |closed - exact| over first {args.count} terms: {_fmt(worst)} (tol {_fmt(args.tol)})")
    return 0


def cmd_export(args) -> int:
    from . import network
    circuit = network.build_cyclic_network(args.d, args.gates)
    print(network.export_circuit(circuit, "json" if args.json else "gatelist"))
    return 0


def _require(ok: bool, *detail) -> None:
    """Raise VerificationError(*detail) unless ok: an assert that python -O keeps."""
    if not ok:
        raise VerificationError(*detail)


def _check_table_values():
    from . import cycles
    got = [e.length for e in cycles.scan(9)]
    _require(got == [3, 8, 30, 24, 6552, 48, 252, 240], got)


def _check_prime_periods():
    from . import cycles
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        _require(cycles.cycle_length_direct(p, p, p * p) == p * p - 1)


def _check_prime_power_instances():
    from . import cycles
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]:
        n = cycles.predicted_cycle(p, m)
        _require(cycles.cycle_length_direct(p ** m, p ** m, 2 * n) == n, p, m)


def _check_route_agreement():
    for d in range(2, 9):
        exact = seqcore.exact_sequence(d, 301)
        _require(seqcore.term_exact_range(d, 301) == exact)
        for m in (2, 3, 5, 8, d):
            stream = seqcore.seq_stream(d, m, 301)
            _require(stream == [v % m for v in exact])


def _check_pascal_rule():
    for n, row in enumerate(seqcore._pascal_rows(6, 40, 40)):
        _require(row == [seqcore.binom_exact(n, k) % 6 for k in range(n + 1)], n)


def _check_hockey_stick():
    _require(all(seqcore.hockey_stick_check(j, k) for j in range(31) for k in range(31)))


def _check_diagonal_periods():
    for p in (2, 3, 5):
        for a in (1, 2):
            for k in range(1, 7):
                e = 0
                while p ** (e + 1) <= k:
                    e += 1
                predicted = p ** (a + e)
                _require(seqcore.lu_tsai_period(p, a, k) == predicted)


def _check_qutrit_swap():
    import numpy as np

    from . import network
    circuit = network.build_cyclic_network(3, 8)
    rng = np.random.default_rng(99)
    for _ in range(20):
        a, b, c = (network.random_qudit(3, rng) for _ in range(3))
        out = network.simulate(circuit, network.StateVector.product(3, [a, b, c]))
        want = network.StateVector.product(3, [b, c, a])
        _require(np.max(np.abs(out.amplitudes - want.amplitudes)) < 1e-12)
    perm = network.full_operator(circuit)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                _require(perm[9 * a + 3 * b + c] == 9 * b + 3 * c + a)


def _check_basis_agreement():
    import numpy as np

    from . import network
    for d in (2, 3, 4):
        circuit = network.build_cyclic_network(d, 2 * d + 1)
        mapping = network.linear_map(circuit)
        for digits in np.ndindex((d,) * d):
            out = network.simulate(circuit, network.StateVector.basis(d, d, digits))
            _require(out.amplitudes[np.ravel_multi_index(mapping.apply(digits), (d,) * d)] == 1.0)


def _check_shift_consistency():
    from . import network
    for d in range(2, 10):
        report = network.verify_swap(d)
        row_map = network.trace_array(d, report.length).linear_map()
        _require(row_map.permutation() == report.permutation, d)


def _check_trace_row():
    from . import network
    row = network.trace_array(4, 26).row(0)
    _require(row == [0, 0, 0, 1, 1, 1, 1, 2, 3, 0, 1, 3, 2, 2, 3, 2, 0, 2,
                     1, 3, 3, 1, 2, 1, 0, 1, 3, 0, 0, 1], row)


def _check_closed_form_values():
    from . import genfun
    cf4 = genfun.closed_form(4)
    _require(abs(cf4.alphas[-1] - 1.380277569) < 1e-6)
    _require(abs(cf4.betas[-1] - 0.5474879784) < 1e-6)
    cf8 = genfun.closed_form(8)
    _require(abs(cf8.alphas[-1] - 1.232054631) < 1e-6)
    _require(abs(cf8.betas[-1] - 0.4313256714) < 1e-6)


def _check_closed_form_terms():
    from . import genfun
    _require(genfun.compare_closed_vs_exact(4, 26, 1e-6) < 1e-6)
    _require(genfun.compare_closed_vs_exact(8, 26, 1e-6) < 1e-6)


def _check_serialization():
    from . import network
    for fmt in ("json", "gatelist"):
        for circuit in (network.build_cyclic_network(3, 8), network.Circuit(5, 5)):
            _require(network.parse_circuit(network.export_circuit(circuit, fmt)) == circuit)


# each check is named by its function: _check_table_values runs as "table-values"
CHECKS = [(fn.__name__.removeprefix("_check_").replace("_", "-"), fn) for fn in (
    _check_table_values, _check_prime_periods, _check_prime_power_instances, _check_route_agreement,
    _check_pascal_rule, _check_hockey_stick, _check_diagonal_periods, _check_qutrit_swap,
    _check_basis_agreement, _check_shift_consistency, _check_trace_row, _check_closed_form_values,
    _check_closed_form_terms, _check_serialization)]


def cmd_check(args) -> int:
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # report every failure, keep going
            results.append((name, False, str(exc)))
    if args.json:
        _emit_json({
            "checks": [{"name": n, "ok": ok} for n, ok, _ in results],
            "ok": all(ok for _, ok, _ in results),
        })
    else:
        for name, ok, detail in results:
            print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    return 0 if all(ok for _, ok, _ in results) else 1


def _int_flag(text: str) -> int:
    """``_ascii_int`` for argparse, so its message states the grammar and names no function."""
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapnet",
        description="Cyclic CNOT networks: sequences, cycle lengths, simulation, closed forms.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    p = add("seq", cmd_seq, help="print sequence terms")
    p.add_argument("--d", type=_int_flag, required=True, help="sequence order / dimension")
    p.add_argument("--count", type=_int_flag, required=True, help="number of terms")
    p.add_argument("--mod", type=_int_flag, default=None, help="reduce terms mod M")

    p = add("cycle", cmd_cycle, help="cycle length report for one dimension")
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--budget", type=_int_flag, default=None, help="cap on each factor's period")

    p = add("scan", cmd_scan, help="cycle reports for all dimensions up to a bound")
    p.add_argument("--max", type=_int_flag, required=True)
    p.add_argument("--budget", type=_int_flag, default=None, help="cap on each factor's period")
    p.add_argument("--csv", action="store_true", help="two-column CSV output")

    p = add("swap", cmd_swap, help="classify what one full network cycle does")
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--budget", type=_int_flag, default=None, help="cap on each factor's period")

    p = add("trace", cmd_trace, help="coefficient array of the network over time")
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--steps", type=_int_flag, required=True, help="last time column T")

    p = add("simulate", cmd_simulate, help="run a circuit file on a state")
    p.add_argument("--circuit", required=True, help="circuit file (json or gatelist)")
    p.add_argument("--state", required=True, help="digit string or 'random --seed K'")

    p = add("closed-form", cmd_closed_form, help="roots/weights table and exact comparison")
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--count", type=_int_flag, default=26)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("export", cmd_export, help="serialize a cyclic network")
    p.add_argument("--d", type=_int_flag, required=True)
    p.add_argument("--gates", type=_int_flag, required=True)

    add("check", cmd_check, help="run the built-in invariant suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconclusiveError as exc:
        if getattr(args, "json", False):
            _emit_json({"inconclusive": True, "steps": exc.steps, "error": str(exc)})
        else:
            print(f"inconclusive: {exc}")
        return 3
    except ValueError as exc:
        # covers invalid moduli/orders and malformed numeric arguments
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SwapnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
