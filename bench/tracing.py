"""In-memory spans around calls into swapnet's public functions.

A traced pass replaces selected module attributes with timing wrappers,
so every call the caller module makes through that name records a span
(name, start, end, parent, run id, plus a few integer attributes taken
from the arguments and result).  Nothing inside ``src/`` changes: the
wrappers sit on the names as the calling module sees them, e.g.
``swapnet.cycles.first_window_return`` is the brute-force kernel as
``cycles`` calls it, and ``swapnet.cycles.cycle_length`` is also what
``network`` and ``cli`` reach through ``cycles.cycle_length``.

Spans are kept in a list and written out when the run ends.  Per-layer
metrics are derived from them afterwards (``layer_metrics``).
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time


def _ints(args) -> list[int]:
    return [a for a in args if isinstance(a, int) and not isinstance(a, bool)]


def _window_steps(args, result):
    steps = result[0]
    return {"steps": steps if steps is not None else args[2]}


def _gates(args, result):
    return {"gates": len(args[0])}


def _moves(args, result):
    circuit, state = args[0], args[1]
    return {"gates": len(circuit), "amps": int(state.amplitudes.size)}


# (module, attribute, span name, extra attributes from (args, result))
WRAPPED = [
    ("swapnet.cycles", "first_window_return", "seqcore.first_window_return", _window_steps),
    ("swapnet.cycles", "cycle_length", "cycles.cycle_length",
     lambda a, r: {"factors": len(r.per_factor)}),
    ("swapnet.seqcore", "seq_stream", "seqcore.seq_stream", lambda a, r: {"terms": len(r)}),
    ("swapnet.seqcore", "term_exact_range", "seqcore.term_exact_range", None),
    ("swapnet.seqcore", "term_mod", "seqcore.term_mod", None),
    ("swapnet.seqcore", "binom_mod", "seqcore.binom_mod", None),
    ("swapnet.network", "verify_swap", "network.verify_swap", None),
    ("swapnet.network", "build_cyclic_network", "network.build_cyclic_network",
     lambda a, r: {"gates": len(r)}),
    ("swapnet.network", "linear_map", "network.linear_map", _gates),
    ("swapnet.network", "full_operator", "network.full_operator", _gates),
    ("swapnet.network", "simulate", "network.simulate", _moves),
    ("swapnet.genfun", "closed_form", "genfun.closed_form", None),
    ("swapnet.genfun", "compare_closed_vs_exact", "genfun.compare_closed_vs_exact", None),
]


class Tracer:
    """Span recorder; ``install`` wraps the functions in WRAPPED."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.run = ""

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "run": self.run, **attrs})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by a child process below ``parent``."""
        base = len(self.spans)
        for s in spans:
            s = dict(s, run=self.run)
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            self.spans.append(s)

    def _wrapper(self, fn, name, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, args=_ints(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, raised=True)
                raise
            self.close(index, **(extra(args, result) if extra else {}))
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, extra in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, extra))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def _pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures from the spans of one traced pass."""
    dur = [s["end"] - s["start"] for s in spans]

    def sel(name, under=""):
        return [i for i, s in enumerate(spans) if s["name"] == name and
                (not under or (s["parent"] is not None
                               and spans[s["parent"]]["name"].startswith(under)))]

    def total(ids):
        return sum(dur[i] for i in ids)

    def child_total(ids, name):
        ids = set(ids)
        return sum(dur[i] for i, s in enumerate(spans) if s["name"] == name and s["parent"] in ids)

    def attr(ids, key):
        return sum(spans[i].get(key, 0) for i in ids)

    window = sel("seqcore.first_window_return")
    cycle = sel("cycles.cycle_length")
    verify = sel("network.verify_swap")
    lmap = sel("network.linear_map")
    sim = sel("network.simulate")
    stream = sel("seqcore.seq_stream")
    cli_calls = sel("cli.invocation")
    compare = set(sel("genfun.compare_closed_vs_exact"))
    moves = sum(spans[i].get("gates", 0) * spans[i].get("amps", 0) for i in sim)
    return {
        "seqcore.window_calls": len(window),
        "seqcore.window_steps": attr(window, "steps"),
        "seqcore.window_s": total(window),
        "seqcore.window_steps_per_s": _rate(attr(window, "steps"), total(window)),
        "seqcore.stream_s": total(stream),
        "seqcore.stream_terms_per_s": _rate(attr(stream, "terms"), total(stream)),
        "seqcore.exact_range_s": total(sel("seqcore.term_exact_range")),
        "seqcore.term_mod_s": total(sel("seqcore.term_mod")),
        "seqcore.binom_mod_s": total(sel("seqcore.binom_mod")),
        "cycles.reports": len(cycle),
        "cycles.factor_runs": attr(cycle, "factors"),
        "cycles.cycle_length_s": total(cycle),
        "cycles.self_s": total(cycle) - child_total(cycle, "seqcore.first_window_return"),
        "cycles.certify_s": total(sel("cycles.cycle_length", under="op:certify")),
        "network.verify_swap_s": total(verify),
        "network.verify_swap_self_s": total(verify) - child_total(verify, "cycles.cycle_length"),
        "network.gates_built": attr(sel("network.build_cyclic_network"), "gates"),
        "network.build_s": total(sel("network.build_cyclic_network")),
        "network.linear_map_s": total(lmap),
        "network.gate_updates_per_s": _rate(attr(lmap, "gates"), total(lmap)),
        "network.full_operator_s": total(sel("network.full_operator")),
        "network.simulate_s": total(sim),
        "network.amp_moves_per_s": _rate(moves, total(sim)),
        "network.simulate_bytes_computed": 16 * moves,
        "genfun.closed_form_s": total(i for i in sel("genfun.closed_form")
                                      if spans[i]["parent"] not in compare),
        "genfun.closed_form_s.n150": total(i for i in sel("genfun.closed_form")
                                           if spans[i]["args"][:1] == [150]),
        "genfun.compare_s": total(compare),
        "cli.invocation_s": statistics.median(dur[i] for i in cli_calls) if cli_calls else 0.0,
        "cli.check_s": total(i for i in cli_calls if spans[i]["verb"] == "check"),
        "cli.stdout_bytes": attr(cli_calls, "stdout_bytes"),
    }


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(passes: list[list[dict]]) -> dict[str, float]:
    """Median over traced passes of each per-pass layer figure."""
    per_pass = [_pass_metrics(spans) for spans in passes]
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
