"""One workload in its own process: set up, run timed passes, check answers.

Usage: python worker.py --workload NAME --seed N --seconds S --trace 0|1
                        --workdir DIR [--setup-only | --self-check]

swapnet is imported through PYTHONPATH, which ``run.py`` sets to the
checkout's ``src``.  Prints one JSON document on its last stdout line;
``run.py`` turns it into the benchmark result.  Set-up time covers
importing numpy and swapnet plus generating the workload's inputs.

A pass is one walk over the workload's operation list; each call is
timed on its own, so the answer checks between calls are not counted.
The first pass is a warm-up: it is neither timed nor checked, and no
expected answer exists yet when it ends, so the peak RSS read after it
holds set-up and the program's own allocations and none of the
benchmark's oracles.  Timed, checked passes follow while the next one is
expected to end within ``--seconds`` of the warm-up's start, with at
least two.  The reported time of a pass is the sum
over operations of each operation's median over the passes.  On a
shared machine other load slows single calls by up to about half, in
bursts far shorter than a pass; the fastest repeat of a call is a rare
event that moves by a quarter from run to run, while the median of a
few repeats moves by a few per cent.

The machine's own speed also drifts, by up to a third, for minutes at a
time, so whole runs land in a slow or a fast stretch.  Before each call
the worker therefore times a reference kernel, fixed work in this file
that never changes with the program.  ``wall_ref_s`` and ``cpu_ref_s``
are the pass times multiplied by (REFERENCE_S / the kernel's median time
in the run) ** SPEED_EXPONENT: an estimate of the pass time on the
machine in the state where the kernel takes REFERENCE_S.  A change to
the program moves them in proportion to the unscaled ``wall_s`` and
``cpu_s``, which are reported beside them.  With ``--trace 1`` passes alternate untraced
and traced, and the traced ones record spans for the per-layer figures.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

MIN_PASSES = 2
REFERENCE_S = 0.025  # about the reference kernel's time on a 2-vCPU x86-64 VM with Python 3.11
# The workloads slow less than the kernel when the machine slows.  Over 40
# runs on that VM, log pass time against log kernel time had slopes from
# 0.34 (network, mostly numpy) to 0.72 (periods, series, cli: interpreter).
SPEED_EXPONENT = 0.5
SHORT = 8  # sequences up to this length are corrupted at every element
IMPORT_PROBES = 3
LAYERS = ("seqcore", "cycles", "network", "genfun", "cli")


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--self-check", action="store_true")
    return ap.parse_args()


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def corruptions(value) -> list:
    """Deliberately wrong copies of an expected answer, each wrong in one place.

    Every component of a tuple or short list is corrupted in turn, so each
    part of a check must be shown to reject; long sequences and arrays
    are corrupted at their first and at their last element.
    """
    if value is None:
        return []
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [-abs(value) - 1]
    if isinstance(value, complex):
        return [value + 1]
    if isinstance(value, str):
        return [value + "!"]
    if isinstance(value, np.ndarray):
        out = []
        for i in sorted({0, value.size - 1}):
            wrong = value.copy()
            wrong.flat[i] = corruptions(wrong.flat[i].item())[0]
            out.append(wrong)
        return out
    if isinstance(value, (list, tuple)):
        places = range(len(value)) if len(value) <= SHORT else sorted({0, len(value) - 1})
        return [type(value)([*value[:i], wrong, *value[i + 1:]])
                for i in places for wrong in corruptions(value[i])]
    raise TypeError(f"cannot corrupt {type(value).__name__}")


class Answers:
    """Expected answers, each computed once on first use."""

    def __init__(self, ops):
        self.ops = ops
        self.cache = {}

    def __getitem__(self, i):
        if i not in self.cache:
            self.cache[i] = self.ops[i].expected()
        return self.cache[i]


def checked(op, result, want) -> str | None:
    """None when ``result`` matches ``want``, else the reason it does not."""
    try:
        return None if op.check(result, want) else "wrong answer"
    except Exception as exc:  # a malformed result is a wrong answer
        return f"check raised {exc!r}"


def reference_kernel() -> int:
    """Fixed pure-Python work, a window recurrence like the library's own
    kernels.  It allocates nothing the cyclic collector tracks and touches
    a few cache lines, so its time follows the machine's speed and not
    the heap or the allocator state the workload left behind."""
    window, acc = [1] * 8, 0
    for i in range(120000):
        v = (window[i % 8] + window[(i + 1) % 8]) % 7
        window[i % 8] = v
        acc += v
    return acc


def run_pass(ops, answers, run, who, tracer, index, failures):
    """Time one walk over ``ops``; returns per-op wall and CPU times, the
    reference kernel's time before each op, and failures per layer.

    With ``answers`` None nothing is checked and no expected answer is built.
    """
    wall, cpu, ref = [], [], []
    failed = dict.fromkeys(LAYERS, 0)
    run.tracer = tracer
    if tracer is not None:
        tracer.install()
    try:
        for j, op in enumerate(ops):
            t0 = time.perf_counter()
            reference_kernel()
            ref.append(time.perf_counter() - t0)
            span = None
            if tracer is not None:
                tracer.run = f"{index}.{j}"
                span = tracer.open("op:" + op.name)
            c0 = cpu_seconds(who)
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, f"raised {exc!r}"
            wall.append(time.perf_counter() - t0)
            cpu.append(cpu_seconds(who) - c0)
            if span is not None:
                tracer.close(span)
            if answers is not None:
                error = error or checked(op, result, answers[j])
            if error:
                failed[op.layer] += 1
                failures.append({"pass": index, "op": op.name, "error": error[:300]})
            del result
    finally:
        if tracer is not None:
            tracer.uninstall()
        run.tracer = None
    return wall, cpu, ref, failed


def typical_pass(passes, key: str, traced: bool) -> float:
    """Sum over operations of each one's median time over the chosen passes."""
    columns = zip(*(p[key] for p in passes if p["traced"] == traced))
    return sum(statistics.median(times) for times in columns)


def import_probe_s() -> float:
    """Median wall time of a fresh process importing swapnet.cli."""
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import swapnet.cli"], check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def self_check(ops, answers) -> dict:
    """Every answer matches on the reduced inputs; every corrupted one is rejected."""
    rows = []
    for j, op in enumerate(ops):
        try:
            result = op.call()
        except Exception as exc:
            rows.append({"op": op.name, "passes": False, "rejects_wrong": False, "error": repr(exc)})
            continue
        want = answers[j]
        wrong = corruptions(want)
        rows.append({"op": op.name, "passes": checked(op, result, want) is None,
                     "wrong_answers": len(wrong),
                     "rejects_wrong": bool(wrong) and all(checked(op, result, w) is not None
                                                          for w in wrong)})
    return {"self_check": rows, "ok": all(r["passes"] and r["rejects_wrong"] for r in rows)}


def main() -> None:
    args = parse_args()
    import swapnet
    from swapnet import cycles

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(swapnet.__file__).resolve().parent != src / "swapnet":
        sys.exit(f"swapnet imported from {swapnet.__file__}, not from {src}")
    # composite d (10 among them) must run to the library's default step
    # budget, whatever the calling shell sets
    os.environ.pop(cycles.BUDGET_ENV_VAR, None)
    from workloads import WORKLOADS, Run

    run = Run(args.seed, Path(args.workdir))
    ops = WORKLOADS[args.workload](run, quick=args.self_check)
    setup_s = time.perf_counter() - T0
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    answers = Answers(ops)
    if args.self_check:
        print(json.dumps(self_check(ops, answers)))
        return

    from tracing import Tracer, layer_metrics

    passes, traced_spans, failures = [], [], []
    failed = dict.fromkeys(LAYERS, 0)
    start = time.perf_counter()
    run_pass(ops, None, run, who, None, "warm-up", failures)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    warmup_s = time.perf_counter() - start
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        p0 = time.perf_counter()
        wall, cpu, ref, pass_failed = run_pass(ops, answers, run, who, tracer, len(passes), failures)
        passes.append({"wall_s": sum(wall), "cpu_s": sum(cpu), "op_wall_s": wall,
                       "op_cpu_s": cpu, "ref_s": ref, "elapsed_s": time.perf_counter() - p0,
                       "traced": traced})
        for layer, n in pass_failed.items():
            failed[layer] += n
        if tracer is not None:
            traced_spans.append(tracer.spans)
        estimate = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + estimate > args.seconds:
            break

    wall_s = typical_pass(passes, "op_wall_s", traced=False)
    cpu_s = typical_pass(passes, "op_cpu_s", traced=False)
    ref_s = statistics.median(t for p in passes if not p["traced"] for t in p["ref_s"])
    scale = (REFERENCE_S / ref_s) ** SPEED_EXPONENT
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "wall_ref_s": wall_s * scale,
        "cpu_ref_s": cpu_s * scale,
        "passes": passes,
        "attempted": len(ops) * len(passes),
        "failed": sum(failed.values()),
        "failed_by_layer": failed,
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "warmup_s": warmup_s,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.trace:
        layer = layer_metrics(traced_spans)
        layer.update({f"{name}.failed": n for name, n in failed.items()})
        layer["cli.import_s"] = import_probe_s()
        plain = typical_pass(passes, "op_wall_s", traced=False)
        with_spans = typical_pass(passes, "op_wall_s", traced=True)
        layer.update({
            "trace.wall_s": with_spans,
            "trace.untraced_wall_s": plain,
            "trace.overhead_frac": with_spans / plain - 1,
            "trace.spans": statistics.median(len(s) for s in traced_spans),
        })
        out["layer"] = layer
        out["spans"] = traced_spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
