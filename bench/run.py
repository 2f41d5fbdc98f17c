"""The swapnet benchmark: one command, four workloads, checked answers.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

NAME is one of ``periods``, ``network``, ``series`` and ``cli`` (see
BENCHMARK.json for why each exists), or ``all`` to run the four in turn.  Load is a closed loop with one
client: one process, one call at a time, no worker pools.

Each run starts the workload in fresh processes (``worker.py``): one
that sets up, runs an unchecked warm-up pass (after which it reads
``peak_rss_mb``) and then timed passes, for about S seconds in all, and
before and after it a few that only set up, so that the median
``setup_s`` spans the whole run.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics from spans, plus the tracing overhead
against untraced passes of the same run.  Metric names and units are
read from BENCHMARK.json; ``wall_ref_s`` and ``cpu_ref_s`` are pass
times scaled to a reference machine speed (see ``worker.py``), and the
unscaled ``wall_s`` and ``cpu_s`` are printed above the result line.
Every operation's answer is checked; a call
that raises or answers wrongly counts in ``failed``, and
``fail_frac`` = failed / attempted is printed above the result line.

The full result (provenance, every pass, failures, spans, and the cases
left out of the benchmark with their reasons, from ``exclusions.json``)
is written as plain JSON to ``.bench_out/results/``.  ``--self-check`` runs each
workload once on reduced inputs and confirms that every check accepts
the right answer and rejects each deliberately wrong one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("periods", "network", "series", "cli")
SETUP_PROBES = 5  # set-up-only processes before the measured one, and again after it
DEADLINE_S = 170
# One client, one call at a time: numpy's BLAS pool would otherwise start
# a thread per core in every process, and the workloads use none of it.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


class Worker:
    """Starts worker.py processes for one workload until a shared deadline."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.base = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                     "--seed", str(seed), "--workdir", str(workdir)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREADED)
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            fail("out of time before the run finished")
        # its own session, so a timeout also ends the CLI process it may be waiting on
        proc = subprocess.Popen([*self.base, *extra], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"worker {' '.join(extra)} did not finish within {DEADLINE_S} s")
        if proc.returncode != 0 or not out.strip():
            fail(f"worker exited with {proc.returncode}:\n{err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the repository at ROOT, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, args, spec: dict, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    worker = Worker(workload, args.seed, workdir)
    setups = [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    run = worker("--seconds", str(args.seconds), "--trace", str(args.trace))
    setups.append(run["setup_s"])
    setups += [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    values = {
        "wall_ref_s": run["wall_ref_s"],
        "cpu_ref_s": run["cpu_ref_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        **run.get("layer", {}),
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}
    record = {
        "provenance": {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "traced": bool(args.trace), "passes": len(run["passes"]),
            "git_commit": git_commit(), "python": run["python"], "numpy": run["numpy"],
            "nproc": os.cpu_count(), "machine": platform.machine(),
        },
        "result": line,
        "fail_frac": run["failed"] / run["attempted"],
        "failed_by_layer": run["failed_by_layer"],
        "failures": run["failures"],
        "unscaled": {"wall_s": run["wall_s"], "cpu_s": run["cpu_s"], "ref_s": run["ref_s"]},
        "setup_samples_s": setups,
        "peak_rss_mb": run["peak_rss_mb"],
        "warmup_s": run["warmup_s"],
        "passes": run["passes"],
        "exclusions": json.loads((HERE / "exclusions.json").read_text()),
        "spans": run.get("spans", []),
    }
    return line, record


def self_check(workdir: Path) -> int:
    ok = True
    for name in WORKLOADS:
        report = Worker(name, 0, workdir)("--self-check")
        bad = [r for r in report["self_check"] if not (r["passes"] and r["rejects_wrong"])]
        wrong = sum(r.get("wrong_answers", 0) for r in report["self_check"])
        print(f"{name}: {len(report['self_check'])} checks, {wrong} wrong answers tried, "
              f"{len(bad)} bad")
        for row in bad:
            print(f"  {row}")
        ok = ok and report["ok"]
    print("self-check", "ok" if ok else "FAILED")
    return 0 if ok else 1


def report(workload: str, line: dict, record: dict) -> None:
    """Write the full record under .bench_out/results and print the result."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{record['provenance']['seed']}-trace{int(record['provenance']['traced'])}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["provenance"]))
    for metric, m in line["metrics"].items():
        print(f"{workload} {metric} {m['value']:.6g} {m['unit']}")
    for metric, value in record["unscaled"].items():
        print(f"{workload} {metric} {value:.6g} s (unscaled)")
    print(f"{workload} fail_frac {record['fail_frac']:.6g} (failed {line['failed']} "
          f"of {line['attempted']} operations)")
    for failure in record["failures"]:
        print(f"  failed: {failure}")
    print(json.dumps(line))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required unless --self-check is given")
    if not (SRC / "swapnet" / "__init__.py").is_file():
        fail(f"no swapnet package under {SRC}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_check:
            return self_check(workdir)
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            report(workload, *measure(workload, args, spec, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
