"""ergolab benchmark: time whole workloads end to end, or trace them per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|cli|verify --seed N --seconds S --trace 0|1

Each workload is a list of ``ergolab`` command lines (see workloads.py).  One
pass runs every command of the workload in its own fresh Python process,
one process at a time, with ERGOLAB_THREADS unset and ergolab imported from
``src/``.  Passes repeat until S seconds of passes have been measured.
Outputs are checked after each pass, outside the timed span.  BENCHMARK.json
lists sweep and cli; verify is one long process per pass (see README.md).

End-to-end metrics (--trace 0):
  wall_s        wall time of one pass, process launch to exit, summed
  cpu_s         user plus system CPU of the pass's processes
  peak_rss_mib  largest peak RSS of any process of the pass
  setup_s       launch until ergolab is imported and the inputs are built,
                summed over the pass's processes
Each is the sum (for peak_rss_mib the largest) over the pass's processes of
that process's median over the passes.
Per-layer metrics (--trace 1) come from the same passes with ergolab's
functions wrapped by layers.Tracer; see layers.METRICS.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  fail_ratio (failed over attempted checks)
is printed above it; it is 0 on a correct program, so it is not a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

TIME_LIMIT_S = 170.0  # a run ends within this, whatever --seconds asks

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("ERGOLAB_THREADS", None)
    # import from bytecode caches, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Starts child processes one at a time and measures each."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def launch(self, job: dict) -> dict:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        if start >= self.deadline:
            raise BenchError("out of time before the workload finished")
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD)],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=self.deadline - start,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"process for {job.get('argv')} ran out of time")
        end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"process for {job.get('argv')} failed with code {proc.returncode}:\n"
                + proc.stderr[-3000:]
            )
        record = json.loads(proc.stdout.splitlines()[-1])
        if not Path(record["module"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"ergolab was imported from {record['module']}, not from {SRC}")
        record["wall_s"] = end - start
        record["setup_s"] = record["ready"] - start
        record["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return record


def check_pass(launcher: Launcher, workload: str, seed: int, argvs, records, first) -> workloads.Checks:
    """Check one pass's outputs; ``first`` holds the first pass's records."""
    checks = workloads.Checks()
    if workload == "verify":
        checks.merge(workloads.check_verify(records[0]["exit"], records[0]["stdout"]))
    elif workload == "cli":
        expected = workloads.load_expected()
        for argv, rec in zip(argvs, records):
            checks.merge(workloads.check_cli(argv, rec["exit"], rec["stdout"], expected))
    elif first:  # a repeated sweep must print the checked first pass byte for byte
        for argv, rec, ref in zip(argvs, records, first):
            same = (rec["exit"], rec["stdout"]) == (ref["exit"], ref["stdout"])
            checks.add(same, f"{' '.join(argv[:1] + argv[3:])}: output differs from the first pass")
    else:
        job = {
            "mode": "check_sweep",
            "schedule": workloads.sweep_schedule(seed),
            "runs": [[argv, rec["exit"], rec["stdout"]] for argv, rec in zip(argvs, records)],
        }
        result = launcher.launch(job)
        checks.attempted += result["attempted"]
        checks.failures.extend(result["failures"])
    return checks


def traced_pass_total(records) -> dict:
    total: dict = {}
    for rec in records:
        report = rec["trace"]
        report.update(
            wall_s=rec["wall_s"],
            stdout_bytes=len(rec["stdout"].encode("utf-8")),
            nonzero_exits=int(rec["exit"] != 0),
        )
        total = layers.add_reports(total, report)
    return total


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    launcher = Launcher(started + TIME_LIMIT_S)
    argvs = workloads.commands(workload, seed)
    launcher.launch({"mode": "setup"})  # warm-up: writes the bytecode caches

    checks = workloads.Checks()
    passes: List[List[dict]] = []
    measured = 0.0
    while True:
        pass_start = time.monotonic()
        records = [launcher.launch({"mode": "run", "argv": a, "trace": trace}) for a in argvs]
        checks.merge(check_pass(launcher, workload, seed, argvs, records, passes[0] if passes else None))
        if workload == "verify":  # each criterion's own timing, as printed by ergolab
            for line in records[0]["stdout"].splitlines():
                if line[:4] in ("PASS", "FAIL"):
                    print(f"  {line[:8]} {line[line.rfind('['):]}")
        passes.append(records)
        print(f"  pass {len(passes)} wall_s per process: "
              + " ".join(f"{rec['wall_s']:.4f}" for rec in records))
        measured += sum(rec["wall_s"] for rec in records)
        pass_cost = time.monotonic() - pass_start
        if measured >= seconds or time.monotonic() + 1.5 * pass_cost > launcher.deadline:
            break

    if trace:
        values = layers.median_metrics([layers.metrics(traced_pass_total(p)) for p in passes])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in layers.METRICS}
    else:
        by_process = list(zip(*passes))
        values = {
            name: sum(median(r[name] for r in reps) for reps in by_process)
            for name in ("wall_s", "cpu_s", "setup_s")
        }
        values["peak_rss_mib"] = max(median(r["maxrss_kib"] for r in reps) for reps in by_process) / 1024
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}

    failed = len(checks.failures)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
          f"processes per pass {len(argvs)}  measured {measured:.3f} s of {seconds:g} s asked")
    for name, entry in metrics.items():
        print(f"  {name:30s} {entry['value']:>16.6g} {entry['unit']:6s} median of {len(passes)} passes")
    print(f"  {'fail_ratio':30s} {failed / checks.attempted:>16.6g}        "
          f"{failed} failed of {checks.attempted} checks")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    return {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ergolab" / "cli.py").is_file():
        print(f"error: no ergolab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
