"""Run the benchmark repeatedly and write every result to one JSON file.

    python3 perfbench/record.py --out FILE [--runs 10] [--traced 1]
        [--workloads verify,sweep,cli] [--first-seed 1] [--label TEXT]

Each run is a fresh invocation of BENCHMARK.json's command with its
run_seconds; run i uses seed first-seed + i.  Runs go seed by seed through
the workloads, so a slow spell of the machine touches every workload.  The
file is rewritten after every run.  At the end it prints, per workload and
end-to-end metric, the median, quartiles and spread (quartile distance over
median) next to a third of the metric's bound, and the tracing overhead:
the traced runs' median trace.wall_s over the untraced median wall_s.
compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from compare import load_benchmark, summarize

ROOT = Path(__file__).resolve().parent.parent


def invoke(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    *log, last = proc.stdout.strip().splitlines()
    return {"log": log, **json.loads(last)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--workloads", default=None, help="comma-separated (default all)")
    parser.add_argument("--first-seed", type=int, default=1, dest="first_seed")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    data = {
        "label": args.label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform(), "processor": platform.processor()},
        "run_seconds": bench["run_seconds"],
        "runs": {w: [] for w in names},
        "traced": {w: [] for w in names},
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    def save():
        out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")

    for trace, count, key in ((0, args.runs, "runs"), (1, args.traced, "traced")):
        for i in range(count):
            seed = args.first_seed + i
            for workload in names:
                start = time.monotonic()
                result = invoke(bench, workload, seed, trace)
                data[key][workload].append({"seed": seed, "seconds": time.monotonic() - start,
                                            "result": result})
                print(f"{key:6s} {workload:7s} seed {seed:3d}  {time.monotonic() - start:6.1f} s  "
                      f"correct {result['correct']}  failed {result['failed']}/{result['attempted']}",
                      flush=True)
                save()

    data["summary"], data["layers"], data["overhead"] = {}, {}, {}
    print(f"\n{'workload':8s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for workload in names:
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = summarize(r["result"]["metrics"][name]["value"] for r in data["runs"][workload])
            summary[name] = s
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <- not steady"
            print(f"{workload:8s} {name:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.2%} {metric['bound'] / 3:8.2%}{flag}")
        data["summary"][workload] = summary
        traced = data["traced"][workload]
        if traced:
            layer_names = traced[0]["result"]["metrics"]
            data["layers"][workload] = {
                name: median(r["result"]["metrics"][name]["value"] for r in traced)
                for name in layer_names
            }
            data["overhead"][workload] = data["layers"][workload]["trace.wall_s"] / summary["wall_s"]["median"]
    for workload, ratio in data["overhead"].items():
        print(f"tracing overhead on {workload}: traced wall_s / untraced wall_s = {ratio:.3f}")
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
