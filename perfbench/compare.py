"""Compare two results files written by record.py.

    python3 perfbench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the pairs NEW wins (runs paired by seed; ties count for
neither), and a verdict under the metric's bound from BENCHMARK.json:

  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, and not every NEW run beats every BASE run;
  better      NEW wins at least 9 in 10 pairs and the medians differ by more
              than BASE's quartile distance;
  worse       NEW's median is worse than BASE's by more than the bound;
  no worse    otherwise.

Per-layer medians of the traced runs are listed after, without a verdict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread (quartile distance over median)."""
    values = list(values)
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {"n": len(values), "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0}


def metric_values(runs: List[dict], name: str) -> Dict[int, float]:
    """Value of one metric in each run, keyed by seed."""
    return {run["seed"]: run["result"]["metrics"][name]["value"]
            for run in runs if name in run["result"]["metrics"]}


def verdict(base: Dict[int, float], new: Dict[int, float], bound: float, lower_better: bool) -> dict:
    sign = 1 if lower_better else -1
    b, n = summarize(base.values()), summarize(new.values())
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    losses = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    worse_share = sign * (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    all_better = all(sign * (x - y) < 0 for x in new.values() for y in base.values())
    if max(b["spread"], n["spread"]) > bound and not all_better:
        state = "unresolved"
    elif seeds and wins >= 0.9 * len(seeds) and abs(n["median"] - b["median"]) > b["q3"] - b["q1"]:
        state = "better"
    elif worse_share > bound:
        state = "worse"
    else:
        state = "no worse"
    return {"base": b, "new": n, "pairs": len(seeds), "wins": wins, "losses": losses,
            "change": worse_share, "verdict": state}


def _quartiles(summary: dict) -> str:
    return f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    bench = load_benchmark()
    worst = "no worse"
    print(f"{'workload':8s} {'metric':14s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
          f" {'worse by':>9s} {'bound':>6s} {'wins':>7s}  verdict")
    for workload in base["runs"]:
        if workload not in new["runs"]:
            print(f"{workload:8s} missing from {argv[1]}")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            result = verdict(
                metric_values(base["runs"][workload], name),
                metric_values(new["runs"][workload], name),
                metric["bound"],
                metric["better"] == "lower",
            )
            print(f"{workload:8s} {name:14s} {_quartiles(result['base']):>34s} "
                  f"{_quartiles(result['new']):>34s} {result['change']:+9.2%} "
                  f"{metric['bound']:6.0%} {result['wins']:>3d}/{result['pairs']:<3d}  "
                  f"{result['verdict']}")
            if result["verdict"] in ("worse", "unresolved") and worst != "worse":
                worst = result["verdict"]
    print("\nper-layer medians of the traced runs (base -> new)")
    for workload, base_layers in base.get("layers", {}).items():
        new_layers = new.get("layers", {}).get(workload, {})
        for name, value in base_layers.items():
            other = new_layers.get(name)
            if other is not None and other != value:
                print(f"  {workload:8s} {name:30s} {value:14.6g} -> {other:14.6g}")
    print(f"\noverall: {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
