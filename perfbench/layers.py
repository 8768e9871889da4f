"""Per-layer tracing of ergolab, done from outside the program.

The tracer replaces ergolab's public functions and methods with timing
wrappers before a command runs and restores them afterwards.  A function is
replaced under every name a loaded ergolab module binds it to, so
``sweeps.rung_index`` is traced with ``ladder.rung_index`` and
``cli.fraction_str`` with ``core.fraction_str``.  Names missing from the
program are skipped and listed in the report, so a later refactor only
zeroes the metrics of what it removed.

Two kinds of wrapper:

- span: coarse calls (an operator step, a norm sweep, a criterion).  Each
  call is kept in memory as (group, start, end, parent, excluded seconds);
  self time is a span's duration minus its child spans, the hot calls made
  directly inside it and the tracer's own bookkeeping (distinct vertices,
  bit lengths) done inside it.
- hot: calls made up to millions of times (the successor oracle,
  ``rung_index``, ``fraction_str``).  Only a call count and summed time are
  kept; a hot call nested in another hot call is not subtracted twice.

METRICS lists every per-layer metric with the end-to-end metric and
workloads it should move, and the workloads where it should not move.
"""

from __future__ import annotations

import copy
import sys
import time
from fractions import Fraction
from statistics import median
from typing import Dict, List

perf = time.perf_counter

# name, unit, better, moves (end-to-end metric on workloads), should not move on
METRICS = [
    ("ladder.succ_calls", "count", "lower", "wall_s, peak_rss_mib on verify, cli", "sweep"),
    ("ladder.succ_distinct", "count", "lower", "peak_rss_mib on verify, cli", "sweep"),
    ("ladder.succ_reuse_ratio", "ratio", "higher", "wall_s, peak_rss_mib on verify, cli (base: succ_calls)", "sweep"),
    ("ladder.succ_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("ladder.pred_calls", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("ladder.pred_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("ladder.rung_index_calls", "count", "lower", "wall_s on verify, cli, sweep", ""),
    ("ladder.rung_index_s", "s", "lower", "wall_s on verify, cli, sweep", ""),
    ("ladder.enumerate_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.apply_calls", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.apply_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.apply_cells_in", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.apply_cells_out", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.peak_support", "count", "lower", "peak_rss_mib on verify, cli", "sweep"),
    ("graphop.adjoint_calls", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.adjoint_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.norms_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("graphop.paths_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("core.sup_norm_calls", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("core.sup_norm_cells", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("core.sup_norm_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("core.fraction_str_calls", "count", "lower", "wall_s on cli", ""),
    ("core.fraction_str_digits", "count", "lower", "wall_s on cli", ""),
    ("core.fraction_str_s", "s", "lower", "wall_s on cli", ""),
    ("core.cesaro_geometric_calls", "count", "lower", "wall_s on cli", "sweep"),
    ("core.cesaro_geometric_s", "s", "lower", "wall_s on cli", "sweep"),
    ("core.max_bits", "bits", "lower", "wall_s on verify, cli", ""),
    ("ergodic.accumulate_s", "s", "lower", "wall_s on cli", "sweep"),
    ("ergodic.accumulate_cells", "count", "lower", "wall_s on cli", "sweep"),
    ("ergodic.peak_accumulator", "count", "lower", "peak_rss_mib on cli", "sweep"),
    ("ergodic.witness_s", "s", "lower", "wall_s on verify", "sweep, cli"),
    ("ergodic.certificate_s", "s", "lower", "wall_s on verify, cli", "sweep"),
    ("sweeps.calls", "count", "lower", "wall_s on sweep", ""),
    ("sweeps.windows", "count", "higher", "wall_s on sweep", ""),
    ("sweeps.sweep_s", "s", "lower", "wall_s on sweep", "verify, cli"),
    ("sweeps.build_s", "s", "lower", "wall_s on sweep", "verify, cli"),
    ("sweeps.evaluate_s", "s", "lower", "wall_s on sweep", "verify, cli"),
    ("blockdiag.block_cesaro_calls", "count", "lower", "wall_s on cli", "sweep"),
    ("blockdiag.block_cesaro_s", "s", "lower", "wall_s on cli", "sweep"),
    ("blockdiag.sup_deviation_s", "s", "lower", "wall_s on cli", "sweep"),
    ("blockdiag.b_coeff_s", "s", "lower", "wall_s on cli", "sweep"),
    ("cli.commands", "count", "higher", "wall_s, setup_s on cli", ""),
    ("cli.run_s", "s", "lower", "wall_s on cli", ""),
    ("cli.emit_s", "s", "lower", "wall_s on cli", ""),
    ("cli.emit_bytes", "bytes", "lower", "wall_s on cli", ""),
    ("cli.nonzero_exits", "count", "lower", "wall_s on cli", ""),
] + [
    # criteria 1 and 11 run only in the verify workload; the rest also in cli
    (f"acceptance.c{n:02d}_s", "s", "lower",
     "wall_s on verify" if n in (1, 11) else "wall_s on verify, cli",
     "sweep, cli" if n in (1, 11) else "sweep")
    for n in range(1, 13)
] + [
    ("acceptance.headroom_min", "ratio", "higher", "wall_s on verify, cli", "sweep"),
    ("acceptance.over_budget", "count", "lower", "wall_s on verify, cli", "sweep"),
    ("trace.wall_s", "s", "lower", "traced wall time of one pass; over wall_s it is the tracing overhead", ""),
    ("trace.spans", "count", "lower", "spans recorded in one pass", ""),
]

# group -> (module, attribute path) of the functions traced in that group
HOT = {
    "ladder.succ": [("ergolab.graphop", "C0Graph.successors")],
    "ladder.pred": [("ergolab.graphop", "C0Graph.predecessors")],
    "ladder.rung_index": [("ergolab.ladder", "rung_index")],
    "ladder.enumerate": [("ergolab.graphop", "C0Graph.enumerate_vertex")],
    "core.sup_norm": [("ergolab.core", "SparseVector.sup_norm")],
    "core.fraction_str": [("ergolab.core", "fraction_str")],
    "core.cesaro_geometric": [("ergolab.core", "cesaro_geometric")],
    "blockdiag.block_cesaro": [("ergolab.blockdiag", "block_cesaro")],
    "blockdiag.b_coeff": [("ergolab.blockdiag", "b_coeff")],
}
SPANS = {
    "graphop.apply": [("ergolab.graphop", "apply")],
    "graphop.adjoint": [("ergolab.graphop", "apply_adjoint")],
    "graphop.norms": [
        ("ergolab.graphop", name)
        for name in ("operator_norm_truncated", "operator_norm_profile",
                     "power_norm_truncated", "power_norms_sweep")
    ],
    "graphop.paths": [
        ("ergolab.graphop", name)
        for name in ("enumerate_paths", "enumerate_paths_up_to",
                     "count_paths_to", "count_paths_profile")
    ],
    "ergodic.accumulate": [
        ("ergolab.ergodic", name)
        for name in ("cesaro_trace", "cesaro_apply",
                     "scalar_rotation_check", "power_mean_ergodic_check")
    ],
    "ergodic.witness": [("ergolab.ergodic", "weak_compactness_witness")],
    "ergodic.certificate": [
        ("ergolab.ergodic", "fixed_space_certificate"),
        ("ergolab.ergodic", "replay_certificate"),
    ],
    "sweeps.sweep": [("ergolab.sweeps", "combined_cesaro_sup_norms")],
    # the cli scan is a second copy of the deviation sweep
    "blockdiag.sup_deviation": [
        ("ergolab.blockdiag", "sup_deviation"),
        ("ergolab.blockdiag", "sup_deviation_float"),
        ("ergolab.cli", "_deviation_argmax"),
    ],
    "cli.run": [("ergolab.cli", "main")],
    "cli.emit": [("ergolab.cli", "_emit")],
    "acceptance.criterion": [("ergolab.acceptance", "run_criterion")],
}
ACCUMULATE = "ergodic.accumulate"


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    best = 0
    for value in values:
        if isinstance(value, (Fraction, int)):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > best:
                best = bits
    return best


class Tracer:
    """Wraps ergolab's functions for one process and collects the raw report."""

    def __init__(self):
        self.hot: Dict[str, List[float]] = {group: [0, 0.0] for group in HOT}
        # [group, start, end, parent index, seconds of hot calls and tracer
        # bookkeeping made directly inside the span]
        self.spans: List[list] = []
        self.open = [-1]  # indices of the spans being executed, innermost last
        self.hot_depth = [0]
        self.handle_depth = [0]
        self.counts: Dict[str, int] = {
            "apply_cells_in": 0, "apply_cells_out": 0, "peak_support": 0,
            "sup_norm_cells": 0, "fraction_str_digits": 0, "max_bits": 0,
            "accumulate_cells": 0, "peak_accumulator": 0, "sweep_windows": 0,
        }
        self.seen: Dict[object, set] = {}  # graph -> vertices asked of its oracle
        self.criteria: Dict[int, List[float]] = {}
        self.sweep_calls: List[tuple] = []
        self.missing: List[str] = []
        self._patches: List[tuple] = []

    # -- wrappers

    def _hot(self, group, fn, after=None):
        cell = self.hot[group]
        depth, spans, open_ = self.hot_depth, self.spans, self.open

        def wrapper(*args, **kwargs):
            depth[0] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                depth[0] -= 1
            cell[0] += 1
            cell[1] += elapsed
            if after is not None:
                start = perf()
                after(args, kwargs, result)
                elapsed += perf() - start
            if depth[0] == 0 and open_[-1] >= 0:
                spans[open_[-1]][4] += elapsed
            return result

        return wrapper

    def _span(self, group, fn, after=None):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            record = [group, 0.0, 0.0, open_[-1], 0.0]
            open_.append(len(spans))
            spans.append(record)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                open_.pop()
            if after is not None:
                start = perf()
                after(args, kwargs, result)
                if open_[-1] >= 0:
                    spans[open_[-1]][4] += perf() - start
            return result

        return wrapper

    # -- per-group bookkeeping run after a call returns

    def _after_successors(self, args, kwargs, result):
        graph, vertex = args[0], args[1]
        seen = self.seen.get(graph)
        if seen is None:
            seen = self.seen[graph] = set()
        seen.add(vertex)

    def _after_apply(self, args, kwargs, result):
        counts = self.counts
        counts["apply_cells_in"] += len(args[1])
        size = len(result)
        counts["apply_cells_out"] += size
        if size > counts["peak_support"]:
            counts["peak_support"] = size
        self._bits(value for _, value in result.items())

    def _after_sup_norm(self, args, kwargs, result):
        self.counts["sup_norm_cells"] += len(args[0])

    def _after_fraction_str(self, args, kwargs, result):
        self.counts["fraction_str_digits"] += len(result)
        self._bits((args[0],))

    def _after_value(self, args, kwargs, result):
        self._bits((result,))

    def _after_cesaro_trace(self, args, kwargs, result):
        supports = [rec.support for rec in result.records if rec.support is not None]
        if supports and max(supports) > self.counts["peak_accumulator"]:
            self.counts["peak_accumulator"] = max(supports)
        self._bits(rec.sup_norm for rec in result.records)

    def _after_sweep(self, args, kwargs, result):
        self.counts["sweep_windows"] += len(result)
        step_power = kwargs.get("step_power", args[1] if len(args) > 1 else 1)
        factor = kwargs.get("factor", args[2] if len(args) > 2 else 1)
        self.sweep_calls.append((max(result), step_power, factor))
        self._bits(result.values())

    def _after_criterion(self, args, kwargs, result):
        self.criteria[result.number] = [result.elapsed, result.budget]

    def _bits(self, values):
        bits = max_bits(values)
        if bits > self.counts["max_bits"]:
            self.counts["max_bits"] = bits

    def _wrap_handle_init(self, init):
        """Count the cells each accumulation loop folds in from an operator step."""
        counts, depth, spans, open_ = self.counts, self.handle_depth, self.spans, self.open

        def __init__(handle, *args, **kwargs):
            init(handle, *args, **kwargs)
            step = handle.apply

            def apply(vector):
                depth[0] += 1
                try:
                    result = step(vector)
                finally:
                    depth[0] -= 1
                if depth[0] == 0 and open_[-1] >= 0 and spans[open_[-1]][0] == ACCUMULATE:
                    counts["accumulate_cells"] += len(result)
                return result

            handle.apply = apply

        return __init__

    # -- installing and removing

    def install(self) -> None:
        after = {
            "ladder.succ": self._after_successors,
            "graphop.apply": self._after_apply,
            "core.sup_norm": self._after_sup_norm,
            "core.fraction_str": self._after_fraction_str,
            "core.cesaro_geometric": self._after_value,
            "sweeps.sweep": self._after_sweep,
            "acceptance.criterion": self._after_criterion,
        }
        trace_after = {("ergolab.ergodic", "cesaro_trace"): self._after_cesaro_trace}
        for table, make in ((HOT, self._hot), (SPANS, self._span)):
            for group, targets in table.items():
                for module_name, path in targets:
                    hook = trace_after.get((module_name, path), after.get(group))
                    self._patch(module_name, path, lambda fn: make(group, fn, hook))
        self._patch("ergolab.ergodic", "OperatorHandle.__init__", self._wrap_handle_init)

    def _patch(self, module_name: str, path: str, make) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        wrapper = make(original)
        if owner_name:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: replace it under every name bound to it
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ergolab" or name.startswith("ergolab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def measure_sweep_builds(self) -> float:
        """Seconds of a single-window sweep at each traced call's largest window.

        Run after uninstall(), so the probes are not traced themselves.
        """
        from ergolab import sweeps

        total = 0.0
        for n_max, step_power, factor in self.sweep_calls:
            start = perf()
            sweeps.combined_cesaro_sup_norms([n_max], step_power=step_power, factor=factor)
            total += perf() - start
        return total

    def report(self) -> dict:
        """Raw per-process figures; add_reports() and metrics() turn them into metrics."""
        spans = self.spans
        children = [0.0] * len(spans)
        for group, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        span_stats = {group: [0, 0.0, 0.0] for group in SPANS}  # calls, total, self
        for index, (group, start, end, parent, excluded) in enumerate(spans):
            stats = span_stats[group]
            stats[0] += 1
            stats[2] += end - start - children[index] - excluded
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != group:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost call of its group: count its time once
                stats[1] += end - start
        return {
            "hot": self.hot,
            "spans": span_stats,
            "span_count": len(spans),
            "counts": self.counts,
            "distinct": sum(len(vertices) for vertices in self.seen.values()),
            "criteria": {str(n): v for n, v in self.criteria.items()},
            "missing": self.missing,
        }


PEAKS = ("peak_support", "max_bits", "peak_accumulator")


def add_reports(total: dict, report: dict) -> dict:
    """Merge one process's raw report into the running total of a pass."""
    if not total:
        return copy.deepcopy(report)
    for key in ("hot", "spans"):
        for group, values in report[key].items():
            total[key][group] = [a + b for a, b in zip(total[key][group], values)]
    for name, value in report["counts"].items():
        if name in PEAKS:
            total["counts"][name] = max(total["counts"][name], value)
        else:
            total["counts"][name] += value
    for key in ("span_count", "distinct", "build_s", "stdout_bytes", "nonzero_exits", "wall_s"):
        total[key] += report[key]
    total["criteria"].update(report["criteria"])
    total["missing"] = sorted(set(total["missing"]) | set(report["missing"]))
    return total


def metrics(total: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in METRICS."""
    hot, spans, counts = total["hot"], total["spans"], total["counts"]
    succ_calls = hot["ladder.succ"][0]
    criteria = {int(n): v for n, v in total["criteria"].items()}
    sweep_s = spans["sweeps.sweep"][1]
    out = {
        "ladder.succ_calls": succ_calls,
        "ladder.succ_distinct": total["distinct"],
        "ladder.succ_reuse_ratio": 1 - total["distinct"] / succ_calls if succ_calls else 0.0,
        "ladder.succ_s": hot["ladder.succ"][1],
        "ladder.pred_calls": hot["ladder.pred"][0],
        "ladder.pred_s": hot["ladder.pred"][1],
        "ladder.rung_index_calls": hot["ladder.rung_index"][0],
        "ladder.rung_index_s": hot["ladder.rung_index"][1],
        "ladder.enumerate_s": hot["ladder.enumerate"][1],
        "graphop.apply_calls": spans["graphop.apply"][0],
        "graphop.apply_s": spans["graphop.apply"][2],
        "graphop.apply_cells_in": counts["apply_cells_in"],
        "graphop.apply_cells_out": counts["apply_cells_out"],
        "graphop.peak_support": counts["peak_support"],
        "graphop.adjoint_calls": spans["graphop.adjoint"][0],
        "graphop.adjoint_s": spans["graphop.adjoint"][2],
        "graphop.norms_s": spans["graphop.norms"][1],
        "graphop.paths_s": spans["graphop.paths"][1],
        "core.sup_norm_calls": hot["core.sup_norm"][0],
        "core.sup_norm_cells": counts["sup_norm_cells"],
        "core.sup_norm_s": hot["core.sup_norm"][1],
        "core.fraction_str_calls": hot["core.fraction_str"][0],
        "core.fraction_str_digits": counts["fraction_str_digits"],
        "core.fraction_str_s": hot["core.fraction_str"][1],
        "core.cesaro_geometric_calls": hot["core.cesaro_geometric"][0],
        "core.cesaro_geometric_s": hot["core.cesaro_geometric"][1],
        "core.max_bits": counts["max_bits"],
        "ergodic.accumulate_s": spans[ACCUMULATE][2],
        "ergodic.accumulate_cells": counts["accumulate_cells"],
        "ergodic.peak_accumulator": counts["peak_accumulator"],
        "ergodic.witness_s": spans["ergodic.witness"][1],
        "ergodic.certificate_s": spans["ergodic.certificate"][1],
        "sweeps.calls": spans["sweeps.sweep"][0],
        "sweeps.windows": counts["sweep_windows"],
        "sweeps.sweep_s": sweep_s,
        "sweeps.build_s": total["build_s"],
        "sweeps.evaluate_s": sweep_s - total["build_s"],
        "blockdiag.block_cesaro_calls": hot["blockdiag.block_cesaro"][0],
        "blockdiag.block_cesaro_s": hot["blockdiag.block_cesaro"][1],
        "blockdiag.sup_deviation_s": spans["blockdiag.sup_deviation"][1],
        "blockdiag.b_coeff_s": hot["blockdiag.b_coeff"][1],
        "cli.commands": spans["cli.run"][0],
        "cli.run_s": spans["cli.run"][1],
        "cli.emit_s": spans["cli.emit"][1],
        "cli.emit_bytes": total["stdout_bytes"],
        "cli.nonzero_exits": total["nonzero_exits"],
    }
    for n in range(1, 13):
        out[f"acceptance.c{n:02d}_s"] = criteria[n][0] if n in criteria else 0.0
    ratios = [budget / elapsed for elapsed, budget in criteria.values() if elapsed > 0]
    out["acceptance.headroom_min"] = min(ratios) if ratios else 0.0
    out["acceptance.over_budget"] = sum(1 for elapsed, budget in criteria.values() if elapsed >= budget)
    out["trace.wall_s"] = total["wall_s"]
    out["trace.spans"] = total["span_count"]
    return out


def median_metrics(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each per-layer metric over the traced passes of a run."""
    return {name: median(p[name] for p in passes) for name, *_ in METRICS}
