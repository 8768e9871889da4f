"""Self-tests of the benchmark (about half a minute).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that an injected wrong value or exit code is caught, that traced
and untraced runs print identical outputs, and that BENCHMARK.json names
the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


def launch(argv, trace=False):
    launcher = run.Launcher(time.monotonic() + 120)
    return launcher.launch({"mode": "run", "argv": argv, "trace": trace})


# cheap commands that together reach every traced layer
TRACE_PROBES = [
    ["orbit", "--graph", "gk", "--k", "2", "--n-max", "70"],
    ["orbit", "--graph", "combined", "--k-max", "1", "--n-max", "20"],
    ["norms", "--graph", "combined", "--n-max", "4", "--trunc", "100"],
    ["cesaro", "--graph", "g0", "--start", "entry", "--schedule", "32,64"],
    ["cesaro", "--schedule", "2,17,128", "--powers", "1,2", "--factor", "-1"],
    ["cesaro", "--schedule", "5,64", "--factor", "i"],
    ["block", "--deviation", "--m-max", "300", "--windows", "10,100"],
    ["block", "--windows", "10,100", "--mode", "float"],
    ["verify", "--criteria", "2,5,6,8,9,10", "--format", "json"],
]


class InjectedFaults(unittest.TestCase):
    def test_cli_wrong_value_or_exit_code_is_caught(self):
        argv = workloads.README_EXAMPLES[1]
        rec = launch(argv)
        expected = workloads.load_expected()
        good = workloads.check_cli(argv, rec["exit"], rec["stdout"], expected)
        self.assertEqual((good.attempted, good.failures), (2, []))
        tampered = rec["stdout"].replace("\n70,2,", "\n70,3,", 1)
        self.assertNotEqual(tampered, rec["stdout"])
        bad = workloads.check_cli(argv, rec["exit"], tampered, expected)
        self.assertEqual(len(bad.failures), 1)
        bad = workloads.check_cli(argv, 1, rec["stdout"], expected)
        self.assertEqual(len(bad.failures), 1)

    def test_verify_json_timings_do_not_count(self):
        argv = workloads.README_EXAMPLES[6]
        rec = launch(argv)
        payload = json.loads(rec["stdout"])
        for entry in payload:
            entry["elapsed_seconds"] = 99.0
        slower = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self.assertEqual(workloads.cli_digest(argv, slower), workloads.cli_digest(argv, rec["stdout"]))
        payload[0]["passed"] = False
        wrong = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        self.assertNotEqual(workloads.cli_digest(argv, wrong), workloads.cli_digest(argv, rec["stdout"]))

    def test_verify_failed_or_missing_criterion_is_caught(self):
        lines = [f"PASS #{n:02d} criterion {n}: ok [0.01s / 5s]" for n in range(1, 13)]
        good = workloads.check_verify(0, "\n".join(lines) + "\n")
        self.assertEqual((good.attempted, good.failures), (13, []))
        lines[10] = lines[10].replace("PASS", "FAIL")
        self.assertEqual(len(workloads.check_verify(1, "\n".join(lines)).failures), 2)
        self.assertEqual(len(workloads.check_verify(0, "\n".join(lines[:11])).failures), 2)

    def test_sweep_wrong_value_is_caught_by_each_route(self):
        schedule = [3, 40, 128]
        runs = []
        for powers, factor in workloads.SWEEP_RUNS:
            argv = ["cesaro", "--schedule", "3,40,128", "--powers", ",".join(map(str, powers)),
                    "--factor", factor]
            rec = launch(argv)
            runs.append([argv, rec["exit"], rec["stdout"]])
        good = workloads.check_sweep(schedule, runs)
        self.assertEqual(good.failures, [])
        # 3 exit codes, 3 row sets, 21 rows against single windows, 14 of
        # them within the generic engine's range, criterion 5's window 128
        self.assertEqual(good.attempted, 3 + 3 + 21 + 14 + 1)

        def tamper(index, old, new):
            changed = [list(r) for r in runs]
            changed[index][2] = changed[index][2].replace(old, new, 1)
            self.assertNotEqual(changed[index][2], runs[index][2])
            return workloads.check_sweep(schedule, changed).failures

        a128 = workloads.FROZEN_SWEEP_VALUES[(1, "1", 128)]
        failures = tamper(0, f"1,128,{a128},", f"1,128,{a128 + Fraction(1, 1 << 40)},")
        self.assertEqual(len(failures), 2, failures)  # single window and frozen value
        value = runs[1][2].splitlines()[2].split(",")[2]  # power 1, window 40, factor -1
        failures = tamper(1, f"1,40,{value},", f"1,40,{Fraction(value) * 2},")
        self.assertEqual(len(failures), 2, failures)  # single window and generic engine
        wrong_exit = [runs[0], [runs[1][0], 3, runs[1][2]], runs[2]]
        failures = workloads.check_sweep(schedule, wrong_exit).failures
        self.assertEqual(len(failures), 1, failures)


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_identical(self):
        total = {}
        for argv in TRACE_PROBES:
            plain, traced = launch(argv), launch(argv, trace=True)
            self.assertEqual(plain["exit"], 0, argv)
            self.assertEqual(traced["exit"], 0, argv)
            self.assertEqual(workloads.cli_digest(argv, traced["stdout"]),
                             workloads.cli_digest(argv, plain["stdout"]), argv)
            report = traced["trace"]
            self.assertEqual(report["missing"], [])
            report.update(wall_s=traced["wall_s"], stdout_bytes=len(traced["stdout"]),
                          nonzero_exits=0)
            total = layers.add_reports(total, report)
        values = layers.metrics(total)
        self.assertEqual(set(values), {name for name, *_ in layers.METRICS})
        # every layer saw work somewhere in the probes
        for name in ("ladder.succ_calls", "ladder.pred_calls", "ladder.rung_index_calls",
                     "graphop.apply_calls", "graphop.adjoint_calls", "graphop.norms_s",
                     "graphop.paths_s", "core.sup_norm_calls", "core.fraction_str_calls",
                     "core.cesaro_geometric_calls", "ergodic.accumulate_cells",
                     "ergodic.peak_accumulator", "ergodic.certificate_s", "sweeps.windows",
                     "sweeps.build_s", "blockdiag.block_cesaro_calls",
                     "blockdiag.sup_deviation_s", "blockdiag.b_coeff_s", "cli.emit_s",
                     "acceptance.c09_s"):
            self.assertGreater(values[name], 0, name)
        self.assertEqual(values["cli.commands"], len(TRACE_PROBES))
        self.assertGreater(values["ladder.succ_calls"], values["ladder.succ_distinct"])

    def test_self_time_excludes_children(self):
        tracer = layers.Tracer()
        outer = tracer._span("graphop.norms", lambda: inner() or time.sleep(0.02))
        inner = tracer._span("graphop.apply", lambda: hot() or time.sleep(0.03))
        hot = tracer._hot("ladder.succ", lambda: time.sleep(0.01))
        outer()
        spans = tracer.report()["spans"]
        self.assertAlmostEqual(spans["graphop.norms"][1], 0.06, delta=0.02)
        self.assertAlmostEqual(spans["graphop.norms"][2], 0.02, delta=0.01)
        self.assertAlmostEqual(spans["graphop.apply"][2], 0.03, delta=0.01)


class Definitions(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.UNITS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.UNITS.items()))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [(name, unit, better) for name, unit, better, *_ in layers.METRICS])
        self.assertLessEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))

    def test_sweep_schedule_is_seeded(self):
        one = workloads.sweep_schedule(1)
        self.assertEqual(one, workloads.sweep_schedule(1))
        self.assertNotEqual(one, workloads.sweep_schedule(2))
        for seed in range(20):
            windows = workloads.sweep_schedule(seed)
            self.assertEqual(len(set(windows)), 64)
            self.assertTrue(set(workloads.FIXED_WINDOWS) <= set(windows))
            self.assertTrue(2 <= min(windows) and max(windows) == 4096)


if __name__ == "__main__":
    unittest.main()
