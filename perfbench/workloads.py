"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of ``ergolab`` command lines, each run in its own
process.  The checks here run after the timed processes have exited; the
sweep checks import ergolab and run in a separate checker process.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent

WORKLOADS = ("verify", "sweep", "cli")

# The README's command-line examples, in README order.
README_EXAMPLES: List[List[str]] = [
    ["norms", "--graph", "combined", "--n-max", "40", "--trunc", "2000", "--bound", "4"],
    ["orbit", "--graph", "gk", "--k", "2", "--n-max", "70"],
    ["cesaro", "--schedule", "128,256,512,1024", "--powers", "1,2,3", "--bound", "1/10"],
    ["cesaro", "--graph", "g0", "--start", "entry", "--schedule", "32,64"],
    ["block", "--windows", "10,100,1000", "--at-least", "2/5"],
    ["block", "--deviation", "--m-max", "1000", "--p", "1", "--at-most", "1/5"],
    ["verify", "--criteria", "5,6", "--format", "json"],
]

# Heavier commands: the exact and float block deviation scans, and the
# generic Cesaro engine on standalone copies.
HEAVY_COMMANDS: List[List[str]] = [
    ["block", "--deviation", "--m-max", "5000", "--windows", "1000"],
    ["block", "--deviation", "--m-max", "5000", "--windows", "1000", "--mode", "float"],
    ["cesaro", "--graph", "g0", "--start", "entry", "--schedule", "256,512"],
    ["cesaro", "--graph", "gk", "--k", "2", "--start", "entry", "--schedule", "256,512",
     "--factor", "-1"],
    # the acceptance criteria that take seconds, not tens of seconds
    ["verify", "--criteria", "2,3,4,7,8,9,10,12", "--format", "json"],
]

# Windows every sweep schedule contains: those of criteria 5 and 6, and 4096.
FIXED_WINDOWS = (128, 256, 512, 1024, 4096)
SCHEDULE_SIZE = 64
SCHEDULE_MAX = 4096

# (powers, factor) of the three sweep processes
SWEEP_RUNS: List[Tuple[Tuple[int, ...], str]] = [
    ((1, 2, 3), "1"),
    ((1, 2, 3), "-1"),
    ((1,), "i"),
]

# Values frozen in acceptance criteria 5 and 6: (power, factor, window) -> value
FROZEN_SWEEP_VALUES: Dict[Tuple[int, str, int], Fraction] = {
    (1, "1", 128): Fraction(5, 128),
    (1, "1", 256): Fraction(3, 128),
    (1, "1", 512): Fraction(7, 512),
    (1, "1", 1024): Fraction(1, 128),
    (2, "1", 1024): Fraction(9, 1024),
    (3, "1", 1024): Fraction(5, 1024),
    (1, "-1", 1024): Fraction(1, 128),
}

SWEEP_FACTORS = {"1": 1, "-1": -1, "i": complex(0, 1)}

GENERIC_MAX_WINDOW = 64  # windows the quadratic generic engine re-checks
DECIMAL_REL_TOL = 1e-11  # the CSV decimal column has 12 significant digits
FLOAT_ABS_TOL = 1e-9  # slack between the two double-precision routes


def sweep_schedule(seed: int) -> List[int]:
    """64 distinct windows in [2, 4096]: the fixed five plus 59 seeded ones.

    The seeded windows are stratified, one drawn from each of 59 equal
    slices of [2, 4096], so the schedule spans the range on every seed and
    the work of a sweep varies little from seed to seed.
    """
    rng = random.Random(seed)
    windows = set(FIXED_WINDOWS)
    slices = SCHEDULE_SIZE - len(FIXED_WINDOWS)
    span = SCHEDULE_MAX - 1
    edges = [2 + span * i // slices for i in range(slices + 1)]
    for lo, hi in zip(edges, edges[1:]):
        while True:
            n = rng.randrange(lo, hi)
            if n not in windows:
                windows.add(n)
                break
    return sorted(windows)


def commands(workload: str, seed: int) -> List[List[str]]:
    """The command lines of one pass of a workload, in run order."""
    if workload == "verify":
        return [["verify"]]
    if workload == "cli":
        return [list(argv) for argv in README_EXAMPLES + HEAVY_COMMANDS]
    if workload == "sweep":
        schedule = ",".join(str(n) for n in sweep_schedule(seed))
        out = []
        for powers, factor in SWEEP_RUNS:
            argv = ["cesaro", "--schedule", schedule, "--powers", ",".join(map(str, powers))]
            if factor != "1":
                argv += ["--factor", factor]
            out.append(argv)
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


class Checks:
    """Named pass/fail outcomes of one pass; failures keep a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


def cli_digest(argv: Sequence[str], stdout: str) -> str:
    """SHA-256 of a command's output; verify JSON loses its timings first."""
    text = stdout
    if argv[0] == "verify" and "json" in argv:
        payload = json.loads(stdout)
        for entry in payload:
            entry.pop("elapsed_seconds", None)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> Dict[str, dict]:
    """Exit codes and output digests of the cli commands, keyed by command line."""
    with open(HERE / "expected_cli.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_verify(exit_code: int, stdout: str) -> Checks:
    """Exit code 0 and a PASS line for each of the twelve criteria, in order."""
    checks = Checks()
    checks.add(exit_code == 0, f"verify exited {exit_code}, expected 0")
    lines = [line for line in stdout.splitlines() if line[:4] in ("PASS", "FAIL")]
    for number in range(1, 13):
        prefix = f"PASS #{number:02d} "
        ok = len(lines) >= number and lines[number - 1].startswith(prefix)
        checks.add(ok, f"criterion {number} did not report PASS in order")
    return checks


def check_cli(argv: Sequence[str], exit_code: int, stdout: str, expected: Dict[str, dict]) -> Checks:
    """Exit code and output bytes against the values recorded for this command."""
    checks = Checks()
    key = " ".join(argv)
    want = expected.get(key)
    if want is None:
        checks.add(False, f"no recorded output for {key!r}")
        return checks
    checks.add(exit_code == want["exit"], f"{key!r} exited {exit_code}, expected {want['exit']}")
    try:
        got = cli_digest(argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        got = f"unreadable output: {exc}"
    checks.add(got == want["sha256"], f"{key!r} output differs from the recorded digest")
    return checks


def parse_sweep_csv(stdout: str) -> List[Tuple[int, int, str, str]]:
    """Rows (power, n, value, decimal) of a ``cesaro`` CSV output."""
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["power", "n", "sup_norm", "sup_norm_decimal"]:
        raise ValueError("unexpected CSV header")
    return [(int(p), int(n), value, dec) for p, n, value, dec in rows[1:]]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_sweep(schedule: Sequence[int], runs: Sequence[Tuple[Sequence[str], int, str]]) -> Checks:
    """Check every sweep output through routes other than the scheduled sweep.

    - each process exits 0 and prints one row per (power, window), in order;
    - the windows of criteria 5 and 6 equal their frozen values;
    - every row equals a single-window sweep at that window;
    - windows up to 64 equal the generic averaging engine.
    """
    from ergolab import sweeps

    checks = Checks()
    for (powers, factor_name), (argv, exit_code, stdout) in zip(SWEEP_RUNS, runs):
        label = f"cesaro --powers {','.join(map(str, powers))} --factor {factor_name}"
        checks.add(exit_code == 0, f"{label} exited {exit_code}")
        try:
            rows = parse_sweep_csv(stdout)
        except ValueError as exc:
            checks.add(False, f"{label}: unreadable output ({exc})")
            continue
        want_keys = [(p, n) for p in powers for n in schedule]
        checks.add([(p, n) for p, n, _, _ in rows] == want_keys, f"{label}: wrong rows")
        factor = SWEEP_FACTORS[factor_name]
        exact = not isinstance(factor, complex)
        small = [n for n in schedule if n <= GENERIC_MAX_WINDOW]
        generic = {(p, n): v for p in powers for n, v in _generic(p, factor, small).items()}
        for p, n, value, decimal in rows:
            where = f"{label} at power {p}, window {n}"
            single = sweeps.combined_cesaro_sup_norms([n], step_power=p, factor=factor)[n]
            try:
                got = Fraction(value) if exact else float(value)
                ok = _close(float(decimal), float(got), DECIMAL_REL_TOL)
            except ValueError:
                checks.add(False, f"{where}: unreadable value {value!r}")
                continue
            ok = ok and (got == single if exact else _close(got, single, DECIMAL_REL_TOL))
            checks.add(ok, f"{where}: {value} differs from the single-window sweep")
            frozen = FROZEN_SWEEP_VALUES.get((p, factor_name, n))
            if frozen is not None:
                checks.add(got == frozen, f"{where}: {value} differs from frozen {frozen}")
            if (p, n) in generic:
                other = generic[(p, n)]
                ok = got == other if exact else abs(got - other) <= FLOAT_ABS_TOL
                checks.add(ok, f"{where}: {value} differs from the generic engine ({other})")
    return checks


def _generic(power: int, factor, windows: Sequence[int]) -> dict:
    """Cesaro sup norms of factor * T**power at the source by the generic engine."""
    from ergolab import ergodic, graphop, ladder
    from ergolab.core import SparseVector

    graph = ladder.make_counterexample()
    source = SparseVector.unit(ladder.SOURCE)
    if isinstance(factor, complex):  # the double-precision stepping route
        handle = ergodic.graph_handle(graph)
        return {n: ergodic.scalar_rotation_check(handle, source, factor, n, 1, engine="generic").value
                for n in windows}
    if not windows:
        return {}

    def step(v):
        v = graphop.power_apply(graph, v, power)
        return v if factor == 1 else v.scale(factor)

    handle = ergodic.OperatorHandle(apply=step, description=f"check step {factor} * T**{power}")
    return ergodic.cesaro_trace(handle, source, windows, engine="generic").norms()
