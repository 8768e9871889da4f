"""End-to-end command line runs, in process, with frozen outputs."""

import contextlib
import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ergolab
from ergolab import acceptance, blockdiag, cli, ladder
from test_golden import drop_timings


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def test_norms_csv(capsys):
    code, out, err = run(capsys, ["norms", "--graph", "g0", "--n-max", "3", "--trunc", "100"])
    assert code == 0 and err == ""
    rows = rows_of(out)
    assert rows[0] == ["n", "trunc", "norm", "norm_decimal"]
    assert rows[1] == ["1", "100", "2", "2"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert 1 <= int(row[0]) <= 3


def test_norms_bound_violation_exits_one(capsys):
    argv = ["norms", "--graph", "g0", "--n-max", "2", "--bound", "1/2"]
    assert run(capsys, argv) == (1, "n,trunc,norm,norm_decimal\n1,500,2,2\n2,500,2,2\n", "")


def test_orbit_standalone_copy(capsys):
    code, out, err = run(capsys, ["orbit", "--graph", "gk", "--k", "2", "--n-max", "64"])
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["n", "k", "simulated", "predicate", "match"]
    hits = [int(row[0]) for row in rows[1:] if row[2] == "1"]
    assert hits == [13, 29, 61]
    assert all(row[4] == "1" for row in rows[1:])


def test_orbit_combined_sinks(capsys):
    code, out, err = run(capsys, ["orbit", "--k-max", "2", "--n-max", "40"])
    assert code == 0
    rows = rows_of(out)[1:]
    assert len(rows) == 120
    assert all(row[4] == "1" for row in rows)
    ones = {(int(row[0]), int(row[1])) for row in rows if row[2] == "1"}
    assert ones == {(4, 0), (8, 0), (16, 0), (32, 0), (8, 1), (16, 1), (32, 1), (16, 2), (32, 2)}


def test_orbit_combined_rows_come_in_step_then_copy_order(capsys):
    # every row of `orbit --k-max 3 --n-max 70`, frozen: copy k's sink reads 1
    # at the steps 2**(m+2) with m >= k, and 0 at every other step
    ones = {(4, 0), (8, 0), (16, 0), (32, 0), (64, 0), (8, 1), (16, 1), (32, 1), (64, 1),
            (16, 2), (32, 2), (64, 2), (32, 3), (64, 3)}
    lines = ["n,k,simulated,predicate,match"]
    for n in range(1, 71):
        for k in range(4):
            hit = int((n, k) in ones)
            lines.append(f"{n},{k},{hit},{hit},1")
    code, out, err = run(capsys, ["orbit", "--k-max", "3", "--n-max", "70"])
    assert (code, err) == (0, "")
    assert out == "\n".join(lines) + "\n"


def test_orbit_exits_one_when_a_reading_misses_its_prediction(capsys, monkeypatch):
    # the simulation never misses on these graphs, so a wrong prediction at
    # step 3 stands in for a wrong simulation: its rows read match 0
    predict = ladder.orbit_predicate
    monkeypatch.setattr(ladder, "orbit_predicate", lambda i, k, n: predict(i, k, n) ^ (n == 3))
    code, out, err = run(capsys, ["orbit", "--k-max", "1", "--n-max", "4"])
    assert (code, err) == (1, "")
    assert [row[4] for row in rows_of(out)[1:]] == ["1", "1", "1", "1", "0", "0", "1", "1"]


def test_cesaro_csv_frozen(capsys):
    code, out, err = run(capsys, ["cesaro", "--schedule", "16,64"])
    assert code == 0
    rows = rows_of(out)
    assert rows == [
        ["power", "n", "sup_norm", "sup_norm_decimal"],
        ["1", "16", "1/8", "0.125"],
        ["1", "64", "1/16", "0.0625"],
    ]


def test_cesaro_json_matches_csv(capsys):
    code, out, err = run(capsys, ["cesaro", "--schedule", "16,64", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["power", "n", "sup_norm", "sup_norm_decimal"]
    assert payload["rows"] == [
        ["1", "16", "1/8", "0.125"],
        ["1", "64", "1/16", "0.0625"],
    ]


def test_cesaro_bound_checks(capsys):
    code, _, _ = run(capsys, ["cesaro", "--schedule", "128,1024", "--bound", "1/20"])
    assert code == 0
    code, _, _ = run(capsys, ["cesaro", "--schedule", "128", "--bound", "1/100"])
    assert code == 1


@pytest.mark.parametrize(
    "argv, option, at, below",
    [
        (["norms", "--graph", "combined", "--n-max", "40", "--trunc", "2000"], "--bound", "3", "2"),
        (["cesaro", "--schedule", "1024"], "--bound", "1/128", "127/16384"),
        # below the first window's value and above the second's
        (["cesaro", "--schedule", "128,1024"], "--bound", "5/128", "1/32"),
        (["block", "--windows", "10,100"], "--at-most",
         "4623280765312793221/10000000000000000000", "4623280765312793220/10000000000000000000"),
    ],
    ids=["norms", "cesaro", "cesaro-two-windows", "block"],
)
def test_a_bound_equal_to_the_largest_value_passes(capsys, argv, option, at, below):
    # the largest value printed is the bound itself: it passes, and a bound
    # below it fails, with the same output, even where other values pass it
    code, out, err = run(capsys, argv + [option, at])
    assert (code, err) == (0, "") and out
    assert run(capsys, argv + [option, below]) == (1, out, "")


@pytest.mark.parametrize("factor", ["i", "-i"])
def test_bounds_at_plus_minus_i_have_no_float_slack(capsys, factor):
    # window 100 reads 1/20 exactly at +-i; a bound 10**-10 below it fails
    argv = ["cesaro", "--schedule", "100", "--factor", factor, "--bound"]
    output = "power,n,sup_norm,sup_norm_decimal\n1,100,0.05,0.05\n"
    assert run(capsys, argv + ["1/20"]) == (0, output, "")
    assert run(capsys, argv + ["499999999/10000000000"]) == (1, output, "")


def test_cesaro_budget_exit_reports_where_it_stopped(capsys):
    code, out, err = run(
        capsys,
        ["cesaro", "--graph", "g0", "--start", "entry", "--schedule", "64", "--max-support", "10"],
    )
    assert code == 3 and out == ""
    assert err == "error: budget exceeded at window 6: support 14 above --max-support 10\n"


def test_cesaro_budget_boundary(capsys):
    # the uncapped run sums in the moving frame; capped runs add the orbit
    # into the running sum step by step, whose support reaches 1775 at
    # window 64 and 1717 the window before
    argv = ["cesaro", "--graph", "g0", "--start", "entry", "--schedule", "64"]
    uncapped = run(capsys, argv)
    assert uncapped == (0, "power,n,sup_norm,sup_norm_decimal\n1,64,5/64,0.078125\n", "")
    assert run(capsys, argv + ["--max-support", "1775"]) == uncapped
    code, out, err = run(capsys, argv + ["--max-support", "1774"])
    assert code == 3 and out == ""
    assert err == "error: budget exceeded at window 64: support 1775 above --max-support 1774\n"


def test_cesaro_default_cap_past_the_moving_frame_windows(capsys):
    argv = ["cesaro", "--graph", "g0", "--start", "entry", "--schedule"]
    code, out, err = run(capsys, argv + ["4096"])
    assert code == 0 and err == "" and rows_of(out)[1][:2] == ["1", "4096"]
    # one window further the run adds every step into a running sum, which
    # outgrows the default cap on the way
    code, out, err = run(capsys, argv + ["4097"])
    assert code == 3 and out == ""
    assert err == "error: budget exceeded at window 716: support 250595 above --max-support 250000\n"


@pytest.mark.parametrize(
    "options, where",
    [
        ("--schedule 64 --powers 2 --max-support 100", "window 12: support 106 above --max-support 100"),
        ("--schedule 64 --factor -1 --max-support 100", "window 17: support 107 above --max-support 100"),
        ("--graph gk --k 2 --schedule 40 --powers 3 --factor -1 --max-support 300",
         "window 15: support 301 above --max-support 300"),
        ("--schedule 64 --max-support 10 --out PATH", "window 6: support 14 above --max-support 10"),
    ],
    ids=["power-2", "factor-minus-1", "gk-power-3-factor-minus-1", "out-file"],
)
def test_step_by_step_pass_budget_exits(capsys, tmp_path, options, where):
    # a budget exit writes no rows: not to stdout, and no --out file
    options = [str(tmp_path / "rows.csv") if o == "PATH" else o for o in options.split()]
    graph = [] if "--graph" in options else ["--graph", "g0"]
    code, out, err = run(capsys, ["cesaro", *graph, "--start", "entry", *options])
    assert (code, out, err) == (3, "", f"error: budget exceeded at {where}\n")
    assert list(tmp_path.iterdir()) == []


def test_max_support_does_not_cap_the_structural_sweep(capsys):
    # from the combined graph's source the sweep keeps no running sum, so
    # there is no support to cap and the run gives the uncapped bytes
    argv = ["cesaro", "--schedule", "1000"]
    uncapped = (0, "power,n,sup_norm,sup_norm_decimal\n1,1000,1/125,0.008\n", "")
    assert run(capsys, argv) == uncapped
    assert run(capsys, argv + ["--max-support", "1"]) == uncapped


def test_structural_sweep_needs_no_cap_at_a_huge_window(capsys):
    # a window is swept on its own and reads only the streams that can beat
    # its running maximum: a handful at any window, so 10**20 takes a moment
    argv = ["cesaro", "--schedule", "99999999999999999999", "--powers", "1,2,3"]
    assert run(capsys, argv) == (
        0,
        "power,n,sup_norm,sup_norm_decimal\n"
        "1,99999999999999999999,65/99999999999999999999,6.5e-19\n"
        "2,99999999999999999999,2/3030303030303030303,6.6e-19\n"
        "3,99999999999999999999,1/3030303030303030303,3.3e-19\n",
        "",
    )


def test_rotations_by_i_keep_their_phase_at_huge_windows(capsys):
    # at power 1 every contribution stream's records share one phase, so
    # factors i and -i give factor 1's sup norms; i**k is exact, and a power
    # rounded through exp and log lost the phase (17 % off at 10**20)
    schedule = "10000000000000,10000000000000000,99999999999999999999"
    decimals = {}
    for factor in ("1", "i", "-i"):
        code, out, err = run(capsys, ["cesaro", "--schedule", schedule, "--factor", factor])
        assert code == 0 and err == ""
        decimals[factor] = [row[3] for row in rows_of(out)[1:]]
    assert decimals["i"] == decimals["-i"] == decimals["1"] == ["4.2e-12", "5.2e-15", "6.5e-19"]


def test_repeated_powers_print_their_rows_once(capsys):
    # a repeated power, like a repeated window, prints its rows once, in the
    # order in which the powers first appear
    _, plain, _ = run(capsys, ["cesaro", "--schedule", "3,16", "--powers", "2,1"])
    order = [row[:2] for row in rows_of(plain)[1:]]
    assert order == [["2", "3"], ["2", "16"], ["1", "3"], ["1", "16"]]
    repeated = ["cesaro", "--schedule", "16,3,16", "--powers", "2,1,2,1,1"]
    assert run(capsys, repeated) == (0, plain, "")
    _, once, _ = run(capsys, ["cesaro", "--schedule", "3", "--powers", "1"])
    assert run(capsys, ["cesaro", "--schedule", "3", "--powers", "1,1"]) == (0, once, "")


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_support_must_be_positive(capsys, cap):
    code, out, err = run(capsys, ["cesaro", "--graph", "g0", "--start", "entry",
                                  "--schedule", "8", "--max-support", cap])
    assert code == 2 and out == ""
    assert err == f"error: --max-support must be a positive integer, got {cap}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--graph", "g0", "--k", "5", "--n-max", "3"],
        ["orbit", "--graph", "combined", "--k", "3"],
        ["norms", "--graph", "g0", "--k", "4"],
        ["norms", "--graph", "combined", "--k", "1", "--n-max", "2"],
        ["cesaro", "--graph", "combined", "--k", "2", "--schedule", "8"],
        ["cesaro", "--graph", "g0", "--k", "1", "--start", "entry", "--schedule", "8"],
    ],
    ids=lambda argv: " ".join(argv[:5]),
)
def test_k_is_rejected_outside_gk(capsys, argv):
    code, out, err = run(capsys, argv)
    graph = argv[argv.index("--graph") + 1]
    assert code == 2 and out == ""
    assert err == f"error: --k applies only to --graph gk, not --graph {graph}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbit", "--graph", "g0", "--k-max", "5", "--n-max", "4"],
         "--k-max applies only to --graph combined, not --graph g0"),
        (["orbit", "--graph", "g0", "--n-max", "4", "--k-max", str(10**20)],
         "--k-max applies only to --graph combined, not --graph g0"),
        (["orbit", "--graph", "gk", "--k", "3", "--k-max", "2000"],
         "--k-max applies only to --graph combined, not --graph gk"),
        (["cesaro", "--graph", "g0", "--start", "source", "--x", "e_o"],
         "--start and --x are mutually exclusive"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_an_option_the_command_would_ignore_is_rejected(capsys, argv, message):
    # g0 and gk read one copy, whatever --k-max says; --x would override --start
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_cesaro_usage_errors(capsys):
    for argv, message in [
        (["cesaro", "--graph", "g0", "--start", "source"], "--start source needs --graph combined"),
        (["cesaro", "--graph", "g0", "--start", "entry", "--factor", "i"],
         "complex factors need --graph combined --start source"),
        (["cesaro", "--schedule", "0,4"], "--schedule must be positive integers, got '0,4'"),
        (["orbit", "--graph", "gk"], "--graph gk needs --k with a copy index from 1 to 1024"),
        (["cesaro", "--graph", "combined", "--start", "entry", "--schedule", "8"],
         "--start entry needs --graph g0 or --graph gk"),
        (["cesaro", "--graph", "combined", "--x", "e_o", "--schedule", "8"],
         "--start entry needs --graph g0 or --graph gk"),
    ]:
        assert run(capsys, argv) == (2, "", f"error: {message}\n"), argv


def test_cesaro_factor_accepts_a_dash_led_value_after_a_space(capsys):
    glued = run(capsys, ["cesaro", "--schedule", "16", "--factor=-i"])
    spaced = run(capsys, ["cesaro", "--schedule", "16", "--factor", "-i"])
    assert glued[0] == 0 and spaced == glued


@pytest.mark.parametrize(
    "argv, option",
    [
        (["cesaro", "--schedule", "16"], "--bound"),
        (["block", "--windows", "10"], "--at-least"),
        (["block", "--windows", "10"], "--at-most"),
    ],
    ids=["cesaro-bound", "block-at-least", "block-at-most"],
)
def test_bound_options_accept_a_dash_led_value_after_a_space(capsys, argv, option):
    glued = run(capsys, argv + [f"{option}=-1/2"])
    spaced = run(capsys, argv + [option, "-1/2"])
    assert spaced == glued
    assert glued[2] == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["norms", "--n-max", "2", "--trunc", "10"], "--bound"),
        (["cesaro", "--schedule", "8"], "--bound"),
        (["block", "--windows", "10"], "--at-least"),
        (["block", "--windows", "10"], "--at-most"),
    ],
    ids=["norms-bound", "cesaro-bound", "block-at-least", "block-at-most"],
)
def test_an_empty_bound_is_a_usage_error(capsys, argv, option):
    # an empty value is no bound at all: it must not pass as "no check"
    code, out, err = run(capsys, argv + [option, ""])
    assert (code, out) == (2, "")
    assert err == f"error: {option} must be a rational like 3/4, got ''\n"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(ergolab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "ergolab", "verify", "--criteria", "8"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS #08 ")


def test_importing_the_cli_skips_the_dataclass_machinery():
    """Start-up: ``import ergolab.cli`` adds neither dataclasses nor inspect
    to the modules a bare interpreter has already loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(ergolab.__file__).parents[1]))
    probe = (
        "import sys; bare = set(sys.modules); import ergolab.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "ergolab.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_output_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run(capsys, ["cesaro", "--schedule", "16,64"])
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, ["cesaro", "--schedule", "16,64", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_writes_its_output_to_the_out_file(tmp_path, capsys, fmt):
    argv = ["verify", "--criteria", "7,8", "--format", fmt]
    code, stdout_text, _ = run(capsys, argv)
    assert code == 0
    target = tmp_path / "verify.out"
    code, out, err = run(capsys, argv + ["--out", str(target)])
    assert code == 0 and out == "" and err == ""
    written = target.read_text(encoding="utf-8")  # only the timings may differ
    assert drop_timings(written) == drop_timings(stdout_text)
    assert criterion_numbers(written) == [7, 8] and written.endswith("]\n" if fmt == "json" else "\n")


# one cheap command line per subcommand and verify format
CHEAP_ARGV = [
    ["norms", "--graph", "g0", "--n-max", "2", "--trunc", "30"],
    ["orbit", "--graph", "gk", "--k", "2", "--n-max", "8"],
    ["cesaro", "--schedule", "16"],
    ["block", "--windows", "10"],
    ["verify", "--criteria", "8", "--format", "json"],
    ["verify", "--criteria", "8"],
]


@pytest.mark.parametrize("argv", CHEAP_ARGV)
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.csv"
    for path in (str(target), ""):  # an empty path is a path, not a missing --out
        code, out, err = run(capsys, argv + ["--out", path])
        assert code == 2 and out == ""
        assert err == f"error: cannot write --out {path}: No such file or directory\n"
    assert not target.exists()


class FullDisk:
    """A stdout whose every write and flush fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        self.write("")


UNWRITABLE_STDOUT = "error: cannot write to stdout: No space left on device\n"


@pytest.mark.parametrize("argv", CHEAP_ARGV)
def test_unwritable_stdout_is_a_usage_error(argv):
    # like an unwritable --out: exit 2 and one error line, not a traceback
    assert run_quietly(argv, stdout=FullDisk()) == (2, "", UNWRITABLE_STDOUT)


HELP_ARGV = [["--help"], *([name, "--help"] for name in ("norms", "orbit", "cesaro", "block", "verify"))]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_on_an_unwritable_stdout_is_a_usage_error(argv):
    # argparse prints the help itself; main writes it like any other output
    code, out, err = run_quietly(argv)
    assert (code, err) == (0, "") and out.startswith(" ".join(["usage: ergolab", *argv[:-1]]))
    assert run_quietly(argv, stdout=FullDisk()) == (2, "", UNWRITABLE_STDOUT)


def assert_unwritable_stdout_exits_cleanly(argv, code, err):
    """The run of ``argv`` that exited ``code`` with ``err``, against a full
    disk: output that was due becomes the one stdout error line (exit 2),
    and a usage or budget exit stays as it was, having written nothing."""
    want = (2, "", UNWRITABLE_STDOUT) if code in (0, 1) else (code, "", err)
    assert run_quietly(argv, stdout=FullDisk()) == want, argv


def test_block_diagonal_thresholds(capsys):
    # the passing threshold is golden entry block-diagonal-at-least
    code, _, _ = run(capsys, ["block", "--windows", "10", "--at-least", "1/2"])
    assert code == 1


def test_block_exact_bounds_have_no_float_slack(capsys):
    # 1/100 exceeds this bound by 1e-25, and b(10, 10, 1) falls short of the
    # second by 1e-31; both differences vanish in double precision
    code, _, _ = run(
        capsys,
        ["block", "--deviation", "--m-max", "50", "--windows", "100", "--p", "1",
         "--at-most", "99999999999999999999999/10000000000000000000000000"],
    )
    assert code == 1
    code, _, _ = run(
        capsys,
        ["block", "--windows", "10",
         "--at-least", "4623280765312793221000000000001/10000000000000000000000000000000"],
    )
    assert code == 1


def test_block_deviation_frozen_row(capsys):
    code, out, _ = run(
        capsys,
        ["block", "--deviation", "--m-max", "50", "--windows", "100", "--p", "1", "--at-most", "1/50"],
    )
    assert code == 0
    assert rows_of(out)[1] == ["1", "100", "1", "1/100", "0.01"]


def test_block_float_mode_tracks_exact(capsys, monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)  # 960 runs, one parser
    windows = ",".join(str(n) for n in [*range(1, 41), 64])
    for p in range(1, 9):
        for m_max in range(1, 61):
            argv = ["block", "--deviation", "--m-max", str(m_max), "--windows", windows, "--p", str(p)]
            code, exact_out, _ = run(capsys, argv)
            code2, float_out, _ = run(capsys, argv + ["--mode", "float"])
            assert code == 0 and code2 == 0
            for exact_row, float_row in zip(rows_of(exact_out)[1:], rows_of(float_out)[1:]):
                assert exact_row[0] == float_row[0], (p, m_max, exact_row[1])  # same block
                assert float(float_row[3]) == pytest.approx(float(exact_row[4]), rel=1e-9)
    # the doubles of blocks 1 and 2 tie at 0.5; the exact maximum is block 2
    argv = ["block", "--deviation", "--m-max", "2", "--windows", "2", "--p", "54", "--mode", "float"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and rows_of(out)[1] == ["2", "2", "54", "0.5", "0.5"]


@pytest.mark.parametrize("bound", [Fraction(1, 10), Fraction(1, 3), Fraction(-2, 7)])
def test_float_comparisons_allow_a_slack_of_1e_9(bound):
    # `block --mode float` values within 1e-9 above the bound pass, 2e-9 above it fail
    at_most = cli._block_at_most
    assert at_most(float(bound) + 5e-10, bound)
    assert not at_most(float(bound) + 2e-9, bound)
    assert at_most(-(float(bound) - 5e-10), -bound)  # the matching lower-bound test
    assert not at_most(-(float(bound) - 2e-9), -bound)
    # rationals compare with no slack at all
    assert not at_most(bound + Fraction(1, 10**12), bound)


BLOCK_FLOAT = ["block", "--mode", "float", "--windows", "3"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (BLOCK_FLOAT + ["--deviation", "--m-max", "5", "--at-most", "1e999"], 0),
        (BLOCK_FLOAT + ["--deviation", "--m-max", "5", "--at-most", "-1e999"], 1),
        (BLOCK_FLOAT + ["--at-least", "1e999"], 1),
        (BLOCK_FLOAT + ["--at-least", "-1e999"], 0),
        (["cesaro", "--schedule", "8", "--factor", "i", "--bound", "1e999"], 0),
        (["cesaro", "--schedule", "8", "--factor", "i", "--bound", "-1e999"], 1),
    ],
)
def test_float_values_compare_with_bounds_beyond_the_float_range(capsys, argv, code):
    # float(10**999) overflows; such a bound lies above (or below) every float
    assert run(capsys, argv)[::2] == (code, "")


@pytest.mark.parametrize(
    "options, row",
    [
        # s**n underflows for p = 10**400, so block 5 deviates by 1/3
        (["--deviation", "--m-max", "5", "--p", str(10**400), "--windows", "3"],
         ["5", "3", str(10**400), "0.333333333333", "0.333333333333"]),
        # block 1 deviates by 1/n, which underflows to 0
        (["--deviation", "--m-max", "5", "--windows", str(10**400)],
         ["1", str(10**400), "1", "0", "0"]),
        # on the diagonal s**n is about e**-2 however large m = n is, and 1/m
        # is subnormal at 10**320 and underflows at 10**400
        (["--windows", str(10**320)], [str(10**320)] * 2 + ["2"] + ["0.432332358382"] * 2),
        (["--windows", str(10**400)], [str(10**400)] * 2 + ["2"] + ["0.432332358382"] * 2),
    ],
    ids=["p-1e400", "n-1e400", "diagonal-1e320", "diagonal-1e400"],
)
def test_block_float_mode_beyond_the_float_range(capsys, options, row):
    code, out, err = run(capsys, ["block", "--mode", "float", *options])
    assert (code, err) == (0, "")
    assert rows_of(out)[1:] == [row]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("p, m_at", [("1", "1"), ("2", "1000000000000")])
def test_block_deviation_at_a_huge_m_max(capsys, monkeypatch, mode, p, m_at):
    name = "block_deviation_float" if mode == "float" else "block_deviation"
    evaluate = getattr(blockdiag, name)
    calls = []

    def counted(m, n, p):
        calls.append(m)
        return evaluate(m, n, p)

    monkeypatch.setattr(blockdiag, name, counted)
    argv = ["block", "--deviation", "--m-max", "1000000000000", "--windows", "10,1000",
            "--p", p, "--mode", mode]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [row[:3] for row in rows_of(out)[1:]] == [[m_at, "10", p], [m_at, "1000", p]]
    assert calls == [int(m_at)] * 2  # one block per window


def test_verify_selected_criteria(capsys):
    code, out, _ = run(capsys, ["verify", "--criteria", "2,8"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 2
    assert all("PASS" in line for line in lines)


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "--criteria", "8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["number"] == 8
    assert payload[0]["passed"] is True


def test_verify_exits_one_when_one_criterion_fails(capsys, monkeypatch):
    name, _, budget = acceptance.CRITERIA[7]
    monkeypatch.setitem(acceptance.CRITERIA, 7, (name, lambda: (False, "forced"), budget))
    code, out, err = run(capsys, ["verify", "--criteria", "8,7"])
    assert (code, err) == (1, "")
    assert [line[:8] for line in out.splitlines()] == ["PASS #08", "FAIL #07"]


def test_verify_unknown_criterion(capsys):
    assert run(capsys, ["verify", "--criteria", "99"]) == (
        2, "", "error: unknown criteria [99]; known: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]\n")


def criterion_numbers(text):
    """The criterion numbers a verify output shows, in order: text or JSON."""
    if text.startswith("["):
        return [row["number"] for row in json.loads(text)]
    return [int(line[6:8]) for line in text.splitlines()]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_repeated_criteria_run_once(capsys, fmt):
    # a repeated criterion, like a repeated power, runs and prints once, in
    # the order in which the criteria first appear
    code, once, err = run(capsys, ["verify", "--criteria", "8,7", "--format", fmt])
    assert code == 0 and err == "" and criterion_numbers(once) == [8, 7]
    code, repeated, err = run(capsys, ["verify", "--criteria", "8,7,8,7,7", "--format", fmt])
    assert (code, err) == (0, "")
    assert drop_timings(repeated) == drop_timings(once)


def test_norms_frozen_second_power(capsys):
    code, out, _ = run(capsys, ["norms", "--graph", "g0", "--n-max", "2", "--trunc", "30"])
    assert code == 0
    assert rows_of(out)[2] == ["2", "30", "2", "2"]


def test_norms_rejects_nonpositive_window(capsys):
    assert run(capsys, ["norms", "--graph", "g0", "--n-max", "0"]) == (
        2, "", "error: --n-max must be a positive integer, got 0\n")


def test_cesaro_start_vector_aliases(capsys):
    _, by_name, _ = run(capsys, ["cesaro", "--x", "e_s", "--schedule", "16,64"])
    _, by_role, _ = run(capsys, ["cesaro", "--start", "source", "--schedule", "16,64"])
    assert by_name == by_role
    code, _, err = run(capsys, ["cesaro", "--graph", "g0", "--x", "e_s", "--schedule", "8"])
    assert code == 2  # the source vector lives in the combined graph only


def test_block_flag_aliases(capsys):
    _, spelled, _ = run(capsys, ["block", "--sweep-diag", "--n", "10,100"])
    _, default, _ = run(capsys, ["block", "--windows", "10,100"])
    assert spelled == default
    code, _, err = run(capsys, ["block", "--sweep-diag", "--deviation"])
    assert code == 2 and "mutually exclusive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["block", "--sweep-diag", "--p", "3"], "--p applies only to --deviation"),
        (["block", "--windows", "10", "--p", "1"], "--p applies only to --deviation"),
        (["block", "--m-max", "50"], "--m-max applies only to --deviation"),
        (["block", "--sweep-diag", "--j", "2", "--m-max", "1000"],
         "--m-max applies only to --deviation"),
        (["block", "--deviation", "--j", "2"],
         "--j applies only to the diagonal sweep, not --deviation"),
        (["block", "--deviation", "--m-max", "10", "--j", "1", "--mode", "float"],
         "--j applies only to the diagonal sweep, not --deviation"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_block_rejects_flags_of_the_other_mode(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def run_quietly(argv, stdout=None):
    """Run ``argv`` in process: (exit code, stdout, stderr).  Pass ``stdout``
    to write to that stream instead; the stdout returned is then empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout or out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the line itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def block_argv(draw):
    """A block command line: valid, invalid or a mix.  Float mode draws from
    small values and powers of ten up to 10**400; exact mode has no cap on
    the window, so it draws small values only."""
    mode = draw(st.sampled_from(["exact", "float"]))
    value = st.integers(-1, 12)
    if mode == "float":
        value = st.one_of(value, st.integers(0, 400).map(lambda e: 10**e))
    deviation = draw(st.booleans())
    argv = ["block", "--mode", mode, "--deviation" if deviation else "--sweep-diag"]
    argv += ["--windows", ",".join(map(str, draw(st.lists(value, min_size=1, max_size=3))))]
    flags = ["--m-max", "--p"] if deviation else ["--j"]
    flags += draw(st.lists(st.sampled_from(["--m-max", "--p", "--j"]), max_size=1))  # maybe a stray one
    for flag in flags:
        if draw(st.booleans()):
            argv += [flag, str(draw(value))]
    for flag in ("--at-least", "--at-most"):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(["0", "1/3", "1", "-1/2", "1e999", "x"]))]
    return argv


@settings(max_examples=120)
@given(argv=block_argv(), fmt=st.sampled_from(["csv", "json"]))
def test_block_argument_vectors_exit_cleanly(tmp_path_factory, argv, fmt):
    assert_exits_cleanly(tmp_path_factory, argv, fmt)


def test_block_defaults_equal_the_spelled_out_values(capsys):
    _, implicit, _ = run(capsys, ["block", "--deviation", "--windows", "10,64"])
    _, spelled, _ = run(
        capsys, ["block", "--deviation", "--windows", "10,64", "--m-max", "1000", "--p", "1"]
    )
    assert implicit == spelled
    _, implicit, _ = run(capsys, ["block", "--windows", "10,64"])
    _, spelled, _ = run(capsys, ["block", "--windows", "10,64", "--j", "1"])
    assert implicit == spelled


@st.composite
def cesaro_argv(draw):
    """A cesaro command line from the combined graph's source, where the
    structural sweep runs: windows up to 5000 and a few up to 10**20, powers
    with repeats, every factor, and bounds valid, huge, nan or garbage."""
    window = st.one_of(st.integers(1, 5000), st.sampled_from([10**e for e in (4, 8, 12, 20)]))
    windows = draw(st.lists(window, min_size=1, max_size=4))
    powers = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    argv = ["cesaro", "--schedule", ",".join(map(str, windows))]
    argv += ["--powers", ",".join(map(str, powers))]
    argv += ["--factor", draw(st.sampled_from(["1", "-1", "i", "-i"]))]
    if draw(st.booleans()):
        bounds = ["0", "1/1000", "1/10", "1/3", "1", "-1/2", "1e999", "nan", "x", "1/0"]
        argv += ["--bound", draw(st.sampled_from(bounds))]
    return argv


BUDGET_LINE = re.compile(r"error: budget exceeded at window (\d+): support (\d+) above --max-support (\d+)\n")


def assert_exits_cleanly(tmp_path_factory, argv, fmt, budget_exit=False):
    """Exit 0, 1 or 2, or 3 where ``budget_exit`` allows it, with no
    traceback; exit 2 and 3 print one error line, on exit 3 the budget line
    that names the window.  On exit 0 or 1 the JSON rows equal the CSV rows
    and the --out bytes equal stdout.  An unwritable stdout exits as
    :func:`assert_unwritable_stdout_exits_cleanly` says.  Returns the exit
    code and stderr."""
    code, out, err = run_quietly(argv + ["--format", fmt])
    assert code in ((0, 1, 2, 3) if budget_exit else (0, 1, 2)), argv
    assert "Traceback" not in err
    assert_unwritable_stdout_exits_cleanly(argv + ["--format", fmt], code, err)
    if code in (2, 3):
        assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, argv
        assert code == 2 or BUDGET_LINE.fullmatch(err), (argv, err)
        return code, err
    assert err == "", argv
    other = "json" if fmt == "csv" else "csv"
    other_code, other_out, _ = run_quietly(argv + ["--format", other])
    csv_out, json_out = (out, other_out) if fmt == "csv" else (other_out, out)
    assert other_code == code
    header, *rows = rows_of(csv_out)
    assert json.loads(json_out) == {"columns": header, "rows": rows}, argv
    target = tmp_path_factory.mktemp("out") / "rows"
    assert run_quietly(argv + ["--format", fmt, "--out", str(target)]) == (code, "", "")
    assert target.read_bytes() == out.encode("utf-8")
    return code, err


@settings(max_examples=100)
@given(argv=cesaro_argv(), fmt=st.sampled_from(["csv", "json"]))
def test_cesaro_argument_vectors_exit_cleanly(tmp_path_factory, argv, fmt):
    assert_exits_cleanly(tmp_path_factory, argv, fmt)


@st.composite
def cesaro_entry_argv(draw):
    """A cesaro command line from an entry of g0 or gk, where the generic
    engine's step-by-step pass runs under an explicit --max-support of at
    most 2000, so that no draw runs long: windows up to 200, powers 1 to 3
    with repeats, factors 1 and -1, and a few invalid caps and bounds."""
    graph = draw(st.sampled_from(["g0", "gk"]))
    argv = ["cesaro", "--graph", graph, *draw(st.sampled_from([["--start", "entry"], ["--x", "e_o"]]))]
    if graph == "gk":
        argv += ["--k", str(draw(st.integers(1, 4)))]
    windows = draw(st.lists(st.integers(0, 200), min_size=1, max_size=3))
    powers = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    argv += ["--schedule", ",".join(map(str, windows)), "--powers", ",".join(map(str, powers))]
    argv += ["--factor", draw(st.sampled_from(["1", "-1"]))]
    argv += ["--max-support", str(draw(st.integers(-1, 2000)))]
    if draw(st.booleans()):
        argv += ["--bound", draw(st.sampled_from(["0", "1/10", "1/2", "1", "x"]))]
    return argv


@settings(max_examples=100)
@given(argv=cesaro_entry_argv(), fmt=st.sampled_from(["csv", "json"]))
def test_cesaro_entry_argument_vectors_exit_cleanly(tmp_path_factory, argv, fmt):
    """Exit 3 stops at a window of the schedule, at a support above the cap given."""
    code, err = assert_exits_cleanly(tmp_path_factory, argv, fmt, budget_exit=True)
    if code == 3:
        window, support, cap = map(int, BUDGET_LINE.fullmatch(err).groups())
        schedule = argv[argv.index("--schedule") + 1].split(",")
        assert 1 < window <= max(map(int, schedule)), (argv, err)
        assert support > cap == int(argv[argv.index("--max-support") + 1]), (argv, err)


# --k values: small ones, the bound, one past it and one whose shift used to overflow
COPY_INDICES = st.one_of(
    st.integers(-1, 6), st.sampled_from([cli.MAX_COPY_INDEX, cli.MAX_COPY_INDEX + 1, 10**20])
)


@st.composite
def norms_or_orbit_argv(draw):
    """A norms or orbit command line over every graph, with or without --k.
    norms has no cap on --n-max or --trunc, so both stay small."""
    command = draw(st.sampled_from(["norms", "orbit"]))
    graph = draw(st.sampled_from(["g0", "gk", "combined"]))
    argv = [command, "--graph", graph]
    with_k = draw(st.integers(0, 3)) > 0  # gk needs --k: 3 times in 4; the others refuse it
    if with_k == (graph == "gk"):
        argv += ["--k", str(draw(COPY_INDICES))]
    if draw(st.booleans()):
        argv += ["--n-max", str(draw(st.integers(-1, 60)))]
    if command == "norms":
        argv += ["--trunc", str(draw(st.integers(-1, 300)))]
        if draw(st.booleans()):
            bounds = ["0", "1/3", "1", "2", "4", "-1/2", "1e999", "nan", "x", "1/0"]
            argv += ["--bound", draw(st.sampled_from(bounds))]
    elif draw(st.booleans()):
        k_max = st.one_of(st.integers(-1, 4), st.sampled_from([cli.MAX_COPY_INDEX + 1, 10**20]))
        argv += ["--k-max", str(draw(k_max))]
    return argv


@settings(max_examples=100)
@given(argv=norms_or_orbit_argv(), fmt=st.sampled_from(["csv", "json"]))
def test_norms_and_orbit_argument_vectors_exit_cleanly(tmp_path_factory, argv, fmt):
    assert_exits_cleanly(tmp_path_factory, argv, fmt)


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--graph", "gk", "--n-max", "2", "--trunc", "3"],
        ["orbit", "--graph", "gk", "--n-max", "2"],
        ["cesaro", "--graph", "gk", "--start", "entry", "--schedule", "1,2"],
    ],
    ids=lambda argv: argv[0],
)
def test_copy_index_bound(capsys, argv):
    bound = cli.MAX_COPY_INDEX
    code, out, err = run(capsys, argv + ["--k", str(bound)])
    assert code == 0 and err == "" and out.count("\n") == 3
    for k in (bound + 1, 10**20, 0):
        code, out, err = run(capsys, argv + ["--k", str(k)])
        assert code == 2 and out == ""
        assert err == f"error: --k must be a copy index from 1 to {bound}, got {k}\n"


def test_orbit_k_max_bound(capsys, monkeypatch):
    # one combined-graph orbit per copy 0..--k-max: the bound is --k's
    bound = cli.MAX_COPY_INDEX
    for k_max in (bound + 1, 10**20):
        code, out, err = run(capsys, ["orbit", "--k-max", str(k_max), "--n-max", "1"])
        assert code == 2 and out == ""
        assert err == f"error: --k-max must be at most {bound}, got {k_max}\n"
    # at a small bound, the bound itself passes and one past it does not
    monkeypatch.setattr(cli, "MAX_COPY_INDEX", 3)
    code, out, err = run(capsys, ["orbit", "--k-max", "3", "--n-max", "1"])
    assert code == 0 and err == "" and rows_of(out)[1:] == [["1", str(k), "0", "0", "1"] for k in range(4)]
    code, out, err = run(capsys, ["orbit", "--k-max", "4", "--n-max", "1"])
    assert (code, out, err) == (2, "", "error: --k-max must be at most 3, got 4\n")


# --criteria tokens, valid half the time: the cheap criteria 7, 8 and 10 or an
# empty token, else zero, unknown, huge, negative or garbage; repeats come
# from drawing a token twice
CRITERIA_TOKENS = st.one_of(
    st.sampled_from(["7", "8", "10", ""]),
    st.sampled_from(["0", "13", str(10**20), "-1", "x", "7.5"]),
)


@st.composite
def verify_argv(draw):
    """A verify command line with a --criteria list of 1 to 4 tokens.  A lone
    empty token is left out: an empty --criteria runs all twelve criteria,
    as no --criteria does, which the README examples test runs."""
    tokens = draw(st.lists(CRITERIA_TOKENS, min_size=1, max_size=4).filter(lambda t: t != [""]))
    return ["verify", "--criteria", ",".join(tokens)]


@settings(max_examples=100)
@given(argv=verify_argv(), fmt=st.sampled_from(["csv", "json"]))
def test_verify_argument_vectors_exit_cleanly(tmp_path_factory, argv, fmt):
    """Exit 0, 1 or 2 with no traceback and one error line on exit 2; each
    criterion runs once, in first-seen order; --out holds stdout's bytes but
    for the timings; an unwritable stdout exits as
    :func:`assert_unwritable_stdout_exits_cleanly` says."""
    code, out, err = run_quietly(argv + ["--format", fmt])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    assert_unwritable_stdout_exits_cleanly(argv + ["--format", fmt], code, err)
    if code == 2:
        assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, argv
        return
    assert err == "", argv
    numbers = list(dict.fromkeys(int(token) for token in argv[2].split(",") if token))
    assert criterion_numbers(out) == numbers, argv
    target = tmp_path_factory.mktemp("out") / "verify"
    assert run_quietly(argv + ["--format", fmt, "--out", str(target)]) == (code, "", "")
    assert drop_timings(target.read_text(encoding="utf-8")) == drop_timings(out)
