"""The command line's properties.

Every fixed command line with its exit code, stdout and stderr is an entry
of ``golden/manifest.json``, checked by ``test_golden.py``.  Here: the
properties that entries and ``same`` pairs show, each test made by
``test_golden.pinned`` or ``pinned_cases`` from the entries and pairs that
show it; the property slices, which draw command lines and
run each through ``test_golden.run_four_ways``; runs under a patched
module; the process entry point and its import cost; ``--help``, whose
text is argparse's; and two checks of float mode against exact mode."""

import csv
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ergolab
from ergolab import acceptance, blockdiag, cli, ladder
from test_golden import (
    BUDGET_LINE, UNWRITABLE_STDOUT, FullDisk, criterion_numbers, pinned, pinned_cases, run_four_ways, run_quietly,
)


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


# Properties shown by entries and same pairs of golden/manifest.json: each
# test names the entries and pairs that show its property, and test_golden's
# one driver checks them there and nowhere else.

test_norms_csv = pinned("norms-g0-n-max-3-trunc-100")
test_norms_frozen_second_power = pinned("norms-g0-n-max-2-trunc-30")
test_norms_bound_violation_exits_one = pinned("norms-g0-bound-below")
test_norms_rejects_nonpositive_window = pinned("norms-n-max-zero")
test_orbit_standalone_copy = pinned("orbit-gk-2-n-max-64")
test_orbit_combined_sinks = pinned("orbit-combined-k-max-2")
test_cesaro_csv_frozen = pinned("cesaro-16-64")
test_cesaro_bound_checks = pinned("cesaro-bound-1-20", "cesaro-bound-1-100")
test_a_bound_equal_to_the_largest_value_passes = pinned_cases({
    "norms": ("norms-bound-at-largest", "norms-bound-below-largest"),
    "cesaro": ("cesaro-bound-at-largest", "cesaro-bound-below-largest"),
    "cesaro-two-windows": ("cesaro-two-windows-bound-at-largest", "cesaro-two-windows-bound-below-largest"),
    "block": ("block-at-most-at-largest", "block-at-most-below-largest"),
})
test_bounds_at_plus_minus_i_have_no_float_slack = pinned_cases({
    "i": ("cesaro-factor-i-bound-equal", "cesaro-factor-i-bound-below"),
    "-i": ("cesaro-factor-minus-i-bound-equal", "cesaro-factor-minus-i-bound-below"),
})
test_cesaro_budget_exit_reports_where_it_stopped = pinned("cesaro-g0-entry-64-cap-10")
test_cesaro_budget_boundary = pinned(
    "cesaro-g0-entry-64", "cesaro-g0-entry-64-cap-1775", "cesaro-g0-entry-64-cap-1774")
test_cesaro_default_cap_past_the_moving_frame_windows = pinned("cesaro-g0-entry-4096", "cesaro-g0-entry-4097")
test_step_by_step_pass_budget_exits = pinned_cases({
    "power-2": ("cesaro-g0-entry-power-2-cap-100",),
    "factor-minus-1": ("cesaro-g0-entry-factor-minus-1-cap-100",),
    "gk-power-3-factor-minus-1": ("cesaro-gk-entry-power-3-cap-300",),
})
test_max_support_does_not_cap_the_structural_sweep = pinned("cesaro-1000", "cesaro-1000-cap-1")
test_structural_sweep_needs_no_cap_at_a_huge_window = pinned("cesaro-1e20-powers-1-2-3")
test_rotations_by_i_keep_their_phase_at_huge_windows = pinned(
    "cesaro-huge-factor-1", "cesaro-huge-factor-i", "cesaro-huge-factor-minus-i")
test_repeated_powers_print_their_rows_once = pinned(
    "cesaro-powers-2-1", "cesaro-3-power-1", "cesaro-repeated-powers-and-windows", "cesaro-repeated-power")
test_max_support_must_be_positive = pinned_cases({
    "0": ("cesaro-max-support-0",), "-5": ("cesaro-max-support-minus-5",)})
test_k_is_rejected_outside_gk = pinned_cases({
    "orbit --graph g0 --k 5": ("orbit-g0-k",),
    "orbit --graph combined --k 3": ("orbit-combined-k",),
    "norms --graph g0 --k 4": ("norms-g0-k",),
    "norms --graph combined --k 1": ("norms-combined-k",),
    "cesaro --graph combined --k 2": ("cesaro-combined-k",),
    "cesaro --graph g0 --k 1": ("cesaro-g0-k",),
})
test_an_option_the_command_would_ignore_is_rejected = pinned_cases({
    "orbit --graph g0 --k-max 5 --n-max 4-": ("orbit-g0-k-max",),
    "orbit --graph g0 --n-max 4 --k-max 100000000000000000000-": ("orbit-g0-huge-k-max",),
    "orbit --graph gk --k 3 --k-max 2000-": ("orbit-gk-k-max",),
    "cesaro --graph g0 --start source --x e_o-": ("cesaro-start-and-x",),
})
test_cesaro_usage_errors = pinned("cesaro-g0-start-source", "cesaro-g0-entry-factor-i", "cesaro-schedule-zero",
                                  "orbit-gk-without-k", "cesaro-combined-start-entry", "cesaro-combined-x-e-o")
test_cesaro_factor_accepts_a_dash_led_value_after_a_space = pinned(
    "cesaro-16-factor-minus-i", "cesaro-factor-minus-i-after-a-space")
test_bound_options_accept_a_dash_led_value_after_a_space = pinned_cases({
    "cesaro-bound": ("cesaro-16-bound-minus-half", "cesaro-bound-after-a-space"),
    "block-at-least": ("block-10-at-least-minus-half", "block-at-least-after-a-space"),
    "block-at-most": ("block-10-at-most-minus-half", "block-at-most-after-a-space"),
})
test_a_prefix_of_a_dash_valued_option_takes_a_dash_led_value = pinned(
    "cesaro-bound-abbreviated", "cesaro-factor-abbreviated", "block-at-least-abbreviated",
    "cesaro-schedule-abbreviated")
test_an_empty_bound_is_a_usage_error = pinned_cases({
    "norms-bound": ("norms-empty-bound",),
    "cesaro-bound": ("cesaro-empty-bound",),
    "block-at-least": ("block-empty-at-least",),
    "block-at-most": ("block-empty-at-most",),
})
test_block_diagonal_thresholds = pinned("block-10-at-least-half")
test_block_exact_bounds_have_no_float_slack = pinned(
    "block-deviation-at-most-below-by-1e-25", "block-at-least-above-by-1e-31")
test_block_deviation_frozen_row = pinned("block-deviation-m-max-50")
test_float_values_compare_with_bounds_beyond_the_float_range = pinned_cases({
    "argv0-0": ("block-float-deviation-at-most-1e999",),
    "argv1-1": ("block-float-deviation-at-most-minus-1e999",),
    "argv2-1": ("block-float-at-least-1e999",),
    "argv3-0": ("block-float-at-least-minus-1e999",),
    "argv4-0": ("cesaro-factor-i-bound-1e999",),
    "argv5-1": ("cesaro-factor-i-bound-minus-1e999",),
})
test_block_float_mode_beyond_the_float_range = pinned_cases({
    where: ("block-float-" + where,) for where in ("p-1e400", "n-1e400", "diagonal-1e320", "diagonal-1e400")})
test_verify_selected_criteria = pinned("verify-2-8")
test_verify_json = pinned("verify-8-json")
test_verify_unknown_criterion = pinned("verify-unknown-criterion")
test_repeated_criteria_run_once = pinned_cases({
    "csv": ("verify-8-7", "verify-repeated-criteria"),
    "json": ("verify-8-7-json", "verify-repeated-criteria-json"),
})
test_cesaro_start_vector_aliases = pinned("cesaro-start-source-spelled-out", "cesaro-x-e-s-alias", "cesaro-g0-x-e-s")
test_block_flag_aliases = pinned("block-sweep-diag-n-alias", "block-sweep-diag-and-deviation")
test_block_rejects_flags_of_the_other_mode = pinned_cases({
    "block --sweep-diag --p 3-": ("block-sweep-diag-p",),
    "block --windows 10 --p 1-": ("block-diagonal-p",),
    "block --m-max 50-": ("block-diagonal-m-max",),
    "block --sweep-diag --j 2 --m-max 1000-": ("block-sweep-diag-m-max",),
    "block --deviation --j 2-": ("block-deviation-j",),
    "block --deviation --m-max 10 --j 1 --mode float-": ("block-float-deviation-j",),
})
test_block_defaults_equal_the_spelled_out_values = pinned(
    "block-deviation-defaults-spelled-out", "block-j-default-spelled-out")
test_copy_index_bound = pinned_cases({
    command: tuple(f"{command}-gk-k-{k}" for k in ("1024", "1025", "1e20", "0"))
    for command in ("norms", "orbit", "cesaro")})


def test_orbit_combined_rows_come_in_step_then_copy_order():
    # every row of `orbit --k-max 3 --n-max 70`, frozen: copy k's sink reads 1
    # at the steps 2**(m+2) with m >= k, and 0 at every other step
    ones = {(4, 0), (8, 0), (16, 0), (32, 0), (64, 0), (8, 1), (16, 1), (32, 1), (64, 1),
            (16, 2), (32, 2), (64, 2), (32, 3), (64, 3)}
    lines = ["n,k,simulated,predicate,match"]
    for n in range(1, 71):
        for k in range(4):
            hit = int((n, k) in ones)
            lines.append(f"{n},{k},{hit},{hit},1")
    assert run_quietly(["orbit", "--k-max", "3", "--n-max", "70"]) == (0, "\n".join(lines) + "\n", "")


def test_orbit_exits_one_when_a_reading_misses_its_prediction(monkeypatch):
    # the simulation never misses on these graphs, so a wrong prediction at
    # step 3 stands in for a wrong simulation: its rows read match 0
    predict = ladder.orbit_predicate
    monkeypatch.setattr(ladder, "orbit_predicate", lambda i, k, n: predict(i, k, n) ^ (n == 3))
    code, out, err = run_quietly(["orbit", "--k-max", "1", "--n-max", "4"])
    assert (code, err) == (1, "")
    assert [row[4] for row in rows_of(out)[1:]] == ["1", "1", "1", "1", "0", "0", "1", "1"]


def test_orbit_k_max_bound(monkeypatch):
    # at a small bound, the bound itself passes and one past it does not; the
    # real bound's refusals are golden entries
    monkeypatch.setattr(cli, "MAX_COPY_INDEX", 3)
    code, out, err = run_quietly(["orbit", "--k-max", "3", "--n-max", "1"])
    assert code == 0 and err == "" and rows_of(out)[1:] == [["1", str(k), "0", "0", "1"] for k in range(4)]
    assert run_quietly(["orbit", "--k-max", "4", "--n-max", "1"]) == (
        2, "", "error: --k-max must be at most 3, got 4\n")


def test_verify_exits_one_when_one_criterion_fails(monkeypatch):
    name, _, budget = acceptance.CRITERIA[7]
    monkeypatch.setitem(acceptance.CRITERIA, 7, (name, lambda: (False, "forced"), budget))
    code, out, err = run_quietly(["verify", "--criteria", "8,7"])
    assert (code, err) == (1, "")
    assert [line[:8] for line in out.splitlines()] == ["PASS #08", "FAIL #07"]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("p, m_at", [("1", "1"), ("2", "1000000000000")])
def test_block_deviation_at_a_huge_m_max(monkeypatch, mode, p, m_at):
    name = "block_deviation_float" if mode == "float" else "block_deviation"
    evaluate = getattr(blockdiag, name)
    calls = []

    def counted(m, n, p):
        calls.append(m)
        return evaluate(m, n, p)

    monkeypatch.setattr(blockdiag, name, counted)
    argv = ["block", "--deviation", "--m-max", "1000000000000", "--windows", "10,1000",
            "--p", p, "--mode", mode]
    code, out, _ = run_quietly(argv)
    assert code == 0
    assert [row[:3] for row in rows_of(out)[1:]] == [[m_at, "10", p], [m_at, "1000", p]]
    assert calls == [int(m_at)] * 2  # one block per window


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


HELP_ARGV = [["--help"], *([name, "--help"] for name in ("norms", "orbit", "cesaro", "block", "verify"))]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_on_an_unwritable_stdout_is_a_usage_error(argv):
    # argparse prints the help itself; main writes it like any other output
    code, out, err = run_quietly(argv)
    assert (code, err) == (0, "") and out.startswith(" ".join(["usage: ergolab", *argv[:-1]]))
    assert run_quietly(argv, stdout=FullDisk()) == (2, "", UNWRITABLE_STDOUT)


def test_argparse_errors_are_returned_as_exit_2():
    # argparse rejects an invalid choice itself; main returns its exit code
    # as it returns every other one, instead of raising SystemExit
    code, out, err = run_quietly(["cesaro", "--factor", "2"])
    assert (code, out) == (2, "") and err.startswith("usage: ergolab cesaro ")
    assert err.splitlines()[-1].startswith("ergolab cesaro: error: argument --factor: invalid choice: ")


@pytest.mark.parametrize("argv, matches", [(["block", "--at", "-1/2"], "--at-least, --at-most"),
                                           (["cesaro", "--s", "-1,4"], "--start, --schedule"),
                                           (["cesaro", "--f", "-i"], "--format, --factor")], ids=["at", "s", "f"])
def test_an_ambiguous_prefix_of_a_dash_valued_option_is_argparse_s_error(argv, matches):
    # the value is not glued to a prefix of two options: argparse names the prefix as given
    error = f"ergolab {argv[0]}: error: ambiguous option: {argv[1]} could match {matches}"
    code, out, err = run_quietly(argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", error)


def test_block_float_mode_tracks_exact():
    windows = ",".join(str(n) for n in [*range(1, 41), 64])
    for p in range(1, 9):
        for m_max in range(1, 61):
            argv = ["block", "--deviation", "--m-max", str(m_max), "--windows", windows, "--p", str(p)]
            code, exact_out, _ = run_quietly(argv)
            code2, float_out, _ = run_quietly(argv + ["--mode", "float"])
            assert code == 0 and code2 == 0
            for exact_row, float_row in zip(rows_of(exact_out)[1:], rows_of(float_out)[1:]):
                assert exact_row[0] == float_row[0], (p, m_max, exact_row[1])  # same block
                assert float(float_row[3]) == pytest.approx(float(exact_row[4]), rel=1e-9)
    # the doubles of blocks 1 and 2 tie at 0.5; the exact maximum is block 2
    argv = ["block", "--deviation", "--m-max", "2", "--windows", "2", "--p", "54", "--mode", "float"]
    code, out, _ = run_quietly(argv)
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
def test_block_argument_vectors_exit_cleanly(argv, fmt):
    code, _, _ = run_four_ways(argv + ["--format", fmt])
    assert code in (0, 1, 2), argv


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


@settings(max_examples=100)
@given(argv=cesaro_argv(), fmt=st.sampled_from(["csv", "json"]))
def test_cesaro_argument_vectors_exit_cleanly(argv, fmt):
    code, _, _ = run_four_ways(argv + ["--format", fmt])
    assert code in (0, 1, 2), argv


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
def test_cesaro_entry_argument_vectors_exit_cleanly(argv, fmt):
    """Exit 3 stops at a window of the schedule, at a support above the cap given."""
    code, _, err = run_four_ways(argv + ["--format", fmt])
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
def test_norms_and_orbit_argument_vectors_exit_cleanly(argv, fmt):
    code, _, _ = run_four_ways(argv + ["--format", fmt])
    assert code in (0, 1, 2), argv


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
def test_verify_argument_vectors_exit_cleanly(argv, fmt):
    """Exit 0, 1 or 2; each criterion runs once, in first-seen order."""
    code, out, _ = run_four_ways(argv + ["--format", fmt])
    assert code in (0, 1, 2), argv
    if code != 2:
        numbers = list(dict.fromkeys(int(token) for token in argv[2].split(",") if token))
        assert criterion_numbers(out) == numbers, argv
