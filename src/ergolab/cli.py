"""Command line interface.

Subcommands::

    norms    truncated norms of powers of a ladder operator
    orbit    sink readings of an orbit against the closed-form predicate
    cesaro   sup norms of Cesaro averages along a schedule
    block    block-diagonal average coefficients and deviations
    verify   run the acceptance criteria

Tabular commands emit CSV by default (header row, LF line endings); pass
``--format json`` for a structurally identical JSON document.  Every value
column carries the exact fraction and a decimal rendered from it, so exact
output is bit-reproducible across runs.

Every subcommand writes its output to ``--out PATH`` instead of stdout when
given; :func:`main` writes it once the subcommand is done.  Exit codes: 0
success, 1 a requested check failed, 2 usage error (including an ``--out``
path or a stdout that cannot be written), 3 a computation exceeded its
configured budget.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import acceptance, blockdiag, ergodic, graphop, ladder
from .core import ONE, SparseVector, fraction_str

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_MAX_SUPPORT = 250000  # the vertices an entry start's sum may touch; the moving frame decides it
# The moving frame's cost grows with the p * (n - 1) steps of T that window n
# covers at power p.  From g0's entry at window 4096, powers 1, 2 and 3 take
# 0.03, 0.11 and 0.19 s in process and peak at 4.4, 15 and 27 MiB traced (56,
# 214 and 396 MiB at 16384); powers 4 to 12285 peak at 21 to 33 MiB over
# MOVING_FRAME_MAX_STEPS steps.  Past either bound the default cap applies.
MOVING_FRAME_MAX_WINDOW = 4096
MOVING_FRAME_MAX_STEPS = 3 * (MOVING_FRAME_MAX_WINDOW - 1)
# The largest --k.  Copy k's rungs land from bottom position 2**(k+2) - k - 3
# on, above every bottom cell of a start with --trunc below about 2**(k+3), so
# the orbit stores none of those births and a sup norm probes no landing that
# high: `norms --graph gk --n-max 60 --trunc 300` takes about 3 ms in process
# at this bound and at 2**14 alike.  Copy k's sink first reads 1 after
# 2**(k+2) - k - 1 steps, which no command steps to for k near the bound, so
# a larger bound would show nothing new; this one keeps the exit codes.
# `orbit --graph combined` reads copies 0..--k-max off one orbit of the
# source, bounded so too.
MAX_COPY_INDEX = 2**10


class UsageError(Exception):
    pass


def _parse_fraction(raw: str, what: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational like 3/4, got {raw!r}")


def _require_positive(value: int, what: str) -> int:
    if value < 1:
        raise UsageError(f"{what} must be a positive integer, got {value}")
    return value


def _parse_int_list(raw: str, what: str) -> List[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {raw!r}")
    if not values or any(v < 1 for v in values):
        raise UsageError(f"{what} must be positive integers, got {raw!r}")
    return values


def _value_columns(value) -> Tuple[str, str]:
    """A value's two columns: the exact fraction (a float's decimal) and the decimal."""
    decimal = "%.12g" % float(value)
    return (decimal if isinstance(value, float) else fraction_str(value)), decimal


def _emit(args, columns: Sequence[str], rows: List[Tuple[str, ...]]) -> str:
    """The table as CSV, or as JSON under ``--format json``."""
    if args.format == "json":
        payload = {"columns": list(columns), "rows": [list(row) for row in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _write(path: Optional[str], text: str) -> None:
    """Write a command's output to the --out file, or to stdout when path is None."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        target = "to stdout" if path is None else f"--out {path}"
        raise UsageError(f"cannot write {target}: {exc.strerror or exc}")


def _make_graph(name: str, k: Optional[int]):
    """The graph of ``--graph`` (one of the parser's choices) and ``--k``."""
    if name != "gk":
        if k is not None:
            raise UsageError(f"--k applies only to --graph gk, not --graph {name}")
        return {"g0": ladder.make_g0, "combined": ladder.make_counterexample}[name]()
    if k is None:
        raise UsageError(f"--graph gk needs --k with a copy index from 1 to {MAX_COPY_INDEX}")
    if not 1 <= k <= MAX_COPY_INDEX:
        raise UsageError(f"--k must be a copy index from 1 to {MAX_COPY_INDEX}, got {k}")
    return ladder.make_gk(k)


def _cmd_norms(args) -> Tuple[bool, str]:
    _require_positive(args.n_max, "--n-max")
    _require_positive(args.trunc, "--trunc")
    graph = _make_graph(args.graph, args.k)
    bound = _parse_fraction(args.bound, "--bound") if args.bound is not None else None
    norms = graphop.power_norms_sweep(graph, args.n_max, args.trunc)
    rows = [(str(n), str(args.trunc), *_value_columns(v)) for n, v in enumerate(norms, start=1)]
    passed = bound is None or all(v <= bound for v in norms)
    return passed, _emit(args, ("n", "trunc", "norm", "norm_decimal"), rows)


def _cmd_orbit(args) -> Tuple[bool, str]:
    _require_positive(args.n_max, "--n-max")
    graph = _make_graph(args.graph, args.k)
    if args.graph == "combined":
        k_max = 2 if args.k_max is None else args.k_max
        if k_max < 0:
            raise UsageError(f"--k-max must be nonnegative, got {k_max}")
        if k_max > MAX_COPY_INDEX:
            raise UsageError(f"--k-max must be at most {MAX_COPY_INDEX}, got {k_max}")
        copies = range(k_max + 1)
    elif args.k_max is not None:
        raise UsageError(f"--k-max applies only to --graph combined, not --graph {args.graph}")
    else:
        copies = (graph.copy_index,)
    rows = [
        (str(n), str(k), fraction_str(got), str(want), str(int(got == want)))
        for n, k, got, want in ladder.sink_readings(graph, copies, range(1, args.n_max + 1))
    ]
    passed = all(row[4] == "1" for row in rows)
    return passed, _emit(args, ("n", "k", "simulated", "predicate", "match"), rows)


_FACTORS = {"1": ONE, "-1": -ONE, "i": complex(0, 1), "-i": complex(0, -1)}


def _cmd_cesaro(args) -> Tuple[bool, str]:
    if args.max_support is not None:
        _require_positive(args.max_support, "--max-support")
    schedule = _parse_int_list(args.schedule, "--schedule")
    # a repeated power would print its rows again; keep the first-seen order
    powers = list(dict.fromkeys(_parse_int_list(args.powers, "--powers")))
    factor = _FACTORS[args.factor]
    bound = _parse_fraction(args.bound, "--bound") if args.bound is not None else None
    graph = _make_graph(args.graph, args.k)
    start = args.start or "source"
    if args.x is not None:
        if args.start is not None:
            raise UsageError("--start and --x are mutually exclusive")
        start = "source" if args.x == "e_s" else "entry"
    if start == "source":
        if args.graph != "combined":
            raise UsageError("--start source needs --graph combined")
        x = SparseVector.unit(ladder.SOURCE)
    else:
        if graph.copy_index is None:
            raise UsageError("--start entry needs --graph g0 or --graph gk")
        if isinstance(factor, complex):
            raise UsageError("complex factors need --graph combined --start source")
        x = SparseVector.unit(ladder.entry(graph.copy_index))
    op = ergodic.graph_handle(graph)
    results = []  # (power, n, sup norm)
    for power in powers:
        # without --max-support, windows past MOVING_FRAME_MAX_WINDOW or MOVING_FRAME_MAX_STEPS
        # steps are capped.  From the combined graph's source the sweep runs, and no cap applies.
        cap = args.max_support
        n = max(schedule)
        if cap is None and (n > MOVING_FRAME_MAX_WINDOW or power * (n - 1) > MOVING_FRAME_MAX_STEPS):
            cap = DEFAULT_MAX_SUPPORT
        trace = ergodic.cesaro_trace(op, x, schedule, max_support=cap,
                                     step_power=power, factor=factor)
        results += [(power, record.n, record.sup_norm) for record in trace.records]
    rows = [(str(power), str(n), *_value_columns(value)) for power, n, value in results]
    passed = bound is None or all(ergodic.at_most(value, bound) for _, _, value in results)
    return passed, _emit(args, ("power", "n", "sup_norm", "sup_norm_decimal"), rows)


FLOAT_TOL = 1e-9  # absolute slack of the bounds on `block --mode float` values


def _block_at_most(value, bound: Fraction) -> bool:
    """value <= bound: exact for a Fraction, with FLOAT_TOL of slack for a
    float.  ``_block_at_most(-value, -bound)`` is the lower-bound test."""
    if isinstance(value, float):
        try:
            return value <= float(bound) + FLOAT_TOL
        except OverflowError:  # |bound| is beyond every finite float
            return bound > 0
    return value <= bound


def _cmd_block(args) -> Tuple[bool, str]:
    """One row per window from one deviation function, exact or float: at the
    block m <= --m-max that deviates most (``--deviation``), or at m = n and
    p = 2 * --j, where it is the positive coefficient b_coeff(n, n, j)."""
    if args.sweep_diag and args.deviation:
        raise UsageError("--sweep-diag and --deviation are mutually exclusive")
    windows = sorted(set(_parse_int_list(args.windows, "--windows")))
    at_least = _parse_fraction(args.at_least, "--at-least") if args.at_least is not None else None
    at_most = _parse_fraction(args.at_most, "--at-most") if args.at_most is not None else None
    deviation = blockdiag.block_deviation_float if args.mode == "float" else blockdiag.block_deviation
    if args.deviation:
        if args.j is not None:
            raise UsageError("--j applies only to the diagonal sweep, not --deviation")
        m_max = _require_positive(1000 if args.m_max is None else args.m_max, "--m-max")
        p = _require_positive(1 if args.p is None else args.p, "--p")
        readings = [blockdiag.deviation_argmax(deviation, m_max, n, p) for n in windows]
    else:
        for flag, value in (("--m-max", args.m_max), ("--p", args.p)):
            if value is not None:
                raise UsageError(f"{flag} applies only to --deviation")
        p = 2 * _require_positive(1 if args.j is None else args.j, "--j")
        readings = [(n, deviation(n, n, p)) for n in windows]
    rows = [(str(m), str(n), str(p), *_value_columns(v)) for (m, v), n in zip(readings, windows)]
    passed = all((at_least is None or _block_at_most(-v, -at_least))
                 and (at_most is None or _block_at_most(v, at_most)) for _, v in readings)
    return passed, _emit(args, ("m", "n", "p", "value", "value_decimal"), rows)


def _cmd_verify(args) -> Tuple[bool, str]:
    numbers = _parse_int_list(args.criteria, "--criteria") if args.criteria else None
    try:
        results = acceptance.run_all(numbers)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        payload = [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_seconds": round(r.elapsed, 3),
                "budget_seconds": r.budget,
            }
            for r in results
        ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(r.line() + "\n" for r in results)
    return all(r.passed for r in results), text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="exact Cesaro averaging checks for ladder graph operators "
        "and block-diagonal matrix families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, summary, graph=False):
        p = sub.add_parser(name, help=summary)
        # argparse reads an argument that starts with a dash as an option
        # unless it matches this pattern, a private attribute with no public
        # setting.  Widened from negative numbers to -i, -1/2 and -1,4, it lets
        # --factor, --bound and the lists take those values after a space.
        p._negative_number_matcher = re.compile(r"^-(i|\.?[0-9].*)$")
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        if graph:
            p.add_argument("--graph", choices=("g0", "gk", "combined"), default="combined")
            p.add_argument("--k", type=int, help=f"copy index for --graph gk, 1..{MAX_COPY_INDEX}")
        return p

    p = add("norms", _cmd_norms, "truncated norms of operator powers", graph=True)
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument("--trunc", type=int, default=500)
    p.add_argument("--bound", help="fail (exit 1) if any norm exceeds this rational")

    p = add("orbit", _cmd_orbit, "sink readings versus the orbit predicate", graph=True)
    p.add_argument("--k-max", type=int, dest="k_max",
                   help=f"sinks 0..k_max (combined), k_max up to {MAX_COPY_INDEX}")
    p.add_argument("--n-max", type=int, default=64, dest="n_max")

    p = add("cesaro", _cmd_cesaro, "sup norms of Cesaro averages", graph=True)
    p.add_argument("--start", choices=("source", "entry"))
    p.add_argument(
        "--x",
        choices=("e_s", "e_o"),
        help="start vector by name: e_s is the source unit, e_o the entry unit",
    )
    p.add_argument("--powers", default="1", help="comma-separated step powers")
    p.add_argument("--schedule", default="128,256,512,1024", help="window lengths")
    p.add_argument("--factor", choices=tuple(_FACTORS), default="1")
    p.add_argument("--bound", help="fail (exit 1) if any norm exceeds this rational")
    p.add_argument(
        "--max-support", type=int, dest="max_support",
        help="cap on the vertices an entry start's sum touches, decided in the moving frame before any "
        f"sum (exit 3 at the first window over it); default {DEFAULT_MAX_SUPPORT}, none with windows up "
        f"to {MOVING_FRAME_MAX_WINDOW} that cover at most {MOVING_FRAME_MAX_STEPS} steps (power * "
        "(window - 1)); the structural sweep from the combined graph's source is never capped",
    )

    p = add("block", _cmd_block, "block-diagonal averaging coefficients")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--windows", "--n", dest="windows", default="10,100,1000", help="window lengths n")
    p.add_argument("--j", type=int, help="half the even power (diagonal sweep; default 1)")
    p.add_argument(
        "--sweep-diag",
        action="store_true",
        dest="sweep_diag",
        help="diagonal m = n coefficient sweep (the default mode, named explicitly)",
    )
    p.add_argument("--deviation", action="store_true", help="sup deviation over blocks")
    p.add_argument(
        "--m-max", type=int, dest="m_max", help="largest block index for --deviation (default 1000)"
    )
    p.add_argument("--p", type=int, help="step power for --deviation (default 1)")
    p.add_argument("--at-least", dest="at_least", help="fail if any value is below this")
    p.add_argument("--at-most", dest="at_most", help="fail if any value is above this")

    p = add("verify", _cmd_verify, "run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default all)")

    return parser


# a path that the widened pattern of build_parser reads as a value, and argparse's own would not
_DASH_PATH = re.compile(r"^-(?!\d+$|\d*\.\d+$)(i|\.?[0-9][^ ]*)$")


def _parse_args(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """The parsed ``argv``.  argparse prints ``--help`` itself and exits 0; the
    text is caught here and written by :func:`_write`, so an unwritable stdout
    is a usage error for it too.  argparse's own errors go to stderr (exit 2).
    A _DASH_PATH after a bare ``--out`` (or ``--o``), as ``--out -i``, is a
    usage error, so a mistyped option names no file; ``--out=-i`` is not."""
    shown = io.StringIO()
    try:
        with contextlib.redirect_stdout(shown):
            args = parser.parse_args(argv)
    except SystemExit:
        if shown.getvalue():
            _write(None, shown.getvalue())
        raise
    after_out = {value for opt, value in zip(argv, argv[1:]) if len(opt) > 2 and "--out".startswith(opt)}
    if args.out in after_out and _DASH_PATH.match(args.out):
        raise UsageError(f"--out {args.out}: a path that starts with a dash needs --out={args.out}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand: the one place that writes its output and maps its
    outcome to an exit code.  A ``_cmd_*`` returns whether its checks held
    (0 or 1) and its text, which this writes to stdout or ``--out``; or it
    raises :class:`UsageError` (2) or :class:`ergodic.BudgetExceeded` (3).
    Unwritable output is a usage error.  On 2 and 3 this prints the one
    ``error:`` line.  argparse's exits, after its help (0) or its own error
    message (2), return their code too."""
    try:
        args = _parse_args(build_parser(), sys.argv[1:] if argv is None else argv)
        passed, text = args.run(args)
        _write(args.out, text)
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except SystemExit as exc:
        return exc.code
    except UsageError as exc:
        code, message = EXIT_USAGE, str(exc)
    except ergodic.BudgetExceeded as exc:
        code = EXIT_BUDGET
        message = (f"budget exceeded at window {exc.window}: "
                   f"support {exc.support} above --max-support {exc.cap}")
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
