"""Every pinned command line, as committed text, and the one driver that
checks a command line's output contract.

``golden/manifest.json`` holds two tables.  ``entries`` names each pinned
command line and gives its exit code, its exact stderr and the file in
``golden/`` that holds its exact stdout; an entry with no file prints
nothing on stdout, and command lines with the same output share one file.
``same`` names pairs of command lines that must give the same exit code,
stdout and stderr (aliases, dash-led values after a space, spelled-out
defaults, repeated powers and criteria); the first of each pair is an
entry, so the second is pinned to the same text.

:func:`run_four_ways` runs every entry, every second command line of
``same`` and every command line that the property slices in
``test_cli.py`` draw: as written, with ``--out``, against a stdout that
cannot be written, and in the other ``--format``.  :func:`check` runs named
entries and pairs through it: in the named properties of ``test_cli.py``,
which :func:`pinned` and :func:`pinned_cases` make, and here for the rest,
so that each runs once per suite (:func:`check_once`).

An entry is added by hand, with the output of the command at the commit
before the change that adds it; nothing here writes a golden file.  The one
normalisation, :func:`drop_timings`: verify output loses what it measures,
as ``perfbench/workloads.cli_digest`` drops ``elapsed_seconds`` before it
hashes.
"""

import ast
import contextlib
import csv
import difflib
import errno
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from ergolab import cli

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
ENTRIES, SAME = MANIFEST["entries"], MANIFEST["same"]
BY_ARGV = {tuple(shlex.split(entry["command"])): entry for entry in ENTRIES.values()}
DIFF_LINES = 40
UNWRITABLE_STDOUT = "error: cannot write to stdout: No space left on device\n"
PARSER = cli.build_parser()
BUDGET_LINE = re.compile(r"error: budget exceeded at window (\d+): support (\d+) above --max-support (\d+)\n")


def drop_timings(text):
    """verify output without what it measures: JSON's ``elapsed_seconds``,
    and each text line's trailing ``[x.xxs / ys]``.  The tests' one rule for
    comparing verify outputs."""
    if text.startswith("["):
        rows = json.loads(text)
        for row in rows:
            del row["elapsed_seconds"]
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    return "".join(line.rsplit(" [", 1)[0] + "\n" for line in text.splitlines())


def untimed(argv, text):
    """The output of ``argv`` as it is compared: verify's without timings."""
    return drop_timings(text) if argv[0] == "verify" else text


def criterion_numbers(text):
    """The criterion numbers a verify output shows, in order: text or JSON."""
    if text.startswith("["):
        return [row["number"] for row in json.loads(text)]
    return [int(line[6:8]) for line in text.splitlines()]


class FullDisk:
    """A stdout whose every write and flush fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        self.write("")


def run_quietly(argv, stdout=None):
    """Run ``argv`` through ``cli.main`` in process: (exit code, stdout,
    stderr).  Pass ``stdout`` to write to that stream instead; the stdout
    returned is then empty.  Every run parses with one parser, built once:
    argparse keeps no state between parses, and building it takes most of a
    cheap run's time."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "build_parser", lambda: PARSER), \
            contextlib.redirect_stdout(stdout or out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def in_empty_directory():
    """Work in a new empty directory, then go back (``contextlib.chdir`` is new in Python 3.11)."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            yield
        finally:
            os.chdir(home)


def run_four_ways(argv):
    """Run the command line ``argv`` four ways, in an empty working
    directory, and return (exit code, stdout, stderr) of the plain run.

    1. As written: exit 0 to 3 with no traceback.  Exit 0 and 1 print
       nothing on stderr; exit 2 and 3 print nothing on stdout and one
       ``error:`` line, on exit 3 the budget line.
    2. With ``--out PATH`` after the subcommand: on exit 0 and 1 the file
       holds stdout's text (verify's but for its timings) and nothing is
       printed; on exit 2 and 3 no file is left.
    3. Against a stdout that cannot be written: exit 0 and 1 become exit 2
       with the one stdout ``error:`` line; exit 2 and 3 keep their code
       and stderr.  On exit 2 and 3 checks 2 and 3 share one run, as the
       plain run has printed nothing on stdout.
    4. On exit 0 and 1, in the other ``--format``: the same exit code, and
       the JSON rows equal the CSV rows (for verify, the same criteria).
    """
    with_out = [argv[0], "--out", "out", *argv[1:]]
    with in_empty_directory():
        code, out, err = run_quietly(argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, err)
        if code in (2, 3):
            assert out == "" and sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
            assert code == 2 or BUDGET_LINE.fullmatch(err), (argv, err)
            assert run_quietly(with_out, stdout=FullDisk()) == (code, "", err), argv
            assert os.listdir() == [], argv
            return code, out, err
        assert err == "", argv
        assert run_quietly(with_out) == (code, "", ""), argv
        assert os.listdir() == ["out"], argv
        written = Path("out").read_bytes().decode("utf-8")
        assert untimed(argv, written) == untimed(argv, out), argv
        assert run_quietly(argv, stdout=FullDisk()) == (2, "", UNWRITABLE_STDOUT), argv
        other = "csv" if out.startswith(("[", "{")) else "json"
        other_code, other_out, other_err = run_quietly([*argv, "--format", other])
    assert (other_code, other_err) == (code, ""), argv
    text, json_text = (other_out, out) if other == "csv" else (out, other_out)
    if argv[0] == "verify":
        assert criterion_numbers(json_text) == criterion_numbers(text), argv
    else:
        header, *rows = csv.reader(io.StringIO(text))
        assert json.loads(json_text) == {"columns": header, "rows": rows}, argv
    return code, out, err


def assert_pinned(command, entry):
    """Run ``command`` four ways; its plain run must give ``entry``'s exit
    code, stderr and stdout.  A stdout mismatch fails with a unified diff
    headed by the command."""
    argv = shlex.split(command)
    code, out, err = run_four_ways(argv)
    assert (code, err) == (entry["exit"], entry["stderr"]), command
    want = (GOLDEN / entry["stdout"]).read_bytes().decode("utf-8") if "stdout" in entry else ""
    got = untimed(argv, out)
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            f"tests/golden/{entry.get('stdout', 'empty stdout')}", f"ergolab {command}",
        )
        pytest.fail("".join(itertools.islice(diff, DIFF_LINES)), pytrace=False)


def check(*names):
    """Check each named entry, or the second line of each named ``same``
    pair against its first, through :func:`assert_pinned`."""
    for name in names:
        if name in SAME:
            first, second = SAME[name]
            assert_pinned(second, BY_ARGV[tuple(shlex.split(first))])
        else:
            assert_pinned(ENTRIES[name]["command"], ENTRIES[name])


CLAIMS = Counter()  # named properties per entry and pair, counted as test_cli.py is imported


def pinned(*names):
    """A named property: a test that checks the entries and pairs ``names``."""
    CLAIMS.update(names)

    def test():
        check(*names)
    return test


def pinned_cases(cases):
    """A named property with one case per id of ``cases``, each checking its names."""
    for names in cases.values():
        CLAIMS.update(names)

    @pytest.mark.parametrize("case", list(cases))
    def test(case):
        check(*cases[case])
    return test


def check_once(name):
    """Check ``name``, unless a named property checks it; then that must be the only one."""
    if CLAIMS[name]:
        assert CLAIMS[name] == 1, name
    else:
        check(name)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_golden_output(name):
    check_once(name)


@pytest.mark.parametrize("name", list(SAME))
def test_same_output(name):
    check_once(name)


def message_pattern(node):
    """The regex of the messages that the expression ``node`` can make: an
    f-string's fields, and any other expression, match anything."""
    if isinstance(node, ast.Constant):
        return re.escape(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(map(message_pattern, node.values))
    return ".*"


def raise_patterns(path, *kinds):
    """(kind, :func:`message_pattern` of its message) of every ``raise
    KIND(message, ...)`` in the module at ``path``, for each KIND of ``kinds``."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return [(node.exc.func.id, message_pattern(node.exc.args[0])) for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) in kinds]


def error_patterns():
    """Each message that ``cli`` can print after ``error:``, as a regex: the
    argument of every ``raise UsageError(...)`` and ``main``'s budget line."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    budget = [node.value for node in ast.walk(main) if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.JoinedStr) and ast.unparse(node.targets[0]) == "message"]
    return [p for _, p in raise_patterns(cli.__file__, "UsageError")] + [message_pattern(node) for node in budget]


def test_every_error_message_is_pinned():
    """Every usage and budget message of ``cli`` is the stderr of an entry."""
    patterns = error_patterns()
    assert len(patterns) >= 20 and any(p.startswith("budget") for p in patterns)
    stderrs = [entry["stderr"] for entry in ENTRIES.values()]
    unpinned = [p for p in patterns if not any(re.fullmatch(f"error: {p}\n", err) for err in stderrs)]
    assert unpinned == []


def test_golden_files_match_the_benchmark_digests():
    """Each command line the benchmark checks has an entry with the exit code
    and, for its golden file, the SHA-256 that ``perfbench/expected_cli.json``
    records."""
    recorded = ROOT / "perfbench" / "expected_cli.json"
    expected = json.loads(recorded.read_text(encoding="utf-8"))
    assert expected
    for command, pinned in expected.items():
        entry = BY_ARGV.get(tuple(shlex.split(command)))
        assert entry is not None, command
        digest = hashlib.sha256((GOLDEN / entry["stdout"]).read_bytes()).hexdigest()
        assert (entry["exit"], digest) == (pinned["exit"], pinned["sha256"]), command


def readme_examples():
    """The command lines of the sh block under "## Command line" in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_examples_are_golden():
    examples = readme_examples()
    assert len(examples) >= 5 and all(argv[0] == "ergolab" for argv in examples)
    for argv in examples:
        entry = BY_ARGV.get(tuple(argv[1:]))
        assert entry is not None and entry["exit"] == 0, argv
