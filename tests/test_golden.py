"""Every frozen command line output, as committed text.

``golden/manifest.json`` names each frozen command line and gives its exit
code and the file in ``golden/`` that holds its exact stdout; command lines
with the same output share one file.  An entry is added by hand, with the
output of the command at the commit before the change that adds it;
nothing here writes a golden file.  The one normalisation,
:func:`drop_timings`: ``verify --format json`` loses its
``elapsed_seconds``, as ``perfbench/workloads.cli_digest`` does before it
hashes.
"""

import difflib
import hashlib
import itertools
import json
import shlex
from pathlib import Path

import pytest

from ergolab import cli

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
BY_ARGV = {tuple(shlex.split(entry["command"])): entry for entry in MANIFEST.values()}
DIFF_LINES = 40


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


@pytest.mark.parametrize("name", list(MANIFEST))
def test_golden_output(capsys, name):
    entry = MANIFEST[name]
    argv = shlex.split(entry["command"])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (entry["exit"], "")
    got = drop_timings(captured.out) if argv[0] == "verify" else captured.out
    want = (GOLDEN / entry["stdout"]).read_bytes().decode("utf-8")
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            f"tests/golden/{entry['stdout']}", f"ergolab {entry['command']}",
        )
        pytest.fail("".join(itertools.islice(diff, DIFF_LINES)), pytrace=False)


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
