"""README's list of deliberate second routes against the code it names."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def second_routes():
    """The first dotted name of each bullet in README's second-route list."""
    text = README.read_text(encoding="utf-8")
    start = re.search(r"Each deliberate second\s+route says so where it is defined", text).start()
    block = text[start:].split("\n\n", 2)[1]
    return re.findall(r"^- `([\w.]+)`", block, re.M)


def test_every_listed_second_route_says_so_where_it_is_defined():
    names = second_routes()
    assert len(names) >= 8, names
    for name in names:
        module, _, attr = name.partition(".")
        target = importlib.import_module(f"ergolab.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        doc = " ".join((target.__doc__ or "").split()).lower()
        assert "second route" in doc, name
