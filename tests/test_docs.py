"""README's names, its list of deliberate second routes, the reference table's
rows, and the cross-references of the docstrings, against the code."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import ergolab

README = Path(__file__).resolve().parent.parent / "README.md"


def second_routes():
    """The backquoted dotted names of each bullet in README's second-route
    list: the second route first, then the names it is a route for."""
    text = README.read_text(encoding="utf-8")
    start = re.search(r"Each deliberate second\s+route says so where it is defined", text).start()
    block = text[start:].split("\n\n", 2)[1]
    bullets = re.split(r"^- ", block, flags=re.M)[1:]
    assert all(bullet.startswith("`") for bullet in bullets), bullets
    return [re.findall(r"`(\w+\.[\w.]+)`", bullet) for bullet in bullets]


def resolve(name):
    """The object ``ergolab.<name>`` names; AttributeError if there is none."""
    module, _, attr = name.partition(".")
    return lookup(importlib.import_module(f"ergolab.{module}"), attr)


def lookup(target, dotted):
    """The attribute path ``dotted`` of ``target``; AttributeError if there is none."""
    for part in dotted.split("."):
        target = getattr(target, part)
    return target


def test_every_listed_second_route_says_so_where_it_is_defined():
    bullets = second_routes()
    assert len(bullets) >= 8, bullets
    assert all(len(names) >= 2 for names in bullets), bullets  # each names a first route
    for route, *partners in bullets:
        for name in partners:
            resolve(name)
        doc = " ".join((resolve(route).__doc__ or "").split()).lower()
        assert "second route" in doc, route


def test_the_route_table_has_one_row_per_listed_second_route():
    from test_routes import ROWS  # test_routes imports this module

    bullets = [(route, tuple(partners)) for route, *partners in second_routes()]
    assert [(row.second, row.first) for row in ROWS] == bullets


def test_every_reference_is_the_second_of_one_reference_row():
    import fraction_reference
    from test_routes import REFERENCES

    public = [name for name, value in inspect.getmembers(fraction_reference, inspect.isfunction)
              if value.__module__ == "fraction_reference" and not name.startswith("_")]
    public.remove("oracle_problems")  # a checker of oracles, not a route
    assert sorted(row.second for row in REFERENCES) == sorted(public)


def test_every_name_readme_gives_a_module_of_exists():
    # a backquoted `module.name` whose module is one of ergolab's must resolve,
    # so README cannot keep naming a function the code has dropped
    modules = {m.name for m in pkgutil.iter_modules(ergolab.__path__) if not m.name.startswith("_")}
    assert len(modules) == 8, modules
    text = README.read_text(encoding="utf-8")
    names = {name for name in re.findall(r"`(\w+\.[\w.]+)`", text) if name.split(".")[0] in modules}
    assert len(names) >= 20, names
    for name in names:
        resolve(name)


def docstring_references():
    """Every :func:, :meth:, :class: and :attr: reference in an ergolab
    docstring, as (module name, referenced name) pairs."""
    refs = []
    for info in pkgutil.iter_modules(ergolab.__path__):
        module = importlib.import_module(f"ergolab.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                names = re.findall(r":(?:func|meth|class|attr):`([\w.]+)`", doc)
                refs += [(info.name, name) for name in names]
    return refs


def resolve_reference(module_name, name):
    """What a docstring reference names: in its own module, else as
    ``ergolab.<name>``, else as a member of a class defined in that module."""
    module = importlib.import_module(f"ergolab.{module_name}")
    try:
        return lookup(module, name)
    except AttributeError:
        pass
    try:
        return resolve(name.removeprefix("ergolab."))
    except (AttributeError, ImportError):
        pass
    classes = [obj for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]
    for cls in classes:
        try:
            return lookup(cls, name)
        except AttributeError:
            pass
    raise AssertionError(f"ergolab.{module_name} docstring names {name!r}, which does not exist")


def test_every_docstring_reference_resolves():
    # a :func:`name` left behind by a removed function fails here
    refs = docstring_references()
    assert len(refs) >= 50, len(refs)
    for module_name, name in refs:
        resolve_reference(module_name, name)
