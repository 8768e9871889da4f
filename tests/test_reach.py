"""README's reach rule, checked statically: a function or class of ergolab
stays only if ``cli`` or ``acceptance`` reaches it, or if README lists it as
a deliberate second route.

The check parses every module of the package with :mod:`ast` and takes the
closure of the names referenced from ``cli.main``, the ``cli._cmd_*``
functions and every module body (which holds ``acceptance.CRITERIA``).
Functions and classes are matched by bare name, wherever the name stands;
methods by attribute name only (``x.step`` reaches every method ``step``);
a reached class reaches its dunders.  The matching is coarse: a name that
shares its spelling with a reached one counts as reached, so the check errs
on keeping code, never on deleting it.
"""

import ast
from pathlib import Path

import pytest

import ergolab
from test_docs import second_routes

SRC = Path(ergolab.__file__).resolve().parent
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# The names nothing reaches that stay for now, each with its reason and the
# ROADMAP item that removes or re-points it.  This list may only shrink.
ALLOWED = {
    "core.SparseVector.scale": ("perfbench/workloads.py _generic scales its step", 17),
    "ergodic.CesaroTrace.norms": ("perfbench/workloads.py _generic reads its trace through it", 1),
    "ergodic.CheckResult": ("the result type of scalar_rotation_check", 17),
    "ergodic.scalar_rotation_check": ("called only by tests and perfbench/workloads.py", 17),
    "graphop.power_apply": ("called only by tests", 17),
    "graphop.C0Graph.predecessors": ("called only by tests", 17),
}


def modules():
    """Each module of the package as (name, parsed tree)."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def definitions(trees):
    """Every function and class of the parsed ``trees``, nested ones too, as
    qualified name -> (node, kind), kind "function", "class" or "method"."""
    found = {}

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, DEFINITION):
                visit(child, prefix, in_class)
                continue
            name = f"{prefix}.{child.name}"
            is_class = isinstance(child, ast.ClassDef)
            found[name] = child, "class" if is_class else "method" if in_class else "function"
            visit(child, name, is_class)

    for module, tree in trees:
        visit(tree, module, False)
    return found


def references(node):
    """The bare names and the attribute names ``node`` refers to, outside the
    definitions nested in it."""
    names, attributes = set(), set()
    todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        if isinstance(child, DEFINITION):
            continue  # reached by its own name
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            attributes.add(child.attr)
        todo += ast.iter_child_nodes(child)
    return names, attributes


@pytest.fixture(scope="module")
def closure():
    """(every definition, the qualified names the closure reaches)."""
    trees = modules()
    defined = definitions(trees)
    by_name, by_attribute = {}, {}
    for qualified, (_, kind) in defined.items():
        bare = qualified.rpartition(".")[2]
        by_attribute.setdefault(bare, []).append(qualified)
        if kind != "method":
            by_name.setdefault(bare, []).append(qualified)

    def targets(found):
        names, attributes = found
        return [q for name in names for q in by_name.get(name, ())] + [
            q for name in attributes for q in by_attribute.get(name, ())
        ]

    todo = [q for q in defined if q == "cli.main" or q.startswith("cli._cmd_")]
    for _, tree in trees:
        todo += targets(references(tree))
    reached = set()
    while todo:
        qualified = todo.pop()
        if qualified in reached:
            continue
        reached.add(qualified)
        node, kind = defined[qualified]
        todo += targets(references(node))
        if kind == "class":
            todo += [f"{qualified}.{child.name}" for child in node.body
                     if isinstance(child, DEFINITION) and child.name.startswith("__")
                     and child.name.endswith("__")]
    return defined, reached


def test_every_unreached_name_is_a_second_route_or_allowed(closure):
    defined, reached = closure
    assert len(defined) > 150 and "cli.main" in reached
    assert "ladder.LadderOrbit.sink_value" in reached  # through ladder.sink_readings
    routes = {route for route, *_ in second_routes()}
    stray = set(defined) - reached - routes - set(ALLOWED)
    assert not stray, f"nothing in cli or acceptance reaches {sorted(stray)}"


def test_the_allow_list_holds_only_unreached_names_with_a_reason(closure):
    # an entry whose name is gone or now reached must leave the list
    defined, reached = closure
    assert len(ALLOWED) <= 6
    for name, (reason, item) in ALLOWED.items():
        assert name in defined, f"{name} no longer exists; drop it from ALLOWED"
        assert name not in reached, f"{name} is reached now; drop it from ALLOWED"
        assert reason and item in (1, 17), name
