"""Every error the library raises on a bad argument, as one table.

``REJECTIONS`` maps a test name to its rows, or to its case ids and theirs:
a call, the exception type it raises and its exact message.  ``rejection_test``
makes each test, here and, under their old names, in the other modules;
``table_test`` does that for this table and for ``test_ergodic.REPLAYS``.
The guards tie the rows to every ``raise ValueError(...)`` and ``raise
TypeError(...)`` in ``src/ergolab``, and each name of both tables to one test.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from ergolab import acceptance, graphop, ladder, sweeps
from ergolab.blockdiag import (a_coeff, b_coeff, block_cesaro_entries, block_cesaro_literal, block_deviation,
                               block_deviation_float, deviation_argmax, sup_deviation)
from ergolab.core import SparseVector, as_rational, cesaro_geometric, cesaro_geometric_sum
from ergolab.ergodic import (OperatorHandle, cesaro_trace, graph_handle, scalar_rotation_check,
                             weak_compactness_witness)
from ergolab.sweeps import combined_cesaro_sup_norms
from test_golden import raise_patterns

E, T, B, V, S = ladder.entry, ladder.top, ladder.bottom, ladder.sink, ladder.SOURCE
COMBINED, G0, G2 = ladder.make_counterexample(), ladder.make_g0(), ladder.make_gk(2)
NO_ENUMERATION = graphop.C0Graph(out_edges=lambda v: (), in_edges=lambda v: ())
A_TO_D = graphop.graph_from_edges({"a": [("d", 1)]}, "a to d")
G0_HANDLE, G0_ENTRY = graph_handle(G0), SparseVector.unit(E(0))
PLAIN_HANDLE = OperatorHandle(apply=lambda v: graphop.apply(G0, v))
FLOAT = "refusing to coerce float to rational; pass a Fraction or string"
SCHEDULE = "schedule must be a nonempty collection of positive lengths"
CAP = "a support cap needs a ladder graph and a start with no negative entry"
# every way a tuple can miss the vertex table, with the rule it breaks
MALFORMED = [
    ((), "not a ladder vertex: () has no ladder tag"),
    (("E",), "not a ladder vertex: ('E',) should have length 2"),
    (("B", 0), "not a ladder vertex: ('B', 0) should have length 3"),
    (("T", 0, 1, 1), "not a ladder vertex: ('T', 0, 1, 1) should have length 3"),
    (("X", 0), "not a ladder vertex: ('X', 0) has no ladder tag"),
    (("E", 0, 9), "not a ladder vertex: ('E', 0, 9) should have length 2"),
    (("V", 0, 5), "not a ladder vertex: ('V', 0, 5) should have length 2"),
    (("S", 7), "not a ladder vertex: ('S', 7) should have length 1"),
    (("V", -1), "copy index must be nonnegative, got -1"),
    (("T", 3, 3), "top depth must be at least 4 in copy 3, got 3"),
    (("B", 0, 0), "bottom position must be positive, got 0"),
]


def first_reading_unstepped(graph, copies):
    """The first sink reading with the orbit's step patched to fail: a
    rejection must come before any step."""
    with mock.patch.object(ladder.LadderOrbit, "step", side_effect=AssertionError("the orbit stepped")):
        return next(ladder.sink_readings(graph, copies, range(1, 9)))


REJECTIONS = {
    "test_rejection": {
        # raised nowhere else in the suite
        "enumerate_vertex": [(lambda: G0.enumerate_vertex(-1), ValueError,
                              "vertex index must be nonnegative, got -1")],
        "power_apply": [(lambda: graphop.power_apply(G0, G0_ENTRY, -1), ValueError,
                         "power must be nonnegative, got -1")],
        "enumerate_paths_up_to": [(lambda: graphop.enumerate_paths_up_to(A_TO_D, "a", "d", -1), ValueError,
                                   "path length must be nonnegative, got -1")],
        "accumulate": [(lambda: list(G0.orbit({E(0): 1}).accumulate([4], 2)), ValueError,
                        "factor must be 1 or -1, got 2")],
        # a cap counts the vertices a sum touches off the moving frame's sum
        # at factor +1: from a signed start that sum can cancel, and an orbit
        # that is not a LadderOrbit has no frame
        "cesaro_trace-cap": [
            (lambda: cesaro_trace(G0_HANDLE, SparseVector({E(0): 1, B(0, 3): -1}), [4], max_support=10),
             ValueError, CAP),
            (lambda: cesaro_trace(PLAIN_HANDLE, G0_ENTRY, [4], max_support=10), ValueError, CAP),
            (lambda: cesaro_trace(graph_handle(A_TO_D), SparseVector.unit("a"), [4], max_support=10),
             ValueError, CAP)],
        "run_criterion": [(lambda: acceptance.run_criterion(13), ValueError,
                           "no criterion 13; known: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]")],
        "run_all": [(lambda: acceptance.run_all([2, 13, 0]), ValueError,
                     "unknown criteria [13, 0]; known: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]")],
        # from tests that check more than these errors
        "block_cesaro_literal": [
            (lambda: block_cesaro_literal(1, 0, 1), ValueError, "n must be a positive integer, got 0"),
            (lambda: block_cesaro_literal(1, 3, 0), ValueError, "p must be a positive integer, got 0")],
        "as_rational": [(lambda: as_rational(0.5), TypeError, FLOAT),
                        (lambda: SparseVector({0: 0.5}), TypeError, FLOAT)],
        "bottom_weight": [(lambda: ladder.bottom_weight(0), ValueError, "bottom position must be positive, got 0")],
        "weak_compactness_witness": [
            (lambda: weak_compactness_witness(COMBINED, -1, 0), ValueError, "k_max and m_max must be nonnegative"),
            (lambda: weak_compactness_witness(G2, 2, 1), ValueError,  # a standalone copy has no source
             "the witness needs the combined graph, not copy 2")],
        **{f"restricted-{name}": [(lambda oracle=oracle, v=v: oracle(v), ValueError,
                                   f"vertex {v!r} is not in copy {k}")
                                  for v in foreign for oracle in (graph.successors, graph.predecessors)]
           for name, graph, k, foreign in (("g0", G0, 0, (T(3, 5), B(1, 4), V(2), E(1), S)),
                                           ("gk", G2, 2, (T(3, 5), B(0, 4), V(0), E(0), S)))},
    },
    "test_domain_errors": [
        (lambda: a_coeff(0), ValueError, "block index must be positive, got 0"),
        (lambda: block_cesaro_entries(1, 0, 1), ValueError, "n must be a positive integer, got 0"),
        (lambda: b_coeff(2, 3, 0), ValueError, "j must be a positive integer, got 0"),
        (lambda: sup_deviation(0, 3, 1), ValueError, "block index must be positive, got 0"),
        # checked before a block is picked
        (lambda: deviation_argmax(block_deviation_float, 5, 0, 1), ValueError, "n must be a positive integer, got 0"),
        (lambda: deviation_argmax(block_deviation_float, 5, 3, 0), ValueError, "p must be a positive integer, got 0"),
    ],
    # the float formula would divide by zero at the first three and return a
    # number at the last two
    "test_float_deviation_rejects_what_the_exact_one_rejects": {
        f"{m}-{n}-{p}": [(lambda f=f, m=m, n=n, p=p: f(m, n, p), ValueError, message)
                         for f in (block_deviation, block_deviation_float)]
        for m, n, p, message in ((0, 5, 1, "block index must be positive, got 0"),
                                 (5, 0, 1, "n must be a positive integer, got 0"),
                                 (5, 5, 0, "p must be a positive integer, got 0"),
                                 (-3, 5, 1, "block index must be positive, got -3"),
                                 (5, -2, 2, "n must be a positive integer, got -2"))
    },
    "test_block_entries_reject_nonpositive_arguments": {
        f"{m}-{n}-{p}-{message}": [(lambda m=m, n=n, p=p: block_cesaro_entries(m, n, p), ValueError, message)]
        for m, n, p, message in ((0, 3, 1, "block index must be positive, got 0"),
                                 (-2, 3, 1, "block index must be positive, got -2"),
                                 (3, 0, 1, "n must be a positive integer, got 0"),
                                 (3, 2, 0, "p must be a positive integer, got 0"),
                                 (0, 0, 0, "block index must be positive, got 0"),  # m is checked first, then p
                                 (3, 0, 0, "p must be a positive integer, got 0"))
    },
    "test_cesaro_geometric_domain_errors": {
        f"a{i}-{p}-{n}": [(lambda f=f, a=a, p=p, n=n: f(a, p, n), ValueError, message)
                          for f in (cesaro_geometric, cesaro_geometric_sum)]
        for i, (a, p, n, message) in enumerate(((Fraction(3, 2), 1, 1, "a must lie in [0, 1], got 3/2"),
                                                (Fraction(-1, 2), 1, 1, "a must lie in [0, 1], got -1/2"),
                                                (Fraction(1, 2), 0, 1, "p must be a positive integer, got 0"),
                                                (Fraction(1, 2), 1, 0, "n must be a positive integer, got 0")))
    },
    "test_engine_forcing_and_validation": [
        # "fast" names the sweep in a trace's report; only "auto" picks it
        (lambda: cesaro_trace(G0_HANDLE, G0_ENTRY, [4], engine="fast"), ValueError, "unknown engine 'fast'"),
        (lambda: cesaro_trace(G0_HANDLE, G0_ENTRY, [4], engine="warp"), ValueError, "unknown engine 'warp'"),
        (lambda: cesaro_trace(G0_HANDLE, G0_ENTRY, []), ValueError, SCHEDULE),
        (lambda: cesaro_trace(G0_HANDLE, G0_ENTRY, [0]), ValueError, SCHEDULE),
        (lambda: cesaro_trace(G0_HANDLE, G0_ENTRY, [4], step_power=0), ValueError,
         "step_power must be a positive integer, got 0"),
    ],
    "test_scalar_rotation_rejects_bad_factors": [
        *((lambda factor=factor: scalar_rotation_check(G0_HANDLE, G0_ENTRY, factor, 4, 1), ValueError,
           f"factor must be 1, -1, i or -i, got {factor!r}") for factor in (2, 0.5 + 0.5j, 0.6 + 0.8j)),
        (lambda: scalar_rotation_check(PLAIN_HANDLE, G0_ENTRY, 1j, 4, 1), ValueError,
         "complex factors need a graph-backed handle"),
    ],
    "test_path_counts_reject_a_negative_length": [
        (count, ValueError, "path length must be nonnegative, got -1") for count in (
            lambda: graphop.count_paths_profile(A_TO_D, "d", -1, 10),
            lambda: graphop.count_paths_to(A_TO_D, "d", -1, 10),
            lambda: graphop.count_paths_levels(A_TO_D, -1, 10))  # before any level is read
    ],
    "test_graph_from_edges_rejects_bad_weights": [
        (lambda w=w: graphop.graph_from_edges({"a": [("b", w)]}), ValueError,
         f"edge 'a' -> 'b' has nonpositive weight {w}") for w in (0, -1)
    ],
    "test_missing_enumeration_raises": [
        (lambda: NO_ENUMERATION.enumerate_vertex(0), ValueError, "graph '' has no vertex enumeration"),
        (lambda: NO_ENUMERATION.index_of_vertex(("a",)), ValueError, "graph '' has no vertex enumeration"),
    ],
    # an orbit, and a PushOrbit step, from a start with a vertex outside the graph
    "test_framed_orbit_rejects_foreign_vertices": {
        name: [(call, ValueError, message) for v, message in outside for nums in [{inside: 1, v: 1}]
               for call in (lambda g=graph, x=nums: g.orbit(x),
                            lambda g=graph, x=nums: graphop.PushOrbit(g.out_edges, x).step())]
        for name, graph, inside, outside in (
            ("combined", COMBINED, S, [(("B", 0, 0), "bottom position must be positive, got 0"),
                                       (("T", 2, 2), "top depth must be at least 3 in copy 2, got 2"),
                                       (("V", -1), "copy index must be nonnegative, got -1"),
                                       (("X", 1), "not a ladder vertex: ('X', 1) has no ladder tag")]),
            ("g0", G0, E(0), [(v, f"vertex {v!r} is not in copy 0")
                              for v in [("S",), ("E", 1), ("T", 1, 2), ("B", 1, 4), ("V", 2)]]),
            ("gk", G2, E(2), [(v, f"vertex {v!r} is not in copy 2")
                              for v in [("S",), ("E", 0), ("T", 0, 3), ("B", 3, 1), ("V", 1)]]))
    },
    "test_vertex_constructors_validate": [
        (lambda: T(2, 2), ValueError, "top depth must be at least 3 in copy 2, got 2"),
        (lambda: B(0, 0), ValueError, "bottom position must be positive, got 0"),
        (lambda: E(-1), ValueError, "copy index must be nonnegative, got -1"),
        (lambda: ladder.make_gk(0), ValueError, "copy index must be at least 1 (use make_g0 for 0), got 0"),
        (lambda: ladder.rung_position(0), ValueError, "rung depth must be positive, got 0"),
    ],
    # ("V", -1) and ("X", 0) on the combined graph, in its index and oracles, are malformed tuples below
    "test_index_rejects_foreign_vertices": [
        *((lambda v=v: G2.index_of_vertex(v), ValueError, f"vertex {v!r} is not in copy 2") for v in (E(3), S)),
        *((lambda v=v: COMBINED.index_of_vertex(v), ValueError, message) for v, message in (
            (("T", 3, 2), "top depth must be at least 4 in copy 3, got 2"),  # top depth below the copy minimum
            *((v, "copy index must be nonnegative, got -1") for v in (("E", -1), ("T", -1, 0), ("B", -1, 3))))),
    ],
    # on g0 too the shape is checked before copy membership, so the rule is
    # named; orbits and apply reach it through out_edges
    "test_malformed_tuples_are_rejected_naming_the_rule": {
        f"{v}-{name}": [(lambda ask=ask, v=v: ask(v), ValueError, message)
                        for ask in (graph.out_edges, graph.in_edges, graph.index_of_vertex,
                                    lambda v, g=graph: g.orbit({v: 1}),
                                    lambda v, g=graph: graphop.apply(g, SparseVector.unit(v)))]
        for v, message in MALFORMED for name, graph in (("combined", COMBINED), ("g0", G0))
    },
    # E(-1) and B(0, 0) too, as rows of test_vertex_constructors_validate
    "test_constructors_name_the_rule_they_check": [
        (lambda: V(-2), ValueError, "copy index must be nonnegative, got -2"),
        (lambda: T(3, 3), ValueError, "top depth must be at least 4 in copy 3, got 3"),
    ],
    "test_orbit_predicate_validates": [
        (lambda: ladder.orbit_predicate(None, 0, -1), ValueError, "step count must be nonnegative, got -1"),
        (lambda: ladder.orbit_predicate(None, -1, 3), ValueError, "copy index must be nonnegative, got -1"),
        # a sink outside the standalone copy
        *((lambda c=c, k=k: ladder.orbit_predicate(c, k, 3), ValueError, f"copy {c} has no sink V({k})")
          for c, k in ((0, 1), (1, 0), (2, 3))),
    ],
    "test_sink_readings_reject_a_step_that_is_not_positive_and_ascending": {
        case: [(lambda steps=steps: list(ladder.sink_readings(G0, (0,), steps)), ValueError,
                f"steps must be positive and ascending, got {got} after {done}")]
        for case, steps, got, done in (("zero", [0], 0, 0), ("negative", [-3], -3, 0), ("repeated", [2, 2], 2, 2),
                                       ("descending", [3, 5, 4], 4, 5), ("zero-late", [1, 2, 0], 0, 2))
    },
    "test_sink_readings_reject_a_negative_copy_before_any_step": {
        "negative": [(lambda: first_reading_unstepped(COMBINED, (0, -1)), ValueError,
                      "copy index must be nonnegative, got -1")],
        "foreign": [(lambda: first_reading_unstepped(G0, (1,)), ValueError, "copy 0 has no sink V(1)")],
    },
    "test_validation": [
        (lambda: combined_cesaro_sup_norms([]), ValueError, SCHEDULE),
        (lambda: combined_cesaro_sup_norms([0, 4]), ValueError, SCHEDULE),
        (lambda: combined_cesaro_sup_norms([4], step_power=0), ValueError,
         "step_power must be a positive integer, got 0"),
        (lambda: combined_cesaro_sup_norms([4], factor=2), ValueError, "factor must be 1, -1, i or -i, got 2"),
        *((call, ValueError, f"factor must be 1, -1, i or -i, got {factor!r}")
          for factor in (0.5 + 0.5j, 0.6 + 0.8j, complex(1 + 5e-13, 0))
          for call in (lambda factor=factor: combined_cesaro_sup_norms([4], factor=factor),
                       lambda factor=factor: sweeps.normalize_factor(factor))),
        (lambda: combined_cesaro_sup_norms([4], factor=0.5), TypeError, FLOAT),
    ],
}
ROWS = [row for rows in REJECTIONS.values() for case in (rows.values() if isinstance(rows, dict) else [rows])
        for row in case]


def assert_rejects(rows):
    """Each row's call raises its exception type with its exact message."""
    for call, kind, message in rows:
        with pytest.raises(kind) as raised:
            call()
        assert str(raised.value) == message


def table_test(table, name, check):
    """The test ``name`` of ``table``: one test, or one case per case id; each runs ``check`` on its rows."""
    rows = table[name]
    if isinstance(rows, list):
        def test():
            check(rows)
        return test

    @pytest.mark.parametrize("case", list(rows))
    def test_case(case):
        check(rows[case])
    return test_case


def rejection_test(name):
    """The test ``name`` of ``REJECTIONS``."""
    return table_test(REJECTIONS, name, assert_rejects)


test_rejection = rejection_test("test_rejection")


def test_every_raise_has_a_row():
    """Every ``raise ValueError(...)`` and ``raise TypeError(...)`` in
    ``src/ergolab`` can print the message of a row of its type, and each
    row's message is one that such a ``raise`` can print."""
    patterns = [p for path in sorted(Path(ladder.__file__).parent.glob("*.py"))
                for p in raise_patterns(path, "ValueError", "TypeError")]
    assert len(patterns) >= 39
    rows = {(kind.__name__, message) for _, kind, message in ROWS}
    assert [p for p in patterns if not any(k == p[0] and re.fullmatch(p[1], m) for k, m in rows)] == []
    assert [r for r in rows if not any(k == r[0] and re.fullmatch(p, r[1]) for k, p in patterns)] == []


def test_each_table_name_is_one_test():
    """Each name of a table is made once, by ``name = rejection_test("name")``,
    or ``name = replay_test("name")`` for ``test_ergodic.REPLAYS``."""
    from test_ergodic import REPLAYS  # test_ergodic imports this module
    tables = {"rejection_test": REJECTIONS, "replay_test": REPLAYS}
    made = [(node.targets[0].id, ast.unparse(node.value)) for path in Path(__file__).parent.glob("test_*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign) and ast.unparse(node.value).split("(")[0] in tables]
    assert sorted(made) == sorted((name, f"{maker}({name!r})") for maker, table in tables.items() for name in table)
