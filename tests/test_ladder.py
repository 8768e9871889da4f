"""Ladder graph structure: weights, enumeration, orbits, standalone copies."""

import re

import pytest

import fraction_reference as ref
from ergolab import graphop, ladder
from ergolab.core import HALF, ONE, TWO, SparseVector

E, T, B, V, S = ladder.entry, ladder.top, ladder.bottom, ladder.sink, ladder.SOURCE


def test_rung_positions():
    assert [ladder.rung_position(n) for n in range(1, 6)] == [1, 4, 11, 26, 57]


def test_rung_index_inverts_rung_position():
    for n in range(1, 10**4 + 1):
        j = ladder.rung_position(n)
        assert ladder.rung_index(j) == n
        assert ladder.rung_index(j - 1) is None and ladder.rung_index(j + 1) is None
    for j in (2, 3, 5, 10, 12, 25, 27, 100, 2**40):
        assert ladder.rung_index(j) is None
    assert ladder.rung_index(ladder.rung_position(60)) == 60  # huge positions too
    assert ladder.rung_index(0) is None
    landings = {ladder.rung_position(n): n for n in range(1, 70)}
    for centre in (ladder.rung_position(63), 2**64):
        for j in range(centre - 70, centre + 71):
            assert ladder.rung_index(j) == landings.get(j), j


def test_bottom_weights_follow_the_rung_pattern():
    landings = {ladder.rung_position(n) for n in range(1, 8)}
    for j in range(1, 200):
        expected = TWO if j in landings else HALF if j - 1 in landings else ONE
        assert ladder.bottom_weight(j) == expected
    assert ladder.bottom_weight(1) == 2
    assert ladder.bottom_weight(2) == HALF
    assert ladder.bottom_weight(3) == 1
    with pytest.raises(ValueError, match="^bottom position must be positive, got 0$"):
        ladder.bottom_weight(0)


def test_bottom_edges_carry_the_bottom_weight():
    """The oracles' weight arithmetic against bottom_weight's rung_index route."""
    graph = ladder.make_counterexample()
    positions = list(range(1, 10**4 + 1))
    for centre in (ladder.rung_position(63), 2**64, ladder.rung_position(200)):
        positions += range(centre - 70, centre + 71)
    for j in positions:
        target = V(3) if j == 1 else B(3, j - 1)
        assert graph.successors(B(3, j)) == ((target, ladder.bottom_weight(j)),), j
        assert graph.predecessors(B(3, j))[0] == (B(3, j + 1), ladder.bottom_weight(j + 1)), j


def test_window_products_stay_between_half_and_two():
    """Products of consecutive bottom weights never leave [1/2, 2]."""
    for start in range(1, 120):
        product = ONE
        for j in range(start, 0, -1):
            product *= ladder.bottom_weight(j)
            assert HALF <= product <= TWO


def test_vertex_constructors_validate():
    with pytest.raises(ValueError):
        ladder.top(2, 2)
    with pytest.raises(ValueError):
        ladder.bottom(0, 0)
    with pytest.raises(ValueError):
        ladder.entry(-1)
    with pytest.raises(ValueError):
        ladder.make_gk(0)
    with pytest.raises(ValueError):
        ladder.rung_position(0)


def test_combined_enumeration_prefix_is_frozen():
    graph = ladder.make_counterexample()
    assert graph.vertices_up_to(12) == [
        ("S",), ("E", 0), ("V", 0), ("T", 0, 1), ("B", 0, 1),
        ("E", 1), ("V", 1), ("T", 0, 2), ("T", 1, 2), ("B", 0, 2), ("B", 1, 1), ("E", 2),
    ]


def test_enumerations_are_bijective():
    combined = ladder.make_counterexample()
    for i in range(5000):
        assert combined.index_of_vertex(combined.enumerate_vertex(i)) == i
    for graph in (ladder.make_g0(), ladder.make_gk(3)):
        for i in range(600):
            assert graph.index_of_vertex(graph.enumerate_vertex(i)) == i


def test_index_rejects_foreign_vertices():
    combined = ladder.make_counterexample()
    for graph, foreign in (
        (ladder.make_gk(2), (E(3), S)),
        (
            combined,
            (
                ("T", 3, 2),  # top depth below the copy minimum
                ("V", -1), ("E", -1), ("T", -1, 0), ("B", -1, 3), ("X", 0),
            ),
        ),
    ):
        for v in foreign:
            with pytest.raises(ValueError):
                graph.index_of_vertex(v)
    for oracle in (combined.out_edges, combined.in_edges):
        with pytest.raises(ValueError):
            oracle(("V", -1))


# every way a tuple can miss the vertex table, with the rule it breaks
MALFORMED = [
    ((), "no ladder tag"),
    (("E",), "should have length 2"),
    (("B", 0), "should have length 3"),
    (("T", 0, 1, 1), "should have length 3"),
    (("X", 0), "no ladder tag"),
    (("E", 0, 9), "should have length 2"),
    (("V", 0, 5), "should have length 2"),
    (("S", 7), "should have length 1"),
    (("V", -1), "copy index must be nonnegative, got -1"),
    (("T", 3, 3), "top depth must be at least 4 in copy 3, got 3"),
    (("B", 0, 0), "bottom position must be positive, got 0"),
]


@pytest.mark.parametrize("make", [ladder.make_counterexample, ladder.make_g0], ids=["combined", "g0"])
@pytest.mark.parametrize("v, rule", MALFORMED, ids=[str(v) for v, _ in MALFORMED])
def test_malformed_tuples_are_rejected_naming_the_rule(make, v, rule):
    # on g0 too the shape is checked before copy membership, so the rule is
    # named; orbits and apply reach it through out_edges
    graph = make()
    for ask in (
        graph.out_edges,
        graph.in_edges,
        graph.index_of_vertex,
        lambda v: graph.orbit({v: 1}),
        lambda v: graphop.apply(graph, SparseVector.unit(v)),
    ):
        with pytest.raises(ValueError, match=re.escape(rule)):
            ask(v)


def test_constructors_name_the_rule_they_check():
    for build, rule in (
        (lambda: E(-1), "copy index must be nonnegative, got -1"),
        (lambda: V(-2), "copy index must be nonnegative, got -2"),
        (lambda: T(3, 3), "top depth must be at least 4 in copy 3, got 3"),
        (lambda: B(0, 0), "bottom position must be positive, got 0"),
    ):
        with pytest.raises(ValueError, match=f"^{rule}$"):
            build()


def test_oracles_are_consistent_and_column_bounded():
    for graph, n in (
        (ladder.make_counterexample(), 2000),
        (ladder.make_g0(), 800),
        (ladder.make_gk(3), 800),
    ):
        assert ref.oracle_problems(graph, graph.vertices_up_to(n), 2) == []


def test_g0_single_steps_match_the_construction():
    g0 = ladder.make_g0()
    assert graphop.apply(g0, SparseVector.unit(E(0))) == SparseVector.unit(T(0, 1))
    step = graphop.apply(g0, SparseVector.unit(T(0, 1)))
    assert step == SparseVector({T(0, 2): 1, B(0, 1): HALF})
    assert graphop.apply(g0, SparseVector.unit(V(0))) == SparseVector()
    back = graphop.apply_adjoint(g0, SparseVector.unit(V(0)))
    assert back == SparseVector({B(0, 1): 2})
    assert graphop.apply_adjoint(g0, SparseVector.unit(T(0, 2))) == SparseVector.unit(T(0, 1))


def test_g0_small_powers_frozen():
    # frozen from the forward path enumeration oracle
    g0 = ladder.make_g0()
    x3 = graphop.power_apply(g0, SparseVector.unit(E(0)), 3)
    assert x3 == SparseVector({T(0, 3): 1, B(0, 4): HALF, V(0): 1})
    x4 = graphop.power_apply(g0, SparseVector.unit(E(0)), 4)
    assert x4 == SparseVector({T(0, 4): 1, B(0, 3): 1, B(0, 11): HALF})


@pytest.mark.parametrize(
    "make,k,expected_lengths",
    [
        (ladder.make_g0, 0, [3, 7, 15, 31, 63, 127]),
        (lambda: ladder.make_gk(1), 1, [6, 14, 30, 62, 126]),
        (lambda: ladder.make_gk(2), 2, [13, 29, 61, 125]),
    ],
)
def test_entry_to_sink_paths_have_weight_one(make, k, expected_lengths):
    graph = make()
    paths = graphop.enumerate_paths_up_to(graph, E(k), V(k), 127)
    assert sorted(p.length for p in paths) == expected_lengths
    assert all(p.weight == 1 for p in paths)


def test_source_to_sink_paths_in_the_combined_graph():
    graph = ladder.make_counterexample()
    paths = graphop.enumerate_paths_up_to(graph, S, V(0), 70)
    assert sorted(p.length for p in paths) == [4, 8, 16, 32, 64]
    assert all(p.weight == 1 for p in paths)
    paths1 = graphop.enumerate_paths_up_to(graph, S, V(1), 70)
    assert sorted(p.length for p in paths1) == [8, 16, 32, 64]


def test_orbit_predicate_values():
    assert [n for n in range(1, 130) if ladder.orbit_predicate(0, 0, n)] == [3, 7, 15, 31, 63, 127]
    assert [n for n in range(1, 70) if ladder.orbit_predicate(2, 2, n)] == [13, 29, 61]
    assert [n for n in range(1, 70) if ladder.orbit_predicate(None, 0, n)] == [4, 8, 16, 32, 64]
    assert [n for n in range(1, 70) if ladder.orbit_predicate(None, 2, n)] == [16, 32, 64]
    assert ladder.orbit_predicate(None, 3, 16) == 0


def test_orbit_predicate_validates():
    with pytest.raises(ValueError, match="step count must be nonnegative, got -1"):
        ladder.orbit_predicate(None, 0, -1)
    with pytest.raises(ValueError, match="copy index must be nonnegative, got -1"):
        ladder.orbit_predicate(None, -1, 3)
    for copy_index, k in ((0, 1), (1, 0), (2, 3)):  # a sink outside the standalone copy
        with pytest.raises(ValueError, match=rf"copy {copy_index} has no sink V\({k}\)"):
            ladder.orbit_predicate(copy_index, k, 3)


def test_orbit_predicate_on_the_combined_graph_is_the_copy_reading_delayed():
    # E(k) holds 1 at step k + 1 only, so the source's orbit reads copy k's
    # sink as copy k's own orbit from E(k), k + 1 steps late, and 0 before
    for k in range(13):
        for n in range(2**12 + 1):
            delayed = ladder.orbit_predicate(k, k, n - k - 1) if n > k else 0
            assert ladder.orbit_predicate(None, k, n) == delayed, (k, n)


def test_sink_readings_match_the_predicate_on_late_copies():
    # copies 5..10 first read 1 at steps 2**(k+2) from 128 to 4096, beyond
    # the reach of criterion 3 (copies k <= 4, steps n <= 300)
    readings = list(ladder.sink_readings(ladder.make_counterexample(), range(11), range(1, 4101)))
    assert len(readings) == 11 * 4100
    assert [(n, k) for n, k, got, want in readings if got != want] == []
    first = {}
    for n, k, got, _ in readings:
        if got:
            first.setdefault(k, n)
    assert first == {k: 2 ** (k + 2) for k in range(11)}


@pytest.mark.parametrize(
    "graph, copies, steps",
    [
        (ladder.make_counterexample(), range(5), [4, 8, 16, 32, 64, 128, 256]),
        (ladder.make_counterexample(), (3, 0), [1, 7, 32, 33, 100]),
        (ladder.make_g0(), (0,), [1, 3, 5, 31, 32, 63, 200]),
        (ladder.make_gk(2), (2,), [3, 13, 14, 29, 61, 125]),
    ],
    ids=["combined-witness-checkpoints", "combined-mixed-steps", "g0", "gk2"],
)
def test_sparse_steps_read_what_every_step_reads(graph, copies, steps):
    every = ladder.sink_readings(graph, copies, range(1, steps[-1] + 1))
    expected = [reading for reading in every if reading[0] in steps]
    assert len(expected) == len(steps) * len(copies)
    assert list(ladder.sink_readings(graph, copies, steps)) == expected
    assert any(got for _, _, got, _ in expected)  # the steps hit a sink reading 1


@pytest.mark.parametrize(
    "steps",
    [[0], [-3], [2, 2], [3, 5, 4], [1, 2, 0]],
    ids=["zero", "negative", "repeated", "descending", "zero-late"],
)
def test_sink_readings_reject_a_step_that_is_not_positive_and_ascending(steps):
    readings = ladder.sink_readings(ladder.make_g0(), (0,), steps)
    with pytest.raises(ValueError, match="steps must be positive and ascending"):
        list(readings)


def test_orbit_matches_simulation_on_standalone_copies():
    for k in (0, 1):
        graph = ladder.make_g0() if k == 0 else ladder.make_gk(k)
        x = SparseVector.unit(E(k))
        for n in range(1, 140):
            x = graphop.apply(graph, x)
            assert x[V(k)] == ladder.orbit_predicate(k, k, n), (k, n)


def test_source_orbit_on_a_copy_is_the_standalone_orbit_from_its_entry():
    """On copy k, the combined graph's orbit from the source at step t is
    the standalone copy's orbit from E(k) at step t - k - 1, and 0 before:
    E(k) holds 1 at step k + 1 and at no other step, and only E(k) feeds
    copy k."""
    combined = ladder.make_counterexample()
    for k in (0, 2):
        standalone = ladder.make_g0() if k == 0 else ladder.make_gk(k)
        full = SparseVector.unit(S)
        alone = SparseVector()
        for t in range(1, 41):
            full = graphop.apply(combined, full)
            alone = SparseVector.unit(E(k)) if t == k + 1 else graphop.apply(standalone, alone)
            on_copy = {v: x for v, x in full.items() if v != S and v[1] == k}
            assert on_copy == dict(alone.items()), (k, t)


@pytest.mark.parametrize(
    "graph, entry_vertex, entry_edges, foreign",
    [
        (ladder.make_g0(), E(0), ((T(0, 1), ONE),), (T(3, 5), B(1, 4), V(2), E(1), S)),
        (ladder.make_gk(2), E(2), ((T(2, 3), ONE),), (T(3, 5), B(0, 4), V(0), E(0), S)),
    ],
)
def test_restricted_oracles_reject_foreign_vertices(graph, entry_vertex, entry_edges, foreign):
    for v in foreign:
        with pytest.raises(ValueError):
            graph.successors(v)
        with pytest.raises(ValueError):
            graph.predecessors(v)
    assert graph.successors(entry_vertex) == entry_edges  # edges out of the graph dropped
