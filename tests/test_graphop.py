"""Graph-presented operators: application, paths, truncated norms.  Their
plain comparisons with the Fraction references are rows of
tests/test_routes.py; here a reference is read only inside a larger check."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from ergolab import graphop, ladder
from ergolab.core import ONE, ZERO, SparseVector
from ergolab.graphop import PathCount, graph_from_edges
from strategies import ODD_WEIGHTS
from test_rejections import rejection_test

H = Fraction(1, 2)


@pytest.fixture()
def diamond():
    # a -> b (1/2), a -> c (2), b -> d (1), c -> d (1/2), d absorbs nothing
    return graph_from_edges(
        {
            "a": [("b", H), ("c", 2)],
            "b": [("d", 1)],
            "c": [("d", H)],
        },
        "diamond",
    )


def test_apply_pushes_mass_forward(diamond):
    image = graphop.apply(diamond, SparseVector.unit("a"))
    assert dict(image.items()) == {"b": H, "c": Fraction(2)}
    second = graphop.apply(diamond, image)
    assert dict(second.items()) == {"d": H * 1 + 2 * H}
    assert graphop.power_apply(diamond, SparseVector.unit("a"), 2) == second
    assert graphop.power_apply(diamond, SparseVector.unit("a"), 0)["a"] == 1


def test_apply_adjoint_pulls_mass_backward(diamond):
    image = graphop.apply_adjoint(diamond, SparseVector.unit("d"))
    assert dict(image.items()) == {"b": Fraction(1), "c": H}


def test_adjoint_duality_on_all_pairs(diamond):
    verts = diamond.finite_vertices
    for n in range(4):
        for u in verts:
            fw = graphop.power_apply(diamond, SparseVector.unit(u), n)
            for v in verts:
                bw = SparseVector.unit(v)
                for _ in range(n):
                    bw = graphop.apply_adjoint(diamond, bw)
                assert fw[v] == bw[u], (u, v, n)


def paths_of_length(graph, u, v, n):
    return [p for p in graphop.enumerate_paths_up_to(graph, u, v, n) if p.length == n]


def test_enumerate_paths(diamond):
    paths = paths_of_length(diamond, "a", "d", 2)
    assert len(paths) == 2
    assert {p.weight for p in paths} == {H, ONE}
    assert all(p.length == 2 and p.vertices[0] == "a" and p.vertices[-1] == "d" for p in paths)
    assert graphop.enumerate_paths_up_to(diamond, "a", "d", 1) == []
    both = graphop.enumerate_paths_up_to(diamond, "a", "d", 5)
    assert both == paths


def test_count_paths_matches_enumeration(diamond):
    for v in diamond.finite_vertices:
        for n in range(4):
            expected = [
                p
                for u in diamond.finite_vertices
                for p in paths_of_length(diamond, u, v, n)
            ]
            got = graphop.count_paths_to(diamond, v, n, len(diamond.finite_vertices))
            assert got.count == len(expected)
            assert got.max_weight == max((p.weight for p in expected), default=Fraction(0))


def test_count_paths_profile_matches_pointwise(diamond):
    n_trunc = len(diamond.finite_vertices)
    for v in diamond.finite_vertices:
        profile = graphop.count_paths_profile(diamond, v, 5, n_trunc)
        for n, pc in enumerate(profile):
            assert pc == graphop.count_paths_to(diamond, v, n, n_trunc)


def test_count_paths_respects_truncation(diamond):
    # truncation 1 admits only the start vertex "a" (sorted order)
    assert diamond.enumerate_vertex(0) == "a"
    pc = graphop.count_paths_to(diamond, "d", 2, 1)
    assert pc == PathCount(2, ONE)


def test_path_records_are_immutable_values(diamond):
    assert PathCount(2, ONE) == PathCount(2, ONE)
    assert PathCount(2, ONE) != PathCount(2, H)
    (path,) = graphop.enumerate_paths_up_to(diamond, "a", "b", 1)
    assert path == graphop.Path(vertices=("a", "b"), weight=H)
    for record, field in ((PathCount(2, ONE), "count"), (path, "weight")):
        with pytest.raises(AttributeError):
            setattr(record, field, ZERO)
    assert path.weight == H


test_path_counts_reject_a_negative_length = rejection_test("test_path_counts_reject_a_negative_length")


def test_oracle_problems_pass_a_consistent_graph(diamond):
    """The test-side oracle check passes a consistent graph."""
    assert ref.oracle_problems(diamond, diamond.finite_vertices, 2) == []


def test_oracle_problems_flag_a_bound_violation(diamond):
    """A column above the bound is reported."""
    assert ref.oracle_problems(diamond, diamond.finite_vertices, H * 3) == [
        "in-edge weights of 'c' sum to 2, above 3/2"]


def test_oracle_problems_detect_an_oracle_mismatch():
    """An in-edge oracle that forgets an edge is reported."""
    forgetful = graphop.C0Graph(
        out_edges=lambda v: ((("b",), 1, 1),) if v == ("a",) else (),
        in_edges=lambda v: (),  # wrong: drops the edge a -> b
        description="inconsistent",
    )
    assert ref.oracle_problems(forgetful, [("a",), ("b",)], 10) == [
        "('a',) -> ('b',) (1/1) is missing from in_edges(('b',))"]


test_graph_from_edges_rejects_bad_weights = rejection_test("test_graph_from_edges_rejects_bad_weights")


def test_truncated_norm_monotone_in_truncation():
    graph = ladder.make_counterexample()
    profile = graphop.operator_norm_profile(graph, 2000)
    assert all(x <= y for x, y in zip(profile, profile[1:]))
    assert profile[-1] == 2
    for n_trunc in (1, 7, 100, 2000):
        assert profile[n_trunc - 1] == graphop.operator_norm_truncated(graph, n_trunc)


@pytest.mark.parametrize(
    "edges", [{"a": [("b", 1)]}, {"a": [("b", H), ("c", 2)], "b": [("d", 1)], "c": [("d", H)]}]
)
def test_truncations_past_the_end_of_a_finite_graph(edges):
    """Each profile entry is the norm at its truncation; past the end of a
    finite graph both repeat the whole graph's value."""
    graph = graph_from_edges(edges)
    size = len(graph.finite_vertices)
    profile = graphop.operator_norm_profile(graph, size + 6)
    assert len(profile) == size + 6
    assert profile == [graphop.operator_norm_truncated(graph, n) for n in range(1, size + 7)]
    assert profile[size - 1 :] == [profile[-1]] * 7
    whole = graphop.power_norms_sweep(graph, 3, size)
    assert graphop.power_norms_sweep(graph, 3, size + 6) == whole
    assert ref.power_norms(graph, 3, size + 6) == whole


def test_one_edge_truncated_far_past_its_end():
    graph = graph_from_edges({"a": [("b", 1)]})
    assert graphop.operator_norm_truncated(graph, 10) == 1
    assert graphop.power_norms_sweep(graph, 2, 10) == [ONE, ZERO]


def test_power_norm_monotone_in_truncation():
    graph = ladder.make_counterexample()
    for n_power in (2, 3):
        values = [
            graphop.power_norms_sweep(graph, n_power, n_trunc)[-1]
            for n_trunc in (10, 50, 200, 800)
        ]
        assert all(x <= y for x, y in zip(values, values[1:]))


def test_power_norms_sweep_matches_pointwise():
    """A shorter sweep ends at the longer one's value for its last power.
    The sweep against the Fraction reference is the ``power_norms`` row's
    ``g0-n5-t60`` case in tests/test_routes.py."""
    graph = ladder.make_g0()
    sweep = graphop.power_norms_sweep(graph, 5, 60)
    for n, value in enumerate(sweep, start=1):
        assert value == graphop.power_norms_sweep(graph, n, 60)[-1]
    assert graphop.power_norms_sweep(graph, 5, 0) == [ZERO] * 5


test_missing_enumeration_raises = rejection_test("test_missing_enumeration_raises")


def test_cancelled_entries_are_dropped():
    # B(0,5) -> B(0,4) has weight 1/2 and so has the rung T(0,2) -> B(0,4)
    graph = ladder.make_counterexample()
    x = SparseVector({ladder.bottom(0, 5): 2, ladder.top(0, 2): -2})
    image = graphop.apply(graph, x)
    assert dict(image.items()) == {ladder.top(0, 3): -2} == ref.push(graph.successors, x)


def test_long_orbits_leave_no_state_on_the_graph():
    """Long orbits, forward and adjoint, change nothing the graph holds."""
    for graph, start, steps in (
        (ladder.make_g0(), ladder.entry(0), 256),
        (ladder.make_counterexample(), ladder.SOURCE, 64),
    ):
        before = {key: copy.copy(value) for key, value in vars(graph).items()}
        x = graphop.power_apply(graph, SparseVector.unit(start), steps)
        for _ in range(4):
            x = graphop.apply_adjoint(graph, x)
        after = {key: copy.copy(value) for key, value in vars(graph).items()}
        assert after == before, graph


def test_path_weights_walk_on_ints():
    """Each path's weight is the product of the successors' weights along it,
    on weights 2/3, 3/5 and 7/2; the paths_up_to row of tests/test_routes.py
    compares the same lists with the Fraction walk."""
    graph = ODD_WEIGHTS
    for u, v in (("a", "c"), ("a", "a"), ("d", "d")):
        paths = graphop.enumerate_paths_up_to(graph, u, v, 8)
        assert len(paths) > 20
        for path in paths:
            weight = ONE
            for x, y in zip(path.vertices, path.vertices[1:]):
                weight *= dict(graph.successors(x))[y]
            assert type(path.weight) is Fraction and path.weight == weight


def counting_out_edges(graph, name="out_edges"):
    """Wrap the oracle ``graph.<name>`` so each call records its vertex; returns the record."""
    calls = []
    oracle = getattr(graph, name)

    def counted(v):
        calls.append(v)
        return oracle(v)

    setattr(graph, name, counted)
    return calls


SMALL_GRAPHS = st.dictionaries(
    st.sampled_from("abcde"),
    st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from(["1/2", "1", "2", "2/3", "3"])),
             max_size=2, unique_by=lambda edge: edge[0]),
    min_size=1,
)


@settings(max_examples=60)
@given(edges=SMALL_GRAPHS, u=st.sampled_from("abcde"), v=st.sampled_from("abcde"),
       n_max=st.integers(0, 6))
def test_pruned_paths_equal_the_unpruned_walk(edges, u, v, n_max):
    # the walk enters only vertices that can still reach v in the length
    # left; the reference walks every partial path out of u
    graph = graph_from_edges(edges, "random")
    calls = counting_out_edges(graph)
    paths = graphop.enumerate_paths_up_to(graph, u, v, n_max)
    # so it asks for the out-edges of exactly the prefixes of the paths found
    # that are shorter than n_max
    prefixes = {p.vertices[:i] for p in paths for i in range(1, min(len(p.vertices), n_max) + 1)}
    assert len(calls) == len(prefixes)
    assert paths == ref.paths_up_to(graph, u, v, n_max)


def test_paths_walk_only_the_backward_ball_of_the_target():
    # criterion 2's six entry-to-sink paths: walking every partial path out
    # of E(0) asked out_edges 7,491 times
    graph = ladder.make_g0()
    out_calls, in_calls = counting_out_edges(graph), counting_out_edges(graph, "in_edges")
    paths = graphop.enumerate_paths_up_to(graph, ladder.entry(0), ladder.sink(0), 127)
    assert [p.length for p in paths] == [3, 7, 15, 31, 63, 127]
    assert len(out_calls) <= 231 and len(in_calls) <= 134


def test_path_counts_read_each_stepped_vertex_once_per_call():
    graph = ladder.make_counterexample()
    calls = counting_out_edges(graph)
    first = list(graphop.count_paths_levels(graph, 40, 2000))
    stepped = len(calls)
    assert stepped == len(set(calls)) <= 2080  # one call per stepped vertex
    # the table dies with the call: a second call asks every vertex again
    assert list(graphop.count_paths_levels(graph, 40, 2000)) == first
    assert len(calls) == 2 * stepped and calls[stepped:] == calls[:stepped]
