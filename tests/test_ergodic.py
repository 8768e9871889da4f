"""Averaging engines, compactness witness, and fixed-space certificates."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

import fraction_reference as ref

from ergolab import graphop, ladder
from ergolab.core import HALF, ONE, ZERO, SparseVector
from ergolab.ergodic import (
    BudgetExceeded,
    DerivationStep,
    FixedSpaceCertificate,
    OperatorHandle,
    at_most,
    cesaro_trace,
    fixed_space_certificate,
    graph_handle,
    replay_certificate,
    scalar_rotation_check,
    weak_compactness_witness,
)
from test_rejections import rejection_test


def test_trace_from_a_dead_end_vertex():
    op = graph_handle(ladder.make_g0())
    trace = cesaro_trace(op, SparseVector.unit(ladder.sink(0)), [1, 2, 4])
    assert trace.norms() == {1: ONE, 2: HALF, 4: Fraction(1, 4)}
    assert [rec.support for rec in trace.records] == [1, 1, 1]
    with pytest.raises(AttributeError):
        trace.records[0].sup_norm = ZERO


test_engine_forcing_and_validation = rejection_test("test_engine_forcing_and_validation")


def test_scalar_rotation_cross_engine():
    op = graph_handle(ladder.make_counterexample())
    x = SparseVector.unit(ladder.SOURCE)
    fast = scalar_rotation_check(op, x, -1, 32, 1)
    slow = scalar_rotation_check(op, x, -1, 32, 1, engine="generic")
    assert fast.value == slow.value
    assert isinstance(fast.value, Fraction)
    rot_fast = scalar_rotation_check(op, x, 1j, 24, 1)
    rot_slow = scalar_rotation_check(op, x, 1j, 24, 1, engine="generic")
    assert rot_fast.value == rot_slow.value
    assert isinstance(rot_fast.value, float)


@pytest.mark.parametrize("engine", ["auto", "generic"])
@pytest.mark.parametrize("factor", [1j, -1j])
def test_bounds_at_plus_minus_i_compare_the_exact_sum(engine, factor):
    # window 20 reads 3/20 exactly at +-i, from a real sum at power 1 and an
    # imaginary one at power 2: a bound 10**-10 below it fails, though it
    # lies within any float slack of the value
    op = graph_handle(ladder.make_counterexample())
    x = SparseVector.unit(ladder.SOURCE)
    below = Fraction(3, 20) - Fraction(1, 10**10)
    for step_power in (1, 2):
        trace = cesaro_trace(op, x, [20], engine=engine, step_power=step_power, factor=factor)
        (record,) = trace.records
        assert record.sup_norm == 0.15
        assert at_most(record.sup_norm, Fraction(3, 20))
        assert not at_most(record.sup_norm, below)
        assert not at_most(record.sup_norm, Fraction(-1))  # its square is large, its sign is not
    check = scalar_rotation_check(op, x, factor, 20, below, engine=engine)
    assert (check.passed, check.value) == (False, 0.15)
    # window 30 reads 1/10, whose float lies above it: only the exact sum passes the bound
    assert scalar_rotation_check(op, x, factor, 30, Fraction(1, 10), engine=engine).passed


def test_at_most_compares_floats_with_no_slack():
    assert not at_most(0.1, Fraction(1, 10)) and at_most(0.5, Fraction(1, 2))  # 0.1 > 1/10
    # the power mean at power 2 from the source stays within 1/4 at window 32
    source = graph_handle(ladder.make_counterexample()), SparseVector.unit(ladder.SOURCE)
    assert at_most(cesaro_trace(*source, [32], step_power=2).norms()[32], Fraction(1, 4))
    # at i the zero vector averages to 0, which a bound of 0 admits
    zero = scalar_rotation_check(graph_handle(ladder.make_g0()), SparseVector(), 1j, 4, 0)
    assert (zero.passed, zero.value) == (True, 0.0)


test_scalar_rotation_rejects_bad_factors = rejection_test("test_scalar_rotation_rejects_bad_factors")


def test_complex_trace_past_the_float_range_of_its_denominator():
    # mass leaks from a to b by thirds; after k steps the orbit's shared
    # denominator is 3**k, past 1e308 from k = 647, and b's numerator
    # 3**k - 1 is too large for complex(); each part of a sum over den is not
    graph = graphop.graph_from_edges(
        {"a": [("a", Fraction(1, 3)), ("b", Fraction(2, 3))], "b": [("b", ONE)]},
        description="leak by thirds",
    )
    op = graph_handle(graph)
    x = SparseVector.unit("a")
    orbit = graph.orbit(*graphop.int_vector(x))
    for _ in range(999):
        orbit.step()
    assert orbit.den == 3**999 > 10**308
    windows = [2, 999, 1000]
    for factor in (1j, -1j):
        trace = cesaro_trace(op, x, windows, engine="generic", factor=factor)
        assert trace.norms() == ref.cesaro_sup_norms(graph, x, windows, factor=factor)


def test_plain_handle_matches_the_graph_backed_generic_engine():
    """A handle with no graph steps SparseVectors through ``apply``; it must
    agree with the integer stepping of a graph-backed handle."""
    graph = ladder.make_counterexample()
    op = graph_handle(graph)
    plain = OperatorHandle(apply=lambda v: graphop.apply(graph, v))
    x = SparseVector.unit(ladder.SOURCE)
    windows = [1, 2, 5, 16, 33]
    for step_power, factor in ((1, 1), (2, -1), (3, 1)):
        kwargs = dict(engine="generic", step_power=step_power, factor=factor)
        expected = cesaro_trace(op, x, windows, **kwargs).norms()
        assert cesaro_trace(plain, x, windows, **kwargs).norms() == expected, kwargs


def test_budget_cap_interrupts_wide_averages():
    op = graph_handle(ladder.make_counterexample())
    x = SparseVector.unit(ladder.SOURCE)
    with pytest.raises(BudgetExceeded):
        cesaro_trace(op, x, [64], max_support=10, engine="generic")
    # the cap counts the keys of the sum, of its real and imaginary parts alike
    g0, entry = graph_handle(ladder.make_g0()), SparseVector.unit(ladder.entry(0))
    for factor in (1, -1, 1j, -1j):
        with pytest.raises(BudgetExceeded) as info:
            cesaro_trace(g0, entry, [64], max_support=100, engine="generic", factor=factor)
        assert (info.value.window, info.value.support) == (17, 107), factor


def test_weak_compactness_witness_small_triangle():
    graph = ladder.make_counterexample()
    assert weak_compactness_witness(graph, 3, 1) == [
        [ONE, 0, 0, 0],
        [ONE, ONE, 0, 0],
    ]  # its errors are rows of test_rejections.py


def test_weak_compactness_witness_over_512_steps():
    # 2**9 steps from the source: each sink reads exactly 1 at every checkpoint
    # 2**(m+2) with m >= k, and 0 at the checkpoints before
    witness = weak_compactness_witness(ladder.make_counterexample(), 4, 7)
    assert witness == [[ONE if k <= m else 0 for k in range(5)] for m in range(8)]


@pytest.mark.parametrize(
    "make",
    [ladder.make_counterexample, ladder.make_g0, lambda: ladder.make_gk(1), lambda: ladder.make_gk(3)],
)
def test_ladder_certificates_replay_cleanly(make):
    graph = make()
    cert = fixed_space_certificate(graph)
    assert cert.conclusion == "only_zero"
    replay = replay_certificate(cert, graph)
    assert replay.ok, replay.issues
    assert replay.coverage_checked == 200


def test_certificate_structure_for_the_combined_graph():
    cert = fixed_space_certificate(ladder.make_counterexample())
    assert [step.rule for step in cert.steps] == [
        "sink",
        "chain_to_zero",
        "null_class",
        "null_class",
        "substitution",
    ]
    for v in (ladder.SOURCE, ladder.top(2, 9), ladder.bottom(4, 7), ladder.entry(3)):
        assert sum(step.members(v) for step in cert.steps) == 1, v
    assert not any(step.members(("X", 0)) for step in cert.steps)


def test_replay_detects_a_tampered_graph():
    base = ladder.make_g0()

    def bad_out_edges(v):
        if v == ladder.sink(0):
            return ((ladder.sink(0), 1, 1),)
        return base.out_edges(v)

    tampered = graphop.C0Graph(
        out_edges=bad_out_edges,
        in_edges=base.in_edges,
        enumerate_vertex=base.enumerate_vertex,
        index_of_vertex=base.index_of_vertex,
        description="copy 0 with a looped sink",
    )
    replay = replay_certificate(fixed_space_certificate(base), tampered)
    assert not replay.ok
    assert any("out-edges" in issue for issue in replay.issues)


@pytest.mark.parametrize("make", [ladder.make_counterexample, ladder.make_g0], ids=["combined", "g0"])
@pytest.mark.parametrize("sample, rule", [
    ((), "has no ladder tag"),
    (("V",), "should have length 2"),
    (("V", 0, 5), "should have length 2"),
    (("V", 0, 0), "should have length 2"),
], ids=str)
def test_replay_reports_a_malformed_sample(make, sample, rule):
    graph = make()
    cert = fixed_space_certificate(graph)
    sinks = cert.steps[0]
    sinks.samples += (sample,)
    replay = replay_certificate(cert, graph)
    assert replay.issues == [
        f"{sinks.label}: oracle rejected vertex {sample!r}: not a ladder vertex: {sample!r} {rule}"
    ]


def test_replay_detects_a_mismatched_graph():
    cert = fixed_space_certificate(ladder.make_counterexample())
    replay = replay_certificate(cert, ladder.make_g0())
    assert not replay.ok
    assert any("rejected" in issue for issue in replay.issues)


# Each replay premise, broken on its own: copy 0 with some out-edges
# replaced, or its certificate with one step replaced or dropped.  Copy 0's
# certificate samples V(0); B(0,j) for j = 1, 2, 5, 11; T(0,n) for n = 1, 2,
# 4; then E(0).  Its first 200 vertices are E(0), V(0) and T(0,n), B(0,n)
# for n < 100, each checked after the samples of the step that holds it.

BOTTOMS = "B(k,j), j >= 1 for k = 0"
TOPS = "T(k,n), n >= k+1 for k = 0"


def _patched_g0(edges):
    """Copy 0 with the out-edges of the vertices ``edges`` names replaced,
    or computed by ``edges`` when it is a function of the vertex."""
    base = ladder.make_g0()
    patch = edges if callable(edges) else edges.get

    def out_edges(v):
        out = patch(v)
        return base.out_edges(v) if out is None else out

    return graphop.C0Graph(
        out_edges=out_edges,
        in_edges=base.in_edges,
        enumerate_vertex=base.enumerate_vertex,
        index_of_vertex=base.index_of_vertex,
        description="copy 0, patched",
    )


def _hand_step(rule, label, members, samples, infinite=False):
    """A derivation step built by hand.  Replay reads a step only through
    these attributes."""
    return SimpleNamespace(
        rule=rule, label=label, members=members, samples=tuple(samples), infinite=infinite
    )


def _replay_g0_issues(graph, swap=None):
    """The issues of copy 0's certificate replayed on ``graph``, with step i
    replaced by ``swap[1]`` when ``swap`` is (i, step)."""
    cert = fixed_space_certificate(ladder.make_g0())
    if swap is not None:
        cert.steps[swap[0]] = swap[1]
    replay = replay_certificate(cert, graph)
    assert replay.ok == (not replay.issues)
    return replay.issues


def _climbing_bottoms(v):
    """Every bottom above B(0,1) steps up, so none descends."""
    return ((ladder.bottom(0, v[2] + 1), 1, 1),) if v[0] == "B" and v[2] >= 2 else None


def _doubled_tops(v):
    """Copy 0's top edges, with weight 2 on the edge deeper into the top chain."""
    if v[0] == "T":
        _, k, n = v
        return ((ladder.top(k, n + 1), 2, 1), (ladder.bottom(k, ladder.rung_position(n)), 1, 2))
    return None


def _doubled_top_issue(n):
    return (f"{TOPS}: vertex ('T', 0, {n}) does not step to a single same-class "
            f"weight-1 successor (got [(('T', 0, {n + 1}), Fraction(2, 1))])")


def _climbing_issue(j):
    return (f"{BOTTOMS}: vertex ('B', 0, {j}) steps to ('B', 0, {j + 1}), "
            "whose index is not smaller")


B3, T2, T4 = ladder.bottom(0, 3), ladder.top(0, 2), ladder.top(0, 4)
TWO_EXITS = f"{BOTTOMS}: vertex ('B', 0, 3) is not single-exit"
TOPS_IN_REPLAY_ORDER = (1, 2, 4, 3, *range(5, 100))  # samples first, then the covered rest


@pytest.mark.parametrize("edges, issues", [
    pytest.param(
        {ladder.entry(0): ((ladder.top(0, 1), 1, 1), (("X", 0), 1, 1))},
        ["the entry vertex E(0): vertex ('E', 0) has non-zeroed targets [('X', 0)]"],
        id="substitution-onto-a-target-not-zeroed"),
    pytest.param({B3: ((ladder.bottom(0, 2), 1, 1), (ladder.sink(0), 1, 1))}, [TWO_EXITS],
                 id="chain-vertex-with-two-exits"),
    pytest.param({B3: ()}, [TWO_EXITS], id="chain-vertex-with-no-exit"),
    pytest.param(
        {B3: ((ladder.top(0, 5), 1, 1),)},
        [f"{BOTTOMS}: vertex ('B', 0, 3) leaves the family at ('T', 0, 5)"],
        id="chain-leaves-its-family"),
    pytest.param(
        {B3: ((("B", 0, 0), 1, 1),)},
        [f"{BOTTOMS}: no index to descend by at ('B', 0, 3): bottom position must be positive, got 0"],
        id="chain-vertex-the-oracle-rejects"),
    pytest.param(
        _climbing_bottoms,
        [_climbing_issue(j) for j in (2, 5, 11, 3, 4, *range(6, 11), *range(12, 100))],
        id="chain-longer-than-the-limit"),
    pytest.param(_doubled_tops, [_doubled_top_issue(n) for n in TOPS_IN_REPLAY_ORDER],
                 id="null-class-deeper-edge-of-weight-2"),
    pytest.param(
        {T2: ((("X", 0), 1, 1), (ladder.bottom(0, 5), 1, 2))},
        [f"{TOPS}: vertex ('T', 0, 2) does not step to a single same-class "
         "weight-1 successor (got [(('X', 0), Fraction(1, 1))])"],
        id="null-class-deeper-edge-out-of-its-class"),
    pytest.param(
        {T4: ((ladder.top(0, 5), 1, 1), (ladder.top(0, 6), 1, 1))},
        [f"{TOPS}: vertex ('T', 0, 4) does not step to a single same-class weight-1 successor "
         "(got [(('T', 0, 5), Fraction(1, 1)), (('T', 0, 6), Fraction(1, 1))])"],
        id="null-class-two-deeper-edges"),
])
def test_replay_flags_each_broken_premise(edges, issues):
    assert _replay_g0_issues(_patched_g0(edges)) == issues


def test_replay_checks_chain_to_zero_as_a_one_hop_descent():
    g0 = ladder.make_g0()
    # a family's premise is checked at each covered member, not only at its samples
    everything = DerivationStep("sink", "every vertex", lambda v: True, [ladder.sink(0)])
    replay = replay_certificate(FixedSpaceCertificate([everything], "only_zero"), g0)
    assert replay.issues == [f"every vertex: vertex {v!r} has out-edges"
                             for v in g0.vertices_up_to(200) if v != ladder.sink(0)]
    assert replay.coverage_checked == 200
    # a step onto an equal index does not descend
    assert _replay_g0_issues(_patched_g0({B3: ((B3, 1, 1),)})) == [
        f"{BOTTOMS}: vertex ('B', 0, 3) steps to ('B', 0, 3), whose index is not smaller"
    ]
    # deep samples descend one hop, with no limit on their height above V(0)
    deep = (65, 2**70)
    bottoms = _hand_step("chain_to_zero", BOTTOMS, lambda v: v[0] == "B",
                         [ladder.bottom(0, j) for j in deep])
    assert _replay_g0_issues(g0, (1, bottoms)) == []
    assert _replay_g0_issues(_patched_g0(_climbing_bottoms), (1, bottoms)) == [
        _climbing_issue(j) for j in (*deep, *range(2, 65), *range(66, 100))
    ]


def test_replay_flags_null_class_on_a_finite_family():
    tops = _hand_step("null_class", TOPS, lambda v: v[0] == "T",
                      [ladder.top(0, n) for n in (1, 2, 4)])
    finite = f"{TOPS}: null_class needs an infinite class"
    # once per step, however many vertices it covers
    assert _replay_g0_issues(ladder.make_g0(), (2, tops)) == [finite]
    # the class's edges are still checked: a finite class can fail both ways
    assert _replay_g0_issues(_patched_g0(_doubled_tops), (2, tops)) == [
        finite, *(_doubled_top_issue(n) for n in TOPS_IN_REPLAY_ORDER)
    ]


def test_replay_flags_an_unknown_rule():
    sinks = _hand_step("by_inspection", "V(k) for k = 0", lambda v: v[0] == "V", [ladder.sink(0)])
    assert _replay_g0_issues(ladder.make_g0(), (0, sinks)) == ["unknown rule 'by_inspection'"]
    # once per step, however many samples it has
    tops = _hand_step("by_inspection", TOPS, lambda v: v[0] == "T",
                      [ladder.top(0, n) for n in (1, 2, 4)])
    assert _replay_g0_issues(ladder.make_g0(), (2, tops)) == ["unknown rule 'by_inspection'"]
    # and for its rule when it has no samples either
    everything = DerivationStep("bogus", "every vertex", lambda v: True, ())
    replay = replay_certificate(FixedSpaceCertificate([everything], "only_zero"), ladder.make_g0())
    assert replay.issues == ["unknown rule 'bogus'"]
    assert replay.coverage_checked == 200


@pytest.mark.parametrize("rule", ["sink", "chain_to_zero", "null_class", "substitution"])
def test_replay_flags_a_step_with_no_samples(rule):
    # the samples test a family beyond the covered prefix, so a step needs some
    empty = DerivationStep(rule, "every vertex", lambda v: True, (), infinite=True)
    replay = replay_certificate(FixedSpaceCertificate([empty], "only_zero"), ladder.make_g0())
    assert replay.issues == [f"every vertex: no samples to check the {rule} premise at"]
    assert not replay.ok


def test_replay_flags_a_coverage_gap():
    graph = ladder.make_g0()
    cert = fixed_space_certificate(graph)
    assert cert.steps[-1].rule == "substitution"
    del cert.steps[-1]  # nothing zeroes the entry E(0) now
    replay = replay_certificate(cert, graph)
    index = graph.index_of_vertex(ladder.entry(0))
    assert not replay.ok
    assert replay.issues == [f"vertex ('E', 0) (index {index}) not covered by any step"]
    assert replay.coverage_checked == 200


def test_finite_chain_certificate():
    graph = graphop.graph_from_edges(
        {("a",): [(("b",), ONE)], ("b",): [(("c",), HALF)], ("c",): []},
        description="three-vertex chain",
    )
    cert = fixed_space_certificate(graph)
    assert cert.conclusion == "only_zero"
    assert len(cert.steps) == 3
    replay = replay_certificate(cert, graph)
    assert replay.ok, replay.issues
    assert replay.coverage_checked == 3


def test_self_loop_is_reported_not_guessed():
    graph = graphop.graph_from_edges(
        {("a",): [(("a",), ONE)]}, description="one self-loop"
    )
    cert = fixed_space_certificate(graph)
    assert cert.conclusion == "inconclusive"
    replay = replay_certificate(cert, graph)
    assert replay.ok  # nothing was claimed, so nothing fails
    assert replay.coverage_checked == 0


def test_unpresented_graph_is_inconclusive():
    graph = graphop.C0Graph(
        out_edges=lambda v: (),
        in_edges=lambda v: (),
        description="opaque graph",
    )
    cert = fixed_space_certificate(graph)
    assert cert.conclusion == "inconclusive"
