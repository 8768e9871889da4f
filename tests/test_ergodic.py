"""Averaging engines, compactness witness, and fixed-space certificates."""

from fractions import Fraction

import pytest

import fraction_reference as ref

from ergolab import graphop, ladder
from ergolab.core import HALF, ONE, ZERO, SparseVector
from ergolab.ergodic import (
    BudgetExceeded,
    OperatorHandle,
    ReplayReport,
    at_most,
    cesaro_trace,
    fixed_space_certificate,
    graph_handle,
    replay_certificate,
    scalar_rotation_check,
    weak_compactness_witness,
)


@pytest.mark.parametrize("bound", [Fraction(1, 10), Fraction(1, 3), Fraction(-2, 7)])
def test_float_comparisons_allow_a_slack_of_1e_9(bound):
    # floats within 1e-9 above the bound pass, floats 2e-9 above it fail
    assert at_most(float(bound) + 5e-10, bound)
    assert not at_most(float(bound) + 2e-9, bound)
    assert at_most(-(float(bound) - 5e-10), -bound)  # the matching lower-bound test
    assert not at_most(-(float(bound) - 2e-9), -bound)
    # rationals compare with no slack at all
    assert not at_most(bound + Fraction(1, 10**12), bound)


def test_trace_from_a_dead_end_vertex():
    op = graph_handle(ladder.make_g0())
    trace = cesaro_trace(op, SparseVector.unit(ladder.sink(0)), [1, 2, 4])
    assert trace.norms() == {1: ONE, 2: HALF, 4: Fraction(1, 4)}
    assert [rec.support for rec in trace.records] == [1, 1, 1]
    with pytest.raises(AttributeError):
        trace.records[0].sup_norm = ZERO


def test_replay_reports_do_not_share_their_issues():
    first = ReplayReport(True, 0, 0, 0)
    second = ReplayReport(ok=True, steps_checked=0, samples_checked=0, coverage_checked=0)
    first.issues.append("noted")
    assert second.issues == []
    assert ReplayReport(True, 0, 0, 0).issues == []


def test_trace_fast_engine_agrees_with_generic():
    op = graph_handle(ladder.make_counterexample())
    x = SparseVector.unit(ladder.SOURCE)
    fast = cesaro_trace(op, x, [4, 16, 48])
    slow = cesaro_trace(op, x, [4, 16, 48], engine="generic")
    assert (fast.engine, slow.engine) == ("fast", "generic")
    assert fast.norms() == slow.norms()
    assert all(rec.support is None for rec in fast.records)
    assert all(isinstance(rec.support, int) for rec in slow.records)


@pytest.mark.parametrize(
    "step_power,factor",
    [(p, f) for p in (1, 2, 3) for f in (1, -1)] + [(p, f) for p in (1, 2) for f in (1j, -1j)],
)
def test_trace_engines_agree_for_every_step_and_factor(step_power, factor):
    op = graph_handle(ladder.make_counterexample())
    x = SparseVector.unit(ladder.SOURCE)
    windows = [1, 2, 3, 5, 8, 13, 21, 34, 48]
    fast = cesaro_trace(op, x, windows, step_power=step_power, factor=factor)
    slow = cesaro_trace(op, x, windows, engine="generic", step_power=step_power, factor=factor)
    assert (fast.engine, slow.engine) == ("fast", "generic")
    # both sum exactly and make a complex value by the same rounding
    assert fast.norms() == slow.norms()


def test_engine_forcing_and_validation():
    op = graph_handle(ladder.make_g0())
    x = SparseVector.unit(ladder.entry(0))
    # "fast" names the sweep in a trace's report; only "auto" picks it
    with pytest.raises(ValueError, match="unknown engine 'fast'"):
        cesaro_trace(op, x, [4], engine="fast")
    with pytest.raises(ValueError):
        cesaro_trace(op, x, [4], engine="warp")
    with pytest.raises(ValueError):
        cesaro_trace(op, x, [])
    with pytest.raises(ValueError, match="schedule must be a nonempty collection of positive lengths"):
        cesaro_trace(op, x, [0])
    with pytest.raises(ValueError, match="step_power must be a positive integer, got 0"):
        cesaro_trace(op, x, [4], step_power=0)


def test_power_mean_check_cross_engine():
    op = graph_handle(ladder.make_counterexample())
    x = SparseVector.unit(ladder.SOURCE)
    fast = cesaro_trace(op, x, [32], step_power=2)
    slow = cesaro_trace(op, x, [32], engine="generic", step_power=2)
    assert fast.engine == "fast" and slow.engine == "generic"
    assert fast.norms() == slow.norms()
    assert at_most(fast.norms()[32], Fraction(1, 4))


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


def test_scalar_rotation_rejects_bad_factors():
    op = graph_handle(ladder.make_g0())
    x = SparseVector.unit(ladder.entry(0))
    with pytest.raises(ValueError):
        scalar_rotation_check(op, x, 2, 4, 1)
    for factor in (0.5 + 0.5j, 0.6 + 0.8j):
        with pytest.raises(ValueError):
            scalar_rotation_check(op, x, factor, 4, 1)
    plain = OperatorHandle(apply=lambda v: graphop.apply(op.graph, v))
    with pytest.raises(ValueError, match="complex factors need a graph-backed handle"):
        scalar_rotation_check(plain, x, 1j, 4, 1)


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
    for factor in ((0, 1), (0, -1)):
        rotation = complex(*factor)
        trace = cesaro_trace(op, x, windows, engine="generic", factor=rotation)
        assert trace.norms() == ref.gaussian_cesaro_sup_norms(graph, x, windows, 1, factor)


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
    witness = weak_compactness_witness(graph, 3, 1)
    assert witness.values == [
        [ONE, 0, 0, 0],
        [ONE, ONE, 0, 0],
    ]
    assert witness.matches_triangle
    with pytest.raises(ValueError):
        weak_compactness_witness(graph, -1, 0)


def test_weak_compactness_witness_over_512_steps():
    # 2**9 steps from the source: each sink reads exactly 1 at every checkpoint
    # 2**(m+2) with m >= k, and 0 at the checkpoints before
    witness = weak_compactness_witness(ladder.make_counterexample(), 4, 7)
    assert witness.values == [[ONE if k <= m else 0 for k in range(5)] for m in range(8)]
    assert witness.matches_triangle


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
    families = [step.family for step in cert.steps]
    for v in (ladder.SOURCE, ladder.top(2, 9), ladder.bottom(4, 7), ladder.entry(3)):
        assert sum(family.members(v) for family in families) == 1, v
    assert not any(family.members(("X", 0)) for family in families)


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


def test_replay_detects_a_mismatched_graph():
    cert = fixed_space_certificate(ladder.make_counterexample())
    replay = replay_certificate(cert, ladder.make_g0())
    assert not replay.ok
    assert any("rejected" in issue for issue in replay.issues)


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
