"""Averaging engines, compactness witness, and fixed-space certificates."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import fraction_reference as ref

from ergolab import ergodic, graphop, ladder
from ergolab.core import HALF, ONE, ZERO, SparseVector
from ergolab.ergodic import (BudgetExceeded, DerivationStep, FixedSpaceCertificate, OperatorHandle, _tag_step, at_most,
                             cesaro_trace, fixed_space_certificate, graph_handle, replay_certificate,
                             scalar_rotation_check, weak_compactness_witness)
from test_golden import message_pattern
from test_rejections import rejection_test, table_test

E, T, B, V, S = ladder.entry, ladder.top, ladder.bottom, ladder.sink, ladder.SOURCE
CHAIN = graphop.graph_from_edges(
    {("a",): [(("b",), ONE)], ("b",): [(("c",), HALF)], ("c",): []}, description="three-vertex chain")


def test_trace_from_a_dead_end_vertex():
    op = graph_handle(ladder.make_g0())
    trace = cesaro_trace(op, SparseVector.unit(ladder.sink(0)), [1, 2, 4])
    assert trace.norms() == {1: ONE, 2: HALF, 4: Fraction(1, 4)}
    assert [rec.support for rec in trace.records] == [1, 1, 1]
    with pytest.raises(AttributeError):
        trace.records[0].sup_norm = ZERO


test_engine_forcing_and_validation = rejection_test("test_engine_forcing_and_validation")


def test_ladder_sums_at_plus_minus_one_never_take_the_pass(monkeypatch):
    # every power sums in the moving frame, and the frame decides a cap too,
    # hit or not; the pass steps a ladder orbit only at +-i
    def refuse(*args):
        raise AssertionError("the step-by-step pass ran")

    monkeypatch.setattr(ergodic, "_running_sums", refuse)
    for graph in (ladder.make_g0(), ladder.make_gk(2), ladder.make_counterexample()):
        op, x = graph_handle(graph), SparseVector.unit(E(graph.copy_index or 0))
        for step_power in (1, 2, 3):
            # the vertices the sum touches by window 8: its support at factor 1
            touched = cesaro_trace(op, x, [8], step_power=step_power).records[0].support
            for factor in (1, -1):
                kwargs = dict(step_power=step_power, factor=factor)
                trace = cesaro_trace(op, x, [1, 8], **kwargs)
                assert trace.engine == "generic"
                assert cesaro_trace(op, x, [1, 8], max_support=touched, **kwargs).records == trace.records
                for cap in (2, touched - 1):
                    with pytest.raises(BudgetExceeded) as info:
                        cesaro_trace(op, x, [1, 8], max_support=cap, **kwargs)
                    assert 1 < info.value.window <= 8 and info.value.support > cap


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


def test_certificate_structure_for_the_combined_graph():
    cert = fixed_space_certificate(ladder.make_counterexample())
    assert [step.rule for step in cert.steps] == ["sink", "chain_to_zero", "null_class", "null_class", "substitution"]
    for v in (S, T(2, 9), B(4, 7), E(3)):
        assert sum(step.members(v) for step in cert.steps) == 1, v
    assert not any(step.members(("X", 0)) for step in cert.steps)
    # a finite graph's certificate zeroes one vertex per step
    assert [(step.rule, step.label) for step in fixed_space_certificate(CHAIN).steps] == [
        ("sink", "vertex ('c',)"), ("substitution", "vertex ('b',)"), ("substitution", "vertex ('a',)")]


# ---------------------------------------------------------------------------
# Every certificate replay, as one table: ``REPLAYS`` maps a test name to its
# rows, or to its case ids and theirs.  A row is a build, which gives a
# certificate and the graph to replay it on, then the replay's exact issues,
# its coverage_checked and the certificate's conclusion.  Copy 0's certificate
# samples V(0); B(0,j) for j = 1, 2, 5, 11; T(0,n) for n = 1, 2, 4; then E(0).
# Its first 200 vertices are E(0), V(0) and T(0,n), B(0,n) for n < 100, each
# checked after the samples of the step that holds it.

ONLY, INCONCLUSIVE = "only_zero", "inconclusive"
SINKS, BOTTOMS, TOPS = "V(k) for k = 0", "B(k,j), j >= 1 for k = 0", "T(k,n), n >= k+1 for k = 0"
B3 = B(0, 3)
TWO_EXITS = f"{BOTTOMS}: vertex ('B', 0, 3) is not single-exit"
TOPS_IN_REPLAY_ORDER = (1, 2, 4, 3, *range(5, 100))  # samples first, then the covered rest
DEEP = (65, 2**70)  # deep samples descend one hop, with no limit on their height above V(0)
DEEP_BOTTOMS = _tag_step("chain_to_zero", "B", BOTTOMS, [B(0, j) for j in DEEP])
FINITE_TOPS = _tag_step("null_class", "T", TOPS, [T(0, n) for n in (1, 2, 4)])  # not infinite
FINITE = f"{TOPS}: null_class needs an infinite class"


def certified(make=ladder.make_g0, edit=None, on=None):
    """A build: the certificate of the graph ``make()``, changed in place by
    ``edit``, replayed on ``on()``, or on that graph."""
    def build():
        graph = make()
        cert = fixed_space_certificate(graph)
        if edit is not None:
            edit(cert.steps)
        return cert, graph if on is None else on()
    return build


def patched(edges, edit=None):
    """A build: copy 0's certificate, changed by ``edit``, replayed on copy 0
    with the out-edges of the vertices ``edges`` names replaced, or computed
    by ``edges`` when it is a function of the vertex."""
    patch = edges if callable(edges) else edges.get

    def on():
        base = ladder.make_g0()
        return graphop.C0Graph(out_edges=lambda v: base.out_edges(v) if patch(v) is None else patch(v),
                               in_edges=base.in_edges, enumerate_vertex=base.enumerate_vertex,
                               index_of_vertex=base.index_of_vertex, description="copy 0, patched")
    return certified(edit=edit, on=on)


def claimed(step):
    """A build: a certificate of ``step`` alone that claims only zero, replayed on copy 0."""
    return lambda: (FixedSpaceCertificate([step], ONLY), ladder.make_g0())


def swap(i, step):
    """An edit: ``step`` in place of step i."""
    return lambda steps: steps.__setitem__(i, step)


def sampled(sample):
    """An edit: ``sample`` appended to the first step's samples."""
    return lambda steps: setattr(steps[0], "samples", (*steps[0].samples, sample))


def rejected(label, *vertices):
    """The issues of samples of ``label`` that copy 0's oracle rejects."""
    return [f"{label}: oracle rejected vertex {v!r}: vertex {v!r} is not in copy 0" for v in vertices]


def _climbing_bottoms(v):
    """Every bottom above B(0,1) steps up, so none descends."""
    return ((B(0, v[2] + 1), 1, 1),) if v[0] == "B" and v[2] >= 2 else None


def _doubled_tops(v):
    """Copy 0's top edges, with weight 2 on the edge deeper into the top chain."""
    return ((T(0, v[2] + 1), 2, 1), (B(0, ladder.rung_position(v[2])), 1, 2)) if v[0] == "T" else None


def _doubled_top_issue(n):
    return (f"{TOPS}: vertex ('T', 0, {n}) does not step to a single same-class "
            f"weight-1 successor (got [(('T', 0, {n + 1}), Fraction(2, 1))])")


def _climbing_issue(j):
    return f"{BOTTOMS}: vertex ('B', 0, {j}) steps to ('B', 0, {j + 1}), whose index is not smaller"


REPLAYS = {
    "test_ladder_certificates_replay_cleanly": {
        name: [(certified(make), [], 200, ONLY)]
        for name, make in (("make_counterexample", ladder.make_counterexample), ("make_g0", ladder.make_g0),
                           ("<lambda>0", lambda: ladder.make_gk(1)), ("<lambda>1", lambda: ladder.make_gk(3)))
    },
    "test_replay_detects_a_tampered_graph": [
        (patched({V(0): ((V(0), 1, 1),)}), [f"{SINKS}: vertex ('V', 0) has out-edges"], 200, ONLY)],
    "test_replay_reports_a_malformed_sample": {
        f"{sample}-{rule}-{name}": [(certified(make, sampled(sample)), [
            f"{label}: oracle rejected vertex {sample!r}: not a ladder vertex: {sample!r} {rule}"], 200, ONLY)]
        for sample, rule in (((), "has no ladder tag"), (("V",), "should have length 2"),
                             (("V", 0, 5), "should have length 2"), (("V", 0, 0), "should have length 2"))
        for name, make, label in (("combined", ladder.make_counterexample, "V(k) for all k >= 0"),
                                  ("g0", ladder.make_g0, SINKS))
    },
    # the combined graph's certificate on copy 0: each sample outside copy 0 is
    # rejected, and g0's entry steps only to T(0,1), which the tops zeroed
    "test_replay_detects_a_mismatched_graph": [(certified(ladder.make_counterexample, on=ladder.make_g0), [
        *rejected("V(k) for all k >= 0", V(1), V(3)),
        *rejected("B(k,j), j >= 1 for all k >= 0", *(B(k, j) for k in (1, 3) for j in (1, 2, 5, 11))),
        *rejected("T(k,n), n >= k+1, one infinite class per k", T(1, 2), T(1, 3), T(1, 5), T(3, 4), T(3, 5), T(3, 7)),
        "E(k), k >= 0, one infinite class: vertex ('E', 0) does not step to a single same-class "
        "weight-1 successor (got [])",
        *rejected("E(k), k >= 0, one infinite class", E(1), E(4)),
        *rejected("the source S", S),
    ], 200, ONLY)],
    # each premise, broken on its own in copy 0's out-edges
    "test_replay_flags_each_broken_premise": {
        "substitution-onto-a-target-not-zeroed": [(patched({E(0): ((T(0, 1), 1, 1), (("X", 0), 1, 1))}), [
            "the entry vertex E(0): vertex ('E', 0) has non-zeroed targets [('X', 0)]"], 200, ONLY)],
        "chain-vertex-with-two-exits": [(patched({B3: ((B(0, 2), 1, 1), (V(0), 1, 1))}), [TWO_EXITS], 200, ONLY)],
        "chain-vertex-with-no-exit": [(patched({B3: ()}), [TWO_EXITS], 200, ONLY)],
        "chain-leaves-its-family": [(patched({B3: ((T(0, 5), 1, 1),)}), [
            f"{BOTTOMS}: vertex ('B', 0, 3) leaves the family at ('T', 0, 5)"], 200, ONLY)],
        "chain-vertex-the-oracle-rejects": [(patched({B3: ((("B", 0, 0), 1, 1),)}), [
            f"{BOTTOMS}: no index to descend by at ('B', 0, 3): bottom position must be positive, got 0"],
            200, ONLY)],
        "chain-longer-than-the-limit": [(patched(_climbing_bottoms), [
            _climbing_issue(j) for j in (2, 5, 11, 3, 4, *range(6, 11), *range(12, 100))], 200, ONLY)],
        "null-class-deeper-edge-of-weight-2": [
            (patched(_doubled_tops), [_doubled_top_issue(n) for n in TOPS_IN_REPLAY_ORDER], 200, ONLY)],
        "null-class-deeper-edge-out-of-its-class": [(patched({T(0, 2): ((("X", 0), 1, 1), (B(0, 5), 1, 2))}), [
            f"{TOPS}: vertex ('T', 0, 2) does not step to a single same-class "
            "weight-1 successor (got [(('X', 0), Fraction(1, 1))])"], 200, ONLY)],
        "null-class-two-deeper-edges": [(patched({T(0, 4): ((T(0, 5), 1, 1), (T(0, 6), 1, 1))}), [
            f"{TOPS}: vertex ('T', 0, 4) does not step to a single same-class weight-1 successor "
            "(got [(('T', 0, 5), Fraction(1, 1)), (('T', 0, 6), Fraction(1, 1))])"], 200, ONLY)],
    },
    "test_replay_checks_chain_to_zero_as_a_one_hop_descent": [
        # a family's premise is checked at each covered member, not only at its samples
        (claimed(DerivationStep("sink", "every vertex", lambda v: True, [V(0)])), [
            f"every vertex: vertex {v!r} has out-edges" for v in ladder.make_g0().vertices_up_to(200) if v != V(0)],
         200, ONLY),
        # a step onto an equal index does not descend
        (patched({B3: ((B3, 1, 1),)}), [
            f"{BOTTOMS}: vertex ('B', 0, 3) steps to ('B', 0, 3), whose index is not smaller"], 200, ONLY),
        (certified(edit=swap(1, DEEP_BOTTOMS)), [], 200, ONLY),
        (patched(_climbing_bottoms, swap(1, DEEP_BOTTOMS)), [
            _climbing_issue(j) for j in (*DEEP, *range(2, 65), *range(66, 100))], 200, ONLY),
    ],
    "test_replay_flags_null_class_on_a_finite_family": [
        # once per step, however many vertices it covers
        (certified(edit=swap(2, FINITE_TOPS)), [FINITE], 200, ONLY),
        # the class's edges are still checked: a finite class can fail both ways
        (patched(_doubled_tops, swap(2, FINITE_TOPS)), [
            FINITE, *(_doubled_top_issue(n) for n in TOPS_IN_REPLAY_ORDER)], 200, ONLY),
    ],
    "test_replay_flags_an_unknown_rule": [
        (certified(edit=swap(0, _tag_step("by_inspection", "V", SINKS, [V(0)]))),
         ["unknown rule 'by_inspection'"], 200, ONLY),
        # once per step, however many samples it has
        (certified(edit=swap(2, _tag_step("by_inspection", "T", TOPS, [T(0, n) for n in (1, 2, 4)]))),
         ["unknown rule 'by_inspection'"], 200, ONLY),
        # and for its rule when it has no samples either
        (claimed(DerivationStep("bogus", "every vertex", lambda v: True, ())), ["unknown rule 'bogus'"], 200, ONLY),
    ],
    # the samples test a family beyond the covered prefix, so a step needs some
    "test_replay_flags_a_step_with_no_samples": {
        rule: [(claimed(DerivationStep(rule, "every vertex", lambda v: True, (), infinite=True)),
                [f"every vertex: no samples to check the {rule} premise at"], 200, ONLY)]
        for rule in ("sink", "chain_to_zero", "null_class", "substitution")
    },
    # with its last step dropped, nothing zeroes the entry E(0)
    "test_replay_flags_a_coverage_gap": [
        (certified(edit=list.pop), ["vertex ('E', 0) (index 0) not covered by any step"], 200, ONLY)],
    "test_finite_chain_certificate": [(certified(lambda: CHAIN), [], 3, ONLY)],
    # nothing is claimed, so nothing is checked and nothing fails
    "test_self_loop_is_reported_not_guessed": [(certified(lambda: graphop.graph_from_edges(
        {("a",): [(("a",), ONE)]}, description="one self-loop")), [], 0, INCONCLUSIVE)],
    "test_unpresented_graph_is_inconclusive": [(certified(lambda: graphop.C0Graph(
        out_edges=lambda v: (), in_edges=lambda v: (), description="opaque graph")), [], 0, INCONCLUSIVE)],
}


def assert_replays(rows):
    """Each row's certificate has its conclusion, and its replay gives exactly
    its issues and coverage."""
    for build, issues, coverage, conclusion in rows:
        cert, graph = build()
        replay = replay_certificate(cert, graph)
        assert (replay.issues, replay.coverage_checked, cert.conclusion) == (issues, coverage, conclusion)
        assert replay.ok == (not issues)


def replay_test(name):
    """The test ``name`` of ``REPLAYS``."""
    return table_test(REPLAYS, name, assert_replays)


test_ladder_certificates_replay_cleanly = replay_test("test_ladder_certificates_replay_cleanly")
test_replay_detects_a_tampered_graph = replay_test("test_replay_detects_a_tampered_graph")
test_replay_reports_a_malformed_sample = replay_test("test_replay_reports_a_malformed_sample")
test_replay_detects_a_mismatched_graph = replay_test("test_replay_detects_a_mismatched_graph")
test_replay_flags_each_broken_premise = replay_test("test_replay_flags_each_broken_premise")
test_replay_checks_chain_to_zero_as_a_one_hop_descent = replay_test(
    "test_replay_checks_chain_to_zero_as_a_one_hop_descent")
test_replay_flags_null_class_on_a_finite_family = replay_test("test_replay_flags_null_class_on_a_finite_family")
test_replay_flags_an_unknown_rule = replay_test("test_replay_flags_an_unknown_rule")
test_replay_flags_a_step_with_no_samples = replay_test("test_replay_flags_a_step_with_no_samples")
test_replay_flags_a_coverage_gap = replay_test("test_replay_flags_a_coverage_gap")
test_finite_chain_certificate = replay_test("test_finite_chain_certificate")
test_self_loop_is_reported_not_guessed = replay_test("test_self_loop_is_reported_not_guessed")
test_unpresented_graph_is_inconclusive = replay_test("test_unpresented_graph_is_inconclusive")


def test_every_issue_has_a_row():
    """Every f-string that ``_premise_issues`` and ``replay_certificate`` can
    put in ``issues`` matches the issue of some row, and every row's issue
    matches one of them."""
    tree = ast.parse(Path(ergodic.__file__).read_text(encoding="utf-8"))
    patterns = [message_pattern(node) for func in tree.body
                if getattr(func, "name", None) in ("_premise_issues", "replay_certificate")
                for node in ast.walk(func) if isinstance(node, ast.JoinedStr)]
    assert len(patterns) >= 12
    issues = {issue for rows in REPLAYS.values() for case in (rows.values() if isinstance(rows, dict) else [rows])
              for row in case for issue in row[1]}
    assert [p for p in patterns if not any(re.fullmatch(p, issue) for issue in issues)] == []
    assert [issue for issue in issues if not any(re.fullmatch(p, issue) for p in patterns)] == []
