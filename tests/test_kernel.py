"""The integer graph-operator kernel against the Fraction reference route,
the framed orbit's widening, running maxima and summed twin, criterion 12's
int comparison under perturbed closed forms, and the ladder enumerations and
oracles far out in the graph.  The README pairs of routes are compared in
tests/test_routes.py."""

import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from ergolab import acceptance, blockdiag, graphop, ladder
from ergolab.core import SparseVector
from ergolab.ergodic import cesaro_trace, graph_handle
from strategies import DEEP, DEPTHS, FAR_RULE, FRAMED, GRAPHS, LADDERS, SIGNED, UNIT_STARTS, start_vectors

# a vertex inside each restricted graph, and vertices outside it
FOREIGN = {
    "g0": (("E", 0), [("S",), ("E", 1), ("T", 1, 2), ("B", 1, 4), ("V", 2)]),
    "gk": (("E", 2), [("S",), ("E", 0), ("T", 0, 3), ("B", 3, 1), ("V", 1)]),
    "combined": (("S",), [("B", 0, 0), ("T", 2, 2), ("V", -1), ("X", 1)]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_apply_and_adjoint_match_the_fraction_push(name):
    graph, vertices = GRAPHS[name]

    @settings(max_examples=25)
    @given(x=start_vectors(vertices))
    def check(x):
        image = graphop.apply(graph, x)
        assert image == ref.push(graph.successors, x)
        assert graphop.apply_adjoint(graph, x) == ref.push(graph.predecessors, x)
        assert all(type(value) is Fraction and value for _, value in image.items())
        expected = x
        for _ in range(3):
            expected = ref.push(graph.successors, expected)
        assert graphop.power_apply(graph, x, 3) == expected

    check()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_power_norms_sweep_matches_the_fraction_push(name):
    graph, _ = GRAPHS[name]
    size = len(graph.finite_vertices) if graph.finite_vertices else 200

    @settings(max_examples=5)
    @given(n_max=st.integers(1, 6), n_trunc=st.integers(1, size))
    def check(n_max, n_trunc):
        assert graphop.power_norms_sweep(graph, n_max, n_trunc) == ref.power_norms(
            graph, n_max, n_trunc
        )

    check()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_generic_cesaro_trace_matches_the_fraction_push(name):
    graph, vertices = GRAPHS[name]
    op = graph_handle(graph)

    @settings(max_examples=8)
    @given(
        x=start_vectors(vertices),
        step_power=st.integers(1, 3),
        factor=st.sampled_from([1, -1]),
        windows=st.sets(st.integers(1, 8), min_size=1, max_size=4),
    )
    def check(x, step_power, factor, windows):
        trace = cesaro_trace(
            op, x, windows, engine="generic", step_power=step_power, factor=factor
        )
        expected = ref.cesaro_sup_norms(graph, x, windows, step_power, factor)
        assert trace.norms() == expected
        assert all(type(value) is Fraction for value in trace.norms().values())

    check()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_count_paths_profile_matches_the_fraction_sweep(name):
    graph, vertices = GRAPHS[name]
    size = len(graph.finite_vertices) if graph.finite_vertices else 400

    @settings(max_examples=8)
    @given(v=vertices, n_max=st.integers(0, 8), n_trunc=st.integers(1, size))
    def check(v, n_max, n_trunc):
        assert graphop.count_paths_profile(graph, v, n_max, n_trunc) == ref.count_paths(
            graph, v, n_max, n_trunc
        )

    check()


def _two_points_moved(entries):
    """The diagonal entry moved at (m, n, p) = (7, 33, 3), the off-diagonal one at (20, 64, 4)."""
    def moved(m, n, p):
        diagonal, off, den = entries(m, n, p)
        return diagonal + ((m, n, p) == (7, 33, 3)), off - ((m, n, p) == (20, 64, 4)), den
    return moved


def _next_window(entries):
    """The average of one more power: block 2 with p = 1 has c = 1/4 at n = 2 and 3."""
    return lambda m, n, p: entries(m, n + 1, p)


def _swapped(entries):
    def swapped(m, n, p):
        diagonal, off, den = entries(m, n, p)
        return off, diagonal, den
    return swapped


def _tripled(entries):
    """The same values, further from lowest terms."""
    return lambda m, n, p: tuple(3 * x for x in entries(m, n, p))


@pytest.mark.parametrize(
    "perturb, mismatches",
    [(_two_points_moved, 2), (_next_window, 5119), (_swapped, 5120), (_tripled, 0)],
)
def test_criterion_12_compares_the_closed_form_entries(monkeypatch, perturb, mismatches):
    monkeypatch.setattr(
        blockdiag, "block_cesaro_entries", perturb(blockdiag.block_cesaro_entries)
    )
    passed, detail = acceptance._criterion_12()
    assert passed == (mismatches == 0)
    assert detail.endswith(f", {mismatches} mismatches"), detail


@pytest.mark.parametrize("name", sorted(DEEP))
def test_enumerations_are_bijections_near_2_64(name):
    graph, _ = GRAPHS[name]

    @settings(max_examples=50)
    @given(i=st.integers(2**64 - 1000, 2**64 + 1000), v=DEEP[name])
    def check(i, v):
        assert graph.index_of_vertex(graph.enumerate_vertex(i)) == i
        assert graph.enumerate_vertex(graph.index_of_vertex(v)) == v

    check()


@pytest.mark.parametrize("name", sorted(DEEP))
def test_oracles_present_an_operator_at_deep_vertices(name):
    graph, _ = GRAPHS[name]

    @settings(max_examples=50)
    @given(v=DEEP[name])
    def check(v):
        assert ref.oracle_problems(graph, [v], 2) == []

    check()


def values(orbit):
    """The orbit's entries as vertex -> Fraction, checking that none is zero."""
    pairs = list(orbit.items())
    out = {v: Fraction(a, orbit.den) for v, a in pairs}
    assert len(out) == len(pairs) and all(out.values())
    return out


def first_half_crossing(graph, v, limit=200):
    """The step at which an odd numerator started alone at v first crosses a
    weight 1/2, walking the oracle: a weight 2 makes it even for good.  None
    if that does not happen within ``limit`` steps."""
    odd = {v}
    for step in range(1, limit + 1):
        reached = set()
        for u in odd:
            for w, p, q in graph.out_edges(u):
                if q == 2:
                    return step
                if p == 1:
                    reached.add(w)
        odd = reached
    return None


def odd_cells(name, kind):
    """Start vertices of one kind on a ladder graph, for the one odd cell of a start."""
    copies, _, entries = LADDERS[name]
    if kind == "top":
        return st.builds(lambda k, d: ("T", k, k + 1 + d), copies, DEPTHS)
    if kind == "entry":  # on the combined graph, upstream of, at and past the copies drawn
        return entries
    if kind == "source":
        return st.just(ladder.SOURCE)
    if kind == "after landing":  # rung_position(n) + 1 + d, the landing itself at d = -1
        return st.builds(
            lambda k, n, d: ("B", k, ladder.rung_position(n) + 1 + d),
            copies, st.integers(1, 70), st.integers(-1, 2),
        )
    # on and up to 40 above the landing rung_position(63) = 2**64 - 65
    return st.builds(lambda k, j: ("B", k, j), copies, st.integers(2**64 - 65, 2**64 - 25))


WIDENING_CASES = [
    (name, kind)
    for name in sorted(LADDERS)
    for kind in ("top", "entry", "source", "after landing", "near 2**64")
    if kind != "source" or LADDERS[name][1]
]


@pytest.mark.parametrize("name, kind", WIDENING_CASES)
def test_framed_den_widens_at_the_step_push_does(name, kind):
    # push doubles its den where a weight 1/2 first meets an odd numerator;
    # the framed orbit counts in halves of 1 / den0 from the start, so its
    # den stays 2 * den0, and its values first need the half at that step
    graph, _ = GRAPHS[name]
    even = st.integers(-3, 3).filter(bool).map(lambda a: 2 * a)
    evens = st.dictionaries(FRAMED[name], even, max_size=4)

    @settings(max_examples=6)
    @given(
        v=odd_cells(name, kind), a=st.integers(-3, 2), rest=evens, den0=st.sampled_from([1, 3])
    )
    def check(v, a, rest, den0):
        nums = {**rest, v: 2 * a + 1}
        widens = first_half_crossing(graph, v)
        framed = graph.orbit(nums, den0)
        pushed = graphop.PushOrbit(graph.out_edges, nums, den0)
        assert framed.den == 2 * den0
        for step in range(1, (30 if widens is None else widens + 2) + 1):
            framed.step()
            pushed.step()
            halved = widens is not None and step >= widens
            assert pushed.den == den0 * (2 if halved else 1)
            assert framed.den == 2 * den0
            framed_values = values(framed)
            assert framed_values == values(pushed)
            if widens is None or step <= widens:  # over 1 / den0, is a half needed yet?
                halves = lcm(*((den0 * value).denominator for value in framed_values.values()))
                assert halves == (2 if halved else 1)

    check()


@pytest.mark.parametrize("name", sorted(FOREIGN))
def test_framed_orbit_rejects_foreign_vertices(name):
    graph, _ = GRAPHS[name]
    inside, outside = FOREIGN[name]
    for v in outside:
        nums = {inside: 1, v: 1}
        with pytest.raises(ValueError):
            graph.orbit(nums)
        with pytest.raises(ValueError):
            graphop.PushOrbit(graph.out_edges, nums).step()



@pytest.mark.parametrize("name", sorted(LADDERS))
def test_moving_frame_sums_match_push_and_fraction_routes(name):
    graph, _ = GRAPHS[name]
    framed = graph_handle(graph)
    # the same oracles without the ladder's orbit: _running_sums over PushOrbit
    pushed = graph_handle(graphop.C0Graph(graph.out_edges, graph.in_edges))
    # window 1 of a unit start is the start: sup norm 1 on one entry
    for v in UNIT_STARTS[name]:
        for factor in (1, -1):
            trace = cesaro_trace(framed, SparseVector.unit(v), [1], engine="generic", factor=factor)
            assert trace.records == [(1, 1, 1)], (v, factor)

    # at powers 2 and 3 both handles run the step-by-step pass, one over the
    # framed orbit's items(), which checks its sign at factor -1, and one over
    # PushOrbit, which checks the pass's rescale on a widening; windows stay
    # within 40 steps of T at power 1, 20 above
    for step_power, max_steps, examples in ((1, 40, 12), (2, 20, 4), (3, 20, 4)):

        @settings(max_examples=examples)
        @given(
            x=SIGNED[name],
            factor=st.sampled_from([1, -1]),
            steps=st.sets(st.integers(1, max_steps), min_size=1, max_size=4),
        )
        def check(x, factor, steps):
            windows = {-(-t // step_power) for t in steps}
            assert isinstance(graph.orbit(*graphop.int_vector(x)), ladder.LadderOrbit)
            kwargs = dict(engine="generic", step_power=step_power, factor=factor)
            moving = cesaro_trace(framed, x, windows, **kwargs)
            reference = cesaro_trace(pushed, x, windows, **kwargs)
            assert moving.records == reference.records
            assert all(type(rec.support) is int for rec in moving.records)
            want = ref.cesaro_sup_norms(graph, x, windows, step_power=step_power, factor=factor)
            assert moving.norms() == want

        check()


@pytest.mark.parametrize("name", ["combined", "g0", "gk"])
def test_complex_generic_traces_match_the_gaussian_reference(name):
    graph, _ = GRAPHS[name]
    op = graph_handle(graph)

    @settings(max_examples=6)
    @given(
        x=SIGNED[name],
        factor=st.sampled_from([(0, 1), (0, -1)]),
        step_power=st.integers(1, 3),
        windows=st.sets(st.integers(1, 16), min_size=1, max_size=3),
    )
    def check(x, factor, step_power, windows):
        rotation = complex(*factor)
        trace = cesaro_trace(op, x, windows, engine="generic", step_power=step_power, factor=rotation)
        assert trace.norms() == ref.gaussian_cesaro_sup_norms(graph, x, windows, step_power, factor)

    check()


# Copy 0 of g0: T(0, 3) and B(0, 12) both reach the landing B(0, 11) =
# B(0, rung_position(3)) in one step, the rung's birth adding to the cell.
# With 4 and 5 the cell's u becomes 9, the largest bottom u, which drains at
# step 12; from step 13 on the top chain's 4 is the largest entry.
RISING = {("T", 0, 3): 4, ("B", 0, 12): 5, ("B", 0, 40): 3}


def framed_and_pushed_norms(start, steps, reads):
    """Sup norms of g0's framed orbit and of PushOrbit from ``start``, read at
    the steps in ``reads`` (0 is the start) and nowhere else."""
    graph = ladder.make_g0()
    framed = graph.orbit(dict(start))
    pushed = graphop.PushOrbit(graph.out_edges, dict(start))
    got, want = [], []
    for t in range(steps + 1):
        if t:
            framed.step()
            pushed.step()
        if t in reads:
            got.append(framed.sup_norm())
            want.append(pushed.sup_norm())
    return got, want


def test_running_bottom_maximum_falls_when_it_drains():
    got, want = framed_and_pushed_norms(RISING, 16, range(17))
    assert got == want
    assert want[1] == Fraction(9, 2) and want[12] == 9 and want[13:] == [4] * 4


@pytest.mark.parametrize("reads", [{16}, {0, 16}], ids=["last", "first-and-last"])
def test_running_bottom_maximum_between_unread_steps(reads):
    # read at the start, the maximum is set; the unread steps raise it at the
    # birth of step 1 and must drop it at the drain of step 12.  Read only at
    # the end, no maximum may be known before that read scans for it.
    got, want = framed_and_pushed_norms(RISING, 16, reads)
    assert got == want and want[-1] == 4


@pytest.mark.parametrize(
    "start, norms",
    [
        # a birth of -4 cuts the largest cell's u from 9 to 5
        ({("T", 0, 3): -4, ("B", 0, 12): 9, ("B", 0, 40): 3}, [9, 4, 5]),
        # a birth of -9 cancels it; the top chain then holds 9
        ({("T", 0, 3): -9, ("B", 0, 12): 9, ("B", 0, 40): 3}, [9, 9, 9]),
    ],
    ids=["cut", "cancelled"],
)
def test_signed_orbit_scans_past_a_cancelling_birth(start, norms):
    got, want = framed_and_pushed_norms(start, 16, range(17))
    assert got == want and want[:3] == norms



# signed starts on every ladder graph, far-rule starts on the graphs they are made for
TWINS = {
    **{name: (GRAPHS[name][0], SIGNED[name]) for name in LADDERS},
    **{f"{name}-far": FAR_RULE[name] for name in FAR_RULE},
}


@pytest.mark.parametrize("name", sorted(TWINS))
def test_accumulate_leaves_the_orbit_where_step_leaves_it(name):
    # accumulate() reads its ledger marks off the orbit around each step; a
    # twin orbit that only steps must stay equal to it after every window
    graph, starts = TWINS[name]

    @settings(max_examples=6)
    @given(
        x=starts,
        warm=st.integers(0, 12),
        factor=st.sampled_from([1, -1]),
        windows=st.sets(st.integers(1, 36), min_size=1, max_size=3),
    )
    def check(x, warm, factor, windows):
        copies = {v[1] for v, _ in x.items() if v[0] != "S"} | {graph.copy_index or 0}
        summed = graph.orbit(*graphop.int_vector(x))
        stepped = graph.orbit(*graphop.int_vector(x))
        for _ in range(warm):
            summed.step()
            stepped.step()
        done = 0
        for n, _, _ in summed.accumulate(sorted(windows), factor):
            for _ in range(n - 1 - done):
                stepped.step()
            done = n - 1
            assert list(summed.items()) == list(stepped.items())
            assert summed.den == stepped.den
            assert summed.sup_norm() == stepped.sup_norm()
            for k in copies:
                assert summed.sink_value(k) == stepped.sink_value(k)

    check()


def test_norms_orbit_memory_follows_the_tops():
    # the README norms run: its orbit once stored one bottom cell per birth,
    # 73,617 at step 40 and a traced peak of about 5.4 MiB
    graph = ladder.make_counterexample()
    tracemalloc.start()
    try:
        graphop.power_norms_sweep(graph, 40, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
