"""The integer graph-operator kernel against the Fraction reference route,
the all-endpoint path count against the per-endpoint sweep, criterion 12's
int comparison under perturbed closed forms, and the ladder enumerations and
oracles far out in the graph."""

import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

import fraction_reference as ref
from ergolab import acceptance, blockdiag, ergodic, graphop, ladder
from ergolab.core import SparseVector
from ergolab.ergodic import cesaro_trace, graph_handle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def settings(max_examples):
    return hypothesis.settings(
        max_examples=max_examples, deadline=None, derandomize=True, database=None
    )


# a finite graph with non-dyadic weights, a cycle and a sink
THIRDS = graphop.graph_from_edges(
    {
        "a": [("b", Fraction(1, 3)), ("c", Fraction(2, 5))],
        "b": [("a", 3), ("c", Fraction(7, 6))],
        "c": [("c", Fraction(1, 3)), ("d", 1)],
    },
    "non-dyadic weights",
)

# bottom positions: small, around the landing rung_position(63), around 2**64
POSITIONS = st.one_of(
    st.integers(1, 300),
    st.integers(ladder.rung_position(63) - 70, ladder.rung_position(63) + 70),
    st.integers(2**64 - 70, 2**64 + 70),
)
DEPTHS = st.one_of(st.integers(0, 70), st.integers(1000, 1010))  # top depth above k + 1


# bottom positions where the weights leave 1: the drain j = 1 and the
# landings rung_position(n), with their neighbours on either side
LANDINGS = st.one_of(
    st.just(1),
    st.builds(lambda n, d: ladder.rung_position(n) + d, st.integers(2, 70), st.integers(-1, 1)),
)


def ladder_vertices(copies, source: bool, entries, positions=POSITIONS):
    """Vertices of the copies drawn from ``copies``, plus the given entries."""
    options = [
        entries,
        st.builds(lambda k, d: ("T", k, k + 1 + d), copies, DEPTHS),
        st.builds(lambda k, j: ("B", k, j), copies, positions),
        st.builds(lambda k: ("V", k), copies),
    ]
    if source:
        options.append(st.just(ladder.SOURCE))
    return st.one_of(options)


GRAPHS = {
    "combined": (
        ladder.make_counterexample(),
        ladder_vertices(st.integers(0, 6), True, st.builds(lambda k: ("E", k), st.integers(0, 6))),
    ),
    "g0": (ladder.make_g0(), ladder_vertices(st.just(0), False, st.just(("E", 0)))),
    "gk": (ladder.make_gk(2), ladder_vertices(st.just(2), False, st.just(("E", 2)))),
    "thirds": (THIRDS, st.sampled_from(THIRDS.finite_vertices)),
}


LADDERS = {
    "combined": (st.integers(0, 6), True, st.builds(lambda k: ("E", k), st.integers(0, 6))),
    "g0": (st.just(0), False, st.just(("E", 0))),
    "gk": (st.just(2), False, st.just(("E", 2))),
}
# start vertices for the framed orbits: landings and their neighbours as well
FRAMED = {
    name: ladder_vertices(*args, positions=st.one_of(POSITIONS, LANDINGS))
    for name, args in LADDERS.items()
}
# a vertex inside each restricted graph, and vertices outside it
FOREIGN = {
    "g0": (("E", 0), [("S",), ("E", 1), ("T", 1, 2), ("B", 1, 4), ("V", 2)]),
    "gk": (("E", 2), [("S",), ("E", 0), ("T", 0, 3), ("B", 3, 1), ("V", 1)]),
    "combined": (("S",), [("B", 0, 0), ("T", 2, 2), ("V", -1), ("X", 1)]),
}


def deep_vertices(copies):
    """B(k, j) with j near 2**64 and T(k, n) with n in the thousands."""
    return st.one_of(
        st.builds(lambda k, j: ("B", k, j), copies, st.integers(2**64 - 70, 2**64 + 70)),
        st.builds(lambda k, d: ("T", k, k + 1 + d), copies, st.integers(1000, 9999)),
    )


DEEP = {
    "combined": deep_vertices(st.integers(0, 6)),
    "g0": deep_vertices(st.just(0)),
    "gk": deep_vertices(st.just(2)),
}

VALUES = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)


def start_vectors(vertices):
    return st.dictionaries(vertices, VALUES, min_size=1, max_size=6).map(SparseVector)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_apply_and_adjoint_match_the_fraction_push(name):
    graph, vertices = GRAPHS[name]

    @settings(25)
    @hypothesis.given(x=start_vectors(vertices))
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

    @settings(5)
    @hypothesis.given(n_max=st.integers(1, 6), n_trunc=st.integers(1, size))
    def check(n_max, n_trunc):
        assert graphop.power_norms_sweep(graph, n_max, n_trunc) == ref.power_norms(
            graph, n_max, n_trunc
        )

    check()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_generic_cesaro_trace_matches_the_fraction_push(name):
    graph, vertices = GRAPHS[name]
    op = graph_handle(graph)

    @settings(8)
    @hypothesis.given(
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

    @settings(8)
    @hypothesis.given(v=vertices, n_max=st.integers(0, 8), n_trunc=st.integers(1, size))
    def check(v, n_max, n_trunc):
        assert graphop.count_paths_profile(graph, v, n_max, n_trunc) == ref.count_paths(
            graph, v, n_max, n_trunc
        )

    check()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_count_paths_levels_match_the_profile_at_every_endpoint(name):
    graph, _ = GRAPHS[name]
    # a truncation past the end of a finite graph keeps all of it
    size = len(graph.finite_vertices) + 2 if graph.finite_vertices else 80

    @settings(6)
    @hypothesis.given(n_max=st.integers(0, 9), n_trunc=st.integers(1, size))
    def check(n_max, n_trunc):
        levels = list(graphop.count_paths_levels(graph, n_max, n_trunc))
        ends = graph.vertices_up_to(n_trunc)
        assert len(levels) == n_max + 1
        assert all(counts.keys() == weights.keys() <= set(ends) for counts, weights, _ in levels)
        for v in ends:
            got = [
                graphop.PathCount(counts.get(v, 0), Fraction(weights.get(v, 0), den))
                for counts, weights, den in levels
            ]
            assert got == graphop.count_paths_profile(graph, v, n_max, n_trunc), v

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

    @settings(50)
    @hypothesis.given(i=st.integers(2**64 - 1000, 2**64 + 1000), v=DEEP[name])
    def check(i, v):
        assert graph.index_of_vertex(graph.enumerate_vertex(i)) == i
        assert graph.enumerate_vertex(graph.index_of_vertex(v)) == v

    check()


@pytest.mark.parametrize("name", sorted(DEEP))
def test_oracles_present_an_operator_at_deep_vertices(name):
    graph, _ = GRAPHS[name]

    @settings(50)
    @hypothesis.given(v=DEEP[name])
    def check(v):
        assert ref.oracle_problems(graph, [v], 2) == []

    check()


def push_orbit(graph, x):
    return graphop.PushOrbit(graph.out_edges, *graphop.int_vector(x))


def values(orbit):
    """The orbit's entries as vertex -> Fraction, checking that none is zero."""
    pairs = list(orbit.items())
    out = {v: Fraction(a, orbit.den) for v, a in pairs}
    assert len(out) == len(pairs) and all(out.values())
    return out


def assert_same_state(framed, pushed):
    assert framed.sup_norm() == pushed.sup_norm()
    assert values(framed) == values(pushed)


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_framed_steps_match_push(name):
    graph, _ = GRAPHS[name]

    @settings(40)
    @hypothesis.given(x=start_vectors(FRAMED[name]), steps=st.integers(1, 3))
    def check(x, steps):
        framed = graph.orbit(*graphop.int_vector(x))
        assert isinstance(framed, ladder.LadderOrbit)
        pushed = push_orbit(graph, x)
        assert_same_state(framed, pushed)
        for _ in range(steps):
            framed.step()
            pushed.step()
            assert_same_state(framed, pushed)

    check()


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_framed_orbit_matches_push_over_many_steps(name):
    graph, _ = GRAPHS[name]

    @settings(8)
    @hypothesis.given(x=start_vectors(FRAMED[name]), steps=st.integers(20, 80))
    def check(x, steps):
        framed = graph.orbit(*graphop.int_vector(x))
        pushed = push_orbit(graph, x)
        for _ in range(steps):
            framed.step()
            pushed.step()
            assert framed.sup_norm() == pushed.sup_norm()
        assert_same_state(framed, pushed)

    check()


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

    @settings(6)
    @hypothesis.given(
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


def cancelling_pairs(copies):
    """T(k, n) and B(k, rung_position(n) + 1) with opposite values: both reach
    B(k, rung_position(n)) in one step, as a/2 and -a/2, and cancel there."""
    return st.builds(
        lambda k, d, a: {("T", k, k + 1 + d): a, ("B", k, ladder.rung_position(k + 1 + d) + 1): -a},
        copies,
        DEPTHS,
        VALUES,
    )


def signed_starts(name):
    """Random signed starts on a ladder graph, some holding a cancelling pair."""
    copies = LADDERS[name][0]
    single = st.dictionaries(FRAMED[name], VALUES, min_size=1, max_size=6)
    paired = st.builds(lambda pair, rest: {**rest, **pair}, cancelling_pairs(copies), single)
    return st.one_of(single, paired).map(SparseVector)


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_moving_frame_sums_match_push_and_fraction_routes(name):
    graph, _ = GRAPHS[name]
    framed = graph_handle(graph)
    # the same oracles without the ladder's orbit: _running_sums over PushOrbit
    pushed = graph_handle(graphop.C0Graph(graph.out_edges, graph.in_edges))

    # at powers 2 and 3 both handles run the step-by-step pass, one over the
    # framed orbit's items(), which checks its sign at factor -1, and one over
    # PushOrbit, which checks the pass's rescale on a widening; windows stay
    # within 40 steps of T at power 1, 20 above
    for step_power, max_steps, examples in ((1, 40, 12), (2, 20, 4), (3, 20, 4)):

        @settings(examples)
        @hypothesis.given(
            x=signed_starts(name),
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

    @settings(6)
    @hypothesis.given(
        x=signed_starts(name),
        factor=st.sampled_from([(0, 1), (0, -1)]),
        step_power=st.integers(1, 3),
        windows=st.sets(st.integers(1, 16), min_size=1, max_size=3),
    )
    def check(x, factor, step_power, windows):
        rotation = complex(*factor)
        trace = cesaro_trace(op, x, windows, engine="generic", step_power=step_power, factor=rotation)
        assert trace.norms() == ref.gaussian_cesaro_sup_norms(graph, x, windows, step_power, factor)

    check()


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_moving_frame_sums_of_unit_vectors(name):
    # numerators of 1 over the denominator 1 leave no room between the largest
    # entry and the next, so a scan that misses the maximum shows here
    graph, _ = GRAPHS[name]
    k = graph.copy_index or 0
    starts = [("E", k), ("T", k, k + 1), ("T", k, k + 4), ("B", k, 1), ("B", k, 5), ("V", k)]
    if graph.copy_index is None:
        starts.append(ladder.SOURCE)
    # a bottom cell on a landing holds half of what it delivers to the sink;
    # at windows 1 and 2 these sums' largest entries stand on a landing, alone
    # or (from B(k, 12)) next to the position after it
    starts += [("B", k, 4), ("B", k, 11), ("B", k, 26), ("B", k, 12)]
    if k <= 1:
        starts.append(("T", k, 2))
    framed = graph_handle(graph)
    pushed = graph_handle(graphop.C0Graph(graph.out_edges, graph.in_edges))
    for v in starts:
        x = SparseVector.unit(v)
        for factor in (1, -1):
            moving = cesaro_trace(framed, x, [1, 2, 3, 8], engine="generic", factor=factor)
            assert moving.records == cesaro_trace(
                pushed, x, [1, 2, 3, 8], engine="generic", factor=factor
            ).records, (v, factor)
            assert moving.records[0] == (1, 1, 1)


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


def rule_edge(k, n, s, values):
    """Tops T(k, n) and T(k, n + 1), whose births at steps s and s - 1 land
    on the start cells B(k, R) and B(k, R - 1), R = 2**(n+s+1) - n - 1 the
    start's largest bottom key: those births are stored, the later ones far."""
    r = (1 << (n + s + 1)) - n - 1
    cells = [("T", k, n), ("T", k, n + 1), ("B", k, r), ("B", k, r - 1)]
    return dict(zip(cells, values))


def far_rule_starts(two_copies):
    """Signed starts at the edges of LadderOrbit's far rule, on the combined
    graph.  In one copy: the source and T(0, 1), both making births from
    m = 2 on, or one edge in copy 0, with the source, entries and tops of
    copy 0; the source and the entries also feed the later copies.  In two
    copies: the edge n = 2, s = 1 (R = 13) in copies 0 and 1 at once, so
    that their far births drain in the same steps, with tops of copies 0
    to 3."""
    values = st.lists(VALUES, min_size=8, max_size=8)
    if two_copies:
        edge = st.builds(lambda v: {**rule_edge(0, 2, 1, v[:4]), **rule_edge(1, 2, 1, v[4:])}, values)
        extra = st.builds(lambda k, d: ("T", k, k + 1 + d), st.integers(0, 3), st.integers(0, 4))
    else:
        source_pair = st.builds(lambda a, b: {ladder.SOURCE: a, ("T", 0, 1): b}, VALUES, VALUES)
        edge = st.one_of(
            source_pair,
            st.builds(lambda n, s, v: rule_edge(0, n, s, v), st.integers(1, 3), st.integers(1, 3), values),
        )
        extra = st.one_of(
            st.just(ladder.SOURCE),
            st.builds(lambda k: ("E", k), st.integers(0, 3)),
            st.builds(lambda n: ("T", 0, n), st.integers(1, 5)),
        )
    rest = st.dictionaries(extra, VALUES, max_size=3)
    return st.builds(lambda start, more: SparseVector({**more, **start}), edge, rest)


FAR_RULE = {
    "combined": (ladder.make_counterexample(), far_rule_starts(True)),
    "combined-source": (ladder.make_counterexample(), far_rule_starts(False)),
}


@pytest.mark.parametrize("name", sorted(FAR_RULE))
def test_far_births_match_push_at_every_step(name):
    # far births drain within the run: from the one-copy starts the source's
    # top at steps 7, 15 and 31, E(0)'s at 6, 14 and 30, T(0, 1)'s at 13 and
    # 29 past R = 6; from the two-copy ones those of T(k, 3) and T(k, 2) at
    # 27 and 28 past R = 13
    graph, starts = FAR_RULE[name]

    @settings(5)
    @hypothesis.given(x=starts, steps=st.integers(32, 40))
    def check(x, steps):
        framed = graph.orbit(*graphop.int_vector(x))
        pushed = push_orbit(graph, x)
        for _ in range(steps):
            framed.step()
            pushed.step()
            assert_same_state(framed, pushed)

    check()


@pytest.mark.parametrize("name", sorted(FAR_RULE))
def test_moving_frame_sums_from_an_orbit_with_far_births(name):
    # accumulate() starts mid-orbit, so its first marks read the far births
    graph, starts = FAR_RULE[name]

    @settings(5)
    @hypothesis.given(
        x=starts,
        warm=st.integers(0, 30),
        turns=st.sampled_from([0, 2]),
        windows=st.sets(st.integers(1, 36), min_size=1, max_size=3),
    )
    def check(x, warm, turns, windows):
        wanted = sorted(windows)
        framed = graph.orbit(*graphop.int_vector(x))
        pushed = push_orbit(graph, x)
        for _ in range(warm):
            framed.step()
            pushed.step()
        moving = list(framed.accumulate(wanted, 1 - turns))
        reference = [
            (n, *ergodic._sup_and_support(re, im, den, n, True))
            for n, re, im, den in ergodic._running_sums(pushed, wanted, 1, turns)
        ]
        assert moving == reference

    check()


# signed starts on every ladder graph, far-rule starts on the graphs they are made for
TWINS = {
    **{name: (GRAPHS[name][0], signed_starts(name)) for name in LADDERS},
    **{f"{name}-far": FAR_RULE[name] for name in FAR_RULE},
}


@pytest.mark.parametrize("name", sorted(TWINS))
def test_accumulate_leaves_the_orbit_where_step_leaves_it(name):
    # accumulate() reads its ledger marks off the orbit around each step; a
    # twin orbit that only steps must stay equal to it after every window
    graph, starts = TWINS[name]

    @settings(6)
    @hypothesis.given(
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
