"""The integer graph-operator kernel: the framed orbit's den widening and
summed twin, criterion 12's int comparison under perturbed closed forms,
and the ladder enumerations and oracles far out in the graph.  The
kernel's comparisons with the Fraction references and README's pairs of
routes are rows of tests/test_routes.py, among them the framed orbit's
running maxima between unread steps and its moving-frame sums at windows
up to 40."""

import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from ergolab import acceptance, blockdiag, graphop, ladder
from strategies import DEEP, DEPTHS, FAR_RULE, FRAMED, GRAPHS, LADDERS, SIGNED
from test_rejections import rejection_test


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


test_framed_orbit_rejects_foreign_vertices = rejection_test("test_framed_orbit_rejects_foreign_vertices")


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
