"""README's deliberate second routes, each against the routes it checks: one
row per bullet of README's list, in its order (``tests/test_docs.py`` checks
that), with a reading of each route and cases of arguments.  A case is a
hypothesis strategy of argument tuples with its example count, or a grid of
tuples that are all read.  Both readings must be equal: Fractions and ints
exactly, floats to the last bit."""

import random
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, NamedTuple, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from ergolab import graphop, ladder
from ergolab.core import SparseVector
from ergolab.ergodic import _sup_and_support, graph_handle
from strategies import (
    COPY_INDICES, COPY_STARTS, FAR_RULE, GRAPH_VERTICES, GRAPHS, LADDER_STARTS, LADDERS, LANDINGS,
    POSITIONS, SIGNED, UNIT_STARTS,
)
from test_docs import resolve


class Row(NamedTuple):
    second: str  # README's name of the second route
    first: Tuple[str, ...]  # README's names of the routes it checks
    read_second: Callable  # (second route, *args) -> value
    read_first: Callable  # (*first routes, *args) -> the same value
    cases: Dict[str, object]  # label -> (strategy of args, max_examples), or a grid of args


def call(route, *args):
    return route(*args)


def literal_averages(literal, m, n_max, p):
    return [[Fraction(e, den) for e in entries] for entries, den in literal(m, n_max, p)]


def closed_form_averages(entries, m, n_max, p):
    """The four entries of each average n = 1..n_max, from (diagonal, off, den)."""
    return [[Fraction(e, den) for e in (d, off, off, d)]
            for d, off, den in (entries(m, n, p) for n in range(1, n_max + 1))]


def applied(apply, graph, u, n_max):
    """The entries of T**n e_u for n = 0..n_max, by ``apply``."""
    powers = [SparseVector.unit(u)]
    while len(powers) <= n_max:
        powers.append(apply(graph, powers[-1]))
    return [dict(x.items()) for x in powers]


def walk(make, graph, x, warm=0):
    """x's orbit after ``warm`` steps: a PushOrbit over the out-edges, or the
    graph's own orbit, which must be a ``make``."""
    nums = graphop.int_vector(x)
    orbit = make(graph.out_edges, *nums) if make is graphop.PushOrbit else graph.orbit(*nums)
    assert type(orbit) is make
    for _ in range(warm):
        orbit.step()
    return orbit


def orbit_states(make, graph, x, steps):
    """The entries and sup norm of x's orbit at each step 0..steps.  The
    entries are (den, numerators) divided by the gcd of them all, one form
    for each vector, however wide the orbit's den."""
    orbit, states = walk(make, graph, x), []
    for t in range(steps + 1):
        if t:
            orbit.step()
        pairs = list(orbit.items())
        nums = dict(pairs)
        assert len(nums) == len(pairs) and all(nums.values())
        g = gcd(orbit.den, *nums.values())
        states.append((orbit.den // g, {v: a // g for v, a in pairs}, orbit.sup_norm()))
    return states


def running_sums(sums, graph, x, warm, factor, windows):
    """(n, sup norm, support) per window, summed step by step over PushOrbit."""
    pairs = sums(walk(graphop.PushOrbit, graph, x, warm), windows, 1, 1 - factor)  # turns 0 or 2
    return [(n, *_sup_and_support(re, im, den, n, True)) for n, re, im, den in pairs]


def accumulated(accumulate, graph, x, warm, factor, windows):
    return list(accumulate(walk(ladder.LadderOrbit, graph, x, warm), windows, factor))


def path_count_levels(levels, graph, n_max, n_trunc):
    """count_paths_levels read per endpoint, as count_paths_profile gives it."""
    ends = graph.vertices_up_to(n_trunc)
    rows = list(levels(graph, n_max, n_trunc))
    assert all(counts.keys() == weights.keys() <= set(ends) for counts, weights, _ in rows)
    return {v: [graphop.PathCount(counts.get(v, 0), Fraction(weights.get(v, 0), den))
                for counts, weights, den in rows] for v in ends}


def typed(norms):
    """Each window's value with its type: a Fraction at +-1, a float at +-i."""
    return {n: (type(value), value) for n, value in norms.items()}


def generic_norms(trace, schedule, step_power, factor):
    """The generic engine's averages from the combined graph's source."""
    handle, x = graph_handle(ladder.make_counterexample()), SparseVector.unit(ladder.SOURCE)
    return typed(trace(handle, x, schedule, engine="generic", step_power=step_power, factor=factor).norms())


def bottom_edge_weights(out_edges, in_edges, k, j):
    """The weights of B(k, j)'s one out-edge, to B(k, j - 1) or the sink, and
    of its first in-edge, from B(k, j + 1)."""
    ((target, p, q),) = out_edges(("B", k, j))
    (source, a, b), *_ = in_edges(("B", k, j))
    assert target == (("V", k) if j == 1 else ("B", k, j - 1)) and source == ("B", k, j + 1)
    return Fraction(p, q), Fraction(a, b)


def sweep_requests(factors):
    """(schedule, step_power, factor).  The generic engine reaches window 128
    fast at power 1 and factor +-1, in the moving frame; otherwise it adds
    every orbit cell at every step, so windows stop at 78 T steps and at 40."""

    def request(step_power, factor):
        top = 128 if step_power == 1 and factor in (1, -1) else min(40, 1 + 78 // step_power)
        schedules = st.sets(st.integers(1, top), min_size=1, max_size=6).map(sorted)
        return st.tuples(schedules, st.just(step_power), st.just(factor))

    return st.tuples(st.integers(1, 3), st.sampled_from(factors)).flatmap(lambda pf: request(*pf))


def seeded_ratios():
    """200 seeded draws of (a, p, n): a = k/49, p from 1 to 6, n from 1 to 39."""
    rng = random.Random(7)
    return [(Fraction(rng.randrange(50), 49), rng.randrange(1, 7), rng.randrange(1, 40)) for _ in range(200)]


def on(graph, *args):
    return st.tuples(st.just(graph), *args)


def joined(starts, *args):
    """A drawn (graph, start) pair, then the other arguments, as one tuple."""
    return st.tuples(starts, *args).map(lambda a: (*a[0], *a[1:]))


def truncations(graph):
    # a truncation past the end of a finite graph keeps all of it
    return st.integers(1, len(graph.finite_vertices) + 2 if graph.finite_vertices else 80)


# a in [0, 1]: small fractions, and (j - 1)/j with j up to 2**64 and past it
RATIOS = st.one_of(st.fractions(0, 1, max_denominator=60), POSITIONS.map(lambda j: Fraction(j - 1, j)))
BLOCKS = st.one_of(st.integers(1, 300), POSITIONS)
WINDOWS = st.sets(st.integers(1, 36), min_size=1, max_size=3).map(sorted)
SIGNS = st.sampled_from([1, -1])
# the factors of the sweep, with their labels, and its fixed windows at each power and factor
FACTORS = {1: "1", -1: "-1", 1j: "i", -1j: "-i"}
FIXED = [1, 2, 3, 5, 8, 13, 21, 34, 48]
FIXED_REQUESTS = [(p, f) for p in (1, 2, 3) for f in (1, -1)] + [(p, f) for p in (1, 2) for f in (1j, -1j)]
# every bottom position up to 10**4, and 70 on either side of three far ones
FAR_BOTTOM = (ladder.rung_position(63), 2**64, ladder.rung_position(200))
BOTTOM = [*range(1, 10**4 + 1), *(j + d for j in FAR_BOTTOM for d in range(-70, 71))]

ROWS = [
    Row("core.cesaro_geometric_sum", ("core.cesaro_geometric",), call, call, {
        "grid": seeded_ratios(),
        "random": (st.tuples(RATIOS, st.integers(1, 8), st.integers(1, 48)), 20),
    }),
    Row("blockdiag.block_cesaro_literal", ("blockdiag.block_cesaro_entries",),
        literal_averages, closed_form_averages, {
            "grid": [(m, 24, p) for m in range(1, 9) for p in range(1, 4)],
            "random": (st.tuples(BLOCKS, st.integers(1, 30), st.integers(1, 6)), 15),
        }),
    Row("graphop.operator_norm_profile", ("graphop.operator_norm_truncated",), call,
        lambda truncated, graph, n_trunc: [truncated(graph, n) for n in range(1, n_trunc + 1)], {
            "finite": [(GRAPHS["thirds"][0], 10), (graphop.graph_from_edges({"a": [("b", 1)]}), 8)],
            "random": (st.tuples(GRAPH_VERTICES.map(lambda gv: gv[0]), st.integers(1, 80)), 15),
        }),
    Row("acceptance._path_sums", ("graphop.apply",),
        lambda sums, graph, u, n_max: [{v: w for v, w in level.items() if w}
                                       for level in sums(graph, u, n_max).values()],
        applied, {"": (GRAPH_VERTICES.flatmap(lambda gv: on(gv[0], gv[1], st.integers(0, 6))), 20)}),
    Row("graphop.PushOrbit", ("ladder.LadderOrbit",), orbit_states, orbit_states, {
        **{name: (on(GRAPHS[name][0], SIGNED[name], st.integers(1, 3)), 40) for name in LADDERS},
        **{f"{name}-long": (on(GRAPHS[name][0], SIGNED[name], st.integers(20, 80)), 8) for name in LADDERS},
        **{f"{name}-far": (on(*FAR_RULE[name], st.integers(32, 40)), 5) for name in FAR_RULE},
        "copies": (joined(COPY_STARTS, st.integers(1, 40)), 5),
    }),
    Row("ergodic._running_sums", ("ladder.LadderOrbit.accumulate",), running_sums, accumulated, {
        **{f"{name}-far": (on(*FAR_RULE[name], st.integers(0, 30), SIGNS, WINDOWS), 5) for name in FAR_RULE},
        "signed": (joined(LADDER_STARTS, st.integers(0, 12), SIGNS, WINDOWS), 8),
        # numerators of 1 over the den 1 leave no room between the largest
        # entry and the next, so a scan that misses the maximum shows here
        **{f"unit-{name}": [(GRAPHS[name][0], SparseVector.unit(v), 0, f, [1, 2, 3, 8])
                            for v in UNIT_STARTS[name] for f in (1, -1)] for name in LADDERS},
    }),
    Row("graphop.count_paths_profile", ("graphop.count_paths_levels",),
        lambda profile, graph, n_max, n_trunc: {
            v: profile(graph, v, n_max, n_trunc) for v in graph.vertices_up_to(n_trunc)},
        path_count_levels, {
            **{name: (on(graph, st.integers(0, 9), truncations(graph)), 6)
               for name, (graph, _) in GRAPHS.items()},
            "copies": (st.tuples(COPY_INDICES.map(ladder.make_gk), st.integers(0, 9), st.integers(1, 80)), 6),
        }),
    Row("ergodic.cesaro_trace", ("sweeps.combined_cesaro_sup_norms",),
        generic_norms, lambda sweep, *request: typed(sweep(*request)), {
            **{f"p{p}-f{FACTORS[f]}": [(FIXED, p, f)] for p, f in FIXED_REQUESTS},
            "w4-16-48": [([4, 16, 48], 1, 1)],
            "p2-w32": [([32], 2, 1)],
            # two of criterion 5's windows, and criterion 6's sign twist
            **{f"w128-256-f{FACTORS[f]}": [([128, 256], 1, f)] for f in (1, -1)},
            "real": (sweep_requests([1, -1]), 10),
            "imaginary": (sweep_requests([1j, -1j]), 4),
        }),
    Row("ladder.bottom_weight", ("ladder._out_edges", "ladder._in_edges"),
        lambda weight, k, j: (weight(j), weight(j + 1)), bottom_edge_weights, {
            "grid": [(3, j) for j in BOTTOM],
            "random": (st.tuples(st.one_of(st.integers(0, 6), COPY_INDICES), st.one_of(POSITIONS, LANDINGS)),
                       25),
        }),
]
CASES = [(row, label) for row in ROWS for label in row.cases]
IDS = [f"{row.second}-{label}".rstrip("-") for row, label in CASES]


@pytest.mark.parametrize("row, label", CASES, ids=IDS)
def test_second_route_equals_the_first(row, label):
    second, first = resolve(row.second), [resolve(name) for name in row.first]

    def check(args):
        assert row.read_second(second, *args) == row.read_first(*first, *args), args

    case = row.cases[label]
    if isinstance(case, list):
        for args in case:
            check(args)
    else:
        strategy, examples = case
        settings(max_examples=examples)(given(strategy)(check))()
