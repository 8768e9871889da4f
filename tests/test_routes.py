"""Two tables of routes, each row a route against the routes it checks, with a
reading of each route and cases of arguments.  ``ROWS`` holds README's
deliberate second routes, one row per bullet of README's list, in its order;
``REFERENCES`` holds the functions of ``tests/fraction_reference.py``, one
row each but the oracle checker ``oracle_problems`` (``tests/test_docs.py``
checks both).  A case is a hypothesis strategy of argument tuples with its
example count, or a grid of tuples that are all read.  Both readings must be
equal: Fractions and ints exactly, floats to the last bit, and types where a
reading gives them.  The ``graphop.PushOrbit`` row reads both orbits at every
step, or at the steps a case chooses, so that the framed orbit's running
maxima are checked between unread steps too."""

import random
import zlib
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, NamedTuple, Tuple

import pytest
from hypothesis import given, seed, settings, strategies as st

import fraction_reference as ref
from ergolab import graphop, ladder
from ergolab.blockdiag import block_deviation
from ergolab.core import SparseVector
from ergolab.ergodic import BudgetExceeded, _sup_and_support, cesaro_trace, graph_handle
from ergolab.sweeps import GaussianAbs
from strategies import (
    COPY_INDICES, COPY_STARTS, FAR_RULE, GRAPH_VERTICES, GRAPHS, LADDER_STARTS, LADDERS, LANDINGS,
    ODD_WEIGHTS, POSITIONS, SIGNED, THIRDS, UNIT_STARTS, start_vectors,
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
    graph's own orbit, which must be a ``make``.  x is a SparseVector, or a
    dict of int numerators over den 1 that may hold zeros."""
    nums = (x,) if isinstance(x, dict) else graphop.int_vector(x)
    orbit = make(graph.out_edges, *nums) if make is graphop.PushOrbit else graph.orbit(*nums)
    assert type(orbit) is make
    for _ in range(warm):
        orbit.step()
    return orbit


def orbit_states(make, graph, x, steps, reads=None):
    """The entries and sup norm of x's orbit at each step of ``reads``, or at
    each step 0..steps; the orbit steps on unread between reads.  The
    entries are (den, numerators) divided by the gcd of them all, one form
    for each vector, however wide the orbit's den."""
    orbit, states = walk(make, graph, x), []
    for t in range(steps + 1):
        if t:
            orbit.step()
        if reads is not None and t not in reads:
            continue
        pairs = list(orbit.items())
        nums = dict(pairs)
        assert len(nums) == len(pairs) and all(nums.values())
        g = gcd(orbit.den, *nums.values())
        states.append((orbit.den // g, {v: a // g for v, a in pairs}, orbit.sup_norm()))
    return states


def running_sums(sums, graph, x, warm, factor, windows, step_power, cap=None):
    """(n, sup norm, support) per window, summed step by step over PushOrbit.
    With a ``cap``, the first window n from 2 on whose sums, read at every
    window, have held more than ``cap`` keys, and that count; None if no
    window up to the last has."""
    orbit = walk(graphop.PushOrbit, graph, x, warm)
    if cap is None:
        pairs = sums(orbit, windows, step_power, TURNS[factor])
        return [(n, *_sup_and_support(re, im, den, n, True)) for n, re, im, den in pairs]
    for n, re, im, _ in sums(orbit, range(1, windows[-1] + 1), step_power, TURNS[factor]):
        if n > 1 and len(re.keys() | im.keys()) > cap:
            return n, len(re.keys() | im.keys())
    return None


def accumulated(accumulate, graph, x, warm, factor, windows, step_power, cap=None):
    """The moving frame's (n, sup norm, support) per window; with a ``cap``,
    the window and support of the budget exit that ``cesaro_trace`` decides
    in the frame, or None if it sums."""
    if cap is None:
        return list(accumulate(walk(ladder.LadderOrbit, graph, x, warm), windows, factor, step_power))
    assert warm == 0
    try:
        cesaro_trace(graph_handle(graph), x, windows, cap, "generic", step_power, factor)
    except BudgetExceeded as exc:
        return exc.window, exc.support
    return None


def path_count_levels(levels, graph, n_max, n_trunc):
    """count_paths_levels read per endpoint, as count_paths_profile gives it."""
    ends = graph.vertices_up_to(n_trunc)
    rows = list(levels(graph, n_max, n_trunc))
    assert all(counts.keys() == weights.keys() <= set(ends) for counts, weights, _ in rows)
    return {v: [graphop.PathCount(counts.get(v, 0), Fraction(weights.get(v, 0), den))
                for counts, weights, den in rows] for v in ends}


def typed(values, kind=type):
    """Each value with its type, or with ``kind`` of it."""
    return {key: (kind(value), value) for key, value in values.items()}


def packaged(value):
    """The package's type for a reference value: a Fraction at +-1, and at
    +-i a float that keeps its exact parts, a GaussianAbs."""
    return GaussianAbs if type(value) is float else type(value)


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
    fast at factor +-1, in the moving frame; at +-i it adds every orbit cell
    at every step, so windows stop at 78 T steps and at 40."""

    def request(step_power, factor):
        top = 128 if factor in (1, -1) else min(40, 1 + 78 // step_power)
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
POWERS = st.integers(1, 3)
# the factors of the sweep, with their labels and turns, and its fixed windows at each power and factor
FACTORS = {1: "1", -1: "-1", 1j: "i", -1j: "-i"}
TURNS = {1: 0, 1j: 1, -1: 2, -1j: 3}
FIXED = [1, 2, 3, 5, 8, 13, 21, 34, 48]
FIXED_REQUESTS = [(p, f) for p in (1, 2, 3) for f in (1, -1)] + [(p, f) for p in (1, 2) for f in (1j, -1j)]
# every bottom position up to 10**4, and 70 on either side of three far ones
FAR_BOTTOM = (ladder.rung_position(63), 2**64, ladder.rung_position(200))
BOTTOM = [*range(1, 10**4 + 1), *(j + d for j in FAR_BOTTOM for d in range(-70, 71))]
# (graph, unit start) on every ladder kind, the combined graph's source among them
UNITS = st.sampled_from([(GRAPHS[name][0], SparseVector.unit(v)) for name in LADDERS for v in UNIT_STARTS[name]])
SOURCE = (ladder.make_counterexample(), SparseVector.unit(ladder.SOURCE))
# Copy 0 of g0: T(0, 3) and B(0, 12) both reach the landing B(0, 11) =
# B(0, rung_position(3)) in one step, the rung's birth adding to the cell.
# With 4 and 5 the cell's u becomes 9, the largest bottom u, which drains at
# step 12; from step 13 on the top chain's 4 is the largest entry.
G0 = GRAPHS["g0"][0]
RISING = {("T", 0, 3): 4, ("B", 0, 12): 5, ("B", 0, 40): 3}

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
        # sup norms 9/2 at step 1, 9 at step 12 and 4 from step 13 on: the
        # running maximum rises at the birth and falls when its holder drains
        "rising": [(G0, RISING, 16)],
        # zero entries hold nothing: LadderOrbit.__init__ skips them
        "rising-zeros": [(G0, {**RISING, ("E", 0): 0, ("B", 0, 7): 0}, 16)],
        # read at step 0 the maximum is set, and the unread steps must raise it
        # at the birth of step 1 and drop it at the drain of step 12; read only
        # at step 16, no maximum may be known before that read scans for it.
        # Both read 4 at step 16
        "rising-last": [(G0, RISING, 16, {16})],
        "rising-first-and-last": [(G0, RISING, 16, {0, 16})],
        # signed: a birth of -4 cuts the largest cell's u from 9 to 5, sup
        # norms 9, 4, 5 at steps 0 to 2; a birth of -9 cancels it, and the top
        # chain then holds 9: 9, 9, 9
        "cut": [(G0, {("T", 0, 3): -4, ("B", 0, 12): 9, ("B", 0, 40): 3}, 16)],
        "cancelled": [(G0, {("T", 0, 3): -9, ("B", 0, 12): 9, ("B", 0, 40): 3}, 16)],
    }),
    Row("ergodic._running_sums", ("ladder.LadderOrbit.accumulate",), running_sums, accumulated, {
        **{f"{name}-far": (on(*FAR_RULE[name], st.integers(0, 30), SIGNS, WINDOWS, POWERS), 5)
           for name in FAR_RULE},
        "signed": (joined(LADDER_STARTS, st.integers(0, 12), SIGNS, WINDOWS, POWERS), 8),
        # numerators of 1 over the den 1 leave no room between the largest
        # entry and the next, so a scan that misses the maximum shows here;
        # at power 3 the sum of B(k, 4) at window 2 stands on the landings 4
        # and 1 alone, each holding half of what it delivers
        **{f"unit-{name}": [(GRAPHS[name][0], SparseVector.unit(v), 0, f, [1, 2, 3, 8], p)
                            for v in UNIT_STARTS[name] for f in (1, -1) for p in (1, 2, 3)]
           for name in LADDERS},
        # at power 2 one class of keys mod 2 holds one parity, so a sign read
        # off the key's parity would sum at factor 1: B(0, 10) and B(0, 8)
        # meet at B(0, 8) one term apart, and cancel there at factor -1
        "meeting-p2": [(G0, {("B", 0, 10): 1, ("B", 0, 8): 1}, warm, f, [1, 2, 3, 8], 2)
                       for warm in (0, 1) for f in (1, -1)],
        # the command line sums powers past 3 in the frame too, while p * (n - 1)
        # stays within cli.MOVING_FRAME_MAX_STEPS; from the combined graph's
        # source and entry the pass takes seconds at power 64, so 10 there
        "high-powers": [(GRAPHS[name][0], SparseVector.unit(v), warm, f, [1, 2, 3, 8], p)
                        for name in LADDERS for v in UNIT_STARTS[name][::3] for warm, f, p in
                        ((0, 1, 4), (1, -1, 5), (0, -1, 7), (2, 1, 10 if name == "combined" else 64))],
        # the keys the pass's sums have held by each window, against the exit
        # the frame finds by doubling and bisection: the same window and count
        # at every factor, from unit starts, which have no negative entry
        "capped": (joined(UNITS, st.just(0), st.sampled_from(list(FACTORS)),
                          st.sets(st.integers(1, 120), min_size=1, max_size=3).map(sorted),
                          st.integers(1, 6), st.integers(1, 3000)), 60),
        # at power 4 from the source, the sum at factor -1 cancels to 0 on one
        # vertex at windows 3 and 4, which it has touched: 34 and 96 nonzero
        # entries of 35 and 97 keys, so only the count at factor 1 exits here
        "capped-cancelling": [(*SOURCE, 0, f, [n], 4, cap) for f in FACTORS for n, cap in ((3, 34), (4, 96))],
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
            # one window each, as scalar_rotation_check asks for
            **{f"w{w}-f{FACTORS[f]}": [([w], 1, f)] for w, f in ((32, -1), (24, 1j))},
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


def pushed(push, graph, x):
    """x's images under T and T*, and T**3 x, each as its typed entries."""
    cubed = x
    for _ in range(3):
        cubed = push(graph.successors, cubed)
    return [typed(push(graph.successors, x)), typed(push(graph.predecessors, x)), typed(cubed)]


def averages(sums, graph, x, windows, step_power, factor, engine):
    """The reference's averages, typed as the package types them, for every engine."""
    return typed(sums(graph, x, windows, step_power, factor), packaged)


def traced(trace, graph, x, windows, step_power, factor, engine):
    """cesaro_trace's typed averages by ``engine``; ``auto`` must run the sweep."""
    run = trace(graph_handle(graph), x, windows, engine=engine, step_power=step_power, factor=factor)
    assert run.engine == {"auto": "fast"}.get(engine, engine)
    # the generic engine counts each window's support, the sweep none
    assert all(type(rec.support) is (int if engine == "generic" else type(None)) for rec in run.records)
    return typed(run.norms())


def generic(graph, x, top, size, factors):
    """A generic-engine request: up to ``size`` windows up to ``top``, powers 1 to 3."""
    windows = st.sets(st.integers(1, top), min_size=1, max_size=size)
    return on(graph, x, windows, st.integers(1, 3), st.sampled_from(factors), st.just("generic"))


def stepped(graph, x, step_power, max_steps):
    """A generic-engine request at factor +-1 whose windows take at most
    ``max_steps`` steps of T."""
    windows = st.sets(st.integers(1, max_steps), min_size=1, max_size=4).map(
        lambda steps: {-(-t // step_power) for t in steps})
    return on(graph, x, windows, st.just(step_power), SIGNS, st.just("generic"))


def scanned(argmaxes, m_maxes, n, p):
    """The full scan's (m, value) at each m_max of ``m_maxes``, from one scan."""
    running = argmaxes(max(m_maxes), n, p)
    return [(m, Fraction(num, den)) for m, num, den in (running[k - 1] for k in m_maxes)]


def pruned_requests():
    """(schedule, step_power, factor) at every request of ``PRUNED``: every
    window up to 150 and one log-uniform window from 150 to 20000, in two
    cases one from 10000 as well; then single windows at -i, every one up to
    60 and three random ones up to 3000, at powers 1 to 3."""
    rng = random.Random(16)
    requests = []
    for i, (step_power, factor) in enumerate(PRUNED):
        schedule = {*range(1, 151), int(150 * (20000 / 150) ** rng.random())}
        schedule |= {rng.randint(10000, 20000)} if i % 11 == 1 else set()
        requests.append((schedule, step_power, factor))
    for step_power in (1, 2, 3):
        windows = [*range(1, 61), *(rng.randint(100, 3000) for _ in range(3))]
        requests += [([n], step_power, -1j) for n in windows]
    return requests


# powers 1 to 8 give the prune's residue counts of 2**nn mod step_power
# their different shapes: 2 has order 1, 2, 4 and 3 modulo 1, 3, 5 and 7,
# and modulo an even power the first residues do not repeat
PRUNED = [(p, f) for p in (1, 2, 3) for f in FACTORS] + [(p, f) for p in range(4, 9) for f in (1, -1)]


def sizes(graph, infinite):
    """Truncations up to a finite graph's size, or up to ``infinite``."""
    return st.integers(1, len(graph.finite_vertices) if graph.finite_vertices else infinite)


REFERENCES = [
    Row("push", ("graphop.apply", "graphop.apply_adjoint", "graphop.power_apply"), pushed,
        lambda apply, adjoint, power, graph, x: [
            typed(apply(graph, x)), typed(adjoint(graph, x)), typed(power(graph, x, 3))], {
            name: (on(graph, start_vectors(vertices)), 25)
            for name, (graph, vertices) in sorted(GRAPHS.items())
        }),
    Row("power_norms", ("graphop.power_norms_sweep",), call, call, {
        **{name: (on(graph, st.integers(1, 6), sizes(graph, 200)), 5)
           for name, (graph, _) in sorted(GRAPHS.items())},
        "g0-n5-t60": [(G0, 5, 60)],
    }),
    Row("cesaro_sup_norms", ("ergodic.cesaro_trace",), averages, traced, {
            **{f"generic-{name}": (generic(graph, start_vectors(vertices), 8, 4, [1, -1]), 8)
               for name, (graph, vertices) in sorted(GRAPHS.items())},
            **{f"imaginary-{name}": (generic(GRAPHS[name][0], SIGNED[name], 16, 3, [1j, -1j]), 6)
               for name in sorted(LADDERS)},
            # the generic engine sums in the moving frame at every power;
            # windows stay within 40 steps of T at power 1, 20 above
            **{f"signed-{name}-p{p}": (stepped(GRAPHS[name][0], SIGNED[name], p, max_steps), examples)
               for name in sorted(LADDERS) for p, max_steps, examples in ((1, 40, 12), (2, 20, 4), (3, 20, 4))},
            # thirds widens its den at every step, so at powers 2 and 3 the
            # step-by-step pass over PushOrbit rescales its sums between terms
            "widening-thirds": [(THIRDS, SparseVector.unit(v), [1, 2, 3, 8], p, f, "generic")
                                for v in THIRDS.finite_vertices for p in (2, 3) for f in (1, -1)],
            # window 1 of a unit start is the start: sup norm 1
            **{f"unit-{name}": [(GRAPHS[name][0], SparseVector.unit(v), [1], 1, f, "generic")
                                for v in UNIT_STARTS[name] for f in (1, -1)] for name in sorted(LADDERS)},
            # the sweep, which auto runs from the combined graph's source
            "auto-f1": [(*SOURCE, range(1, 41), 1, 1, "auto")],
            "auto-f-1": [(*SOURCE, range(1, 41), 1, -1, "auto")],
            "auto-p2": [(*SOURCE, range(1, 25), 2, 1, "auto")],
            "auto-p3": [(*SOURCE, range(1, 17), 3, 1, "auto")],
            "auto-imaginary": [(*SOURCE, [1, 2, 3, 8, 20, 32], 1, f, "auto") for f in (1j, -1j)],
        }),
    Row("count_paths", ("graphop.count_paths_profile",), call, call, {
        name: (on(graph, vertices, st.integers(0, 8), sizes(graph, 400)), 8)
        for name, (graph, vertices) in sorted(GRAPHS.items())
    }),
    Row("paths_up_to", ("graphop.enumerate_paths_up_to",), call, call, {
        "odd-weights": [(ODD_WEIGHTS, u, v, 8) for u, v in (("a", "c"), ("a", "a"), ("d", "d"))],
    }),
    Row("deviation_argmaxes", ("blockdiag.deviation_argmax",),
        scanned, lambda argmax, m_maxes, n, p: [argmax(block_deviation, k, n, p) for k in m_maxes], {
            # one reference scan per (p, n) gives the full scan's answer at every m_max
            "grid": [(range(1, 201), n, p) for p in range(1, 7) for n in range(1, 41)],
            # at n = 1 every block deviates by exactly 1, and the first wins
            "examples": [([300], 1, 1), ([300], 1, 4), ([50], 7, 2), ([30], 9, 4), ([200], 300, 3)],
            "random": (st.tuples(st.integers(1, 300).map(lambda m: [m]), st.integers(1, 1200),
                                 st.integers(1, 5)), 20),
        }),
    Row("batched_sweep", ("sweeps.combined_cesaro_sup_norms",), call, call, {"pruned": pruned_requests()}),
    # criterion 5's windows and criterion 6's sign twist
    Row("source_sup_norm_by_copies", ("sweeps.combined_cesaro_sup_norms",), call,
        lambda sweep, n, factor: sweep([n], factor=factor)[n], {
            f"w{n}-f{FACTORS[f]}": [(n, f)] for n, f in [(128, 1), (256, 1), (512, 1), (1024, 1), (1024, -1)]
        }),
]


def case_id(row, label):
    return f"{row.second}-{label}".rstrip("-")


def over(table):
    """Parametrize a test by every case of ``table``, as (row, label)."""
    pairs = [(row, label) for row in table for label in row.cases]
    return pytest.mark.parametrize("row, label", pairs, ids=[case_id(*pair) for pair in pairs])


def check_cases(row, label, second):
    """Read ``second`` and the row's first routes at every argument tuple of
    the case.  A hypothesis case draws from its own seed, a CRC-32 of its id:
    derandomized, every case would draw from the digest of ``check``, one
    seed for all of them, and ``hash`` is salted per process."""
    first = [resolve(name) for name in row.first]

    def check(args):
        assert row.read_second(second, *args) == row.read_first(*first, *args), args

    case = row.cases[label]
    if isinstance(case, list):
        for args in case:
            check(args)
    else:
        strategy, examples = case
        seed(zlib.crc32(case_id(row, label).encode()))(settings(max_examples=examples)(given(strategy)(check)))()


@over(ROWS)
def test_second_route_equals_the_first(row, label):
    check_cases(row, label, resolve(row.second))


@over(REFERENCES)
def test_reference_equals_the_package(row, label):
    check_cases(row, label, getattr(ref, row.second))
