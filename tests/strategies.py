"""Hypothesis strategies shared by the test modules: ladder vertices at the
places where the arithmetic is hardest (bottom positions near 2**64,
landings and their neighbours, top depths in the thousands, copy indices up
to the CLI's largest), signed start vectors, and starts at the edges of the
ladder orbit's far rule."""

from fractions import Fraction

from hypothesis import strategies as st

from ergolab import cli, graphop, ladder
from ergolab.core import SparseVector

# a finite graph with non-dyadic weights, a cycle and a sink
THIRDS = graphop.graph_from_edges(
    {
        "a": [("b", Fraction(1, 3)), ("c", Fraction(2, 5))],
        "b": [("a", 3), ("c", Fraction(7, 6))],
        "c": [("c", Fraction(1, 3)), ("d", 1)],
    },
    "non-dyadic weights",
)

# a finite graph with the weights 2/3, 3/5 and 7/2, cycles and a self-loop
ODD_WEIGHTS = graphop.graph_from_edges(
    {
        "a": [("b", "2/3"), ("c", "3/5")],
        "b": [("c", "7/2"), ("a", "3/5")],
        "c": [("a", "7/2"), ("d", "2/3"), ("c", "3/5")],
        "d": [("b", "7/2")],
    },
    "odd weights",
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


# (copies, whether the source is a vertex, entries) of each ladder graph
LADDERS = {
    "combined": (st.integers(0, 6), True, st.builds(lambda k: ("E", k), st.integers(0, 6))),
    "g0": (st.just(0), False, st.just(("E", 0))),
    "gk": (st.just(2), False, st.just(("E", 2))),
}
GRAPHS = {
    "combined": (ladder.make_counterexample(), ladder_vertices(*LADDERS["combined"])),
    "g0": (ladder.make_g0(), ladder_vertices(*LADDERS["g0"])),
    "gk": (ladder.make_gk(2), ladder_vertices(*LADDERS["gk"])),
    "thirds": (THIRDS, st.sampled_from(THIRDS.finite_vertices)),
}
# start vertices for the framed orbits: landings and their neighbours as well
FRAMED = {
    name: ladder_vertices(*args, positions=st.one_of(POSITIONS, LANDINGS))
    for name, args in LADDERS.items()
}


def deep_vertices(copies):
    """B(k, j) with j near 2**64 and T(k, n) with n in the thousands."""
    return st.one_of(
        st.builds(lambda k, j: ("B", k, j), copies, st.integers(2**64 - 70, 2**64 + 70)),
        st.builds(lambda k, d: ("T", k, k + 1 + d), copies, st.integers(1000, 9999)),
    )


DEEP = {name: deep_vertices(copies) for name, (copies, _, _) in LADDERS.items()}


def unit_starts(graph):
    """Start vertices for unit vectors on a ladder graph, in its first copy
    k: each kind of vertex, and the bottom cells B(k, 4), B(k, 11), B(k, 26)
    and B(k, 12), whose sums at windows 1 and 2 peak on a landing, alone or
    (from B(k, 12)) next to the position after it.  A landing holds half of
    what it delivers to the sink."""
    k = graph.copy_index or 0
    starts = [("E", k), ("T", k, k + 1), ("T", k, k + 4), ("B", k, 1), ("B", k, 5), ("V", k)]
    if graph.copy_index is None:
        starts.append(ladder.SOURCE)
    starts += [("B", k, 4), ("B", k, 11), ("B", k, 26), ("B", k, 12)]
    if k <= 1:
        starts.append(("T", k, 2))
    return starts


UNIT_STARTS = {name: unit_starts(GRAPHS[name][0]) for name in LADDERS}

# every nonzero fraction in [-5, 5] with denominator at most 12, the domain of
# st.fractions(-5, 5, max_denominator=12) less 0: a pool is drawn several times faster
VALUES = st.sampled_from(
    sorted({Fraction(a, q) for q in range(1, 13) for a in range(-5 * q, 5 * q + 1) if a})
)


def start_vectors(vertices):
    return st.dictionaries(vertices, VALUES, min_size=1, max_size=6).map(SparseVector)


def cancelling_pairs(copies):
    """T(k, n) and B(k, rung_position(n) + 1) with opposite values: both reach
    B(k, rung_position(n)) in one step, as a/2 and -a/2, and cancel there."""
    return st.builds(
        lambda k, d, a: {("T", k, k + 1 + d): a, ("B", k, ladder.rung_position(k + 1 + d) + 1): -a},
        copies,
        DEPTHS,
        VALUES,
    )


def signed_starts(copies, vertices):
    """Random signed starts on the given vertices, some holding a cancelling
    pair in one of the copies drawn from ``copies``."""
    single = st.dictionaries(vertices, VALUES, min_size=1, max_size=6)
    paired = st.builds(lambda pair, rest: {**rest, **pair}, cancelling_pairs(copies), single)
    return st.one_of(single, paired).map(SparseVector)


SIGNED = {name: signed_starts(LADDERS[name][0], FRAMED[name]) for name in LADDERS}


# standalone copies gk(k), from the first few up to the CLI's largest index
COPY_INDICES = st.one_of(st.integers(1, 6), st.integers(cli.MAX_COPY_INDEX - 2, cli.MAX_COPY_INDEX))


def copy_vertices(k):
    """Vertices of standalone copy k, landings and their neighbours as well."""
    return ladder_vertices(st.just(k), False, st.just(("E", k)), positions=st.one_of(POSITIONS, LANDINGS))


# (graph, vertex strategy) for the named graphs, deep vertices too, and for
# gk(k) over COPY_INDICES
GRAPH_VERTICES = st.one_of(
    st.sampled_from([(graph, st.one_of(vertices, DEEP[name]) if name in DEEP else vertices)
                     for name, (graph, vertices) in sorted(GRAPHS.items())]),
    COPY_INDICES.map(lambda k: (ladder.make_gk(k), copy_vertices(k))),
)
# (graph, signed start) on gk(k) over COPY_INDICES, and on every ladder graph
COPY_STARTS = COPY_INDICES.flatmap(
    lambda k: st.tuples(st.just(ladder.make_gk(k)), signed_starts(st.just(k), copy_vertices(k)))
)
LADDER_STARTS = st.one_of(
    *(st.tuples(st.just(GRAPHS[name][0]), SIGNED[name]) for name in sorted(LADDERS)), COPY_STARTS
)


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

