"""Positive operators presented by weighted directed graphs.

A graph with nonnegative edge weights acts on finitely supported vectors by
pushing mass along edges: the image of a coordinate vector e_u is the weighted
sum of e_v over the out-edges u -> v.  When every vertex has finitely many
out-edges with summable weights and the incoming weight sums are uniformly
bounded, the action extends to a bounded positive operator on the space of
null sequences, with operator norm equal to the largest incoming weight sum.

Graphs are given by oracles (out-edge and in-edge callables plus a vertex
enumeration), so infinite graphs are first-class.  All operations here
are exact; norms of the infinite operator are approached through truncations
onto the first N enumerated vertices, which by positivity increase to the
true value.

One integer kernel, :func:`push`, performs every single step.  It reads
each edge as a triple (target, p, q) with weight p/q and holds a vector as
int numerators over one shared denominator, which grows only when an edge's
denominator does not divide a contribution.  Loops that step one vector many
times ask the graph for an orbit state, :meth:`C0Graph.orbit`; its default,
:class:`PushOrbit`, steps with :func:`push`, and a graph class may supply a
faster state (the ladder graphs do).  ``Fraction`` values are built only at
the edges of the API: :class:`SparseVector` in and out of :func:`apply` and
:func:`apply_adjoint`, and one value per reported norm or reading.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import ZERO, SparseVector, as_rational

Vertex = Tuple
Edge = Tuple[Vertex, Fraction]
IntEdge = Tuple[Vertex, int, int]  # target, weight numerator, weight denominator
IntVector = Tuple[Dict[Vertex, int], int]  # numerators, shared positive denominator


class C0Graph:
    """Weighted directed graph with oracle access, presenting an operator.

    Parameters
    ----------
    out_edges, in_edges:
        Callables mapping a vertex to a sequence of (vertex, p, q) triples,
        one per edge, for the weight p/q with p, q > 0; missing edges are
        simply absent.  The operator kernel reads edges through these.
    enumerate_vertex, index_of_vertex:
        A bijection between naturals and the vertex set, used for
        truncations.  Optional for auxiliary graphs that are only stepped.
    description:
        Short human-readable label used in reports.
    finite_vertices:
        For finite graphs, the full vertex tuple.  Enables concrete
        fixed-space analysis.

    Nothing is cached per vertex.
    """

    def __init__(
        self,
        out_edges: Callable[[Vertex], Sequence[IntEdge]],
        in_edges: Callable[[Vertex], Sequence[IntEdge]],
        enumerate_vertex: Optional[Callable[[int], Vertex]] = None,
        index_of_vertex: Optional[Callable[[Vertex], int]] = None,
        description: str = "",
        finite_vertices: Optional[Tuple[Vertex, ...]] = None,
    ):
        self.out_edges = out_edges
        self.in_edges = in_edges
        self._enumerate = enumerate_vertex
        self._index_of = index_of_vertex
        self.description = description
        self.finite_vertices = finite_vertices

    def successors(self, v: Vertex) -> Sequence[Edge]:
        """Out-edges of v with their weights as Fractions."""
        return tuple((u, Fraction(p, q)) for u, p, q in self.out_edges(v))

    def predecessors(self, v: Vertex) -> Sequence[Edge]:
        """In-edges of v with their weights as Fractions."""
        return tuple((u, Fraction(p, q)) for u, p, q in self.in_edges(v))

    def orbit(self, nums: Dict[Vertex, int], den: int = 1) -> "PushOrbit":
        """Orbit state of the vector nums / den under this graph's operator."""
        return PushOrbit(self.out_edges, nums, den)

    def enumerate_vertex(self, i: int) -> Vertex:
        if self._enumerate is None:
            raise ValueError(f"graph {self.description!r} has no vertex enumeration")
        if i < 0:
            raise ValueError(f"vertex index must be nonnegative, got {i}")
        return self._enumerate(i)

    def index_of_vertex(self, v: Vertex) -> int:
        if self._index_of is None:
            raise ValueError(f"graph {self.description!r} has no vertex enumeration")
        return self._index_of(v)

    def vertices_up_to(self, n: int) -> List[Vertex]:
        """The first n enumerated vertices, or all of a finite graph with fewer."""
        if self.finite_vertices is not None:
            n = min(n, len(self.finite_vertices))
        return [self.enumerate_vertex(i) for i in range(n)]


def graph_from_edges(
    edges: dict, description: str = "finite graph"
) -> C0Graph:
    """Build a finite graph from an explicit successor map.

    ``edges`` maps each vertex to an iterable of (target, weight) pairs.
    Vertices that only appear as targets get an empty successor list.
    Predecessors and a sorted enumeration are derived automatically.
    """
    succ: dict = {}
    pred: dict = {}
    for u, out in edges.items():
        succ.setdefault(u, [])
        for v, w in out:
            w = as_rational(w)
            if w <= ZERO:
                raise ValueError(f"edge {u!r} -> {v!r} has nonpositive weight {w}")
            succ[u].append((v, w.numerator, w.denominator))
            succ.setdefault(v, [])
            pred.setdefault(v, []).append((u, w.numerator, w.denominator))
    vertices = tuple(sorted(succ, key=repr))
    order = {v: i for i, v in enumerate(vertices)}
    return C0Graph(
        lambda v: succ.get(v, ()),
        lambda v: pred.get(v, ()),
        enumerate_vertex=lambda i: vertices[i],
        index_of_vertex=lambda v: order[v],
        description=description,
        finite_vertices=vertices,
    )


def _widen(values: dict, c: int, q: int) -> int:
    """Least f with q | c * f; multiplies every entry of ``values`` by f."""
    f = q // gcd(c, q)
    for key in values:
        values[key] *= f
    return f


def push(edges, nums: Dict[Vertex, int], den: int) -> IntVector:
    """Move the vector nums / den along the int-triple oracle ``edges``.

    Returns the image as (numerators, denominator).  The image's denominator
    is den times the least factor that keeps every contribution an integer
    numerator; it grows only when an edge's denominator does not divide a
    contribution.  Zero entries are dropped.
    """
    out: dict = {}
    get = out.get
    scale = 1
    for u, a in nums.items():
        for v, p, q in edges(u):
            c = a * p * scale
            if q != 1:
                if c % q:
                    f = _widen(out, c, q)
                    scale *= f
                    c *= f
                c //= q
            out[v] = get(v, 0) + c
    if 0 in out.values():  # signed entries cancelled
        out = {key: value for key, value in out.items() if value}
    return out, den * scale


class PushOrbit:
    """The orbit of nums / den along the out-edge oracle ``edges``, by :func:`push`.

    ``step()`` moves the vector one step.  ``items()`` yields its nonzero
    entries as (vertex, numerator) pairs over the shared denominator
    ``den``; ``sup_norm()`` reads its sup norm as a Fraction.  This is
    the default orbit state of every graph, and the deliberate second route
    for the ladder graphs' moving-frame state
    (:class:`ergolab.ladder.LadderOrbit`): the tests step both and compare
    them.
    """

    def __init__(self, edges, nums: Dict[Vertex, int], den: int = 1):
        self._edges = edges
        self.nums = {v: a for v, a in nums.items() if a}
        self.den = den

    def step(self) -> None:
        self.nums, self.den = push(self._edges, self.nums, self.den)

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self.nums.values()), default=0), self.den)

    def items(self):
        return self.nums.items()


def int_vector(x: SparseVector) -> IntVector:
    """x as int numerators over the least common denominator of its entries."""
    den = lcm(*(value.denominator for _, value in x.items()))
    return {key: value.numerator * (den // value.denominator) for key, value in x.items()}, den


def sparse_vector(nums: Dict[Vertex, int], den: int) -> SparseVector:
    """The SparseVector nums / den; ``nums`` must hold no zeros."""
    return SparseVector._from_clean({key: Fraction(a, den) for key, a in nums.items()})


def apply(graph: C0Graph, x: SparseVector) -> SparseVector:
    """Image of x under the graph operator: push mass along out-edges."""
    return sparse_vector(*push(graph.out_edges, *int_vector(x)))


def apply_adjoint(graph: C0Graph, y: SparseVector) -> SparseVector:
    """Image of y under the adjoint: pull mass backwards along in-edges."""
    return sparse_vector(*push(graph.in_edges, *int_vector(y)))


def power_apply(graph: C0Graph, x: SparseVector, n: int) -> SparseVector:
    """n-fold application of the graph operator to x.  n = 0 returns x."""
    if n < 0:
        raise ValueError(f"power must be nonnegative, got {n}")
    nums, den = int_vector(x)
    for _ in range(n):
        nums, den = push(graph.out_edges, nums, den)
    return sparse_vector(nums, den)


def operator_norm_truncated(graph: C0Graph, n_trunc: int) -> Fraction:
    """Sup norm of the image of the indicator of the first n_trunc vertices.

    By positivity this increases with n_trunc toward the operator norm, so
    any single value is a certified lower bound.  The indicator's int ones
    go through :func:`push` once, and only the largest entry becomes a
    ``Fraction``.
    """
    nums, den = push(graph.out_edges, dict.fromkeys(graph.vertices_up_to(n_trunc), 1), 1)
    return Fraction(max(nums.values(), default=0), den)


def operator_norm_profile(graph: C0Graph, n_trunc: int) -> List[Fraction]:
    """Truncated operator norms for every truncation 1..n_trunc.

    Computed in one incremental pass: the image of the indicator grows one
    column at a time, and the running sup is recorded after each column.
    The column sums are int numerators over one shared denominator.  On a
    finite graph with fewer vertices, the entries past its end repeat the
    whole graph's value.  Deliberate second route for
    :func:`operator_norm_truncated`: it sums columns directly, while that
    pushes the whole indicator through :func:`push`, and the tests compare
    the two.
    """
    out: dict = {}
    den = 1
    best = 0
    profile: List[Fraction] = []
    for u in graph.vertices_up_to(n_trunc):
        for v, p, q in graph.out_edges(u):
            c = p * den
            if c % q:
                f = _widen(out, c, q)
                den *= f
                best *= f
                c *= f
            cur = out.get(v, 0) + c // q
            out[v] = cur
            if cur > best:
                best = cur
        profile.append(Fraction(best, den))
    profile.extend([Fraction(best, den)] * (n_trunc - len(profile)))
    return profile


def power_norms_sweep(graph: C0Graph, n_max: int, n_trunc: int) -> List[Fraction]:
    """Truncated norms of T, T^2, ..., T^n_max along one orbit of the graph: the
    orbit of the all-ones vector on the first n_trunc enumerated vertices,
    started as int numerators over den 1."""
    orbit = graph.orbit(dict.fromkeys(graph.vertices_up_to(n_trunc), 1))
    norms: List[Fraction] = []
    for _ in range(n_max):
        orbit.step()
        norms.append(orbit.sup_norm())
    return norms


class Path(NamedTuple):
    """A directed path recorded as its vertex sequence and total weight."""

    vertices: Tuple[Vertex, ...]
    weight: Fraction

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def _distances_to(graph: C0Graph, targets, radius: int) -> Dict[Vertex, int]:
    """Distance to ``targets`` of each vertex within ``radius`` steps, by a backward search."""
    dist = dict.fromkeys(targets, 0)
    frontier = dist
    for d in range(1, radius + 1):
        reached = (x for y in frontier for x, _, _ in graph.in_edges(y) if x not in dist)
        frontier = dict.fromkeys(reached, d)
        dist.update(frontier)
    return dist


def enumerate_paths_up_to(
    graph: C0Graph, u: Vertex, v: Vertex, n_max: int
) -> List[Path]:
    """All paths from u to v of every length 0..n_max, in one traversal.

    Depth-first over the int triples of ``out_edges``, carrying each partial
    path's weight as an unreduced (numerator, denominator) pair; one
    Fraction is built per path found.  A partial path enters only vertices
    whose distance to v fits the length still left.  Sorted by length, then
    vertices.
    """
    if n_max < 0:
        raise ValueError(f"path length must be nonnegative, got {n_max}")
    dist = _distances_to(graph, (v,), n_max)
    found: List[Path] = []
    frames: List[Tuple[Tuple[Vertex, ...], int, int]] = [((u,), 1, 1)] if u in dist else []
    while frames:
        path, num, den = frames.pop()
        if path[-1] == v:
            found.append(Path(path, Fraction(num, den)))
        if len(path) - 1 == n_max:
            continue
        for target, p, q in graph.out_edges(path[-1]):
            if dist.get(target, n_max + 1) + len(path) <= n_max:
                frames.append((path + (target,), num * p, den * q))
    found.sort(key=lambda p: (p.length, tuple(repr(x) for x in p.vertices)))
    return found


class PathCount(NamedTuple):
    """Count and largest weight of paths of one length into one endpoint."""

    count: int
    max_weight: Fraction


def count_paths_levels(graph: C0Graph, n_max: int, n_trunc: int):
    """Paths among the first n_trunc vertices, counted for each length 0..n_max.

    Yields read-only (counts, weights, den) per length: counts[v] paths of
    that length run from those vertices to v, the heaviest of weight
    weights[v] / den, for each v among them that one reaches.  A backward
    search gives every vertex its distance to those vertices; their
    indicator then steps forward, keeping at length n only the vertices
    within distance n_max - n.  Each stepped vertex's out-edges are read
    once per call, into a table local to the call that keeps them as
    (target, p, q, distance) with the targets that have no distance
    dropped; it holds at most one entry per vertex of the distance map and
    dies with the call.  Second route: :func:`count_paths_profile`.
    """
    if n_max < 0:
        raise ValueError(f"path length must be nonnegative, got {n_max}")
    return _path_levels(graph, n_max, n_trunc)


def _path_levels(graph: C0Graph, n_max: int, n_trunc: int):
    counts = dict.fromkeys(graph.vertices_up_to(n_trunc), 1)
    weights = dict(counts)
    dist = _distances_to(graph, counts, n_max)  # to the first n_trunc vertices
    den = 1
    out_edges = graph.out_edges
    stepped: dict = {}  # x -> its out-edges (y, p, q, dist[y]), for y with a distance
    for horizon in range(n_max - 1, -2, -1):  # the distance left after the next step
        if any(map(dist.__getitem__, counts)):  # vertices beyond the first n_trunc
            ends = [v for v in counts if not dist[v]]
            yield {v: counts[v] for v in ends}, {v: weights[v] for v in ends}, den
        else:
            yield counts, weights, den
        if horizon < 0:
            return
        nxt_counts: dict = {}
        nxt: dict = {}
        scale = 1
        for x, cnt in counts.items():
            mw = weights[x]
            edges = stepped.get(x)
            if edges is None:
                edges = stepped[x] = [(y, p, q, dist[y]) for y, p, q in out_edges(x) if y in dist]
            for y, p, q, dy in edges:
                if dy > horizon:
                    continue
                c = p * mw * scale
                if q != 1:
                    if c % q:
                        f = _widen(nxt, c, q)
                        scale *= f
                        c *= f
                    c //= q
                cur = nxt.get(y)
                if cur is None:
                    nxt_counts[y] = cnt
                    nxt[y] = c
                else:
                    nxt_counts[y] += cnt
                    if c > cur:
                        nxt[y] = c
        counts, weights, den = nxt_counts, nxt, den * scale


def count_paths_profile(
    graph: C0Graph, v: Vertex, n_max: int, n_trunc: int
) -> List[PathCount]:
    """PathCount for every length 0..n_max into v, in one backward sweep.

    Walks the graph backwards from v with a level of path counts and largest
    path weights, the weights as int numerators over one shared denominator,
    and aggregates each level over the admissible starting vertices.  Exact
    and much cheaper than forward enumeration.  Deliberate second route for
    :func:`count_paths_levels`; the tests compare the two.
    """
    if n_max < 0:
        raise ValueError(f"path length must be nonnegative, got {n_max}")
    profile: List[PathCount] = []
    counts: dict = {v: 1}
    weights: dict = {v: 1}
    den = 1
    for _ in range(n_max + 1):
        total = 0
        best = 0
        for x, cnt in counts.items():
            if graph.index_of_vertex(x) < n_trunc:
                total += cnt
                if weights[x] > best:
                    best = weights[x]
        profile.append(PathCount(total, Fraction(best, den)))
        nxt_counts: dict = {}
        nxt: dict = {}
        scale = 1
        for y, cnt in counts.items():
            mw = weights[y]
            for x, p, q in graph.in_edges(y):
                c = p * mw * scale
                if c % q:
                    f = _widen(nxt, c, q)
                    scale *= f
                    c *= f
                c //= q
                cur = nxt.get(x)
                if cur is None:
                    nxt_counts[x] = cnt
                    nxt[x] = c
                else:
                    nxt_counts[x] += cnt
                    if c > cur:
                        nxt[x] = c
        counts, weights, den = nxt_counts, nxt, den * scale
        if not counts:
            profile.extend(PathCount(0, ZERO) for _ in range(n_max - len(profile) + 1))
            break
    return profile


def count_paths_to(graph: C0Graph, v: Vertex, n: int, n_trunc: int) -> PathCount:
    """Paths of length n ending at v that start among the first n_trunc vertices."""
    return count_paths_profile(graph, v, n, n_trunc)[n]
