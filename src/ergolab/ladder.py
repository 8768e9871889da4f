"""The ladder family of weighted graphs and their combined form.

A single ladder copy with index k has an entry vertex, an infinite top chain,
an infinite bottom chain draining into a sink, and rungs from the top chain
to the bottom chain.  Edge weights are arranged so that every entry-to-sink
path has total weight exactly 1, while the lengths of those paths thin out
geometrically.  The combined graph strings countably many copies along a
common entry chain fed by a single source, one copy per index k >= 0.

Vertices are plain tagged tuples so they hash fast and sort cheaply; the
text writes them in the short form on the right:

    ("S",)        source (combined graph only),            S
    ("E", k)      entry vertex of copy k,                  E(k)
    ("T", k, n)   top chain of copy k, depth n >= k+1,     T(k,n)
    ("B", k, j)   bottom chain of copy k, position j >= 1, B(k,j)
    ("V", k)      sink of copy k,                          V(k)

The bottom chain walks from large positions toward the sink, so B(k,1) is the
last vertex before V(k).  Rung n of the top chain lands at bottom position
rung_position(n) = 2**(n+1) - n - 2, and the bottom weights double exactly at
those landing positions and halve right after them; this is what makes every
entry-to-sink weight collapse to 1.  The weights telescope: with P(j) = 2 at a
landing and 1 elsewhere, the edge leaving B(k,j) weighs P(j) / P(j-1) (P(0) =
1 for the sink), so a bottom cell holding a delivers exactly P(j) * a to the
sink, and the orbits of :class:`LadderOrbit` store it so.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Tuple

from .core import HALF, ONE, TWO, ZERO
from .graphop import C0Graph, Vertex

SOURCE: Vertex = ("S",)
_ARITY = {"S": 1, "E": 2, "V": 2, "T": 3, "B": 3}


def _vertex(v: Vertex) -> Vertex:
    """v itself, when it is a vertex of the combined graph (the module's table).

    The one place a vertex's shape is checked: the constructors, both
    oracles and both indexes go through it.  Otherwise it raises a
    ValueError naming the rule v breaks: its tag, its arity, copy index
    k >= 0, top depth n >= k + 1 or bottom position j >= 1.
    """
    size = _ARITY.get(v[0]) if v else None
    if size is None:
        raise ValueError(f"not a ladder vertex: {v!r} has no ladder tag")
    if len(v) != size:
        raise ValueError(f"not a ladder vertex: {v!r} should have length {size}")
    if size == 1:
        return v
    k = v[1]
    if k < 0:
        raise ValueError(f"copy index must be nonnegative, got {k}")
    if v[0] == "T":
        if v[2] <= k:
            raise ValueError(f"top depth must be at least {k + 1} in copy {k}, got {v[2]}")
    elif v[0] == "B" and v[2] < 1:
        raise ValueError(f"bottom position must be positive, got {v[2]}")
    return v


def entry(k: int) -> Vertex:
    return _vertex(("E", k))


def top(k: int, n: int) -> Vertex:
    return _vertex(("T", k, n))


def bottom(k: int, j: int) -> Vertex:
    return _vertex(("B", k, j))


def sink(k: int) -> Vertex:
    return _vertex(("V", k))


def rung_position(n: int) -> int:
    """Bottom position hit by the rung leaving top depth n.

    rung_position(n) = 2**(n+1) - n - 2, so successive rungs land at
    1, 4, 11, 26, 57, ... and the gaps double.
    """
    if n < 1:
        raise ValueError(f"rung depth must be positive, got {n}")
    return (1 << (n + 1)) - n - 2


def rung_index(j: int) -> Optional[int]:
    """Inverse of rung_position: the n with rung_position(n) == j, or None.

    Works for arbitrarily large j: rung_position(n) has bit length n + 1
    for n >= 2, so the bit length of j names the only candidate n.
    """
    if j < 1:
        return None
    n = max(j.bit_length() - 1, 1)
    return n if j + n + 2 == 1 << (n + 1) else None


def bottom_weight(j: int) -> Fraction:
    """Weight of the bottom chain edge leaving position j (toward j-1).

    2 at rung landing positions, 1/2 immediately after them, 1 elsewhere.
    The landing positions and their successors never collide, so every
    window product of consecutive bottom weights stays within [1/2, 2].
    Deliberate second route for the weights the graph oracles compute by
    direct arithmetic: this one asks :func:`rung_index`, and the tests
    compare the two.
    """
    bottom(0, j)  # rejects positions below 1
    if rung_index(j) is not None:
        return TWO
    if rung_index(j - 1) is not None:
        return HALF
    return ONE


def _halves(u: int, j: int) -> int:
    """The bottom cell B(k, j) stored as u, in halves: 2u / P(j)."""
    return u if rung_index(j) is not None else 2 * u


def _bump(table: Dict[int, int], key: int, c: int) -> None:
    """Add c to table[key], dropping the entry when it cancels to zero."""
    c += table.get(key, 0)
    if c:
        table[key] = c
    else:
        del table[key]


def _bottom_sup(cells: Dict[int, int], t: int, best: int, top: int) -> int:
    """The larger of ``best`` and twice the largest |u / P(j)| of a bottom table after t steps.

    ``top`` is the table's largest |u|, which bounds it; only when that
    could beat ``best`` are the O(log j) landing keys probed.
    """
    if 2 * top <= best:
        return best
    keys = (rung_position(n) + t for n in range(1, (max(cells) - t).bit_length() + 1))
    landed = [key for key in keys if key in cells]
    if not landed or max(abs(cells[key]) for key in landed) < top:
        return 2 * top  # the largest |u| stands off every landing
    rest = dict(cells)
    for key in landed:
        del rest[key]
    return max(best, top, 2 * max(map(abs, rest.values()), default=0))


def _chain_sup_and_support(marks: Dict[int, int], cells, end: int, flip: int):
    """Twice the sup, and the support, of one chain's running sum, from its ledger and cells.

    The sum at y is the sum of the changes filed at y' >= y, less that of
    the current cells still above y, those with K - end >= y: each cell
    counts the values it held while it passed y.  So it is constant between
    breakpoints, and one descending scan of them reads it off.  ``cells``
    holds (frame key, numerator) pairs; the sum ends at 0 below the chain.
    On a bottom chain the sum is of u, and a landing holds half of it:
    that matters only where the landing is alone between two breakpoints,
    since landings are at least three apart.  Top and entry chains stand at
    y <= 0, where no landing is.
    """
    marks = dict(marks)
    get = marks.get
    for key, c in cells:
        y = key - end
        marks[y] = get(y, 0) - (-c if key & flip else c)
    best = support = total = 0
    prev = None
    for y in sorted(marks, reverse=True):
        if total:  # the running sum on (y, prev]
            support += prev - y
            if 2 * abs(total) > best:
                if prev - y == 1 and rung_index(prev) is not None:
                    best = max(best, abs(total))
                else:
                    best = 2 * abs(total)
        total += marks[y]
        prev = y
    assert not total, "a chain's changes must add up to its current cells"
    return best, support


class LadderOrbit:
    """The orbit of nums / den under a ladder graph, in a moving frame.

    After t steps the cell B(k, j) is stored under the key j + t of copy k's
    bottom table, T(k, n) under n - t of its top table and E(k) under k - t
    of the entry table.  The weight-1 moves B(k, j) -> B(k, j-1),
    T(k, n) -> T(k, n+1) and E(k) -> E(k+1) then leave every key as it is.
    The other bottom weights telescope: with P(j) = 2 at a landing
    rung_position(n) and 1 elsewhere, the edge leaving B(k, j) weighs
    P(j) / P(j-1), and the one into the sink P(1) = 2.  So a bottom cell is
    stored as u = P(j) times its numerator, which no bottom move changes,
    and u is what it will deliver to the sink.  A step touches only:

    - one rung birth per top cell, T(k, n) -> B(k, rung_position(n)) with
      weight 1/2, a birth with u = the top's numerator;
    - one top arrival per entry cell, E(k) -> T(k, k+1);
    - the source, which moves to E(0);
    - one drain probe per copy, at the key t + 1 of B(k, 1), whose u goes to
      V(k).  The sinks hold only what drained in the last step.

    Far births.  The top under key d makes at step s (from t = s to s + 1)
    the birth u = a, its numerator, at the key K = 2**m - d - 1 with
    m = d + s + 1 >= 2, forever.  Frame keys are at least -1: a start top
    T(k, n) has d = n >= 1, a start entry E(k0) feeds its tops under
    k0 >= 0 and the source under -1.

    - Tops never merge: an entry-fed top of copy k arrives under
      k - s <= k, a start top stands under n >= k + 1, and two entries feed
      copy k under their own keys.  So a top's numerator never changes.
    - Births never meet: if 2**m - d = 2**m' - d' with m > m', then
      2**(m-1) <= d - d' <= (m - 1) - (-1) = m, as s >= 0, so m <= 2,
      which leaves no m' >= 2 below it.  (m = m' forces d = d'.)
    - So with R the largest bottom key of the start (0 if none), a birth
      with K > R meets no cell ever.  Only births with K <= R are stored;
      a top's K grows with s, so once one birth lands above R all its later
      ones do.  Each such top keeps only the step of its oldest live far
      birth; its far births are those of the steps from it to t - 1.
    - They drain in turn: the birth of step s drains in step K - 1 =
      2**m - m + s - 1 >= s + 1, before that of step s + 1 (a larger K),
      which is made by then.  So one scheduled drain per top suffices, and
      a step loops over the copies, the drains due and the tops still
      below R, not over every top.  Drains are filed under (m, d), not K,
      as from the source every K is a power of two and Python hashes those
      onto 61 values; those due in step t have K = t + 1, m = K's bit
      length or one less, d = 2**m - K - 1.  Stored keys are at most R,
      below every far key, so at most one cell drains from a copy in a
      step, and the sink then holds that cell's u.
    - A far birth's value is at most |a|, which its top still holds, so
      :meth:`sup_norm` scans only the stored cells.  A stored table holds
      at most R keys, and :meth:`items`, :meth:`value` and
      :meth:`accumulate` read the far births off the tops that make them.

    Tops neither change nor leave, so the orbit keeps their largest |a| as
    they arrive.  An unsigned orbit also keeps each copy's largest stored u
    and the number of cells holding it: a birth only raises a u, so the
    step raises the maximum or its count with it, and a drain of a holder
    lowers the count; once the last holder drained, :meth:`sup_norm`
    rescans that table once.  A signed orbit's births may cancel, so its
    :meth:`sup_norm` scans each stored table.

    Every table holds numerators over the start's denominator den0, and
    every read counts in halves of 1 / den0, so ``den`` is 2 * den0 from the
    start and a bottom cell reads as 2u / P(j) halves (:func:`_halves`).

    A standalone copy has no source and no edge E(k) -> E(k+1), so its
    entry cell is cleared once it has fed the top chain.  Start vertices
    outside the graph are rejected by the graph's oracle.  These rules
    encode the ladder's edges apart from the oracles;
    :class:`graphop.PushOrbit` over the graph's ``out_edges`` is the
    deliberate second route, and the tests compare the two.

    :meth:`step` keeps no record of what it changed: :meth:`accumulate`
    reads that off the orbit around each step, and the reads change nothing.
    """

    def __init__(self, graph: "LadderGraph", nums: Dict[Vertex, int], den: int = 1):
        self.den = 2 * den
        self._standalone = graph.copy_index is not None
        self._t = 0
        self._source = 0
        self._entries: Dict[int, int] = {}  # k - t -> numerator of E(k)
        self._tops: Dict[int, Dict[int, int]] = {}  # k -> {n - t: numerator of T(k, n)}
        self._bottoms: Dict[int, Dict[int, int]] = {}  # k -> {j + t: u of B(k, j)}, stored cells
        self._sinks: Dict[int, int] = {}  # k -> numerator of V(k)
        self._near: List[Tuple[int, int]] = []  # (k, d) of the tops whose births are stored
        self._far: Dict[int, Dict[int, int]] = {}  # k -> {d: step of the oldest live far birth}
        self._drains: Dict[Tuple[int, int], List[int]] = {}  # (m, d) -> k of the far birth due
        self._bottom_max: Dict[int, List[int]] = {}  # k -> [largest stored u, cells holding it]
        # T is positive, so an orbit whose start has no negative entry never has one
        self._signed = min(nums.values(), default=0) < 0
        for v, a in nums.items():
            graph.out_edges(v)  # the oracle rejects vertices outside the graph
            if not a:
                continue
            tag = v[0]
            if tag == "B":  # stored as u = P(j) * a
                u = 2 * a if rung_index(v[2]) is not None else a
                self._bottoms.setdefault(v[1], {})[v[2]] = u
            elif tag == "T":
                self._tops.setdefault(v[1], {})[v[2]] = a
                self._near.append((v[1], v[2]))
            elif tag == "E":
                self._entries[v[1]] = a
            elif tag == "V":
                self._sinks[v[1]] = a
            else:
                self._source = a
        self._reach = max((max(cells) for cells in self._bottoms.values()), default=0)
        self._top_sup = max((abs(a) for cells in self._tops.values() for a in cells.values()), default=0)

    def step(self) -> None:
        t = self._t
        bottoms, tops, far, drains = self._bottoms, self._tops, self._far, self._drains
        maxima = self._bottom_max
        sinks = self._sinks = {}
        for k, cells in bottoms.items():  # B(k, 1) -> V(k) delivers u
            u = cells.pop(t + 1, 0)
            if u:
                sinks[k] = u
                held = maxima.get(k)
                if held is not None and held[0] == u:  # a holder of the maximum drained
                    held[1] -= 1
                    if not held[1]:
                        del maxima[k]
        if drains:  # far births under t + 1 = 2**m - d - 1 drain; their tops' next ones are due
            key = t + 1
            for m in (key.bit_length() - 1, key.bit_length()):
                d = (1 << m) - key - 1
                for k in drains.pop((m, d), ()):
                    sinks[k] = tops[k][d]
                    far[k][d] += 1
                    drains.setdefault((m + 1, d), []).append(k)
        near = []
        for k, d in self._near:  # T(k, d + t) -> B(k, rung_position(d + t)), u = a
            key = (1 << (d + t + 1)) - d - 1  # rung_position(d + t) + t + 1
            if key <= self._reach:
                chain = bottoms.setdefault(k, {})
                _bump(chain, key, tops[k][d])
                held = maxima.get(k)
                if held is not None:  # unsigned, so the birth raised the cell
                    c = chain[key]
                    if c > held[0]:
                        maxima[k] = [c, 1]
                    elif c == held[0]:
                        held[1] += 1
                near.append((k, d))
            else:  # this birth and every later one are far
                far.setdefault(k, {})[d] = t
                drains.setdefault((d + t + 1, d), []).append(k)
        self._near = near
        entries = self._entries
        for e, a in entries.items():  # E(k) -> T(k, k+1), weight 1
            k = e + t
            cells = tops.setdefault(k, {})
            assert e not in cells, "tops never merge"
            cells[e] = a
            self._top_sup = max(self._top_sup, abs(a))
            near.append((k, e))
        if self._standalone:
            entries.clear()
        if self._source:  # S -> E(0), weight 1
            _bump(entries, -(t + 1), self._source)
            self._source = 0
        self._t = t + 1

    def sup_norm(self) -> Fraction:
        best = max(abs(self._source), self._top_sup)
        for table in (self._entries, self._sinks):
            if table:
                best = max(best, max(table.values()), -min(table.values()))
        best *= 2  # in halves, as a landing holds u / 2
        maxima = self._bottom_max
        for k, cells in self._bottoms.items():  # far births stay within their tops' |a|
            if not cells:
                continue
            if self._signed:
                top = max(max(cells.values()), -min(cells.values()))
            else:
                held = maxima.get(k)
                if held is None:
                    stored = list(cells.values())
                    top = max(stored)
                    held = maxima[k] = [top, stored.count(top)]
                top = held[0]
            best = _bottom_sup(cells, self._t, best, top)
        return Fraction(best, self.den)

    def _far_u(self, k: int, key: int) -> int:
        """The u of copy k's far birth under ``key``, or 0: key = 2**m - d - 1
        with -1 <= d <= m - 1 gives m the bit length of key, or one less."""
        far, t = self._far.get(k, {}), self._t
        for m in (key.bit_length() - 1, key.bit_length()):
            d = (1 << m) - key - 1
            if far.get(d, t) <= m - d - 1 < t:
                return self._tops[k][d]
        return 0

    def _bottom_cells(self):
        """Every bottom cell as (k, frame key, u), the stored ones and then the far births."""
        for k, cells in self._bottoms.items():
            for key, u in cells.items():
                yield k, key, u
        for k, tops in self._far.items():
            for d, oldest in tops.items():
                a = self._tops[k][d]
                for s in range(oldest, self._t):
                    yield k, (1 << (d + s + 1)) - d - 1, a

    def value(self, v: Vertex) -> Fraction:
        t, tag = self._t, v[0]
        if tag == "B":
            k, j = v[1], v[2]
            key = j + t
            u = self._bottoms.get(k, {}).get(key, 0) if key <= self._reach else self._far_u(k, key)
            return Fraction(_halves(u, j), self.den) if u else ZERO
        if tag == "T":
            a = self._tops.get(v[1], {}).get(v[2] - t, 0)
        elif tag == "E":
            a = self._entries.get(v[1] - t, 0)
        elif tag == "V":
            a = self._sinks.get(v[1], 0)
        else:
            a = self._source if v == SOURCE else 0
        return Fraction(2 * a, self.den) if a else ZERO

    def items(self):
        """The nonzero entries as (vertex, numerator) pairs over ``den``."""
        t = self._t
        if self._source:
            yield SOURCE, 2 * self._source
        for e, a in self._entries.items():
            yield ("E", e + t), 2 * a
        for k, cells in self._tops.items():
            for d, a in cells.items():
                yield ("T", k, d + t), 2 * a
        for k, key, u in self._bottom_cells():
            yield ("B", k, key - t), _halves(u, key - t)
        for k, a in self._sinks.items():
            yield ("V", k), 2 * a

    def _chains(self):
        """Each chain's cells as (frame key, stored numerator) pairs, under its ledger name."""
        bottoms: Dict[tuple, list] = {}
        for k, key, u in self._bottom_cells():
            bottoms.setdefault(("B", k), []).append((key, u))
        yield from bottoms.items()
        for k, cells in self._tops.items():
            yield ("T", k), [(-d, a) for d, a in cells.items()]
        yield ("E", None), [(-e, a) for e, a in self._entries.items()]

    def accumulate(self, windows, factor=1):
        """Yield (n, sup norm, support) of x + Sx + ... + S**(n-1) x for each n of ``windows``.

        x is the current vector, S = factor * T with factor +1 or -1, the
        ``windows`` ascend, and the orbit steps on to the last of them.  The
        support is the number of nonzero entries of the sum.  No running sum
        is kept: every change to a chain cell's stored numerator, over den0,
        is filed in a ledger, and each window reads every chain's sum off the
        ledger and the current cells (:func:`_chain_sup_and_support`).

        The ledger reads each chain in walking-down coordinates: a bottom
        cell's frame key K is its key, a top or entry cell's is minus its
        key, and the cell stands at y = K - t after t steps.  A change of c
        at step t0 is filed under y = K - t0, the position where the cell
        took its new value, and weighted (-1)**K for factor -1.  Bottom cells
        are filed as u, so only their births and drains are changes.  The
        sinks keep running sums, weighted (-1)**t; the source's is its start
        value, as nothing feeds it.  The orbit's own step files nothing: the
        changes are read off the orbit around each step from t to t + 1:

        - births: before the step, each top (k, d) with numerator a births
          u = a under (1 << (d + t + 1)) - d - 1;
        - the source's move to E(0), read before the step;
        - drains: after it, the sink of copy k holds the u that drained
          from that copy, at most one cell;
        - top arrivals: entry e fed a top iff e is a key of copy e + t's top
          table after the step, as start tops stand under keys >= k + 1 > e
          and tops never merge;
        - cleared entries: a standalone entry cleared iff its key left the
          entry table.

        So the cost is the orbit's, a pass over the tops per step, and one
        sort per chain and window.
        ``_running_sums`` in :mod:`ergolab.ergodic`, over
        :class:`graphop.PushOrbit`, is the deliberate second route, and the
        tests compare the two.
        """
        if factor not in (1, -1):
            raise ValueError(f"factor must be 1 or -1, got {factor}")
        flip = int(factor == -1)
        ledger: Dict[tuple, Dict[int, int]] = {}  # ("B" | "T" | "E", k) -> {y: change}

        def mark(chain: tuple, key: int, t0: int, c: int) -> None:
            table = ledger.get(chain)
            if table is None:
                table = ledger[chain] = {}
            y = key - t0
            table[y] = table.get(y, 0) + (-c if key & flip else c)

        tops, entries = self._tops, self._entries
        start = self._t
        for chain, cells in self._chains():
            for key, a in cells:
                mark(chain, key, start, a)
        sinks, start_source = dict(self._sinks), self._source
        for n in windows:
            while self._t < start + n - 1:
                t, source = self._t, self._source
                fed = list(entries.items()) if entries else ()
                for k, cells in tops.items():  # every top births u = a
                    for d, a in cells.items():
                        mark(("B", k), (1 << (d + t + 1)) - d - 1, t + 1, a)
                self.step()
                sign = -1 if flip and (t + 1 - start) & 1 else 1
                for k, u in self._sinks.items():  # the one cell that drained from copy k
                    mark(("B", k), t + 1, t + 1, -u)
                    sinks[k] = sinks.get(k, 0) + sign * u
                for e, a in fed:
                    if e in tops.get(e + t, ()):  # E(e + t) fed its top
                        mark(("T", e + t), -e, t + 1, a)
                    if e not in entries:  # a standalone entry cleared
                        mark(("E", None), -e, t + 1, -a)
                if source:  # S moved to E(0)
                    mark(("E", None), t + 1, t + 1, source)
            single = [start_source, *sinks.values()]
            best = 2 * max(map(abs, single))
            support = len(single) - single.count(0)
            current = dict(self._chains())
            for chain, marks in ledger.items():
                chain_best, chain_support = _chain_sup_and_support(
                    marks, current.get(chain, ()), self._t + 1, flip
                )
                best = max(best, chain_best)
                support += chain_support
            yield n, Fraction(best, n * self.den), support


class LadderGraph(C0Graph):
    """A ladder graph: the combined form, or one standalone copy.

    ``copy_index`` is the standalone copy's k, or None for the combined
    graph.  Orbits step in the moving frame of :class:`LadderOrbit`.
    """

    def __init__(self, copy_index: Optional[int], **kwargs):
        super().__init__(**kwargs)
        self.copy_index = copy_index

    def orbit(self, nums: Dict[Vertex, int], den: int = 1) -> LadderOrbit:
        return LadderOrbit(self, nums, den)


def _out_edges(v: Vertex):
    """Out-edges of a vertex of the combined graph, as (vertex, p, q) triples."""
    tag = _vertex(v)[0]
    if tag == "B":
        _, k, j = v
        if j == 1:
            return ((("V", k), 2, 1),)
        # the weight is bottom_weight(j) by direct arithmetic: with b the bit
        # length of j, j is the landing rung_position(b - 1) exactly when
        # j + 1 == 2**b - b, and j - 1 is one exactly when j == 2**b - b
        # (a landing and its successor share a bit length)
        b = j.bit_length()
        after_landing = (1 << b) - b
        if j + 1 == after_landing:
            return ((("B", k, j - 1), 2, 1),)
        return ((("B", k, j - 1), 1, 2 if j == after_landing else 1),)
    if tag == "T":
        _, k, n = v
        return ((("T", k, n + 1), 1, 1), (("B", k, rung_position(n)), 1, 2))
    if tag == "E":
        k = v[1]
        return ((("E", k + 1), 1, 1), (("T", k, k + 1), 1, 1))
    if tag == "S":
        return ((("E", 0), 1, 1),)
    return ()  # a sink


def _in_edges(v: Vertex):
    """In-edges of a vertex of the combined graph, as (vertex, p, q) triples."""
    tag = _vertex(v)[0]
    if tag == "B":
        _, k, j = v
        ((_, p, q),) = _out_edges(("B", k, j + 1))
        i = rung_index(j)
        if i is not None and i >= k + 1:
            return (("B", k, j + 1), p, q), (("T", k, i), 1, 2)
        return ((("B", k, j + 1), p, q),)
    if tag == "T":
        _, k, n = v
        return ((("E", k) if n == k + 1 else ("T", k, n - 1), 1, 1),)
    if tag == "E":
        k = v[1]
        return (((SOURCE if k == 0 else ("E", k - 1)), 1, 1),)
    if tag == "V":
        return ((("B", v[1], 1), 2, 1),)
    return ()  # the source


def _standalone_enumerate(k: int, i: int) -> Vertex:
    # order: E(k), V(k), then T and B alternating by depth
    if i == 0:
        return entry(k)
    if i == 1:
        return sink(k)
    m, off = divmod(i - 2, 2)
    return top(k, k + 1 + m) if off == 0 else bottom(k, 1 + m)


def _copy_vertex(k: int, v: Vertex) -> Vertex:
    """v itself, when it is a vertex of standalone copy k; otherwise ValueError."""
    if _vertex(v)[0] == "S" or v[1] != k:
        raise ValueError(f"vertex {v!r} is not in copy {k}")
    return v


def _standalone_index(k: int, v: Vertex) -> int:
    tag = _copy_vertex(k, v)[0]
    if tag == "E":
        return 0
    if tag == "V":
        return 1
    if tag == "T":
        return 2 + 2 * (v[2] - k - 1)
    return 3 + 2 * (v[2] - 1)


def _make_standalone(k: int) -> LadderGraph:
    """Copy k on its own: the combined graph restricted to E(k) and copy k.

    Vertices outside it are rejected.  Only the entry has edges to or from
    outside (to E(k+1), from S or E(k-1)), so only its edge lists are
    filtered: the one edge that stays is E(k) -> T(k, k+1).
    """

    def restricted(oracle):
        def edges(v: Vertex):
            if _copy_vertex(k, v)[0] == "E":
                return tuple(edge for edge in oracle(v) if edge[0][0] == "T")
            return oracle(v)

        return edges

    return LadderGraph(
        k,
        out_edges=restricted(_out_edges),
        in_edges=restricted(_in_edges),
        enumerate_vertex=lambda i: _standalone_enumerate(k, i),
        index_of_vertex=lambda v: _standalone_index(k, v),
        description=f"ladder copy {k}",
    )


def make_g0() -> LadderGraph:
    """The full ladder copy: entry, top chain from depth 1, all rungs."""
    return _make_standalone(0)


def make_gk(k: int) -> LadderGraph:
    """Ladder copy k >= 1: the top chain starts at depth k+1, so the first
    k rungs are missing while the bottom chain keeps its full weight pattern."""
    if k < 1:
        raise ValueError(f"copy index must be at least 1 (use make_g0 for 0), got {k}")
    return _make_standalone(k)


def _tier_start(t: int) -> int:
    return 1 + t * t + 3 * t


def _combined_enumerate(i: int) -> Vertex:
    # tier t holds E(t), V(t), the depth-(t+1) tops of copies 0..t and the
    # bottom antidiagonal B(k, t-k+1); tiers are laid out consecutively
    if i == 0:
        return SOURCE
    t = (isqrt(4 * i + 5) - 3) // 2
    off = i - _tier_start(t)
    if off == 0:
        return entry(t)
    if off == 1:
        return sink(t)
    if off <= t + 2:
        return top(off - 2, t + 1)
    k = off - t - 3
    return bottom(k, t - k + 1)


def _combined_index(v: Vertex) -> int:
    tag = _vertex(v)[0]
    if tag == "S":
        return 0
    k = v[1]
    if tag == "E":
        return _tier_start(k)
    if tag == "V":
        return _tier_start(k) + 1
    if tag == "T":
        return _tier_start(v[2] - 1) + 2 + k
    t = k + v[2] - 1
    return _tier_start(t) + t + 3 + k


def make_counterexample() -> LadderGraph:
    """The combined graph: source, entry chain, one ladder copy per k >= 0.

    The entry chain E(0) -> E(1) -> ... carries weight-1 edges, every E(k)
    also feeds the top chain of copy k, and the source feeds E(0).
    """
    return LadderGraph(
        None,
        out_edges=_out_edges,
        in_edges=_in_edges,
        enumerate_vertex=_combined_enumerate,
        index_of_vertex=_combined_index,
        description="combined ladder graph",
    )


def orbit_predicate(copy_index: Optional[int], k: int, n: int) -> int:
    """Predicted V(k) coordinate of the n-th orbit vector, 0 or 1.

    ``copy_index`` is the graph's (:class:`LadderGraph`): None for the
    combined graph started at the source, or k for standalone copy k
    started at its entry vertex.  The sink of copy k reads 1 exactly when
    n + k + 1 = 2**(m+2) on copy k, and n = 2**(m+2) on the combined graph,
    for some m >= k; every other n gives 0, because at most one path of
    each length reaches a given sink and its weight telescopes to 1.  The
    combined graph's E(k) holds 1 at step k + 1 only, so the two readings
    are one orbit, delayed by k + 1 steps.
    """
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")
    if k < 0:
        raise ValueError(f"copy index must be nonnegative, got {k}")
    if copy_index not in (None, k):
        raise ValueError(f"copy {copy_index} has no sink V({k})")
    target = n if copy_index is None else n + k + 1
    return int(not target & (target - 1) and target.bit_length() - 3 >= k)


def sink_readings(graph: LadderGraph, copies, steps):
    """Yield (n, k, simulated, predicted) for each n of ``steps`` and each k of ``copies``.

    simulated is the V(k) coordinate of the n-th orbit vector and predicted
    is orbit_predicate(graph.copy_index, k, n); the readings come in (n, k)
    order, with the k in the order ``copies`` gives them.  ``steps`` ascend
    strictly from 1 on, such as ``range(1, n_max + 1)``; a step that does
    not raises ValueError when reached.  One orbit serves every copy: on
    the combined graph it starts at the source, and on a standalone copy at
    its entry.  The orbit is the graph's own (:meth:`LadderGraph.orbit`),
    in int numerators, and steps unread between the given steps.
    """
    index = graph.copy_index
    targets = [(k, sink(k)) for k in copies]
    orbit = graph.orbit({SOURCE if index is None else entry(index): 1})
    done = 0  # steps taken
    for n in steps:
        if n <= done:
            raise ValueError(f"steps must be positive and ascending, got {n} after {done}")
        for _ in range(n - done):
            orbit.step()
        done = n
        for k, target in targets:
            yield n, k, orbit.value(target), orbit_predicate(index, k, n)
