"""Reference routes that the tests compare the package against.

``tests/test_routes.py`` ``REFERENCES`` holds every such comparison that is
not part of a larger assertion: one row per public function here but
:func:`oracle_problems`, naming the package routes it checks.  The
``cesaro_sup_norms`` row checks ``cesaro_trace`` on each ladder graph from
signed starts at windows up to 40 steps of T, summed in the moving frame
at power 1 and step by step at powers 2 and 3.

``graphop.push`` steps int numerators over a shared denominator.  Most
functions here step the same graphs the way the package did before that
kernel: one ``Fraction`` product per edge and per entry, read through the
``successors`` and ``predecessors`` views, with vectors as plain
``{vertex: Fraction}`` dicts; :func:`paths_up_to` enumerates paths so.
:func:`oracle_problems` checks that a graph's int-triple oracles present an
operator.  :func:`deviation_argmaxes` is the block deviation scan over every
block, in ints.  :func:`batched_sweep` is the structural Cesaro sweep that
files every contribution record.  :func:`source_sup_norm_by_copies` sums
the average from the combined graph's source copy by copy, on the
standalone copies.
"""

from fractions import Fraction

from typing import Dict, List, Tuple, Union

from ergolab import graphop, ladder
from ergolab.core import ONE, ZERO, SparseVector
from ergolab.ergodic import cesaro_trace, graph_handle
from ergolab.ladder import rung_index
from ergolab.sweeps import normalize_factor


def push(edges, x):
    """x pushed along ``edges`` (a Fraction-weight oracle), entry by entry:
    the nonzero entries of the image as a dict."""
    out = {}
    for u, xu in x.items():
        for v, w in edges(u):
            out[v] = out.get(v, 0) + xu * w
    return {v: value for v, value in out.items() if value}


def power_norms(graph, n_max, n_trunc):
    """Sup norms of T, ..., T**n_max on the truncation indicator."""
    x = dict.fromkeys(graph.vertices_up_to(n_trunc), ONE)
    norms = []
    for _ in range(n_max):
        x = push(graph.successors, x)
        norms.append(max(map(abs, x.values()), default=ZERO))
    return norms


def cesaro_sup_norms(graph, x, windows, step_power=1, factor=1):
    """Sup norm of the n-th Cesaro average of factor * T**step_power at x, per
    window, for factor 1, -1, i or -i.

    The k-th vector T**(step_power*k) x is stepped in Fractions, and its
    quarter turn factor**k adds each entry to the real or the imaginary part
    of that entry's sum, with a sign; every sum is an exact pair (re, im).
    At +-1 a window's value is the largest |re| / n, a Fraction.  At +-i the
    entry with the largest re**2 + im**2 gives the one float
    abs(complex(float(re), float(im))) / n: each part rounded once, as the
    package rounds its exact sums.
    """
    turns = normalize_factor(factor)
    cur, out = x, {}
    sums = {key: [value, ZERO] for key, value in x.items()}
    for k in range(1, max(windows) + 1):
        if k > 1:
            for _ in range(step_power):
                cur = push(graph.successors, cur)
            turn = turns * (k - 1) % 4
            for key, value in cur.items():
                sums.setdefault(key, [ZERO, ZERO])[turn % 2] += value if turn < 2 else -value
        if k not in windows:
            continue
        if turns % 2 == 0:
            out[k] = max((abs(re) for re, _ in sums.values()), default=ZERO) / k
        else:
            re, im = max(sums.values(), key=lambda z: z[0] * z[0] + z[1] * z[1])
            out[k] = abs(complex(float(re), float(im))) / k
    return out


def count_paths(graph, v, n_max, n_trunc):
    """(count, max weight) of the paths into v of each length 0..n_max that
    start among the first n_trunc vertices, by a backward sweep in Fractions."""
    profile = []
    level = {v: (1, ONE)}
    for _ in range(n_max + 1):
        admissible = [cell for x, cell in level.items() if graph.index_of_vertex(x) < n_trunc]
        profile.append(graphop.PathCount(
            sum(cnt for cnt, _ in admissible), max((mw for _, mw in admissible), default=ZERO)
        ))
        nxt = {}
        for y, (cnt, mw) in level.items():
            for x, w in graph.predecessors(y):
                old_cnt, old_mw = nxt.get(x, (0, ZERO))
                nxt[x] = (old_cnt + cnt, max(old_mw, w * mw))
        level = nxt
    return profile


def paths_up_to(graph, u, v, n_max):
    """``graphop.enumerate_paths_up_to`` as the package computed it before its
    int walk: depth first over ``successors``, one Fraction product per frame."""
    found = []
    frames = [((u,), ONE)]
    while frames:
        path, weight = frames.pop()
        if path[-1] == v:
            found.append(graphop.Path(path, weight))
        if len(path) - 1 == n_max:
            continue
        for target, w in graph.successors(path[-1]):
            frames.append((path + (target,), weight * w))
    found.sort(key=lambda p: (p.length, tuple(repr(x) for x in p.vertices)))
    return found


def oracle_problems(graph, vertices, bound):
    """Violations of the operator conditions at ``vertices``, one line each.

    Every (vertex, p, q) triple of ``out_edges`` and ``in_edges`` must carry
    a positive weight p/q, every out-edge must appear among the in-edges of
    its target with the same (p, q) and every in-edge among the out-edges of
    its source, and the in-edge weights of each vertex must sum to at most
    ``bound``.  An empty list means the conditions hold.
    """
    problems = []
    for u in vertices:
        out, into = tuple(graph.out_edges(u)), tuple(graph.in_edges(u))
        bad = [edge for edge in out + into if edge[1] <= 0 or edge[2] <= 0]
        if bad:
            problems.append(f"edges at {u!r} with a nonpositive weight: {bad!r}")
            continue
        problems += [f"{u!r} -> {v!r} ({p}/{q}) is missing from in_edges({v!r})"
                     for v, p, q in out if (u, p, q) not in graph.in_edges(v)]
        problems += [f"{w!r} -> {u!r} ({p}/{q}) is missing from out_edges({w!r})"
                     for w, p, q in into if (u, p, q) not in graph.out_edges(w)]
        column = sum(Fraction(p, q) for _, p, q in into)
        if column > bound:
            problems.append(f"in-edge weights of {u!r} sum to {column}, above {bound}")
    return problems


def deviation_argmaxes(m_max, n, p):
    """[(m, num, den)]: the largest block deviation over m <= k as an
    unreduced int pair, for each k = 1..m_max, evaluating every block; ties
    go to the smallest m.

    Block m deviates by |1 - r**n| / ((1 - r) * n) with r = (-(m - 1)/m)**p.
    Each value is compared with the running best by cross-multiplication.
    """
    best_m, best_num, best_den = None, 0, 1
    running = []
    for m in range(1, m_max + 1):
        r_num, r_den = (1 - m) ** p, m**p
        num = abs(r_den**n - r_num**n)
        den = r_den ** (n - 1) * (r_den - r_num) * n
        if best_m is None or num * best_den > best_num * den:
            best_m, best_num, best_den = m, num, den
        running.append((best_m, best_num, best_den))
    return running


def batched_sweep(schedule, step_power=1, factor=1):
    """The structural sweep in one batched pass over every scheduled window.

    Deliberate second route for ``sweeps.combined_cesaro_sup_norms``, which
    sweeps each window on its own and reads only the streams that can beat
    its running maximum.  This pass files every record of every
    contribution stream up to the largest window, keeps one peak per
    stream and rescans a stream only when it grows.  Contributions are
    Gaussian ints (re, im) in halves, turned by the factor's powers one
    multiplication at a time; a window's largest sum is picked by
    re**2 + im**2 and read as a Fraction at +-1, and at +-i as the float
    abs(complex(re / 2, im / 2)) / n.
    """
    schedule = sorted(set(int(n) for n in schedule))
    if not schedule or schedule[0] < 1:
        raise ValueError("schedule must be a nonempty set of positive window lengths")
    if step_power < 1:
        raise ValueError(f"step_power must be a positive integer, got {step_power}")
    turns = normalize_factor(factor)
    exact = turns % 2 == 0
    lam = ((1, 0), (0, 1), (-1, 0), (0, -1))[turns]  # the factor as a Gaussian int

    n_max = schedule[-1]
    horizon = step_power * (n_max - 1)
    retain = max(horizon, 4)
    wanted = set(schedule)

    # streams[j] collects (max copy index, contribution) for the copy-0
    # bottom cell at position j >= 1; streams[0] is the sink's.  A
    # contribution is the cell's value at engine step k times factor**k,
    # counted in halves (1 for a wave's 1/2, 2 for a value 1), as a
    # Gaussian int (re, im) over the shared denominator 2.
    # The max copy index is strictly increasing along each stream, which is
    # what makes every suffix realizable by some copy.
    streams: Dict[int, List[Tuple[int, Tuple[int, int]]]] = {}
    results: Dict[int, Union[Fraction, float]] = {}
    # peaks[j] is (re**2 + im**2, re, im) of the largest suffix sum of
    # streams[j] as of the last window, and grown holds the streams
    # recorded into since then.  A stream's suffix sums change only when it
    # gets a record, so a window
    # rescans just the grown streams and reads every other peak as stored.
    # peaks[-1] is the source coordinate, which contributes exactly 1 (two
    # halves) at engine step 0; every other single-visit cell contributes at
    # most that much.
    peaks: Dict[int, Tuple[int, int, int]] = {-1: (4, 2, 0)}
    grown: Dict[int, List[Tuple[int, Tuple[int, int]]]] = {}

    def record(j: int, kmax: int, weight, halves: int) -> None:
        stream = streams.setdefault(j, [])
        if stream and stream[-1][0] >= kmax:
            raise AssertionError("copy bounds must increase along a contribution stream")
        stream.append((kmax, (weight[0] * halves, weight[1] * halves)))
        grown[j] = stream

    def evaluate(n_eval: int) -> Union[Fraction, float]:
        for j, stream in grown.items():
            best = (0, 0, 0)
            re = im = 0
            for _, (a, b) in reversed(stream):
                re, im = re + a, im + b
                best = max(best, (re * re + im * im, re, im))
            peaks[j] = best
        grown.clear()
        _, re, im = max(peaks.values())
        if exact:
            return Fraction(abs(re), 2 * n_eval)
        return abs(complex(re / 2, im / 2)) / n_eval

    weight = (1, 0)  # factor**k
    for k in range(n_max):
        t = step_power * k
        if k:
            (a, b), (c, d) = weight, lam
            weight = (a * c - b * d, a * d + b * c)
        if t >= 4 and not (t & (t - 1)):
            # a wave dies into the sink exactly at the powers of two; the
            # arriving mass is exactly 1 and reaches sinks V(0)..V(n-1)
            record(0, t.bit_length() - 3, weight, 2)
        if t >= 3:
            nn = t.bit_length()  # smallest nn with 2**nn > t
            while (1 << nn) <= t + retain:
                n = nn - 1
                if n + 2 <= t:
                    j = (1 << nn) - t
                    halves = 1 if rung_index(j) is not None else 2
                    record(j, n - 1, weight, halves)
                nn += 1
        if (k + 1) in wanted:
            results[k + 1] = evaluate(k + 1)
    return results


def source_sup_norm_by_copies(n, factor=1):
    """Sup norm of the n-th Cesaro average of factor * T at the combined
    graph's source, factor +1 or -1, from the standalone copies.

    In the combined graph the only edge into E(k) comes from E(k-1) (from
    the source S for k = 0), and copy k's cells have in-edges only from E(k)
    and copy k.  From S, E(k) holds 1 at step k + 1 and 0 at every other
    step, and S holds 1 at step 0 only.  So on E(k) and copy k the orbit at
    step t is the standalone copy's orbit from E(k) (``make_g0``,
    ``make_gk(k)``) at step t - k - 1, and 0 before.  The sum of the first
    n terms of the orbit, each weighted factor**t, is therefore 1 at S and,
    on E(k) and copy k, factor**(k+1) times copy k's own sum of n - k - 1
    terms from E(k).  These sets of vertices partition the graph, so the
    sum's sup norm is the largest of 1 and the copies' sup norms S_k.

    Only copies with 2**(k+2) <= n - 1 can reach a cell twice inside the
    window.  From E(k), the rung of T(k, n') lands its wave at step
    n' - k + 1, and waves reach a cell in the order of their rungs.  The
    earliest second visit is wave k + 2's to a cell at or below
    rung_position(k+1), at step 2**(k+2) + 2 or later, and the sink first
    reads 1 at step 2**(k+2) - k - 1 and next at 2**(k+3) - k - 1.  Every
    cell of a wave holds at most 1, so any other copy adds at most 1 to a
    cell, which the source's 1 already covers.

    S_k is read off ``cesaro_trace`` with the generic engine, which sums a
    standalone copy in its moving frame and shares none of the sweep's
    structural facts.
    """
    best = 1
    k = 0
    while 1 << (k + 2) <= n - 1:
        copy = ladder.make_g0() if k == 0 else ladder.make_gk(k)
        terms = n - k - 1
        trace = cesaro_trace(
            graph_handle(copy), SparseVector.unit(ladder.entry(k)), [terms],
            engine="generic", factor=factor,
        )
        best = max(best, trace.norms()[terms] * terms)
        k += 1
    return Fraction(best, n)
