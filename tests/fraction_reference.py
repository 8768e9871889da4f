"""Reference routes that the tests compare the package against.

``graphop.push`` steps int numerators over a shared denominator.  Most
functions here step the same graphs the way the package did before that
kernel: one ``Fraction`` product per edge and per entry, read through the
``successors`` and ``predecessors`` views.  :func:`oracle_problems` checks
that a graph's int-triple oracles present an operator.
:func:`deviation_argmaxes` is the block deviation scan over every block, in
ints.
"""

from fractions import Fraction

from ergolab import graphop
from ergolab.core import ONE, ZERO, SparseVector


def push(edges, x):
    """x pushed along ``edges`` (a Fraction-weight oracle), entry by entry."""
    out = {}
    for u, xu in x.items():
        for v, w in edges(u):
            out[v] = out.get(v, 0) + xu * w
    return SparseVector(out)


def power_norms(graph, n_max, n_trunc):
    """Sup norms of T, ..., T**n_max on the truncation indicator."""
    x = graphop.truncation_indicator(graph, n_trunc)
    norms = []
    for _ in range(n_max):
        x = push(graph.successors, x)
        norms.append(x.sup_norm())
    return norms


def cesaro_sup_norms(graph, x, windows, step_power=1, factor=ONE):
    """Sup norm of the n-th Cesaro average of factor * T**step_power at x, per window."""
    cur, total, out = x, x, {}
    for k in range(1, max(windows) + 1):
        if k > 1:
            for _ in range(step_power):
                cur = push(graph.successors, cur)
            cur = cur.scale(factor)
            total = total + cur
        if k in windows:
            out[k] = total.sup_norm() / k
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


def deviation_argmax(m_max, n, p):
    """(m, value) of the largest block deviation over m <= m_max."""
    m, num, den = deviation_argmaxes(m_max, n, p)[-1]
    return m, Fraction(num, den)
