"""The acceptance suite: the finitary claims this package exists to verify.

Each criterion is a self-contained check with pinned expected bounds or
frozen expected values, a human-readable detail string and a wall-clock
budget.  The same functions back the command line ``verify`` subcommand and
the acceptance tests, so there is exactly one definition of "the claims
hold".

Values asserted here were frozen from independent oracle routes (forward
path enumeration, literal summation, the generic averaging engine) which the
unit tests keep exercising against the fast routes used below.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import blockdiag, ergodic, graphop, ladder, sweeps
from .core import ONE, TWO, ZERO, SparseVector, fraction_str


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"{state} #{self.number:02d} {self.name}: {self.detail} "
            f"[{self.elapsed:.2f}s / {self.budget:.0f}s]"
        )


def _criterion_1() -> Tuple[bool, str]:
    """Truncated norms: the step has norm 2 and all powers up to 40 stay <= 4."""
    graph = ladder.make_counterexample()
    step_norm = graphop.operator_norm_truncated(graph, 2000)
    norms = graphop.power_norms_sweep(graph, 40, 2000)
    worst = max(norms)
    ok = step_norm == TWO and all(v <= 4 for v in norms)
    return ok, (
        f"step norm at truncation 2000 is {fraction_str(step_norm)} (expected 2); "
        f"largest power norm over n <= 40 is {fraction_str(worst)} (bound 4)"
    )


def _criterion_2() -> Tuple[bool, str]:
    """Entry-to-sink paths in the full ladder: lengths 3, 7, ..., 127, weight 1."""
    graph = ladder.make_g0()
    paths = graphop.enumerate_paths_up_to(graph, ladder.entry(0), ladder.sink(0), 127)
    lengths = sorted(p.length for p in paths)
    expected = [3, 7, 15, 31, 63, 127]
    ok = lengths == expected and all(p.weight == ONE for p in paths)
    return ok, (
        f"path lengths {lengths} (expected {expected}); "
        f"weights {{{', '.join(sorted(set(fraction_str(p.weight) for p in paths)))}}} (expected all 1)"
    )


def _criterion_3() -> Tuple[bool, str]:
    """Simulated sink coordinates match the closed-form orbit predicate.

    300 steps of three orbits: the combined graph's from the source, read
    at the sinks of copies k <= 4, and those of g0 and gk(2) from their
    entries.
    """
    runs = [(ladder.make_counterexample(), range(5)), (ladder.make_g0(), (0,)), (ladder.make_gk(2), (2,))]
    mismatches = []
    checked = 0
    for graph, copies in runs:
        for n, k, got, want in ladder.sink_readings(graph, copies, range(1, 301)):
            checked += 1
            if got != want:
                mismatches.append((graph.description, k, n, got, want))
    ok = not mismatches
    return ok, (
        f"{checked} sink readings compared, {len(mismatches)} mismatches"
        + (f"; first: {mismatches[0]!r}" if mismatches else "")
    )


def _criterion_4() -> Tuple[bool, str]:
    """Path counts into every early endpoint: at most 2 paths, weight at most 2."""
    graph = ladder.make_counterexample()
    worst_count, weight_num, weight_den = 0, 0, 1
    for counts, weights, den in graphop.count_paths_levels(graph, 40, 2000):
        worst_count = max(worst_count, max(counts.values(), default=0))
        weight = max(weights.values(), default=0)
        if weight * weight_den > weight_num * den:
            weight_num, weight_den = weight, den
    worst_weight = Fraction(weight_num, weight_den)
    frozen = graphop.count_paths_to(graph, ladder.sink(0), 4, 2000)
    ok = (
        worst_count <= 2
        and worst_weight <= TWO
        and frozen == graphop.PathCount(2, TWO)
    )
    return ok, (
        f"over 2000 endpoints and lengths <= 40: max count {worst_count} (bound 2), "
        f"max weight {fraction_str(worst_weight)} (bound 2); "
        f"spot value at (V(0), length 4): {frozen.count} paths, "
        f"max weight {fraction_str(frozen.max_weight)} (frozen: 2, 2)"
    )


def _criterion_5() -> Tuple[bool, str]:
    """Source averages decay: strictly decreasing over the doubling schedule,
    ending at or below 1/20."""
    schedule = [128, 256, 512, 1024]
    values = sweeps.combined_cesaro_sup_norms(schedule)
    seq = [values[n] for n in schedule]
    ok = all(a > b for a, b in zip(seq, seq[1:])) and seq[-1] <= Fraction(1, 20)
    shown = ", ".join(f"A_{n} = {fraction_str(values[n])}" for n in schedule)
    return ok, f"{shown}; strictly decreasing, final <= 1/20"


def _criterion_6() -> Tuple[bool, str]:
    """Higher powers and the sign twist keep the window-1024 average <= 1/10."""
    bound = Fraction(1, 10)
    v2 = sweeps.combined_cesaro_sup_norms([1024], step_power=2)[1024]
    v3 = sweeps.combined_cesaro_sup_norms([1024], step_power=3)[1024]
    vm = sweeps.combined_cesaro_sup_norms([1024], factor=-1)[1024]
    ok = v2 <= bound and v3 <= bound and vm <= bound
    return ok, (
        f"square step: {fraction_str(v2)}, cube step: {fraction_str(v3)}, "
        f"sign twist: {fraction_str(vm)}; all <= 1/10"
    )


def _criterion_7() -> Tuple[bool, str]:
    """First-power block averages decay uniformly over 1000 blocks: <= 2/n."""
    pieces = []
    ok = True
    for n in (10, 100, 1000):
        dev = blockdiag.sup_deviation(1000, n, 1)
        ok = ok and dev <= Fraction(2, n)
        pieces.append(f"n={n}: {fraction_str(dev)} <= 2/{n}")
    return ok, "; ".join(pieces)


def _criterion_8() -> Tuple[bool, str]:
    """Diagonal even-power block averages stay large: b(n,n,1) >= 2/5 and
    b(n,n,2) >= 1/5 along n = 10, 100, 1000."""
    ok = True
    pieces = []
    for n in (10, 100, 1000):
        b1 = blockdiag.b_coeff(n, n, 1)
        b2 = blockdiag.b_coeff(n, n, 2)
        ok = ok and b1 >= Fraction(2, 5) and b2 >= Fraction(1, 5)
        pieces.append(f"n={n}: b1 = {float(b1):.4f}, b2 = {float(b2):.4f}")
    return ok, "; ".join(pieces) + "; bounds 2/5 and 1/5"


def _path_sums(graph, u, n_max: int) -> Dict[Tuple, Dict]:
    """Sum of path weights from u, keyed by length then endpoint.

    Explicit stack walk over out-edges: the deliberate second route that
    criterion 9 compares against ``graphop.apply``."""
    sums: Dict[int, Dict] = {n: {} for n in range(n_max + 1)}
    frames = [(u, 0, ONE)]
    while frames:
        vertex, depth, weight = frames.pop()
        level = sums[depth]
        level[vertex] = level.get(vertex, ZERO) + weight
        if depth < n_max:
            for target, w in graph.successors(vertex):
                frames.append((target, depth + 1, weight * w))
    return sums


def _criterion_9() -> Tuple[bool, str]:
    """Matrix powers, path sums and adjoint powers agree on an early window."""
    graph = ladder.make_counterexample()
    n_max = 6
    starts = graph.vertices_up_to(60)
    powers: Dict = {}
    bad = 0
    checked = 0
    for u in starts:
        x = SparseVector.unit(u)
        route_b = _path_sums(graph, u, n_max)
        for n in range(n_max + 1):
            if n:
                x = graphop.apply(graph, x)
            powers[(u, n)] = x
            expected = {v: w for v, w in route_b[n].items() if w}
            checked += 1
            if dict(x.items()) != expected:
                bad += 1
    duality_checked = 0
    paired = graph.vertices_up_to(20)
    for v in graph.vertices_up_to(30):
        y = SparseVector.unit(v)
        for n in range(5):
            if n:
                y = graphop.apply_adjoint(graph, y)
            for u in paired:
                duality_checked += 1
                if powers[(u, n)][v] != y[u]:
                    bad += 1
    ok = bad == 0
    return ok, (
        f"{checked} power/path-sum comparisons and {duality_checked} duality "
        f"pairings on the first 60 vertices, {bad} disagreements"
    )


def _criterion_10() -> Tuple[bool, str]:
    """Fixed-space certificates conclude only_zero and replay; the self-loop
    control stays inconclusive."""
    pieces = []
    ok = True
    graphs = [
        ladder.make_counterexample(),
        ladder.make_g0(),
        ladder.make_gk(1),
        ladder.make_gk(3),
    ]
    for graph in graphs:
        cert = ergodic.fixed_space_certificate(graph)
        replay = ergodic.replay_certificate(cert, graph)
        good = cert.conclusion == "only_zero" and replay.ok
        ok = ok and good
        pieces.append(f"{graph.description}: {cert.conclusion}, replay {'ok' if replay.ok else 'FAILED'}")
    loop = graphop.graph_from_edges({("u",): [(("u",), 1)]}, "self-loop control")
    cert = ergodic.fixed_space_certificate(loop)
    ok = ok and cert.conclusion == "inconclusive"
    pieces.append(f"self-loop control: {cert.conclusion}")
    return ok, "; ".join(pieces)


def _criterion_11() -> Tuple[bool, str]:
    """The doubling-subsequence sink triangle holds exactly (full simulation)."""
    values = ergodic.weak_compactness_witness(ladder.make_counterexample(), k_max=4, m_max=6)
    ok = values == [[ONE if k <= m else ZERO for k in range(5)] for m in range(7)]
    return ok, (
        "sinks 0..4 sampled at steps 2^2..2^8: "
        + ("exact 0/1 triangle" if ok else f"pattern violated: {values!r}")
    )


def _criterion_12() -> Tuple[bool, str]:
    """Closed-form block averages equal literal matrix averaging on a grid,
    entry by entry on ints by cross-multiplication."""
    bad = 0
    checked = 0
    for m in range(1, 21):
        for p in range(1, 5):
            literal = blockdiag.block_cesaro_literal(m, 64, p)
            for n, ((a, b, c, d), den) in enumerate(literal, start=1):
                checked += 1
                diagonal, off, closed_den = blockdiag.block_cesaro_entries(m, n, p)
                if not (a == d and b == c and a * closed_den == diagonal * den
                        and b * closed_den == off * den):
                    bad += 1
    ok = bad == 0
    return ok, f"{checked} grid points (m <= 20, n <= 64, p <= 4), {bad} mismatches"


#: criterion number -> (name, check, wall-clock budget in seconds)
CRITERIA: Dict[int, Tuple[str, Callable[[], Tuple[bool, str]], float]] = {
    1: ("power norms stay bounded by 4", _criterion_1, 10.0),
    2: ("entry-to-sink path lengths thin out geometrically", _criterion_2, 5.0),
    3: ("orbit sink readings match the closed-form predicate", _criterion_3, 10.0),
    4: ("at most two paths per endpoint and length, weight at most 2", _criterion_4, 30.0),
    5: ("source averages decay through the long schedule", _criterion_5, 30.0),
    6: ("higher powers and the sign twist keep averages small", _criterion_6, 60.0),
    7: ("odd-power block averages decay uniformly", _criterion_7, 5.0),
    8: ("even-power diagonal block averages stay large", _criterion_8, 5.0),
    9: ("matrix, path and adjoint routes agree", _criterion_9, 30.0),
    10: ("fixed-space certificates replay and conclude", _criterion_10, 5.0),
    11: ("sink-hit triangle blocks vanishing cluster points", _criterion_11, 60.0),
    12: ("closed-form block averages equal literal averaging", _criterion_12, 5.0),
}


def run_criterion(number: int) -> CriterionResult:
    if number not in CRITERIA:
        raise ValueError(f"no criterion {number}; known: {list(CRITERIA)}")
    name, check, budget = CRITERIA[number]
    start = time.perf_counter()
    passed, detail = check()
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start, budget)


def run_all(numbers: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    """Run the selected criteria (all by default), each once, in first-seen
    order, and return their results; printing them is the caller's job."""
    selected = list(dict.fromkeys(numbers)) if numbers is not None else list(CRITERIA)
    unknown = [n for n in selected if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; known: {list(CRITERIA)}")
    return [run_criterion(number) for number in selected]
