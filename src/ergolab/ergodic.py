"""Cesaro averaging engines, convergence checks and fixed-space certificates.

The functions here treat an operator abstractly through a handle that
applies one step, and compute Cesaro averages

    A_n x = (1/n) * (x + Tx + ... + T**(n-1) x)

in a single incremental pass.  :func:`cesaro_trace` is the one entry point
for averages of S = factor * T**step_power: it checks the factor, builds
T's orbit once and picks the engine.  For the combined ladder graph started
at its source, the generic pass that adds every orbit vector into a running
sum adds about t**3/6 cells by window t, so it hands those averages to the
exact structural sweep in :mod:`ergolab.sweeps`; the two engines are
verified against each other in the tests, and ``engine="generic"`` forces
the generic one there.
On the ladder graphs at power 1 with factor +1 or -1 the generic engine
sums in the orbit's moving frame (:meth:`ladder.LadderOrbit.accumulate`),
paying per orbit event rather than per orbit cell and step.  The rotation
check compares one record of a trace with a threshold.

The certificate machinery addresses the other half of mean ergodicity.  An
average of powers can only converge to 0 for every start vector if no
nonzero functional is fixed by the transposed action; ``y`` is such a
functional when y_u equals the weighted sum of y over the successors of u.
For the ladder graphs this is ruled out symbolically (sinks force 0, zero
climbs the bottom chains, summability kills the constant top and entry
chains), and the resulting derivation is replayable against the graph
oracles step by step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import graphop, ladder, sweeps
from .core import ONE, SparseVector, as_rational
from .graphop import C0Graph, Vertex


class BudgetExceeded(RuntimeError):
    """Raised when an averaging pass outgrows its configured support cap.

    ``window`` is the window being accumulated, ``support`` the running
    sum's support there and ``cap`` the cap it exceeded.
    """

    def __init__(self, window: int, support: int, cap: int):
        super().__init__(f"support {support} exceeded cap {cap} at window {window}")
        self.window = window
        self.support = support
        self.cap = cap


class OperatorHandle:
    """One-step access to an operator on finitely supported vectors.

    ``graph`` links back to a graph presentation when one exists; averages
    then step the graph's own exact orbit state (:meth:`C0Graph.orbit`), at
    every factor 1, -1, i and -i, and the structural fast sweep becomes
    available.  Without a graph, averages step ``apply`` and take the
    factors +1 and -1 only.
    """

    __slots__ = ("apply", "description", "graph")

    def __init__(
        self,
        apply: Callable[[SparseVector], SparseVector],
        description: str = "",
        graph: Optional[C0Graph] = None,
    ):
        self.apply = apply
        self.description = description
        self.graph = graph


def graph_handle(graph: C0Graph) -> OperatorHandle:
    """Handle for the operator presented by a weighted graph."""
    return OperatorHandle(
        apply=lambda x: graphop.apply(graph, x),
        description=graph.description or "graph operator",
        graph=graph,
    )


def _running_sums(orbit, windows: Sequence[int], step_power: int = 1, turns: int = 0,
                  max_support: Optional[int] = None):
    """Yield (n, re, im, den) for each n of the ascending ``windows``, in one pass.

    ``(re[key] + i * im[key]) / den`` is the entry of x + Sx + ... +
    S**(n-1) x, where x is the ``orbit``'s current vector and S = i**turns *
    T**step_power.  The k-th term steps the orbit ``step_power`` times; its
    turn i**(turns * k mod 4) adds its int numerators to ``re`` or ``im``,
    with a sign.  Both dicts are updated in place and rescaled when the
    orbit's den widens.  Raises :class:`BudgetExceeded` when the keys
    outgrow ``max_support``.  Stepping a :class:`graphop.PushOrbit`, this is
    the deliberate second route for the ladder graphs' moving-frame sums
    (:meth:`ladder.LadderOrbit.accumulate`): the tests compare the two.
    """
    re: dict = {}
    im: dict = {}
    wanted = set(windows)
    den = orbit.den
    for k in range(1, windows[-1] + 1):
        if k > 1:
            for _ in range(step_power):
                orbit.step()
        if orbit.den != den:
            f = orbit.den // den
            for sums in (re, im):
                for key in sums:
                    sums[key] *= f
            den = orbit.den
        r = turns * (k - 1) % 4
        sums = im if r & 1 else re
        get = sums.get
        pairs = orbit.items() if r < 2 else ((key, -a) for key, a in orbit.items())
        for key, value in pairs:
            sums[key] = get(key, 0) + value
        if k > 1 and max_support is not None:
            support = len(re.keys() | im.keys()) if im else len(re)
            if support > max_support:
                raise BudgetExceeded(k, support, max_support)
        if k in wanted:
            yield k, re, im, den


def _sup_and_support(re, im, den, n, exact) -> Tuple[Union[Fraction, float], int]:
    """Sup norm of (re + i * im) / (den * n), and the number of nonzero entries:
    a Fraction for +-1 (``exact``), else the float :func:`sweeps.gaussian_abs`
    makes from the entry of largest re**2 + im**2."""
    pairs = [(re.get(key, 0), im.get(key, 0)) for key in re.keys() | im.keys()]
    nonzero = [(a, b) for a, b in pairs if a or b]
    a, b = max(nonzero, key=lambda z: z[0] * z[0] + z[1] * z[1], default=(0, 0))
    return (Fraction(abs(a), den * n) if exact else sweeps.gaussian_abs(a, b, den, n)), len(nonzero)


class TraceRecord(NamedTuple):
    n: int
    sup_norm: Fraction
    support: Optional[int]


class CesaroTrace:
    """Sup norms (and support sizes when available) of A_n x along a schedule.

    ``engine`` names the engine that ran: "fast" or "generic".
    """

    __slots__ = ("records", "engine")

    def __init__(self, records: List[TraceRecord], engine: str):
        self.records = records
        self.engine = engine

    def norms(self) -> Dict[int, Fraction]:
        return {rec.n: rec.sup_norm for rec in self.records}


def cesaro_trace(
    op: OperatorHandle,
    x: SparseVector,
    schedule: Sequence[int],
    max_support: Optional[int] = None,
    engine: str = "auto",
    step_power: int = 1,
    factor=ONE,
) -> CesaroTrace:
    """Record sup norms of the Cesaro averages of S = factor * T**step_power.

    For every n in the schedule, the sup norm of A_n x with S in place of T,
    in one pass.  ``factor`` is 1, -1, i or -i; every sum is exact, and at
    +-i the value is one float that keeps its exact sum
    (:func:`sweeps.gaussian_abs`); :func:`sweeps.cesaro_request` checks the
    request, as for the sweep.  engine
    "auto" uses the exact structural sweep, and reports engine "fast", when
    the handle is the combined ladder graph started at the source;
    "generic" forces the generic engine, the sweep's deliberate second
    route: the tests and the benchmark's output checks compare the two on
    shared windows.

    The generic engine builds T's exact orbit once: the graph's own orbit
    state (:meth:`C0Graph.orbit`), or on a handle without a graph an
    :class:`_ApplyOrbit` over ``op.apply``, which takes exact factors only.
    On a ladder graph at step_power 1 with factor +1 or -1 and no
    ``max_support``, it sums in the orbit's moving frame
    (:meth:`ladder.LadderOrbit.accumulate`).  Every other case, capped runs
    included, takes the step-by-step pass (:func:`_running_sums`), which
    over :class:`graphop.PushOrbit` is the moving-frame sums' deliberate
    second route.  Both report the support of the sum as an int.  Raises
    :class:`BudgetExceeded` when the running sum outgrows ``max_support``.
    """
    wanted, turns = sweeps.cesaro_request(schedule, step_power, factor)
    if engine not in ("auto", "generic"):
        raise ValueError(f"unknown engine {engine!r}")
    if (
        engine == "auto"
        and isinstance(op.graph, ladder.LadderGraph)
        and op.graph.copy_index is None
        and x == SparseVector.unit(ladder.SOURCE)
    ):
        values = sweeps.combined_cesaro_sup_norms(wanted, step_power, factor)
        records = [TraceRecord(n, values[n], None) for n in wanted]
        return CesaroTrace(records, "fast")
    exact = turns % 2 == 0
    if op.graph is not None:
        orbit = op.graph.orbit(*graphop.int_vector(x))
    elif exact:
        orbit = _ApplyOrbit(op.apply, x)
    else:
        raise ValueError("complex factors need a graph-backed handle")
    if isinstance(orbit, ladder.LadderOrbit) and step_power == 1 and exact and max_support is None:
        records = [TraceRecord(*reading) for reading in orbit.accumulate(wanted, 1 - turns)]
    else:
        records = [
            TraceRecord(k, *_sup_and_support(re, im, den, k, exact))
            for k, re, im, den in _running_sums(orbit, wanted, step_power, turns, max_support)
        ]
    return CesaroTrace(records, "generic")


class _ApplyOrbit:
    """The orbit of x under a plain ``apply``: Fraction entries over den 1."""

    __slots__ = ("apply", "x")
    den = 1

    def __init__(self, apply: Callable[[SparseVector], SparseVector], x: SparseVector):
        self.apply = apply
        self.x = x

    def step(self) -> None:
        self.x = self.apply(self.x)

    def items(self):
        return self.x.items()


class CheckResult(NamedTuple):
    """Outcome of a single boundedness check on a Cesaro average."""

    passed: bool
    value: Union[Fraction, float]
    threshold: Fraction
    n: int
    detail: str
    engine: str


def at_most(value: Union[Fraction, float], bound: Fraction) -> bool:
    """value <= bound, with no slack.  A :class:`sweeps.GaussianAbs` compares
    its exact sum: |re + i*im| / scale <= bound iff bound >= 0 and
    re**2 + im**2 <= (bound * scale)**2."""
    if isinstance(value, sweeps.GaussianAbs):
        return bound >= 0 and value.re**2 + value.im**2 <= (bound * value.scale) ** 2
    return value <= bound


def scalar_rotation_check(
    op: OperatorHandle,
    x: SparseVector,
    factor,
    n: int,
    threshold,
    engine: str = "auto",
) -> CheckResult:
    """Check the n-th Cesaro average of factor * T at x, factor 1, -1, i or -i.

    Both engines sum exactly.  At +-i (graph-backed handles only) the value
    is one float, and the threshold is compared with the exact sum it was
    rounded from (:func:`at_most`).
    """
    threshold = as_rational(threshold)
    trace = cesaro_trace(op, x, [n], engine=engine, factor=factor)
    (record,) = trace.records
    return CheckResult(
        passed=at_most(record.sup_norm, threshold),
        value=record.sup_norm,
        threshold=threshold,
        n=n,
        detail=f"window {n} of {factor} * {op.description}",
        engine=trace.engine,
    )


def weak_compactness_witness(graph: C0Graph, k_max: int, m_max: int) -> List[List[Fraction]]:
    """Read the sinks of the combined graph along the doubling subsequence.

    Steps the full orbit of the source vector out to 2**(m_max+2) steps
    and reads the sinks at the checkpoints 2**(m+2) only
    (:func:`ladder.sink_readings`: exact arithmetic on the graph's edges,
    none of the sweep's closed forms); it returns the rows values[m][k]:
    the coordinate of T**(2**(m+2)) e_S at V(k), for m <= m_max and
    k <= k_max.  When they form the triangle (1 exactly for k <= m, 0
    above), every pointwise limit of the subsequence is 1 on all tested
    sinks, so no subsequence of the orbit can settle down inside the space
    of sequences vanishing at infinity.  Raises ValueErrors for a negative
    k_max or m_max and for a standalone copy, which has no source.
    """
    if k_max < 0 or m_max < 0:
        raise ValueError("k_max and m_max must be nonnegative")
    if graph.copy_index is not None:
        raise ValueError(f"the witness needs the combined graph, not copy {graph.copy_index}")
    checkpoints = [1 << (m + 2) for m in range(m_max + 1)]
    readings = ladder.sink_readings(graph, range(k_max + 1), checkpoints)
    got = [value for _, _, value, _ in readings]  # in (n, k) order
    return [got[i:i + k_max + 1] for i in range(0, len(got), k_max + 1)]


# ---------------------------------------------------------------------------
# fixed-space certificates

COVERAGE = 200  # enumerated vertices a replay checks against the step that covers each
RULES = ("sink", "chain_to_zero", "null_class", "substitution")


class DerivationStep:
    """One rule application: every vertex of a family is forced to zero.

    ``label`` names the family, ``members`` tests membership in it,
    ``samples`` are the concrete representatives a replay checks, and
    ``infinite`` states whether each equality class inside the family is
    infinite (the summability argument needs that).

    rule "sink": the vertex has no out-edges, so the fixed-functional
        equation reads y = 0 directly.
    rule "chain_to_zero": the vertex has a single out-edge, to an already
        zeroed vertex or to a family member of smaller enumeration index,
        so strong induction on the index zeroes the whole family.
    rule "null_class": the out-edges split into already zeroed targets and
        exactly one weight-1 edge deeper into the same family, so all
        members of the (infinite) class carry one common value; a summable
        functional cannot be a nonzero constant on an infinite set.
    rule "substitution": every out-edge points at an already zeroed vertex.
    """

    __slots__ = ("rule", "label", "members", "samples", "infinite")

    def __init__(self, rule: str, label: str, members: Callable[[Vertex], bool],
                 samples: Sequence[Vertex], infinite: bool = False):
        self.rule = rule
        self.label = label
        self.members = members
        self.samples = tuple(samples)
        self.infinite = infinite


class FixedSpaceCertificate:
    """Replayable derivation that the transposed action fixes only zero.

    The fixed functionals in question live on the summable side: y is fixed
    when y_u = sum of w(u, v) * y_v over the out-edges of u.  conclusion is
    "only_zero" when the derivation discharges every vertex, otherwise
    "inconclusive".
    """

    __slots__ = ("steps", "conclusion")

    def __init__(self, steps: List[DerivationStep], conclusion: str):
        self.steps = steps
        self.conclusion = conclusion


def _tag_step(rule: str, tag: str, label: str, samples, infinite=False) -> DerivationStep:
    """A step over every vertex tagged ``tag``."""
    return DerivationStep(rule, label, lambda v: v[0] == tag, samples, infinite)


def _ladder_certificate(graph: ladder.LadderGraph) -> FixedSpaceCertificate:
    """The symbolic derivation for a ladder graph, from the fixed-functional relations

        y[V(k)] = 0
        y[B(k,j)] = bottom_weight(j) * y[B(k,j-1)]
        y[T(k,n)] = y[T(k,n+1)] + (1/2) * y[B(k, rung_position(n))]

    and, at the entries, y[E(k)] = y[E(k+1)] + y[T(k,k+1)] and y[S] = y[E(0)]
    on the combined graph, y[E(k)] = y[T(k,k+1)] on a standalone copy.
    """
    combined = graph.copy_index is None
    k = 0 if combined else graph.copy_index
    ks = (0, 1, 3) if combined else (k,)
    each = " for all k >= 0" if combined else f" for k = {k}"
    steps = [
        _tag_step("sink", "V", "V(k)" + each, [ladder.sink(i) for i in ks]),
        _tag_step("chain_to_zero", "B", "B(k,j), j >= 1" + each,
                  [ladder.bottom(i, j) for i in ks for j in (1, 2, 5, 11)]),
        _tag_step("null_class", "T",
                  "T(k,n), n >= k+1" + (", one infinite class per k" if combined else each),
                  [ladder.top(i, i + 1 + d) for i in ks for d in (0, 1, 3)], infinite=True),
    ]
    if combined:
        steps.append(_tag_step("null_class", "E", "E(k), k >= 0, one infinite class",
                               [ladder.entry(i) for i in (0, 1, 4)], infinite=True))
        steps.append(_tag_step("substitution", "S", "the source S", [ladder.SOURCE]))
    else:
        steps.append(_tag_step("substitution", "E", f"the entry vertex E({k})", [ladder.entry(k)]))
    return FixedSpaceCertificate(steps, "only_zero")


def _finite_certificate(graph: C0Graph) -> FixedSpaceCertificate:
    vertices = graph.finite_vertices
    assert vertices is not None
    zeroed: set = set()
    steps: List[DerivationStep] = []
    changed = True
    while changed:
        changed = False
        for u in vertices:
            if u in zeroed:
                continue
            out = graph.successors(u)
            if all(v in zeroed for v, _ in out):
                zeroed.add(u)
                steps.append(DerivationStep("sink" if not out else "substitution",
                                            f"vertex {u!r}", lambda v, _u=u: v == _u, (u,)))
                changed = True
    conclusion = "only_zero" if all(u in zeroed for u in vertices) else "inconclusive"
    return FixedSpaceCertificate(steps, conclusion)


def fixed_space_certificate(graph: C0Graph) -> FixedSpaceCertificate:
    """Derive triviality of the transposed fixed space, when possible.

    A :class:`ladder.LadderGraph` gets the symbolic derivation; a finite
    graph gets a concrete substitution fixpoint.  Anything else is reported
    inconclusive rather than guessed at.
    """
    if isinstance(graph, ladder.LadderGraph):
        return _ladder_certificate(graph)
    if graph.finite_vertices is not None:
        return _finite_certificate(graph)
    return FixedSpaceCertificate([], "inconclusive")


class ReplayReport:
    """Outcome of replaying a certificate against the graph oracles."""

    __slots__ = ("ok", "issues", "coverage_checked")

    def __init__(self, issues: List[str], coverage_checked: int):
        self.ok = not issues
        self.issues = issues
        self.coverage_checked = coverage_checked


def _premise_issues(step: DerivationStep, u: Vertex, graph: C0Graph,
                    zeroed: Callable[[Vertex], bool]) -> List[str]:
    """The issues with ``step``'s premise at the vertex u and its out-edges;
    ``zeroed`` tells the vertices that earlier steps zeroed."""
    fam = step.label
    try:
        out = graph.successors(u)
    except (ValueError, KeyError) as exc:
        return [f"{fam}: oracle rejected vertex {u!r}: {exc}"]
    if step.rule == "sink":
        return [f"{fam}: vertex {u!r} has out-edges"] if out else []
    if step.rule == "substitution":
        bad = [v for v, _ in out if not zeroed(v)]
        return [f"{fam}: vertex {u!r} has non-zeroed targets {bad!r}"] if bad else []
    if step.rule == "null_class":
        deeper = [(v, w) for v, w in out if not zeroed(v)]
        if len(deeper) != 1 or deeper[0][1] != ONE or not step.members(deeper[0][0]):
            return [f"{fam}: vertex {u!r} does not step to a single same-class "
                    f"weight-1 successor (got {deeper!r})"]
        return []
    if len(out) != 1:  # rule "chain_to_zero"
        return [f"{fam}: vertex {u!r} is not single-exit"]
    v = out[0][0]
    if zeroed(v):
        return []
    if not step.members(v):
        return [f"{fam}: vertex {u!r} leaves the family at {v!r}"]
    try:
        descends = graph.index_of_vertex(v) < graph.index_of_vertex(u)
    except (ValueError, KeyError) as exc:
        return [f"{fam}: no index to descend by at {u!r}: {exc}"]
    return [] if descends else [f"{fam}: vertex {u!r} steps to {v!r}, whose index is not smaller"]


def replay_certificate(cert: FixedSpaceCertificate, graph: C0Graph) -> ReplayReport:
    """Re-check every derivation step of a certificate against the graph.

    Each rule's premise is a check of one vertex and its out-edges through
    the successor oracle, run in derivation order (so "already zeroed"
    means zeroed by an earlier step).  For graphs with an enumeration, a
    step checks its premise at each of the first ``COVERAGE`` vertices that
    its family holds and no earlier step did, and at its samples, which
    test the family beyond that prefix; a vertex no step holds is an issue.
    A step with an unknown rule, or with no samples, is one issue, and so is
    a "null_class" step over a finite class.
    """
    done: List[DerivationStep] = []

    def zeroed(v: Vertex) -> bool:
        return any(step.members(v) for step in done)

    claimed = cert.conclusion == "only_zero" and graph._enumerate is not None
    pending = {v: i for i, v in enumerate(graph.vertices_up_to(COVERAGE if claimed else 0))}
    coverage = len(pending)
    issues: List[str] = []
    for step in cert.steps:
        held = [v for v in pending if step.members(v)]
        for v in held:
            del pending[v]
        if step.rule not in RULES:
            issues.append(f"unknown rule {step.rule!r}")
        elif not step.samples:
            issues.append(f"{step.label}: no samples to check the {step.rule} premise at")
        else:
            if step.rule == "null_class" and not step.infinite:
                issues.append(f"{step.label}: null_class needs an infinite class")
            for u in dict.fromkeys((*step.samples, *held)):
                issues += _premise_issues(step, u, graph, zeroed)
        done.append(step)
    issues += [f"vertex {v!r} (index {i}) not covered by any step" for v, i in pending.items()]
    return ReplayReport(issues, coverage)
