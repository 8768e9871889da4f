"""Exact long-window Cesaro averages for the combined ladder graph.

Direct simulation of the source orbit is quadratic: after t steps the orbit
vector has on the order of t*t/2 nonzero coordinates, which puts windows of
length 1024 far out of reach of coordinate-by-coordinate arithmetic.  The
sweep here computes the same sup norms exactly, without materialising the
orbit, by exploiting three structural facts, each of which is cross-checked
against the generic engine in the test suite.

1.  Occupancy of copy 0 is rigid.  At time t >= 3 the orbit of e_S restricted
    to the source, the entry chain and copy 0 consists of the entry head (one
    coordinate, value 1), the top head (value 1), and one "wave" per rung
    taken so far, walking down the bottom chain one position per step.  Wave
    n sits at bottom position j = 2**(n+1) - t and reaches the sink exactly
    at time t = 2**(n+1) with value exactly 1.

2.  Wave values are determined by position.  The doubling weights at rung
    landing positions and the halving weights right after them telescope, so
    a wave's value at bottom position j is 1/2 when j is a rung landing
    position and 1 otherwise, independently of which rung spawned it.  The
    sweep carries these values as the numerators 1 and 2 over the shared
    denominator 2, so exact sums are int sums and a Fraction is built only
    for each reported window.

3.  Copies are suffixes of copy 0.  Copy k receives exactly the waves
    spawned by rungs n >= k+1, delayed by nothing: coordinate B(k, j) at
    time t equals the copy-0 wave contribution for each wave n with
    n - 1 >= k, and the sink V(k) fires when such a wave dies.  Hence every
    Cesaro sum over copy k is a suffix, in birth order, of the contribution
    stream of the matching copy-0 coordinate, and the copy can be recovered
    without ever materialising it.

A cell at position j > step-horizon is visited at most once inside the
window (consecutive powers of two are too far apart), so its accumulated
magnitude is at most 1 and never exceeds the source coordinate's exact
contribution of 1; only cells with j up to the horizon need streams.

Cost.  Up to a window of n_max the sweep files about 2 * n_max records,
each in constant time, into at most one stream per bottom position up to
the horizon, plus the sink's.  A stream takes at most one record per rung,
so it is at most about log2 of the horizon long (11 records at window
4096).  Building and rescanning the streams costs at most records times
that length: a window rescans only the streams that grew since the window
before.  Each read then takes the largest of one stored peak per stream, so
the reads cost windows times streams.  A one-window sweep scans each stream
once.

The averaging convention is A_n = (1/n) * (x + Sx + ... + S**(n-1) x) with
S = factor * T**step_power, so A_1 is the identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .core import ONE, as_rational
from .ladder import rung_index

Factor = Union[Fraction, int, complex]


def normalize_factor(factor) -> Union[Fraction, complex]:
    """Accept +1, -1 (exact) or a unimodular complex number."""
    if isinstance(factor, complex):
        if abs(abs(factor) - 1.0) > 1e-12:
            raise ValueError(f"factor must have modulus 1, got {factor!r}")
        return factor
    factor = as_rational(factor)
    if factor == ONE or factor == -ONE:
        return factor
    raise ValueError(f"exact factors must be 1 or -1, got {factor}; pass a complex for rotations")


def combined_cesaro_sup_norms(
    schedule: Iterable[int], step_power: int = 1, factor: Factor = 1
) -> Dict[int, Union[Fraction, float]]:
    """Sup norms of Cesaro averages of factor * T**step_power at the source.

    For every n in ``schedule`` returns the sup norm of the n-th Cesaro
    average applied to the source unit vector of the combined ladder graph.
    Exact rationals for factor +1 or -1; floats (from exact rational
    contribution streams, combined in double precision) for complex factors.
    """
    schedule = sorted(set(int(n) for n in schedule))
    if not schedule or schedule[0] < 1:
        raise ValueError("schedule must be a nonempty set of positive window lengths")
    if step_power < 1:
        raise ValueError(f"step_power must be a positive integer, got {step_power}")
    factor = normalize_factor(factor)
    exact = isinstance(factor, Fraction)

    n_max = schedule[-1]
    horizon = step_power * (n_max - 1)
    retain = max(horizon, 4)
    wanted = set(schedule)

    # streams[j] collects (max copy index, contribution) for the copy-0
    # bottom cell at position j >= 1; streams[0] is the sink's.  A
    # contribution is the cell's value at engine step k times factor**k,
    # counted in halves (1 for a wave's 1/2, 2 for a value 1): an int for
    # exact factors, so every sum stays an int over the shared denominator
    # 2, and in double precision for complex ones, where a half is 0.5.
    # The max copy index is strictly increasing along each stream, which is
    # what makes every suffix realizable by some copy.
    streams: Dict[int, List[Tuple[int, Union[int, complex]]]] = {}
    results: Dict[int, Union[Fraction, float]] = {}
    lam, half = (int(factor), 1) if exact else (factor, 0.5)
    # peaks[j] is the largest |suffix sum| of streams[j] as of the last
    # window, and grown holds the streams recorded into since then.  A
    # stream's suffix sums change only when it gets a record, so a window
    # rescans just the grown streams and reads every other peak as stored.
    # peaks[-1] is the source coordinate, which contributes exactly 1 (two
    # halves) at engine step 0; every other single-visit cell contributes at
    # most that much.
    peaks: Dict[int, Union[int, float]] = {-1: 2 * half}
    grown: Dict[int, List[Tuple[int, Union[int, complex]]]] = {}

    def record(j: int, kmax: int, weight, halves: int) -> None:
        stream = streams.setdefault(j, [])
        if stream and stream[-1][0] >= kmax:
            raise AssertionError("copy bounds must increase along a contribution stream")
        stream.append((kmax, weight * (halves * half)))
        grown[j] = stream

    def evaluate(n_eval: int) -> Union[Fraction, float]:
        for j, stream in grown.items():
            best = total = 0
            for _, contribution in reversed(stream):
                total += contribution
                mag = abs(total)
                if mag > best:
                    best = mag
            peaks[j] = best
        grown.clear()
        best = max(peaks.values())
        return Fraction(best, 2 * n_eval) if exact else best / n_eval

    for k in range(n_max):
        t = step_power * k
        weight = lam**k
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


def fast_cesaro_available(graph) -> bool:
    """Whether the sweep applies to this graph (the combined ladder form)."""
    return getattr(graph, "kind", None) == "combined"
