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

Window n ends at engine step n - 1, at time H = step_power * (n - 1).  A
cell at position j > max(H, 4) is visited at most once inside the window
(consecutive powers of two are too far apart), so its accumulated
magnitude is at most 1 and never exceeds the source coordinate's exact
contribution of 1; only cells with j up to max(H, 4) need streams.  (A
rounded complex power can read an ulp above 1; such cells stay out too.)

Cost.  Each window is swept on its own, and nothing carries over from one
window to the next, so a window's value does not depend on the rest of the
schedule.  Cell j gets at most one record per rung, about log2(H / j) of
them.  The sweep takes the cells by bit length, shortest first, and builds
a stream only when its bit length leaves room for enough records to beat
the largest suffix sum found so far.  At factors +1 and -1 a window reads
at most 4 streams (windows 128 to 10**20 tried), at +-i at most 16 up to
window 10**5; at 0.6 + 0.8j, whose powers never repeat, the sums cancel
and a window of 4096 reads 512 to 2048.  Bounding the bit lengths needs
one record count per bit length b and window.  A count takes about
log2(H) steps and depends only on b and the bit length `last` of
H + 2**b - 1, so a call builds it once per distinct (b, last): fewer than
(max(H, 4).bit_length() + 2)**2 counts for the schedule's largest H,
however many windows it holds.

The averaging convention is A_n = (1/n) * (x + Sx + ... + S**(n-1) x) with
S = factor * T**step_power, so A_1 is the identity.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

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

    # A contribution is a cell's value at engine step k times factor**k,
    # counted in halves (1 for a wave's 1/2, 2 for a value 1): an int for
    # exact factors, so every sum stays an int over the shared denominator
    # 2, and in double precision for complex ones, where a half is 0.5.
    lam, half = (int(factor), 1) if exact else (factor, 0.5)
    # lam**k for lam in {1, -1, i, -i} repeats with period 4; reducing k
    # keeps the power exact where complex pow would go through exp and log.
    period = 4 if lam**4 == 1 else None
    # the prune's record counts c(b), keyed by (b, last); see below
    most_records: Dict[Tuple[int, int], int] = {}
    results: Dict[int, Union[Fraction, float]] = {}
    for n in schedule:
        horizon = step_power * (n - 1)
        top = max(horizon, 4)
        # The source coordinate contributes exactly 1 (two halves) at engine
        # step 0; every other single-visit cell contributes at most that much.
        best = 2 * half
        # Prune.  Cell j gets a record at t = 2**nn - j for each nn >=
        # j.bit_length() with t <= horizon and t = 0 mod step_power; j = 0
        # is the sink, where a wave dies at each power of two t >= 4 with
        # value 1.  So a cell of bit length b has at most c(b) records: the
        # most nn in [b, last) that share one residue of 2**nn mod
        # step_power.  Each record has magnitude at most two halves, so when
        # c(b) * 2 * half <= best no cell of bit length b can raise best and
        # none is built.  A rounded complex |lam**k| exceeds max(1,
        # |lam|)**k by a few ulps and a rounded sum of c records by a few
        # ulps per record, both far below the 1e-9 slack, so with a complex
        # factor a skipped cell can never round above best.  c(b) depends
        # only on b, last and step_power, so each distinct (b, last) is
        # counted once per call and read back by every later window.
        slack = 1 if exact else (1 + 1e-9) * max(1.0, abs(lam)) ** (n - 1)
        for b in range(top.bit_length() + 1):
            last = (horizon + (1 << b) - 1).bit_length()
            if (b, last) not in most_records:
                residues = Counter(pow(2, nn, step_power) for nn in range(b, last))
                most_records[b, last] = max(residues.values(), default=0)
            bound = most_records[b, last] * 2 * half * slack
            if bound <= best:
                continue
            for j in range(1 << b >> 1, min(1 << b, top + 1)):
                # a wave is worth 1/2 on a rung landing and 1 elsewhere
                halves = 1 if rung_index(j) is not None else 2
                # The largest |suffix sum| of the stream, newest record
                # first.  Its copy bound nn - 2 falls strictly along the scan
                # (rises in birth order), which is what makes every suffix
                # realizable by some copy.
                total, kmax = 0, last
                for nn in reversed(range(b, last)):
                    t = (1 << nn) - j
                    if t > horizon or t % step_power or t < max(3, nn + 1):
                        continue
                    if nn - 2 >= kmax:
                        raise AssertionError("copy bounds must increase along a contribution stream")
                    kmax = nn - 2
                    k = t // step_power
                    total += lam ** (k % period if period else k) * (halves * half)
                    mag = abs(total)
                    if mag > best:
                        best = mag
        results[n] = Fraction(best, 2 * n) if exact else best / n
    return results


def fast_cesaro_available(graph) -> bool:
    """Whether the sweep applies to this graph (the combined ladder form)."""
    return getattr(graph, "kind", None) == "combined"
