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
contribution of 1; only cells with j up to max(H, 4) need streams.

Cost.  Each window is swept on its own, and nothing carries over from one
window to the next, so a window's value does not depend on the rest of the
schedule.  Cell j gets at most one record per rung, about log2(H / j) of
them.  The sweep takes the cells by bit length, shortest first, and builds
a stream only when its bit length leaves room for enough records to beat
the largest suffix sum found so far.  A window reads at most 4 streams at
every factor (windows 128 to 10**20 tried, powers 1 to 3).  Bounding the
bit lengths needs one record count per bit length b and window.  A count
takes about log2(H) steps and depends only on b and the bit length `last`
of H + 2**b - 1, so a call builds it once per distinct (b, last): fewer
than (max(H, 4).bit_length() + 2)**2 counts for the schedule's largest H,
however many windows it holds.

The averaging convention is A_n = (1/n) * (x + Sx + ... + S**(n-1) x) with
S = factor * T**step_power, so A_1 is the identity.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .core import as_rational
from .ladder import rung_index

# i**r as a Gaussian int (re, im), at index r
_QUARTER_TURNS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def normalize_factor(factor) -> int:
    """The e in 0..3 with factor = i**e, for factor exactly 1, i, -1 or -i.
    A factor that is not complex goes through :func:`core.as_rational`."""
    roots = (1, 1j, -1, -1j)
    value = factor if isinstance(factor, complex) else as_rational(factor)
    if value not in roots:
        raise ValueError(f"factor must be 1, -1, i or -i, got {factor!r}")
    return roots.index(value)


def cesaro_request(schedule: Iterable[int], step_power: int, factor) -> Tuple[List[int], int]:
    """(windows, turns): ``schedule``'s distinct windows in ascending order and
    :func:`normalize_factor` (factor), as both averaging engines check them."""
    windows = sorted(set(int(n) for n in schedule))
    if not windows or windows[0] < 1:
        raise ValueError("schedule must be a nonempty collection of positive lengths")
    if step_power < 1:
        raise ValueError(f"step_power must be a positive integer, got {step_power}")
    return windows, normalize_factor(factor)


class GaussianAbs(float):
    """A float rounded from |re + i*im| / divisor that keeps those ints, so that
    :func:`ergodic.at_most` compares it with no slack."""

    __slots__ = ("re", "im", "divisor")


def gaussian_abs(re: int, im: int, den: int, n: int) -> GaussianAbs:
    """|re + i*im| / (den * n) as a float: each part rounded once by int true
    division, which cannot overflow where float(re) would, then abs and / n.
    Both averaging engines make their complex values so (:class:`GaussianAbs`)."""
    value = GaussianAbs(abs(complex(re / den, im / den)) / n)
    value.re, value.im, value.divisor = re, im, den * n
    return value


def combined_cesaro_sup_norms(
    schedule: Iterable[int], step_power: int = 1, factor: Union[Fraction, int, complex] = 1
) -> Dict[int, Union[Fraction, float]]:
    """Sup norms of Cesaro averages of factor * T**step_power at the source.

    For every n in ``schedule`` returns the sup norm of the n-th Cesaro
    average applied to the source unit vector of the combined ladder graph.
    ``factor`` is 1, -1, i or -i: exact Fractions for +-1, and for +-i the
    float :func:`gaussian_abs` makes from the largest exact sum.  Checks the
    request by :func:`cesaro_request`.
    """
    schedule, turns = cesaro_request(schedule, step_power, factor)

    # A contribution is a cell's value at engine step k turned by factor**k
    # = i**(turns*k mod 4), counted in halves (1 for a wave's 1/2, 2 for a
    # value 1), so every sum is an exact Gaussian int (re, im) over the shared
    # denominator 2.  The prune's record counts c(b) are keyed by (b, last).
    most_records: Dict[Tuple[int, int], int] = {}
    results: Dict[int, Union[Fraction, float]] = {}
    for n in schedule:
        horizon = step_power * (n - 1)
        top = max(horizon, 4)
        # The source coordinate contributes exactly 1 (two halves) at engine
        # step 0; every other single-visit cell contributes at most that much.
        best, best_sq = (2, 0), 4
        # Prune.  Cell j gets a record at t = 2**nn - j for each nn >=
        # j.bit_length() with t <= horizon and t = 0 mod step_power; j = 0
        # is the sink, where a wave dies at each power of two t >= 4 with
        # value 1.  So a cell of bit length b has at most c(b) records: the
        # most nn in [b, last) that share one residue of 2**nn mod
        # step_power.  Each record has magnitude at most two halves, so when
        # (2 * c(b))**2 <= best_sq no cell of bit length b can raise best and
        # none is built.  c(b) depends only on b, last and step_power, so
        # each distinct (b, last) is counted once per call and read back by
        # every later window.
        for b in range(top.bit_length() + 1):
            last = (horizon + (1 << b) - 1).bit_length()
            if (b, last) not in most_records:
                residues = Counter(pow(2, nn, step_power) for nn in range(b, last))
                most_records[b, last] = max(residues.values(), default=0)
            bound = 2 * most_records[b, last]
            if bound * bound <= best_sq:
                continue
            for j in range(1 << b >> 1, min(1 << b, top + 1)):
                # a wave is worth 1/2 on a rung landing and 1 elsewhere
                halves = 1 if rung_index(j) is not None else 2
                # The largest |suffix sum| of the stream, newest record
                # first.  Its copy bound nn - 2 falls strictly along the scan
                # (rises in birth order), which is what makes every suffix
                # realizable by some copy.
                re = im = 0
                kmax = last
                for nn in reversed(range(b, last)):
                    t = (1 << nn) - j
                    if t > horizon or t % step_power or t < max(3, nn + 1):
                        continue
                    if nn - 2 >= kmax:
                        raise AssertionError("copy bounds must increase along a contribution stream")
                    kmax = nn - 2
                    turn_re, turn_im = _QUARTER_TURNS[turns * (t // step_power) % 4]
                    re += turn_re * halves
                    im += turn_im * halves
                    sq = re * re + im * im
                    if sq > best_sq:
                        best, best_sq = (re, im), sq
        re, im = best
        results[n] = gaussian_abs(re, im, 2, n) if turns % 2 else Fraction(abs(re), 2 * n)
    return results
