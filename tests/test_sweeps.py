"""The structural Cesaro sweep: pinned values, batched schedules, the prune's
counts and its engine dispatch.  Its comparisons with the generic engine
and with the Fraction references are rows of tests/test_routes.py."""

import random
from fractions import Fraction

import fraction_reference as ref
import pytest

from ergolab import graphop, ladder, sweeps
from ergolab.core import ONE, SparseVector
from ergolab.ergodic import cesaro_trace, graph_handle
from ergolab.sweeps import combined_cesaro_sup_norms
from test_rejections import rejection_test


def test_long_window_values_are_frozen():
    values = combined_cesaro_sup_norms([128, 256, 512, 1024])
    assert values == {
        128: Fraction(5, 128),
        256: Fraction(3, 128),
        512: Fraction(7, 512),
        1024: Fraction(1, 128),
    }


def test_long_window_values_for_powers_and_signs():
    assert combined_cesaro_sup_norms([1024], step_power=2) == {1024: Fraction(9, 1024)}
    assert combined_cesaro_sup_norms([1024], step_power=3) == {1024: Fraction(5, 1024)}
    assert combined_cesaro_sup_norms([128, 256], factor=-1) == {128: Fraction(5, 128), 256: Fraction(3, 128)}
    assert combined_cesaro_sup_norms([1024], factor=-1) == {1024: Fraction(1, 128)}
    assert combined_cesaro_sup_norms([1024], factor=1j) == {1024: 0.0078125}


@pytest.mark.parametrize(
    "step_power,expected",
    [
        (1, {100: 0.05, 1000: 0.008, 3000: 0.0033333333333333335}),
        (3, {100: 0.03, 1000: 0.005, 3000: 0.002}),
    ],
)
def test_complex_factor_values_are_pinned_bit_for_bit(step_power, expected):
    # one float per window from the exact Gaussian sum; here the largest sum
    # lies on an axis, so each value is the float nearest an int over n
    assert combined_cesaro_sup_norms(sorted(expected), step_power, -1j) == expected


def test_batched_schedule_equals_separate_runs():
    # A dense schedule reads many windows in one call, so a window whose
    # value depends on the rest of its schedule shows here.  Floats must
    # agree to the last bit, hence == and not approx.
    schedules = [(1, [*range(1, 201), 1000, 4096]), (2, range(1, 121)), (3, range(1, 121))]
    for step_power, schedule in schedules:
        for factor in (1, -1, 1j, -1j):
            batched = combined_cesaro_sup_norms(schedule, step_power, factor)
            assert sorted(batched) == sorted(schedule)
            for n in schedule:
                single = combined_cesaro_sup_norms([n], step_power, factor)[n]
                assert single == batched[n], (step_power, factor, n)


def counts_built(monkeypatch):
    """The residue counts the sweep's prune builds, as a list that grows."""
    built = []

    class CountingCounter(sweeps.Counter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(sweeps, "Counter", CountingCounter)
    return built


def test_the_prune_counts_each_residue_shape_once_per_call(monkeypatch):
    # A bit length's record count depends only on (b, last) and the power:
    # 4096 windows share fewer than 200 of them, where counting per window
    # and bit length built 49,160.
    built = counts_built(monkeypatch)
    combined_cesaro_sup_norms(range(1, 4097))
    assert 0 < len(built) <= 200
    # The counts live for one call: a later call, at the same or another
    # power, counts its own again and gets the reference's values.
    schedule = [*range(1, 41), 1000, 4096]
    runs = []
    for step_power in (2, 3, 2):
        built.clear()
        values = combined_cesaro_sup_norms(schedule, step_power)
        assert values == ref.batched_sweep(schedule, step_power, 1), step_power
        runs.append((values, len(built)))
    assert runs[0] == runs[2] and runs[1][1] > 0


def streams_built(monkeypatch, n, step_power, factor):
    """The cells whose contribution streams a one-window sweep builds."""
    cells = []
    monkeypatch.setattr(sweeps, "rung_index", lambda j: cells.append(j) or ladder.rung_index(j))
    combined_cesaro_sup_norms([n], step_power, factor)
    return cells


def test_a_window_builds_only_the_streams_that_can_beat_its_maximum(monkeypatch):
    # the sink and cell 1 hold the most records, and from bit length 3 on no
    # cell has enough records left to beat them; +-i sum as exactly as +-1,
    # so a stream that can only tie the maximum is skipped there too
    for step_power in (1, 2, 3):
        for factor in (1, -1, 1j, -1j):
            for n in (128, 1024, 4096, 10**20):
                assert streams_built(monkeypatch, n, step_power, factor) in ([0, 1], [0, 1, 2, 3])
        for factor in (1, -1):
            assert streams_built(monkeypatch, 5, step_power, factor) == [0, 1]


def test_one_term_average_is_the_start_vector():
    for step_power in (1, 2):
        assert combined_cesaro_sup_norms([1], step_power=step_power) == {1: ONE}


def test_results_are_exact_rationals_for_exact_factors():
    for factor in (1, -1):
        for value in combined_cesaro_sup_norms([16, 64], factor=factor).values():
            assert isinstance(value, Fraction)


test_validation = rejection_test("test_validation")


def test_fast_route_is_advertised_only_for_the_combined_graph():
    # auto runs the sweep from the combined graph's source, at every power and
    # factor, and reports no supports; elsewhere, or forced, the generic engine
    # runs and reports an int support per window
    def trace(graph, start, engine, **request):
        return cesaro_trace(graph_handle(graph), SparseVector.unit(start), [4, 16], engine=engine, **request)

    combined = ladder.make_counterexample()
    plain = graphop.graph_from_edges({"a": [("b", ONE)], "b": []})
    generic = [(combined, ladder.SOURCE, "generic"), (combined, ladder.entry(0), "auto"),
               (ladder.make_g0(), ladder.entry(0), "auto"), (plain, "a", "auto")]
    for step_power in (1, 2, 3):
        for factor in (1, -1, 1j, -1j):
            fast = trace(combined, ladder.SOURCE, "auto", step_power=step_power, factor=factor)
            assert fast.engine == "fast" and [rec.support for rec in fast.records] == [None, None]
            for args in generic:
                slow = trace(*args, step_power=step_power, factor=factor)
                assert slow.engine == "generic", args
                assert all(type(rec.support) is int for rec in slow.records), args


def test_gaussian_abs_is_unchanged_by_doubling_every_part():
    # int true division rounds the exact quotient once, so re / den and
    # 2re / 2den are the same float; an orbit counting in halves of 1 / den0
    # therefore reads the same complex values as one over den0.  Parts and
    # denominators reach past the float range, as in a sum over 3**999.
    rng = random.Random(29)
    for _ in range(400):
        bits = rng.choice([8, 60, 1100])
        den = rng.randint(1, 1 << bits)
        re, im = (rng.randint(-den << 40, den << 40) for _ in range(2))
        n = rng.randint(1, 5000)
        assert sweeps.gaussian_abs(2 * re, 2 * im, 2 * den, n) == sweeps.gaussian_abs(re, im, den, n)
    big = 3**999
    assert sweeps.gaussian_abs(2 * (big - 1), 2, 2 * big, 7) == sweeps.gaussian_abs(big - 1, 1, big, 7)
