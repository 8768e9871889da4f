"""Acceptance suite: one test per criterion, each printing its summary line.

Every criterion must both pass and finish inside its wall-clock budget.
Run with ``pytest -v tests/test_acceptance.py`` or ``ergolab verify``.
"""

import pytest

from ergolab import acceptance, blockdiag, ergodic, graphop, ladder
from ergolab.core import ONE, SparseVector


def _run_criterion(number: int):
    result = acceptance.run_criterion(number)
    print(result.line())
    assert result.passed, result.line()
    assert result.elapsed < result.budget, result.line()


def test_criterion_01_truncated_power_norms():
    _run_criterion(1)


def test_criterion_02_entry_to_sink_paths():
    _run_criterion(2)


def test_criterion_03_orbit_predicate():
    _run_criterion(3)


def test_criterion_04_path_count_bounds():
    _run_criterion(4)


def test_criterion_05_long_window_decay():
    _run_criterion(5)


def test_criterion_06_powers_and_signs_decay():
    _run_criterion(6)


def test_criterion_07_odd_power_uniform_decay():
    _run_criterion(7)


def test_criterion_08_diagonal_lower_bounds():
    _run_criterion(8)


def test_criterion_09_power_action_against_path_sums():
    _run_criterion(9)


def test_criterion_10_fixed_space_certificates():
    _run_criterion(10)


def test_criterion_11_sink_hit_triangle():
    _run_criterion(11)


def test_criterion_12_closed_form_versus_literal():
    _run_criterion(12)


def test_criteria_9_and_12_report_their_frozen_counts():
    assert acceptance.run_criterion(9).detail == (
        "420 power/path-sum comparisons and 3000 duality pairings on the first 60 vertices, "
        "0 disagreements"
    )
    assert acceptance.run_criterion(12).detail == (
        "5120 grid points (m <= 20, n <= 64, p <= 4), 0 mismatches"
    )


def test_criterion_3_sees_one_wrong_sink_prediction(monkeypatch):
    predicate = ladder.orbit_predicate  # the combined graph's V(4) first reads 1 at step 64: predict 0 there
    monkeypatch.setattr(ladder, "orbit_predicate",
                        lambda index, k, n: 0 if (index, k, n) == (None, 4, 64) else predicate(index, k, n))
    result = acceptance.run_criterion(3)
    assert (result.passed, result.detail) == (False, "2100 sink readings compared, 1 mismatches; "
                                              "first: ('combined ladder graph', 4, 64, Fraction(1, 1), 0)")


CRITERION_9_ONE_WRONG = ("420 power/path-sum comparisons and 3000 duality pairings on the first 60 vertices, "
                         "1 disagreements")


def test_criterion_9_sees_one_wrong_path_sum(monkeypatch):
    path_sums = acceptance._path_sums

    def perturbed(graph, u, n_max):
        sums = path_sums(graph, u, n_max)
        if u == ladder.SOURCE:
            sums[2][ladder.entry(5)] = ONE  # two steps from S reach E(1), never E(5)
        return sums

    monkeypatch.setattr(acceptance, "_path_sums", perturbed)
    result = acceptance.run_criterion(9)
    assert (result.passed, result.detail) == (False, CRITERION_9_ONE_WRONG)


def test_criterion_9_sees_one_wrong_adjoint_entry(monkeypatch):
    adjoint, calls = graphop.apply_adjoint, []

    def perturbed(graph, y):  # the fourth call is T*^4 e_S, which is 0; it reads 1 at S
        calls.append(y)
        return SparseVector({ladder.SOURCE: ONE}) if len(calls) == 4 else adjoint(graph, y)

    monkeypatch.setattr(graphop, "apply_adjoint", perturbed)
    result = acceptance.run_criterion(9)
    assert (result.passed, result.detail) == (False, CRITERION_9_ONE_WRONG)


@pytest.mark.parametrize("entry", range(4), ids="abcd")
def test_criterion_12_sees_one_wrong_literal_entry(monkeypatch, entry):
    # each of the four entries of [[a, b], [c, d]] is compared, the symmetric
    # pairs a, d and b, c included
    literal = blockdiag.block_cesaro_literal

    def perturbed(m, n_max, p):
        rows = literal(m, n_max, p)
        if (m, p) == (7, 2):
            entries, den = rows[4]
            rows[4] = (tuple(e + (i == entry) for i, e in enumerate(entries)), den)
        return rows

    monkeypatch.setattr(blockdiag, "block_cesaro_literal", perturbed)
    result = acceptance.run_criterion(12)
    assert not result.passed
    assert result.detail.endswith(", 1 mismatches")


def test_criterion_11_reports_its_frozen_triangle():
    assert acceptance.run_criterion(11).detail == (
        "sinks 0..4 sampled at steps 2^2..2^8: exact 0/1 triangle"
    )


def test_criterion_11_sees_one_wrong_witness_entry(monkeypatch):
    witness = ergodic.weak_compactness_witness

    def perturbed(graph, k_max, m_max):
        values = witness(graph, k_max, m_max)
        values[3][4] += 1  # a 0 above the diagonal reads 1
        return values

    monkeypatch.setattr(ergodic, "weak_compactness_witness", perturbed)
    result = acceptance.run_criterion(11)
    assert result.passed is False
    values = witness(ladder.make_counterexample(), 4, 6)
    values[3][4] += 1
    assert result.detail == f"sinks 0..4 sampled at steps 2^2..2^8: pattern violated: {values!r}"
