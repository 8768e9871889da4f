"""Exact scalar and sparse vector behaviour.  The closed form against the
literal sum is a row of tests/test_routes.py."""

import itertools
from fractions import Fraction

import pytest

from ergolab.core import (
    SparseVector,
    as_rational,
    cesaro_geometric,
    cesaro_geometric_sum,
    fraction_str,
)
from test_rejections import rejection_test


@pytest.mark.parametrize(
    "a,p,n,expected",
    [
        (Fraction(1, 2), 2, 2, Fraction(5, 8)),
        (Fraction(1), 1, 2, Fraction(0)),
        (Fraction(1), 2, 5, Fraction(1)),
        (Fraction(0), 1, 7, Fraction(1, 7)),
        (Fraction(0), 3, 1, Fraction(1)),
    ],
)
def test_cesaro_geometric_frozen_values(a, p, n, expected):
    assert cesaro_geometric(a, p, n) == expected
    assert cesaro_geometric_sum(a, p, n) == expected


def test_cesaro_geometric_odd_power_decay():
    """For odd p the average is at most 2/n in absolute value."""
    for num in range(0, 11):
        a = Fraction(num, 10)
        for p in (1, 3, 5):
            for n in (1, 2, 3, 5, 10, 33):
                assert abs(cesaro_geometric(a, p, n)) <= Fraction(2, n)


def test_cesaro_geometric_even_power_no_decay():
    # the decay bound genuinely fails for even powers
    assert cesaro_geometric(Fraction(99, 100), 2, 100) > Fraction(2, 100)

test_cesaro_geometric_domain_errors = rejection_test("test_cesaro_geometric_domain_errors")


def test_as_rational_rejects_floats():
    # the TypeError for a float is a row of test_rejections.py
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(2) == Fraction(2)


def test_sparse_vector_never_stores_zeros():
    v = SparseVector({0: 1, 1: 0, 2: Fraction(1, 3), 3: "0/5"})
    assert dict(v.items()) == {0: 1, 2: Fraction(1, 3)}
    # __getitem__ never raises, so without __iter__ iteration (and `in`)
    # would read v[0], v[1], ... forever; the islice makes that fail at once
    assert list(itertools.islice(iter(v), 5)) == [0, 2]
    assert len(v) == 2 and 1 not in v and v[1] == 0
    assert not SparseVector({5: 0})


def test_sparse_vector_algebra():
    v = SparseVector({0: Fraction(1, 2), 3: -2})
    assert v.scale(-2) == SparseVector({0: -1, 3: 4})
    assert v.scale(0) == SparseVector()
    assert SparseVector.unit("x")["x"] == 1
    assert SparseVector.unit("x") != "x"  # not a vector: __eq__ leaves it to str


def test_norms_and_pairing():
    v = SparseVector({0: Fraction(1, 2), 1: -2, 9: Fraction(3, 4)})
    assert v.sup_norm() == 2
    assert SparseVector().sup_norm() == 0


def test_fraction_str():
    assert fraction_str(Fraction(3, 4)) == "3/4"
    assert fraction_str(Fraction(8, 4)) == "2"
    assert fraction_str(Fraction(-1, 2)) == "-1/2"
    assert fraction_str(-3) == "-3"


def test_fraction_str_handles_very_long_fractions():
    import sys

    limit = sys.get_int_max_str_digits()
    text = fraction_str(Fraction(10**6000 + 1, 7))
    assert text.endswith("/7")
    assert len(text) > 6000
    assert sys.get_int_max_str_digits() == limit  # the cap is restored


def test_fraction_str_beyond_the_digit_cap_leaves_the_interpreter_alone(monkeypatch):
    import sys

    limit = sys.get_int_max_str_digits()

    def refuse(_):
        raise AssertionError("fraction_str changed the interpreter's digit cap")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    numerator = 10**5000 + 1
    text = fraction_str(Fraction(-numerator, 3))
    assert text == "-1" + "0" * 4999 + "1/3"
    assert fraction_str(Fraction(3, numerator)) == "3/1" + "0" * 4999 + "1"
    assert sys.get_int_max_str_digits() == limit
