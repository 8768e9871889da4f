"""Block averages on ints, averaging coefficients and deviation sweeps.  The
argmax rule against the full scan of every block is the deviation_argmaxes
row of tests/test_routes.py."""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from ergolab.blockdiag import (
    a_coeff,
    b_coeff,
    block_cesaro_entries,
    block_cesaro_literal,
    block_deviation,
    block_deviation_float,
    deviation_argmax,
    sup_deviation,
)
from ergolab.core import HALF, cesaro_geometric_pair
from test_rejections import rejection_test


def test_blocks_split_along_the_projections():
    # the second literal average is (I + B**p)/2, so B**p = U + (-a_m)**p V:
    # diagonal (1 + (-a_m)**p)/2 and off-diagonal (1 - (-a_m)**p)/2
    for m in range(1, 30):
        for p in (1, 2, 3):
            (total, den) = block_cesaro_literal(m, 2, p)[1]
            d = den // 2
            power = (total[0] - d, total[1], total[2], total[3] - d)
            r = (-a_coeff(m)) ** p
            assert [Fraction(e, d) for e in power] == [(1 + r) / 2, (1 - r) / 2, (1 - r) / 2, (1 + r) / 2]


def test_blocks_are_doubly_stochastic():
    # every literal average: rows and columns sum to its denominator
    for m in (1, 2, 3, 10, 97):
        for p in range(1, 5):
            for (a, b, c, d), den in block_cesaro_literal(m, 24, p):
                assert a + b == c + d == a + c == b + d == den, (m, p)


def block_average(m, n, p):
    """(diagonal, off) of block_cesaro_entries as Fractions."""
    diagonal, off, den = block_cesaro_entries(m, n, p)
    return Fraction(diagonal, den), Fraction(off, den)


def test_block_cesaro_frozen_values():
    # U + c V has diagonal (1 + c)/2 and off-diagonal (1 - c)/2
    assert block_average(2, 2, 2) == (Fraction(13, 16), Fraction(3, 16))  # c = 5/8
    assert block_average(1, 7, 1) == (Fraction(4, 7), Fraction(3, 7))  # c = 1/7
    assert block_average(1, 1, 1) == (1, 0)  # the one-term average is the identity


def test_block_cesaro_literal_denominators_and_domain():
    # the literal route against the closed form is a row of tests/test_routes.py
    for m in range(1, 9):
        for p in range(1, 4):
            dens = [den for _, den in block_cesaro_literal(m, 24, p)]
            assert dens == [(2 * m) ** (p * (n - 1)) * n for n in range(1, 25)], (m, p)
    assert block_cesaro_literal(3, 1, 2) == [((1, 0, 0, 1), 1)]  # its domain errors are rows of test_rejections.py


def test_diagonal_coefficients_stay_bounded_below():
    # the m = n diagonal refuses to converge to zero
    for n in (2, 5, 10, 50, 200, 1000):
        assert b_coeff(n, n, 1) >= Fraction(2, 5)
        assert b_coeff(n, n, 2) >= Fraction(1, 5)


def test_sup_deviation_values():
    assert sup_deviation(1000, 2, 1) == HALF
    for p in (1, 2, 3):
        assert sup_deviation(50, 1, p) == 1
    for n in (10, 100):
        assert sup_deviation(1000, n, 1) == Fraction(1, n)


def test_block_deviation_closed_form_matches_the_matrix_norm():
    """|cesaro_geometric(a_m, p, n)| against the max row sum of the literal
    average minus U, on the literal route's ints."""
    windows = (1, 2, 7, 100)
    for m in range(1, 61):
        for p in range(1, 5):
            literal = block_cesaro_literal(m, max(windows), p)
            for n in windows:
                (a, b, c, d), den = literal[n - 1]
                # (average - U) has entries (2e - den) / (2 den)
                row_sum = max(abs(2 * a - den) + abs(2 * b - den), abs(2 * c - den) + abs(2 * d - den))
                assert block_deviation(m, n, p) == Fraction(row_sum, 2 * den), (m, n, p)
                if p % 2 == 0:  # b_coeff is the V-coefficient of even-power averages
                    assert Fraction(2 * a - den, den) == b_coeff(m, n, p // 2), (m, n, p)


def test_sup_deviation_float_tracks_exact():
    for n in (3, 10, 64):
        for p in (1, 2):
            exact = float(sup_deviation(200, n, p))
            approx = deviation_argmax(block_deviation_float, 200, n, p)[1]
            assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


FLOAT_REL_ERR = 1e-14  # the bound stated in block_deviation_float's docstring
EXACT_BITS = 20000  # the exact route's r**n has about p * n * log2(m) bits


def _deviation_decimal(m, n, p):
    """block_deviation as |1 - r**n| / ((1 - r) * n) in decimals, with 30
    digits beyond those of m, so that 1 - 1/m and 1 - r keep 30 of theirs."""
    with localcontext() as ctx:
        ctx.prec = 30 + len(str(m))
        r = (-(Decimal(m - 1) / m)) ** p
        return float(abs((1 - r**n) / ((1 - r) * n)))


HUGE = st.integers(1, 10**400)  # past the float range, where 1/m underflows


@settings(max_examples=150)
@given(
    m=st.one_of(st.integers(1, 1000), st.integers(1, 10**12), HUGE),
    n=st.one_of(st.integers(1, 100), st.integers(1, 10**6), HUGE),
    p=st.integers(1, 64),
)
@example(m=10**12, n=2, p=2)  # 1 - s cancelled here and the old formula gave 1.0
@example(m=10**12, n=10**6, p=64)
@example(m=10**8, n=2, p=1)
@example(m=1, n=10**6, p=64)
@example(m=2, n=2, p=54)
@example(m=10**320, n=10**320, p=2)  # 1/m is subnormal
@example(m=10**400, n=10**400, p=2)  # 1/m underflows to 0
@example(m=2**53 - 1, n=10**310, p=2)  # s**n underflows, and n is past the float range
@example(m=2**53, n=10**20, p=10**400)  # p/m is past the float range
@example(m=10**400, n=10**399 + 1, p=1)
def test_float_deviation_within_its_stated_bound(m, n, p):
    got = block_deviation_float(m, n, p)
    if p * n * m.bit_length() <= EXACT_BITS:
        want = float(block_deviation(m, n, p))
    else:
        want = _deviation_decimal(m, n, p)
    # relative below the normal range's edge, absolute at that edge under it
    assert abs(got - want) <= FLOAT_REL_ERR * max(want, sys.float_info.min), (got, want)


def test_float_deviation_at_a_huge_block_is_not_one():
    # s = (1 - 1/m)**2 is 1 - 2e-12; the deviation (1 + s)/2 is 1 - 1e-12
    got = block_deviation_float(10**12, 2, 2)
    want = float(block_deviation(10**12, 2, 2))
    assert got != 1.0
    assert abs(got - want) <= FLOAT_REL_ERR * want
    assert abs(_deviation_decimal(10**12, 2, 2) - want) <= 1e-16 * want


def test_float_deviation_where_1_over_m_underflows():
    # 1/m rounds to 0.0, so s is 1 to within a rounding: the even-p deviation
    # is 1 and the odd-p one (1 + s**n)/((1 + s) n) = 1/n for odd n
    assert block_deviation_float(10**400, 3, 2) == 1.0
    assert block_deviation_float(10**400, 3, 3) == 1 / 3


test_domain_errors = rejection_test("test_domain_errors")
test_float_deviation_rejects_what_the_exact_one_rejects = rejection_test(
    "test_float_deviation_rejects_what_the_exact_one_rejects")


def test_block_entries_are_the_ints_of_the_geometric_pair():
    for m in range(1, 31):
        for p in range(1, 7):
            for n in range(1, 41):
                num, den = cesaro_geometric_pair(a_coeff(m), p, n)
                assert block_cesaro_entries(m, n, p) == (den + num, den - num, 2 * den)

test_block_entries_reject_nonpositive_arguments = rejection_test("test_block_entries_reject_nonpositive_arguments")
