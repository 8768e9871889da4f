"""Exact 2x2 block arithmetic, averaging coefficients and deviation sweeps."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from ergolab import blockdiag
from ergolab.blockdiag import (
    IDENTITY,
    U,
    V,
    Block2x2,
    a_coeff,
    b_coeff,
    block_cesaro,
    block_cesaro_literal,
    block_deviation,
    deviation_argmax,
    sup_deviation,
    sup_deviation_float,
    t_block,
)
from ergolab.core import HALF, ZERO


def test_projection_algebra():
    zero = Block2x2(ZERO, ZERO, ZERO, ZERO)
    assert U @ U == U
    assert V @ V == V
    assert U @ V == zero
    assert V @ U == zero
    assert U + V == IDENTITY


def test_blocks_are_immutable_values():
    block = t_block(3)
    sixth = Fraction(1, 6)
    assert block == Block2x2(a=sixth, b=1 - sixth, c=1 - sixth, d=sixth)
    assert block != t_block(4)
    assert block != (block.a, block.b, block.c, block.d)
    assert hash(block) == hash(t_block(3))
    assert block + block == Block2x2(2 * sixth, 2 - 2 * sixth, 2 - 2 * sixth, 2 * sixth)
    assert block - block == Block2x2(ZERO, ZERO, ZERO, ZERO)
    assert block @ block == Block2x2(*(Fraction(t, 18) for t in (13, 5, 5, 13)))
    assert block.scale(6) == Block2x2(*(Fraction(t) for t in (1, 5, 5, 1)))
    for name in ("a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(block, name, ZERO)
        with pytest.raises(AttributeError):
            delattr(block, name)
    assert block == t_block(3)


def test_blocks_split_along_the_projections():
    for m in range(1, 30):
        assert t_block(m) == U - V.scale(a_coeff(m))
        assert t_block(m).matpow(2) == U + V.scale(a_coeff(m) ** 2)


def test_blocks_are_doubly_stochastic():
    for m in (1, 2, 3, 10, 97):
        mat = t_block(m)
        assert mat.a + mat.b == 1
        assert mat.c + mat.d == 1
        assert mat.a + mat.c == 1
        assert mat.inf_norm() == 1


def test_matpow_matches_repeated_multiplication():
    mat = t_block(3)
    acc = IDENTITY
    for p in range(9):
        assert mat.matpow(p) == acc
        acc = acc @ mat
    with pytest.raises(ValueError):
        mat.matpow(-1)


def test_block_cesaro_frozen_values():
    assert block_cesaro(2, 2, 2) == U + V.scale(Fraction(5, 8))
    assert block_cesaro(1, 7, 1) == U + V.scale(Fraction(1, 7))
    assert block_cesaro(1, 1, 1) == IDENTITY  # the one-term average is the identity


def test_block_cesaro_agrees_with_literal_summation():
    for m in range(1, 9):
        for p in range(1, 4):
            literal = block_cesaro_literal(m, 24, p)
            assert len(literal) == 24
            for n, (entries, den) in enumerate(literal, start=1):
                assert den == (2 * m) ** (p * (n - 1)) * n
                average = Block2x2(*(Fraction(t, den) for t in entries))
                assert block_cesaro(m, n, p) == average, (m, n, p)
    assert block_cesaro_literal(3, 1, 2) == [((1, 0, 0, 1), 1)]
    for m, n_max, p in ((1, 0, 1), (1, 3, 0)):
        with pytest.raises(ValueError):
            block_cesaro_literal(m, n_max, p)


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
    """|cesaro_geometric(a_m, p, n)| against the norm of block_cesaro - U."""
    for m in range(1, 61):
        for n in (1, 2, 7, 100):
            for p in range(1, 5):
                expected = (block_cesaro(m, n, p) - U).inf_norm()
                assert blockdiag.block_deviation(m, n, p) == expected, (m, n, p)
                if p % 2 == 0:  # b_coeff is the V-coefficient of even-power averages
                    assert block_cesaro(m, n, p) == U + V.scale(b_coeff(m, n, p // 2))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(m_max=st.integers(1, 300), n=st.integers(1, 1200), p=st.integers(1, 5))
@example(m_max=300, n=1, p=1)  # every block deviates by exactly 1: the first wins
@example(m_max=300, n=1, p=4)
@example(m_max=50, n=7, p=2)
@example(m_max=30, n=9, p=4)
@example(m_max=200, n=300, p=3)
def test_argmax_rule_matches_the_full_scan(m_max, n, p):
    assert deviation_argmax(block_deviation, m_max, n, p) == ref.deviation_argmax(m_max, n, p)


def test_argmax_rule_matches_the_full_scan_on_a_grid():
    # one reference scan per (p, n) gives the full scan's answer at every m_max
    for p in range(1, 7):
        for n in range(1, 41):
            for m_max, (m, num, den) in enumerate(ref.deviation_argmaxes(200, n, p), start=1):
                got_m, value = deviation_argmax(block_deviation, m_max, n, p)
                assert got_m == m, (m_max, n, p)
                assert value.numerator * den == num * value.denominator, (m_max, n, p)


def test_sup_deviation_float_tracks_exact():
    for n in (3, 10, 64):
        for p in (1, 2):
            exact = float(sup_deviation(200, n, p))
            approx = sup_deviation_float(200, n, p)
            assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def test_domain_errors():
    with pytest.raises(ValueError):
        t_block(0)
    with pytest.raises(ValueError):
        a_coeff(0)
    with pytest.raises(ValueError):
        block_cesaro(1, 0, 1)
    with pytest.raises(ValueError):
        b_coeff(2, 3, 0)
    with pytest.raises(ValueError):
        sup_deviation(0, 3, 1)
    for n, p in ((0, 1), (3, 0)):  # the float formula would not raise on its own
        with pytest.raises(ValueError):
            sup_deviation_float(5, n, p)
