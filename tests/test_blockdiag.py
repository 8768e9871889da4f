"""Exact 2x2 block arithmetic and the diagonal operator built from it."""

from fractions import Fraction

import pytest

from ergolab import blockdiag
from ergolab.blockdiag import (
    IDENTITY,
    U,
    V,
    Block2x2,
    BlockOperator,
    a_coeff,
    b_coeff,
    block_cesaro,
    block_cesaro_literal,
    multiplication_fixed_check,
    sup_deviation,
    sup_deviation_float,
    t_block,
    witness_apply,
)
from ergolab.core import HALF, ONE, ZERO, SparseVector


def test_projection_algebra():
    zero = Block2x2(ZERO, ZERO, ZERO, ZERO)
    assert U @ U == U
    assert V @ V == V
    assert U @ V == zero
    assert V @ U == zero
    assert U + V == IDENTITY


def test_blocks_split_along_the_projections():
    for m in range(1, 30):
        assert t_block(m) == U - V.scale(a_coeff(m))


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
            for n in range(1, 25):
                assert block_cesaro(m, n, p) == block_cesaro_literal(m, n, p), (m, n, p)


def test_witness_image_carries_the_coefficients():
    for n in (1, 2, 5, 16, 33):
        for j in (1, 2):
            values = witness_apply(5, n, j)
            assert values == [b_coeff(m, n, j) for m in range(1, 6)]
    assert witness_apply(3, 1, 1) == [ONE, ONE, ONE]


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


def test_sup_deviation_float_tracks_exact():
    for n in (3, 10, 64):
        for p in (1, 2):
            exact = float(sup_deviation(200, n, p))
            approx = sup_deviation_float(200, n, p)
            assert abs(exact - approx) <= 1e-12 * max(1.0, abs(exact))


def test_multiplication_fixed_check():
    report = multiplication_fixed_check(500, 3)
    assert report.ok
    assert report.count_checked == 500
    assert report.max_power_value < 1
    assert report.max_at_m == 500  # a_m increases with m
    assert "500" in report.summary()


def test_block_operator_single_application():
    op = BlockOperator()
    image = op.apply(SparseVector.unit(0))
    assert image == SparseVector({0: HALF, 1: HALF})
    image2 = op.apply(SparseVector.unit(2))
    assert image2 == SparseVector({2: Fraction(1, 4), 3: Fraction(3, 4)})


def test_block_operator_powers_use_the_projection_split():
    op = BlockOperator(power=2)
    image = op.apply(SparseVector.unit(2))
    # t_block(2)**2 = U + (1/4)V
    assert image == SparseVector({2: Fraction(5, 8), 3: Fraction(3, 8)})
    for m in range(1, 6):
        assert op.block(m) == U + V.scale(a_coeff(m) ** 2)


def test_block_operator_mixes_only_within_blocks():
    op = BlockOperator()
    x = SparseVector({0: 1, 5: 1})
    image = op.apply(x)
    assert image.support() == {0, 1, 4, 5}


def test_block_operator_rejects_bad_indices():
    op = BlockOperator()
    with pytest.raises(ValueError):
        op.apply(SparseVector({-1: 1}))
    with pytest.raises(ValueError):
        op.apply(SparseVector({"a": 1}))
    with pytest.raises(ValueError):
        BlockOperator(power=0)


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
