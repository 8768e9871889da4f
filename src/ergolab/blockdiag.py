"""A block-diagonal family of symmetric doubly stochastic 2x2 matrices.

The m-th block is

    [[ 1/(2m), 1 - 1/(2m) ],
     [ 1 - 1/(2m), 1/(2m) ]]

which splits as U - a_m * V with a_m = 1 - 1/m, where U averages the two
coordinates and V takes their signed difference.  U and V are complementary
projections (U*U = U, V*V = V, U*V = V*U = 0), so every power and every
Cesaro average of a block is U plus an explicit multiple of V.  Stacking the
blocks diagonally gives a positive contraction on bounded sequences whose
averages converge block by block but not uniformly: along even powers the
V-coefficients stay bounded away from zero as m grows with n.

No matrix type is needed: a block average is its two distinct entries, as
ints (:func:`block_cesaro_entries`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .core import _geometric_average, cesaro_geometric


def a_coeff(m: int) -> Fraction:
    """The V-coefficient a_m = 1 - 1/m of the m-th block."""
    if m < 1:
        raise ValueError(f"block index must be positive, got {m}")
    return Fraction(m - 1, m)


def _block_arguments(m: int, n: int, p: int) -> None:
    """Raise the ValueError for the first of the block index m, the power p
    and the window n, in that order, that is below 1."""
    if m < 1:
        raise ValueError(f"block index must be positive, got {m}")
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


def block_cesaro_entries(m: int, n: int, p: int) -> Tuple[int, int, int]:
    """(diagonal, off, den): the entries of the average of the first n powers
    of block m to the power p, as ints, not reduced.

    The average is U + c * V with c = cesaro_geometric_pair(a_coeff(m), p, n),
    so it is symmetric with diagonal (1 + c)/2 and off-diagonal (1 - c)/2.

    The ratio r = (1 - m)**p / m**p is taken straight from m: (m - 1)/m is
    in lowest terms, so the ints are those of the pair, and no Fraction is
    built.  Raises ValueErrors for m, n or p below 1.  The deliberate second
    route that multiplies matrices and averages them literally is
    :func:`block_cesaro_literal`.
    """
    _block_arguments(m, n, p)
    num, den = _geometric_average((1 - m) ** p, m**p, n)
    return den + num, den - num, 2 * den


def block_cesaro_literal(m: int, n_max: int, p: int) -> List[Tuple[Tuple[int, int, int, int], int]]:
    """The averages of :func:`block_cesaro_entries` for n = 1..n_max, by literal matrix summation.

    Entry n - 1 is the n-th average as (entries, den), the row-major int
    numerators over d**(n - 1) * n, not reduced.  Block m is
    [[1, 2m - 1], [2m - 1, 1]] over 2m, its p-th power is held over
    d = (2m)**p, the k-th power of that over d**k and the running total of
    the first n powers over d**(n - 1).  No closed form and no symmetry of
    the entries is used.  Deliberate second route for
    :func:`block_cesaro_entries`; the tests and acceptance criterion 12
    compare the two.
    """
    _block_arguments(m, n_max, p)
    block = (1, 2 * m - 1, 2 * m - 1, 1)
    step = block
    for _ in range(p - 1):
        step = _int_matmul(step, block)
    den = (2 * m) ** p
    power = total = (1, 0, 0, 1)
    scale = 1  # d**(n - 1)
    averages = [(total, 1)]
    for n in range(2, n_max + 1):
        power = _int_matmul(power, step)
        total = tuple(den * t + q for t, q in zip(total, power))
        scale *= den
        averages.append((total, scale * n))
    return averages


def _int_matmul(x, y):
    """Product of two 2x2 int matrices given as row-major 4-tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def b_coeff(m: int, n: int, j: int) -> Fraction:
    """V-coefficient of the n-th Cesaro average of the 2j-th block powers.

    This is cesaro_geometric(a_coeff(m), 2j, n).  Because the exponent is
    even the summands are all positive, so no cancellation helps the
    average: along the diagonal m = n the coefficient stays above a fixed
    positive bound no matter how large n gets.
    """
    if j < 1:
        raise ValueError(f"j must be a positive integer, got {j}")
    return cesaro_geometric(a_coeff(m), 2 * j, n)


def block_deviation(m: int, n: int, p: int) -> Fraction:
    """Sup-operator-norm (max row sum) of block m's average minus U: how far
    the average is from its limit projection.

    That difference is c * V with c = cesaro_geometric(a_coeff(m), p, n),
    and V has max row sum 1, so the deviation is |c|.  The tests compare
    this closed form with the max row sum of the literal average minus U.
    """
    _block_arguments(m, n, p)
    return abs(cesaro_geometric(a_coeff(m), p, n))


def block_deviation_float(m: int, n: int, p: int) -> float:
    """:func:`block_deviation` in IEEE doubles, from the closed form.

    The deviation is |S|/n with S = (1 - r**n)/(1 - r), r = (-1)**p * s and
    s = ((m - 1)/m)**p.  Block 1 has s = 0, so S = 1.  Otherwise s = exp(L)
    with L = p * log1p(-1/m), and every difference that would cancel is an
    expm1: 1 - s = -expm1(L), 1 - s**n = -expm1(n*L).  For odd p the
    denominator is 1 + s and the numerator 1 - s**n (n even) or 1 + s**n
    (n odd), sums of positive terms.

    Any positive ints are accepted, and others raise the ValueErrors of
    :func:`block_deviation`.  Once m, n or p reaches 2**1000, 1/m may
    underflow and n or p pass the float range.  Below m = 2**53,
    |log1p(-1/m)| > 2**-53, so s or s**n is then 0: p is capped at 2**1000
    and n enters only by int true division.  From m = 2**53 on,
    -log1p(-1/m) is 1/m to double precision: L = -p/m and n*L = -n*p/m come
    from int true division, and for even p S/n is g(n*p/m) / g(p/m) with
    g(z) = -expm1(-z)/z (:func:`_g`).

    With log1p, exp and expm1 within one ulp, each of the dozen roundings
    enters the result with a condition number of at most 2, so the relative
    error stays below 1e-14 wherever the result is a normal double; the
    tests check that against the exact value and a decimal evaluation.
    """
    _block_arguments(m, n, p)
    if m == 1:
        return 1 / n
    if m >= 2**53 and max(m, n, p) >= 2**1000:
        if p > 40 * m:  # s is below half an ulp, so S = 1
            return 1 / n
        if p % 2 == 0:
            return _g(n * p, m) / _g(p, m)
        drop = p / m * _g(n * p, m)  # (1 - s**n) / n
        return (2 / n - drop if n % 2 else drop) / (1.0 + math.exp(-(p / m)))
    log_s = min(p, 2**1000) * math.log1p(-1 / m)
    if n >= 2**1000:  # s**n is 0, so the deviation is 1/((1 - r) n), rounded once
        a, b = (-math.expm1(log_s) if p % 2 == 0 else 1.0 + math.exp(log_s)).as_integer_ratio()
        return b / (a * n)
    if p % 2 == 0:
        return math.expm1(n * log_s) / (math.expm1(log_s) * n)
    num = -math.expm1(n * log_s) if n % 2 == 0 else 1.0 + math.exp(n * log_s)
    return num / ((1.0 + math.exp(log_s)) * n)


def _g(a: int, b: int) -> float:
    """(1 - exp(-z))/z at z = a/b, from z by int true division; 1 where z is 0."""
    if a > 40 * b:  # exp(-z) is below half an ulp of 1
        return b / a
    z = a / b
    return -math.expm1(-z) / z if z else 1.0


def deviation_argmax(deviation, m_max: int, n: int, p: int):
    """(m, value) for the block m <= m_max whose average deviates most.

    ``deviation`` is :func:`block_deviation` or :func:`block_deviation_float`;
    ties go to the smallest m.  The argmax is block 1 when p is odd or
    n == 1 and block m_max otherwise, so one block is evaluated.  Proof:
    block m deviates by |S|/n with S = 1 + r + ... + r**(n-1) and
    r = (-(m - 1)/m)**p.

    - n = 1: S = 1 for every block, and the tie goes to m = 1.
    - Odd p, n >= 2: r = -s with s = ((m - 1)/m)**p in [0, 1), so
      S = (1 - (-s)**n)/(1 + s).  S = 1 at m = 1, where s = 0.  For m >= 2,
      0 < s and |(-s)**n| = s**n < s, so 0 < S < 1.  Block 1 (exactly 1/n)
      is the strict maximum.
    - Even p, n >= 2: r = s grows strictly with m, and S, a sum of powers
      of s that includes s itself, grows strictly with s.  So block m_max
      is the strict maximum.

    ``tests/test_blockdiag.py`` compares the rule with the full int scan
    in ``tests/fraction_reference.py``.
    """
    _block_arguments(m_max, n, p)
    m = 1 if p % 2 or n == 1 else m_max
    return m, deviation(m, n, p)


def sup_deviation(m_max: int, n: int, p: int) -> Fraction:
    """Largest deviation of a block average from its limit projection.

    max over m <= m_max of :func:`block_deviation`.  For odd p and n >= 2 it
    is exactly 1/n, at block 1, whatever m_max is; for even p it does not
    decay at all once m_max grows with n.
    """
    return deviation_argmax(block_deviation, m_max, n, p)[1]
