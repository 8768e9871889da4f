"""A block-diagonal family of symmetric doubly stochastic 2x2 matrices.

The m-th block is

    t_block(m) = [[ 1/(2m), 1 - 1/(2m) ],
                  [ 1 - 1/(2m), 1/(2m) ]]

which splits as U - a_m * V with a_m = 1 - 1/m, where U averages the two
coordinates and V takes their signed difference.  U and V are complementary
projections (U*U = U, V*V = V, U*V = V*U = 0), so every power and every
Cesaro average of a block is U plus an explicit multiple of V.  Stacking the
blocks diagonally gives a positive contraction on bounded sequences whose
averages converge block by block but not uniformly: along even powers the
V-coefficients stay bounded away from zero as m grows with n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .core import HALF, ONE, ZERO, as_rational, cesaro_geometric, cesaro_geometric_pair


class Block2x2:
    """A 2x2 matrix with exact rational entries, row major; immutable."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, d: Fraction):
        for name, value in zip(self.__slots__, (a, b, c, d)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Block2x2 is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def _entries(self) -> Tuple[Fraction, ...]:
        return self.a, self.b, self.c, self.d

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._entries() == other._entries()

    def __hash__(self) -> int:
        return hash(self._entries())

    def __repr__(self) -> str:
        return "Block2x2(%r, %r, %r, %r)" % self._entries()

    def __add__(self, other: "Block2x2") -> "Block2x2":
        return Block2x2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Block2x2") -> "Block2x2":
        return Block2x2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __matmul__(self, other: "Block2x2") -> "Block2x2":
        return Block2x2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def scale(self, scalar) -> "Block2x2":
        scalar = as_rational(scalar)
        return Block2x2(scalar * self.a, scalar * self.b, scalar * self.c, scalar * self.d)

    def matpow(self, p: int) -> "Block2x2":
        if p < 0:
            raise ValueError(f"matrix power must be nonnegative, got {p}")
        result = IDENTITY
        base = self
        while p:
            if p & 1:
                result = result @ base
            base = base @ base
            p >>= 1
        return result

    def inf_norm(self) -> Fraction:
        """Operator norm on the 2-dimensional sup-norm space: max row sum."""
        return max(abs(self.a) + abs(self.b), abs(self.c) + abs(self.d))


IDENTITY = Block2x2(ONE, ZERO, ZERO, ONE)
U = Block2x2(HALF, HALF, HALF, HALF)
V = Block2x2(HALF, -HALF, -HALF, HALF)


def a_coeff(m: int) -> Fraction:
    """The V-coefficient a_m = 1 - 1/m of the m-th block."""
    if m < 1:
        raise ValueError(f"block index must be positive, got {m}")
    return Fraction(m - 1, m)


def t_block(m: int) -> Block2x2:
    """The m-th block, written out entrywise."""
    if m < 1:
        raise ValueError(f"block index must be positive, got {m}")
    small = Fraction(1, 2 * m)
    return Block2x2(small, ONE - small, ONE - small, small)


def block_cesaro_entries(m: int, n: int, p: int) -> Tuple[int, int, int]:
    """(diagonal, off, den): :func:`block_cesaro`'s entries (1 + c)/2 and (1 - c)/2
    as ints, not reduced, from the pair c = cesaro_geometric_pair(a_coeff(m), p, n)."""
    num, den = cesaro_geometric_pair(a_coeff(m), p, n)
    return den + num, den - num, 2 * den


def block_cesaro(m: int, n: int, p: int) -> Block2x2:
    """Average of the first n powers of t_block(m)**p, via the projection split.

    Equals U + c * V with c = cesaro_geometric(a_coeff(m), p, n), built
    entrywise from :func:`block_cesaro_entries`; exact for every argument.
    The deliberate second route that multiplies matrices and averages them
    literally is :func:`block_cesaro_literal`.
    """
    diagonal, off, den = block_cesaro_entries(m, n, p)
    diagonal, off = Fraction(diagonal, den), Fraction(off, den)
    return Block2x2(diagonal, off, off, diagonal)


def block_cesaro_literal(m: int, n_max: int, p: int) -> List[Tuple[Tuple[int, int, int, int], int]]:
    """block_cesaro(m, n, p) for n = 1..n_max, by literal matrix summation.

    Entry n - 1 is the n-th average as (entries, den), the row-major int
    numerators over d**(n - 1) * n, not reduced.  t_block(m) is
    [[1, 2m - 1], [2m - 1, 1]] over 2m, its p-th power is held over
    d = (2m)**p, the k-th power of that over d**k and the running total of
    the first n powers over d**(n - 1).  No closed form and no symmetry of
    the entries is used.  Deliberate second route for :func:`block_cesaro`;
    the tests and acceptance criterion 12 compare the two.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if m < 1:
        raise ValueError(f"block index must be positive, got {m}")
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
    """Sup-operator-norm of block_cesaro(m, n, p) - U: how far block m's
    average is from its limit projection.

    That difference is c * V with c = cesaro_geometric(a_coeff(m), p, n),
    and V has max row sum 1, so the deviation is |c|.  The tests compare
    this closed form with the norm of the matrix difference.
    """
    return abs(cesaro_geometric(a_coeff(m), p, n))


def block_deviation_float(m: int, n: int, p: int) -> float:
    """:func:`block_deviation` in IEEE doubles, from the closed form.

    The deviation is |c| with c the V-coefficient cesaro_geometric(a_m, p, n);
    for even p that is c itself, the diagonal coefficient b.  The relative
    error is far below 1e-9 for the parameter ranges used here; results of
    record should still come from the exact version.
    """
    r = (-(1.0 - 1.0 / m)) ** p
    if r == 1.0:
        return 1.0
    return abs((1.0 - r**n) / ((1.0 - r) * n))


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
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive integers")
    m = 1 if p % 2 or n == 1 else m_max
    return m, deviation(m, n, p)


def sup_deviation(m_max: int, n: int, p: int) -> Fraction:
    """Largest deviation of a block average from its limit projection.

    max over m <= m_max of :func:`block_deviation`.  For odd p and n >= 2 it
    is exactly 1/n, at block 1, whatever m_max is; for even p it does not
    decay at all once m_max grows with n.
    """
    return deviation_argmax(block_deviation, m_max, n, p)[1]


def sup_deviation_float(m_max: int, n: int, p: int) -> float:
    """Double-precision version of :func:`sup_deviation` for quick sweeps."""
    return deviation_argmax(block_deviation_float, m_max, n, p)[1]
