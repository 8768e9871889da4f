"""Exact scalars and finitely supported vectors.

Everything downstream works over arbitrary-precision rationals so that norms,
orbit entries and averaging coefficients come out exact, never rounded.  The
scalar type is the standard library ``fractions.Fraction``; this module adds
the vector type at the API edge, :class:`SparseVector`, and the Cesaro
average of a signed geometric sequence in closed form.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Mapping, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
TWO = Fraction(2)


def as_rational(value) -> Fraction:
    """Coerce ints, fraction strings like ``"3/4"`` and Fractions to Fraction.

    Floats are rejected on purpose: a float argument almost always means an
    inexact value leaked into an exact computation.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to rational; pass a Fraction or string")
    return Fraction(value)


def _geometric_ratio(a, p: int, n: int) -> Tuple[int, int]:
    """Check the arguments of a geometric average and return r = (-a)**p as
    its (numerator, denominator) in lowest terms, denominator positive."""
    a = as_rational(a)
    num, den = a.numerator, a.denominator
    if not 0 <= num <= den:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return (-num) ** p, den**p


def _geometric_average(num: int, den: int, n: int) -> Tuple[int, int]:
    """The average of the first n powers of r = num/den (den > 0, |r| <= 1)
    as an int pair, by the closed form; not reduced."""
    if num == den:
        return 1, 1
    lower = den ** (n - 1)
    return lower * den - num**n, lower * (den - num) * n


def cesaro_geometric_pair(a, p: int, n: int) -> Tuple[int, int]:
    """:func:`cesaro_geometric` as an int pair (num, den), den > 0, not reduced."""
    return _geometric_average(*_geometric_ratio(a, p, n), n)


def cesaro_geometric(a, p: int, n: int) -> Fraction:
    """Average of the first n powers of (-a)**p, exactly.

    Returns (1/n) * sum_{k=0}^{n-1} r**k with r = (-a)**p, evaluated through
    the closed form (1 - r**n) / ((1 - r) * n) when r != 1 and equal to 1
    otherwise.  The parameter a must lie in [0, 1]; p and n must be positive.

    For odd p the ratio r is nonpositive, the partial sums oscillate in [0, 1]
    and the average is at most 2/n in absolute value.  For even p no such
    decay holds: with a close to 1 the average stays near 1.
    """
    return Fraction(*cesaro_geometric_pair(a, p, n))


def cesaro_geometric_sum(a, p: int, n: int) -> Fraction:
    """Same average as :func:`cesaro_geometric` but by literal summation.

    Deliberate second route for cross-checking the closed form; tests
    compare the two on wide parameter grids.
    """
    r = Fraction(*_geometric_ratio(a, p, n))
    total = ZERO
    power = ONE
    for _ in range(n):
        total += power
        power *= r
    return total / n


class SparseVector:
    """Finitely supported vector with exact rational entries, no vector algebra.

    The operators compute on int numerators over a shared denominator and
    take and return these at the API edge.  Keys may be any hashable index
    (vertex tuples for graph operators).  Zero entries are never stored, so
    two vectors are equal exactly when their stored entries agree.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping = {}):  # the default is only read
        self._entries = {key: q for key, value in entries.items() if (q := as_rational(value))}

    @classmethod
    def unit(cls, index) -> "SparseVector":
        """Coordinate vector e_index."""
        return cls._from_clean({index: ONE})

    @classmethod
    def _from_clean(cls, entries: dict) -> "SparseVector":
        # internal: entries must already be zero-free Fractions
        vec = cls.__new__(cls)
        vec._entries = entries
        return vec

    def __getitem__(self, index) -> Fraction:
        return self._entries.get(index, ZERO)

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:  # else iteration calls __getitem__(0), (1), ... forever
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparseVector):
            return self._entries == other._entries
        return NotImplemented

    def scale(self, scalar) -> "SparseVector":
        scalar = as_rational(scalar)
        if not scalar:
            return SparseVector._from_clean({})
        return SparseVector._from_clean(
            {key: scalar * value for key, value in self._entries.items()}
        )

    def sup_norm(self) -> Fraction:
        """Largest absolute entry; 0 for the zero vector."""
        return max(map(abs, self._entries.values()), default=ZERO)


def _int_str(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        # the interpreter caps int-to-str conversions by default; Decimal
        # converts exactly with no cap and leaves the interpreter setting alone
        return str(Decimal(n))


def fraction_str(value: Fraction) -> str:
    """Render a rational as ``p/q`` (or ``p`` when the denominator is 1)."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return _int_str(value.numerator)
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
