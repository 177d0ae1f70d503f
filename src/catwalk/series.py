"""Truncated formal power series over exact rationals.

A :class:`Series` holds coefficients ``c[0] .. c[order]`` of a power series
in one variable ``z``, truncated at a fixed order, as one tuple of Python
rationals, each an ``int`` or a `fractions.Fraction`.  Python's own ``+``,
``*`` and ``==`` do the arithmetic, and every quotient is exact: an int
when the division comes out even, a Fraction otherwise.  So a Fraction
enters only with a fractional input or an inexact quotient.  The series of
the path models all have integer coefficients: they run on plain int
arithmetic and never import ``fractions``.  Nothing in this module ever
touches a float.

Binary operations truncate to the smaller of the two operand orders and never
extend a series silently.  The only ways to change the order of an existing
series are the explicit ``truncate`` / ``shift_up`` methods.  Division is
power-series division with valuation cancellation (so quotients such as
``(4z^2 + 2z^4) / (2z)`` are well defined), and ``sqrt`` expands the branch
of the square root with constant term ``1`` by its D-finite recurrence.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, neg, sub
from typing import Iterable


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class OrderExceeded(SeriesError):
    """A coefficient beyond the truncation order was requested."""


class NonIntegerCoefficient(SeriesError):
    """An integer view was requested of a series with fractional coefficients."""


class DivisionByZeroSeries(SeriesError, ZeroDivisionError):
    """Division by the identically-zero series."""


class ValuationError(SeriesError):
    """Division where the divisor vanishes to higher order than the dividend."""


class SqrtDomain(SeriesError):
    """Square root of a series whose constant term is not 1."""


def _coefficient(x):
    """``x`` as a coefficient: a plain int, or a Fraction if it is not integral.

    Anything else, a float included, is a TypeError.
    """
    if isinstance(x, int):
        return int(x)  # bool and other int subclasses become plain ints
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _quotient(p, q):
    """``p / q`` exactly: an int when q divides p, a Fraction otherwise."""
    whole, rest = divmod(p, q)
    if not rest:
        return whole
    from fractions import Fraction

    return Fraction(p, q)


def _span(c) -> int:
    """Length of ``c`` without its trailing zeros."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return n


class Series:
    """An exact power series truncated at a fixed order.

    ``Series([1, 0, 3], order=5)`` is ``1 + 3 z^2 + O(z^6)``: missing high
    coefficients are zero-filled up to the requested order.  Without an
    explicit order the length of the coefficient list decides it.

    The coefficients are the tuple ``_c``, each an int or a Fraction; an
    integral input is stored as an int, and bool as int.  Fraction
    arithmetic may leave an integral Fraction, but it equals the int of
    the same value and hashes like it, so ``==`` and ``hash`` do not depend
    on which spelling holds a value.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [_coefficient(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                raise ValueError(
                    f"{len(cs)} coefficients do not fit in order {order}; truncate explicitly"
                )
            cs.extend(repeat(0, order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty coefficient list needs an explicit order")
        self._c = tuple(cs)

    @classmethod
    def _of(cls, coeffs) -> "Series":
        """The series with exactly these coefficients, unchecked."""
        s = object.__new__(cls)
        s._c = tuple(coeffs)
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order=order)

    @classmethod
    def z(cls, order: int) -> "Series":
        """The series of the variable itself, ``z + O(z^{order+1})``."""
        if order < 1:
            raise ValueError("the monomial z needs order >= 1")
        return cls([0, 1], order=order)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def coeff(self, n: int):
        """Coefficient of ``z^n``; raises OrderExceeded past the truncation."""
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if n >= len(self._c):
            raise OrderExceeded(f"coefficient {n} beyond truncation order {self.order}")
        return self._c[n]

    def is_zero(self) -> bool:
        return not any(self._c)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self._c):
            if c:
                return i
        return None

    def first_difference(self, other: "Series") -> int | None:
        """The lowest power of z whose coefficients differ over the common
        order, or None if they all agree."""
        return next((n for n, (x, y) in enumerate(zip(self._c, other._c)) if x != y), None)

    def as_integers(self) -> list:
        """The coefficients as Python ints.

        Raises NonIntegerCoefficient if any coefficient has a denominator,
        naming the offending index.
        """
        for i, c in enumerate(self._c):
            if c.denominator != 1:
                raise NonIntegerCoefficient(f"coefficient of z^{i} is {c}, not an integer")
        return list(map(int, self._c))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            # map stops at the shorter tuple: the common order
            return Series._of(map(add, self._c, other._c))
        return Series._of((self._c[0] + _coefficient(other), *self._c[1:]))

    __radd__ = __add__

    def __neg__(self):
        return Series._of(map(neg, self._c))

    def __sub__(self, other):
        if isinstance(other, Series):
            return Series._of(map(sub, self._c, other._c))
        return self + (-_coefficient(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor) -> "Series":
        return Series._of(map(mul, self._c, repeat(_coefficient(factor))))

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        n = min(self.order, other.order) + 1
        a, b = self._c[:n], other._c[:n]
        # the sparser factor drives the outer loop, the other one is added
        # in shifted whole (C-level map) for each of its nonzero terms
        if len(b) - b.count(0) < len(a) - a.count(0):
            a, b = b, a
        b = b[: _span(b)]
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                top = min(n, i + len(b))
                out[i:top] = map(add, out[i:top], map(mul, b, repeat(ai, top - i)))
        return Series._of(out)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self.div(other)
        d = _coefficient(other)
        if not d:
            raise ZeroDivisionError("division by zero scalar")
        return Series._of(_quotient(c, d) for c in self._c)

    def div(self, other: "Series") -> "Series":
        """Power-series quotient ``self / other``.

        The divisor may vanish at 0: if ``other`` has valuation ``v`` then
        ``self`` must vanish at least to order ``v`` as well, the common
        factor ``z^v`` is cancelled, and the result is truncated at
        ``min(orders) - v``.  Each coefficient takes one exact quotient,
        q_k = (a_k - sum_j b_j q_{k-j}) / b_0, the sum running over the
        divisor's nonzero taps b_j, j >= 1, as in :meth:`sqrt`.
        """
        if not isinstance(other, Series):
            raise TypeError("div expects a Series")
        v = other.valuation()
        if v is None:
            raise DivisionByZeroSeries("division by the zero series")
        n = min(self.order, other.order)
        if v > 0:
            sv = self.valuation()
            if not (sv is None or sv >= v):
                raise ValuationError(
                    f"dividend has valuation {sv}, divisor has valuation {v}"
                )
            if v > n:
                raise ValuationError(
                    f"divisor valuation {v} exceeds working order {n}"
                )
        b0 = other._c[v]
        taps = [(j, b) for j, b in enumerate(other._c[v + 1 : n + 1], 1) if b]
        out: list = []
        for k, ak in enumerate(self._c[v : n + 1]):
            for j, b in taps:
                if j > k:
                    break
                ak -= b * out[k - j]
            out.append(_quotient(ak, b0))
        return Series._of(out)

    def pow(self, k: int) -> "Series":
        """``self`` to the power k >= 0, by repeated squaring."""
        if k < 0:
            raise ValueError("negative powers are not defined; divide instead")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Series.one(self.order) if result is None else result

    __pow__ = pow

    def sqrt(self) -> "Series":
        """The square root with constant term 1.

        s = sqrt(p) is D-finite: 2 p s' = p' s.  Comparing coefficients of
        z^(m-1) gives, with p_0 = 1 and over the nonzero terms p_j,

            2 m s_m = sum_{j>=1} p_j (3j - 2m) s_{m-j},

        so each coefficient costs one term per nonzero p_j rather than a
        convolution, and one exact quotient.

        Raises SqrtDomain unless the constant term is exactly 1.
        """
        if self._c[0] != 1:
            raise SqrtDomain(f"sqrt needs constant term 1, got {self._c[0]}")
        taps = [(j, a) for j, a in enumerate(self._c) if j and a]
        r = [1]
        for m in range(1, len(self._c)):
            num = 0
            for j, a in taps:
                if j > m:
                    break
                num += a * (3 * j - 2 * m) * r[m - j]
            r.append(_quotient(num, 2 * m))
        return Series._of(r)

    # -- order management --------------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Drop coefficients beyond ``order`` (which must not exceed self.order)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise OrderExceeded(
                f"cannot truncate order-{self.order} series to larger order {order}"
            )
        return Series._of(self._c[: order + 1])

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by ``z^k``, extending the order by k."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        return Series._of((0,) * k + self._c)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by ``z^k``; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        if k > self.order:
            raise ValuationError(f"cannot shift order-{self.order} series down by {k}")
        if any(self._c[:k]):
            v = self.valuation()
            raise ValuationError(f"series has valuation {v}, cannot divide by z^{k}")
        return Series._of(self._c[k:])

    # -- equality and display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return f"Series({self.to_json()})"

    def __str__(self):
        terms = []
        for n, c in enumerate(self._c):
            if not c:
                continue
            mag = abs(c)
            if n == 0:
                body = str(mag)
            else:
                zpart = "z" if n == 1 else f"z^{n}"
                body = zpart if mag == 1 else f"{mag}*{zpart}"
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms) if terms else "0"

    def to_json(self) -> list:
        """Coefficients as strings ("5", "-3/2") so JSON stays exact."""
        return list(map(str, self._c))
