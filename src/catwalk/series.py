"""Truncated formal power series over exact rationals.

A :class:`Series` stores coefficients ``c[0] .. c[order]`` of a power series
in one variable ``z``, truncated at a fixed order.  Every coefficient is a
`fractions.Fraction`, so all arithmetic is exact; nothing in this module ever
touches a float.

Binary operations truncate to the smaller of the two operand orders and never
extend a series silently.  The only ways to change the order of an existing
series are the explicit ``truncate`` / ``shift_up`` methods.  Division is
power-series division with valuation cancellation (so quotients such as
``(4z^2 + 2z^4) / (2z)`` are well defined), and ``sqrt`` expands the branch
of the square root with constant term ``1``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]


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


def _frac(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Series:
    """An exact power series truncated at a fixed order.

    ``Series([1, 0, 3], order=5)`` is ``1 + 3 z^2 + O(z^6)``: missing high
    coefficients are zero-filled up to the requested order.  Without an
    explicit order the length of the coefficient list decides it.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [_frac(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                raise ValueError(
                    f"{len(cs)} coefficients do not fit in order {order}; truncate explicitly"
                )
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty coefficient list needs an explicit order")
        self._c = tuple(cs)

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

    @classmethod
    def constant(cls, value: Rat, order: int) -> "Series":
        return cls([value], order=order)

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def coeff(self, n: int) -> Fraction:
        """Coefficient of ``z^n``; raises OrderExceeded past the truncation."""
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if n >= len(self._c):
            raise OrderExceeded(f"coefficient {n} beyond truncation order {self.order}")
        return self._c[n]

    def coeffs(self) -> tuple:
        return self._c

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
        return next((n for n, (a, b) in enumerate(zip(self._c, other._c)) if a != b), None)

    def as_integers(self) -> list:
        """The coefficients as Python ints.

        Raises NonIntegerCoefficient if any coefficient has a denominator,
        naming the offending index.
        """
        out = []
        for i, c in enumerate(self._c):
            if c.denominator != 1:
                raise NonIntegerCoefficient(f"coefficient of z^{i} is {c}, not an integer")
            out.append(c.numerator)
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            c = list(self._c)
            c[0] += _frac(other)
            return Series(c)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self._c[i] + other._c[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self._c])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-_frac(other))
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self._c[i] - other._c[i] for i in range(n + 1)])

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def scale(self, factor: Rat) -> "Series":
        f = _frac(factor)
        return Series([c * f for c in self._c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._c, other._c
        out = [Fraction(0)] * (n + 1)
        for i in range(min(len(a) - 1, n) + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(len(b) - 1, n - i) + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return Series(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            if f == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self.scale(Fraction(1, 1) / f)
        if not isinstance(other, Series):
            return NotImplemented
        return self.div(other)

    def div(self, other: "Series") -> "Series":
        """Power-series quotient ``self / other``.

        The divisor may vanish at 0: if ``other`` has valuation ``v`` then
        ``self`` must vanish at least to order ``v`` as well, the common
        factor ``z^v`` is cancelled, and the result is truncated at
        ``min(orders) - v``.
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
        m = n - v
        a = self._c[v : v + m + 1] + (Fraction(0),) * max(0, v + m + 1 - len(self._c))
        b = other._c[v : v + m + 1]
        inv0 = Fraction(1, 1) / b[0]
        out = [Fraction(0)] * (m + 1)
        for k in range(m + 1):
            acc = a[k]
            for j in range(1, k + 1):
                if j < len(b) and b[j] and out[k - j]:
                    acc -= b[j] * out[k - j]
            out[k] = acc * inv0
        return Series(out)

    def pow(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative powers are not defined; divide instead")
        result = Series.one(self.order)
        for _ in range(k):
            result = result * self
        return result

    __pow__ = pow

    def sqrt(self) -> "Series":
        """The square root with constant term 1.

        Uses the coefficient recurrence obtained from squaring
        ``r = 1 + r_1 z + r_2 z^2 + ...``:

            r_n = (a_n - sum_{k=1}^{n-1} r_k r_{n-k}) / 2.

        Raises SqrtDomain unless the constant term is exactly 1.
        """
        if self._c[0] != 1:
            raise SqrtDomain(f"sqrt needs constant term 1, got {self._c[0]}")
        n = self.order
        r = [Fraction(1)] + [Fraction(0)] * n
        for m in range(1, n + 1):
            acc = self._c[m]
            for k in range(1, m):
                acc -= r[k] * r[m - k]
            r[m] = acc / 2
        return Series(r)

    # -- order management --------------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Drop coefficients beyond ``order`` (which must not exceed self.order)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise OrderExceeded(
                f"cannot truncate order-{self.order} series to larger order {order}"
            )
        return Series(self._c[: order + 1])

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by ``z^k``, extending the order by k."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        return Series((Fraction(0),) * k + self._c)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by ``z^k``; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        if k > self.order:
            raise ValuationError(f"cannot shift order-{self.order} series down by {k}")
        if any(self._c[:k]):
            v = self.valuation()
            raise ValuationError(f"series has valuation {v}, cannot divide by z^{k}")
        return Series(self._c[k:])

    # -- equality and display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return f"Series({[str(c) for c in self._c]})"

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
        return [str(c) for c in self._c]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "Series":
        return cls([Fraction(s) for s in data])
