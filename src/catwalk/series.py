"""Truncated formal power series over exact rationals.

A :class:`Series` holds coefficients ``c[0] .. c[order]`` of a power series
in one variable ``z``, truncated at a fixed order.  They are stored as Python
int numerators over one common positive denominator, and every operator
works on those ints; the series of the path models all have integer
coefficients, so their denominator is 1.  The public view is exact
rationals: ``coeff``, ``coeffs``, ``to_json`` and ``str`` give
`fractions.Fraction` values, ``as_integers`` gives ints.  Nothing in this
module ever touches a float.

Binary operations truncate to the smaller of the two operand orders and never
extend a series silently.  The only ways to change the order of an existing
series are the explicit ``truncate`` / ``shift_up`` methods.  Division is
power-series division with valuation cancellation (so quotients such as
``(4z^2 + 2z^4) / (2z)`` are well defined), and ``sqrt`` expands the branch
of the square root with constant term ``1`` by its D-finite recurrence.
Both run their coefficient recurrences on the numerators with an exact
``divmod`` per step; the denominator grows only when a step does not divide.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
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


def _ratio(x: Rat) -> tuple:
    """A scalar as (numerator, positive denominator) in lowest terms."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


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

    The coefficients are held as int numerators ``_n`` over one positive
    common denominator ``_d``, in lowest terms (the gcd of ``_d`` and every
    numerator is 1), so equal series have equal pairs.  Every series of the
    path models has integer coefficients and ``_d == 1``.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Iterable[Rat], order: int | None = None):
        cs = [_ratio(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) > order + 1:
                raise ValueError(
                    f"{len(cs)} coefficients do not fit in order {order}; truncate explicitly"
                )
            cs.extend([(0, 1)] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("empty coefficient list needs an explicit order")
        # each ratio is in lowest terms, so over their lcm the pair is too
        d = lcm(*(q for _, q in cs))
        self._n = tuple(p * (d // q) for p, q in cs)
        self._d = d

    @classmethod
    def _of(cls, nums, d: int = 1) -> "Series":
        """The series with coefficients ``nums[i] / d`` (d > 0), reduced."""
        if d != 1:
            g = gcd(d, *nums)
            if g != 1:
                d //= g
                nums = [c // g for c in nums]
        s = object.__new__(cls)
        s._n = tuple(nums)
        s._d = d
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
        return len(self._n) - 1

    def coeff(self, n: int) -> Fraction:
        """Coefficient of ``z^n``; raises OrderExceeded past the truncation."""
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if n >= len(self._n):
            raise OrderExceeded(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self._n[n], self._d)

    def coeffs(self) -> tuple:
        """Every coefficient, as a tuple of Fractions."""
        return tuple(Fraction(c, self._d) for c in self._n)

    def is_zero(self) -> bool:
        return not any(self._n)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self._n):
            if c:
                return i
        return None

    def first_difference(self, other: "Series") -> int | None:
        """The lowest power of z whose coefficients differ over the common
        order, or None if they all agree."""
        a, b = self._n, other._n
        if self._d != other._d:
            a = [c * other._d for c in a]
            b = [c * self._d for c in b]
        return next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), None)

    def as_integers(self) -> list:
        """The coefficients as Python ints.

        Raises NonIntegerCoefficient if any coefficient has a denominator,
        naming the offending index.
        """
        if self._d != 1:
            i = next(i for i, c in enumerate(self._n) if c % self._d)
            raise NonIntegerCoefficient(
                f"coefficient of z^{i} is {self.coeff(i)}, not an integer"
            )
        return list(self._n)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            d = lcm(self._d, q)
            c = [x * (d // self._d) for x in self._n]
            c[0] += p * (d // q)
            return Series._of(c, d)
        if not isinstance(other, Series):
            return NotImplemented
        return self._termwise(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Series._of([-c for c in self._n], self._d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, Series):
            return NotImplemented
        return self._termwise(other, sub)

    def _termwise(self, other: "Series", op) -> "Series":
        """``op`` on the coefficients of two series, over the common order."""
        n = min(self.order, other.order) + 1
        a, b, d = self._n[:n], other._n[:n], self._d
        if d != other._d:
            d = lcm(d, other._d)
            a = [x * (d // self._d) for x in a]
            b = [x * (d // other._d) for x in b]
        return Series._of(list(map(op, a, b)), d)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def scale(self, factor: Rat) -> "Series":
        p, q = _ratio(factor)
        return Series._of([c * p for c in self._n], self._d * q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order) + 1
        a, b = self._n[:n], other._n[:n]
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
        return Series._of(out, self._d * other._d)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self.scale(1 / Fraction(other))
        if not isinstance(other, Series):
            return NotImplemented
        return self.div(other)

    def div(self, other: "Series") -> "Series":
        """Power-series quotient ``self / other``.

        The divisor may vanish at 0: if ``other`` has valuation ``v`` then
        ``self`` must vanish at least to order ``v`` as well, the common
        factor ``z^v`` is cancelled, and the result is truncated at
        ``min(orders) - v``.

        The recurrence q_k = (a_k - sum_j b_j q_{k-j}) / b_0 runs on the
        numerators, with the quotient's numerators kept over a common
        denominator that grows only when a step does not divide exactly.
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
        a = self._n[v : n + 1]
        b = other._n[v : n + 1]
        b = b[: _span(b)]
        b0, tail = b[0], b[1:]
        out: list = []
        den = 1  # out[k] / den is q_k times self._d / other._d
        for k, ak in enumerate(a):
            j = min(k, len(tail))
            acc = ak * den - sum(map(mul, tail[:j], reversed(out[k - j : k])))
            q, r = divmod(acc, b0)
            if r:
                g = abs(b0) // gcd(acc, b0)
                den *= g
                out = [c * g for c in out]
                q = acc * g // b0
            out.append(q)
        # self / other = (out / den) * (other._d / self._d)
        if other._d != 1:
            out = [c * other._d for c in out]
        return Series._of(out, den * self._d)

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
        z^(m-1) gives, over the nonzero terms p_j of the radicand,

            2 m p_0 s_m = sum_{j>=1} p_j (3j - 2m) s_{m-j},

        so each coefficient costs one term per nonzero p_j rather than a
        convolution.  It runs on numerators: with ``p = A / d`` (A_0 = d)
        and ``s = R / D``, R_m = (sum_j A_j (3j - 2m) R_{m-j}) / (2 m d).
        D grows only when that division is not exact.

        Raises SqrtDomain unless the constant term is exactly 1.
        """
        if self._n[0] != self._d:
            raise SqrtDomain(f"sqrt needs constant term 1, got {self.coeff(0)}")
        taps = [(j, a) for j, a in enumerate(self._n) if j and a]
        den = 1  # D
        r = [1]
        for m in range(1, len(self._n)):
            num = 0
            for j, a in taps:
                if j > m:
                    break
                num += a * (3 * j - 2 * m) * r[m - j]
            div = 2 * m * self._d
            q, rem = divmod(num, div)
            if rem:
                g = div // gcd(num, div)
                den *= g
                r = [c * g for c in r]
                q = num * g // div
            r.append(q)
        return Series._of(r, den)

    # -- order management --------------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Drop coefficients beyond ``order`` (which must not exceed self.order)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise OrderExceeded(
                f"cannot truncate order-{self.order} series to larger order {order}"
            )
        return Series._of(self._n[: order + 1], self._d)

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by ``z^k``, extending the order by k."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        return Series._of((0,) * k + self._n, self._d)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by ``z^k``; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        if k > self.order:
            raise ValuationError(f"cannot shift order-{self.order} series down by {k}")
        if any(self._n[:k]):
            v = self.valuation()
            raise ValuationError(f"series has valuation {v}, cannot divide by z^{k}")
        return Series._of(self._n[k:], self._d)

    # -- equality and display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        return f"Series({self.to_json()})"

    def __str__(self):
        terms = []
        for n, c in enumerate(self.coeffs()):
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
        return [str(c) for c in self.coeffs()]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "Series":
        return cls([Fraction(s) for s in data])
