"""Closed-form generating functions for the preset path models.

Everything here is an algebraic function of z expanded exactly with
:class:`series.Series`; the dynamic-programming route in :mod:`dp` computes
the same coefficients without ever touching these formulas, which is what
makes comparing the two routes a meaningful check.  This module never
imports :mod:`dp`: its name registry only says, per series, which preset's
count table counts the same paths and which table reader returns them.

The kernel of a model is the quadratic (in u) that governs its level
recursion; u marks the level, z the length:

* plain model:  K(u) = z u^2 - u + z,             discriminant 1 - 4 z^2,
  root product r1 r2 = 1
* red model:    K(u) = z u^2 - (1 + z^2) u + (2z - z^3),
  discriminant 1 - 6 z^2 + 5 z^4, root product r1 r2 = 2 - z^2

r2 denotes the root that is a power series (valuation 1); r1 is the other,
Laurent, root, and only the combination 1/r1 = r2 / (r1 r2) is ever needed,
which stays a power series.

Level-j series of the red model with catastrophes, with q = 1/r1:

    f_j = f_0 q^j
    g_j = (r2 - z)  f_0 q^{j+1}
    h_j = (r2 - 2z) f_0 q^{j+1}

and the axis boundary is recovered from the tails over levels j >= 2,
e.g. sum f_j = f_0 q^2 / (1 - q).
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, NamedTuple

from .model import DYCK_CAT, LAYER_ORDER, SKEW_CAT, LayerTag, ModelConfig
from .series import Series

MODELS = ("dyck", "skew")


class UnknownSeriesName(ValueError):
    """A generating-function name the registry does not know."""


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return model


def _poly(coeffs, order: int) -> Series:
    """A polynomial as a Series, truncated or zero-padded to ``order``."""
    return Series(list(coeffs)[: order + 1], order=order)


# discriminant coefficients, low to high
_DISC = {
    "dyck": (1, 0, -4),
    "skew": (1, 0, -6, 0, 5),
}

# r1 * r2, a polynomial
_ROOT_PRODUCT = {
    "dyck": (1,),
    "skew": (2, 0, -1),
}

# the u-coefficient of the kernel (the "middle" coefficient)
_KERNEL_MID = {
    "dyck": (1,),
    "skew": (1, 0, 1),
}

# the constant (in u) kernel coefficient; always z * (root product)
_KERNEL_LOW = {
    "dyck": (0, 1),
    "skew": (0, 2, 0, -1),
}


def disc(model: str, order: int) -> Series:
    """The kernel discriminant, 1 - 4z^2 or 1 - 6z^2 + 5z^4."""
    return _poly(_DISC[_check_model(model)], order)


def sqrt_disc(model: str, order: int) -> Series:
    return disc(model, order).sqrt()


def r2(model: str, order: int) -> Series:
    """The power-series kernel root, (mid - sqrt(disc)) / (2z).

    mid is 1 for the plain model and 1 + z^2 for the red one.  The numerator
    has valuation >= 1, so dividing by 2z keeps everything a power series.
    """
    _check_model(model)
    num = _poly(_KERNEL_MID[model], order + 1) - sqrt_disc(model, order + 1)
    return num.shift_down(1) / 2


def inv_r1(model: str, order: int) -> Series:
    """1/r1 as a power series: r2 divided by the polynomial r1*r2."""
    return r2(model, order) / _poly(_ROOT_PRODUCT[_check_model(model)], order)


def kernel_at(model: str, u: Series) -> Series:
    """Evaluate the kernel at an arbitrary series u (at u's order)."""
    _check_model(model)
    n = u.order
    z = Series.z(n)
    return z * u * u - _poly(_KERNEL_MID[model], n) * u + _poly(_KERNEL_LOW[model], n)


def kernel_residual(model: str, order: int) -> Series:
    """K(r2); identically zero, coefficient by coefficient."""
    return kernel_at(model, r2(model, order))


# -- closed forms for the catastrophe presets ------------------------------

# shared denominators (times 2)
_DEN_DYCK = (1, -1, -2, -1)  # 1 - z - 2z^2 - z^3
_DEN_SKEW = (1, 0, -2, -6, -3, 1, 1)  # 1 - 2z^2 - 6z^3 - 3z^4 + z^5 + z^6


def f0(model: str, order: int) -> Series:
    """Paths returning to the axis in layer F (axis series of the model
    with catastrophes from every level >= 2).

    plain: (2 - 3z - 2z^2 + z sqrt(1-4z^2)) / (2 (1 - z - 2z^2 - z^3))
    red:   (1 - 9z^3 - 5z^4 + 3z^5 + 2z^6 + (1 - z^2 - z^3) sqrt(1-6z^2+5z^4))
           / (2 (1 - 2z^2 - 6z^3 - 3z^4 + z^5 + z^6))

    For the plain model the F layer is the whole axis count (every axis
    visit there ends a prefix counted by f0); for the red model f0 counts
    paths ending on the axis whose last step was not a down-step.
    """
    _check_model(model)
    s = sqrt_disc(model, order)
    if model == "dyck":
        num = _poly((2, -3, -2), order) + _poly((0, 1), order) * s
        den = _poly(_DEN_DYCK, order) * 2
    else:
        num = _poly((1, 0, 0, -9, -5, 3, 2), order) + _poly((1, 0, -1, -1), order) * s
        den = _poly(_DEN_SKEW, order) * 2
    return num / den


def open_total(model: str, order: int) -> Series:
    """All paths of the catastrophe model, any final level.

    plain: (1 - z + (1 + z) sqrt(1-4z^2)) / (2 (1 - z - 2z^2 - z^3))
    red:   ((1+z)(1 - 4z + 4z^2 + 4z^3 - z^5) + (1 + 5z + 3z^2 - z^3 - z^4)
           sqrt(1-6z^2+5z^4)) / (2 (1 - 2z^2 - 6z^3 - 3z^4 + z^5 + z^6))
    """
    _check_model(model)
    s = sqrt_disc(model, order)
    if model == "dyck":
        num = _poly((1, -1), order) + _poly((1, 1), order) * s
        den = _poly(_DEN_DYCK, order) * 2
    else:
        lead = _poly((1, 1), order) * _poly((1, -4, 4, 4, 0, -1), order)
        num = lead + _poly((1, 5, 3, -1, -1), order) * s
        den = _poly(_DEN_SKEW, order) * 2
    return num / den


def fgh0(order: int) -> Series:
    """All red-model catastrophe paths ending on the axis (f0 + g0 + h0).

    ((1 - z^2)(3 - z)(1 - z - 2z^2 - z^3) - (1 - 4z - 3z^2 + z^3 + z^4)
    sqrt(1-6z^2+5z^4)) / (2 (1 - 2z^2 - 6z^3 - 3z^4 + z^5 + z^6))
    """
    s = sqrt_disc("skew", order)
    lead = (
        _poly((1, 0, -1), order)
        * _poly((3, -1), order)
        * _poly((1, -1, -2, -1), order)
    )
    num = lead - _poly((1, -4, -3, 1, 1), order) * s
    den = _poly(_DEN_SKEW, order) * 2
    return num / den


def fj_family(j: int, order: int) -> tuple:
    """The level-j layer series (f_j, g_j, h_j) of the red catastrophe model.

    Uses the product forms f_j = f_0 q^j, g_j = (r2 - z) f_0 q^{j+1},
    h_j = (r2 - 2z) f_0 q^{j+1} with q = 1/r1.
    """
    if j < 0:
        raise ValueError("level index must be >= 0")
    if j > order:
        # q has valuation 1, so every factor q^j vanishes through z^order
        return (Series.zero(order),) * 3
    base = f0("skew", order)
    q = inv_r1("skew", order)
    z = _poly((0, 1), order)  # zero at order 0, where Series.z has no room
    rt = r2("skew", order)
    fq = base * q.pow(j)
    tail = base * q.pow(j + 1)
    return (fq, (rt - z) * tail, (rt - 2 * z) * tail)


def g0(order: int) -> Series:
    return fj_family(0, order)[1]


def h0(order: int) -> Series:
    return fj_family(0, order)[2]


def g0_via_elimination(order: int) -> Series:
    """g0 computed the long way round, (r2 f0 - 2z f0 + z^2 f1) / (2z).

    Algebraically identical to the product form of :func:`g0`; computing it
    through a different chain of operations makes the agreement a check
    rather than a tautology.
    """
    n = order + 1
    base = f0("skew", n)
    f1 = base * inv_r1("skew", n)
    rt = r2("skew", n)
    z = Series.z(n)
    num = (rt - 2 * z) * base + z * z * f1
    return num.shift_down(1) / 2


def tail_sums(order: int) -> tuple:
    """Sums over levels j >= 2 of (f_j, g_j, h_j), as three series.

    Geometric in q = 1/r1:  sum f_j = f_0 q^2 / (1 - q), and the g and h
    tails carry the extra factors (r2 - z) q and (r2 - 2z) q.
    """
    base = f0("skew", order)
    q = inv_r1("skew", order)
    z = Series.z(order)
    rt = r2("skew", order)
    geom = base * q.pow(2) / (1 - q)
    return (geom, (rt - z) * q * geom, (rt - 2 * z) * q * geom)


# -- reference sequences ---------------------------------------------------

# axis counts of the plain catastrophe model, n = 0..13
A224747 = (1, 0, 1, 1, 3, 5, 12, 23, 52, 105, 232, 480, 1049, 2199)

# total counts of the plain catastrophe model shifted by one step, n = 0..11
A274115_PREFIX = (1, 1, 1, 2, 4, 8, 17, 35, 75, 157, 337, 712)


def matches_prefix(series: Series, prefix) -> bool:
    """Compare a series against an integer prefix over their overlap."""
    top = min(series.order, len(prefix) - 1)
    return all(series.coeff(i) == prefix[i] for i in range(top + 1))


def oeis_shift_check(order: int) -> bool:
    """Does 1 + z * open_total(plain) match the reference shifted sequence?"""
    if order < 1:
        raise ValueError("order must be >= 1")
    shifted = 1 + Series.z(order) * open_total("dyck", order)
    return matches_prefix(shifted, A274115_PREFIX)


# -- name registry ---------------------------------------------------------


class Entry(NamedTuple):
    """A registry series: how to expand it, and where the DP counts it.

    ``build(order)`` expands the closed form.  ``model`` is the preset whose
    count table holds the same numbers and ``view(table)`` reads them off a
    ``dp.CountTable`` of that model; both are None for series that count no
    paths (the discriminants and kernel roots).
    """

    name: str
    build: Callable
    model: ModelConfig | None = None
    view: Callable | None = None


_CLOSED = methodcaller("closed_series")
_OPEN = methodcaller("open_series")


def _layer(tag: LayerTag, level: int):
    return methodcaller("layer_series", tag, level)


# the fixed names; :func:`lookup` also builds the level entries fj:J, gj:J, hj:J
REGISTRY = {
    e.name: e
    for e in (
        Entry("disc-dyck", lambda n: disc("dyck", n)),
        Entry("disc-skew", lambda n: disc("skew", n)),
        Entry("r2-dyck", lambda n: r2("dyck", n)),
        Entry("r2-skew", lambda n: r2("skew", n)),
        Entry("f0-dyck-cat", lambda n: f0("dyck", n), DYCK_CAT, _CLOSED),
        Entry("open-dyck-cat", lambda n: open_total("dyck", n), DYCK_CAT, _OPEN),
        Entry("f0-skew-cat", lambda n: f0("skew", n), SKEW_CAT, _layer(LayerTag.F, 0)),
        Entry("g0-skew-cat", g0, SKEW_CAT, _layer(LayerTag.G, 0)),
        Entry("h0-skew-cat", h0, SKEW_CAT, _layer(LayerTag.H, 0)),
        Entry("fgh0-skew-cat", fgh0, SKEW_CAT, _CLOSED),
        Entry("open-skew-cat", lambda n: open_total("skew", n), SKEW_CAT, _OPEN),
    )
}

# the level families, counting the layers of model.LAYER_ORDER in turn
_LEVEL_SERIES = ("fj", "gj", "hj")


def series_names() -> list:
    """All registry names, the parameterized ones shown as fj:J etc."""
    return sorted(REGISTRY) + [f"{p}:J" for p in _LEVEL_SERIES]


def lookup(name: str) -> Entry:
    """The registry entry for a name: a fixed one such as "f0-skew-cat", or
    a level series such as "fj:3", "gj:0", "hj:2"."""
    key = name.strip().lower()
    if key in REGISTRY:
        return REGISTRY[key]
    head, colon, tail = key.partition(":")
    if colon and head in _LEVEL_SERIES:
        try:
            j = int(tail)
        except ValueError:
            raise UnknownSeriesName(f"bad level index in {name!r}") from None
        if j < 0:
            raise UnknownSeriesName(f"negative level index in {name!r}")
        slot = _LEVEL_SERIES.index(head)
        return Entry(
            f"{head}:{j}", lambda n: fj_family(j, n)[slot], SKEW_CAT, _layer(LAYER_ORDER[slot], j)
        )
    raise UnknownSeriesName(
        f"unknown generating function {name!r}; known: {', '.join(series_names())}"
    )


def series_by_name(name: str, order: int) -> Series:
    """Look up a generating function by registry name and expand it."""
    return lookup(name).build(order)
