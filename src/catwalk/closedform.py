"""Closed-form generating functions for the preset path models.

Everything here is an algebraic function of z expanded exactly with
:class:`series.Series`; the dynamic-programming route in :mod:`dp` computes
the same coefficients without ever touching these formulas, which is what
makes comparing the two routes a meaningful check.  This module never
imports :mod:`dp`: its name registry only says, per series, which preset
counts the same paths and in which (layer, level) end state of the DP's
rows, None meaning any layer or any level.

The kernel of a model is the quadratic K(u) = z u^2 - mid u + z r1 r2 that
governs its level recursion (u marks the level, z the length): mid = 1 and
r1 r2 = 1 for the plain model, mid = 1 + z^2 and r1 r2 = 2 - z^2 for the red
one.  r2 denotes the root that is a power series (valuation 1); r1 is the
other, Laurent, root, and only 1/r1 = r2 / (r1 r2) is ever needed.

The kernel method puts every fixed closed form in Q(z)[sqrt(disc)], disc
being the kernel's discriminant.  Each one, the roots r2 and 1/r1 included,
is a row (A, B, D) of polynomial data over its kernel, meaning
(A + B sqrt(disc)) / D, and one expander turns any row into a series.

Level-j series of the red model with catastrophes, with q = 1/r1:

    f_j = f_0 q^j
    g_j = (r2 - z)  f_0 q^{j+1}
    h_j = (r2 - 2z) f_0 q^{j+1}

and the axis boundary is recovered from the tails over levels j >= 2,
e.g. sum f_j = f_0 q^2 / (1 - q).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .model import DYCK_CAT, LAYER_ORDER, SKEW_CAT, ModelConfig, parse_natural
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


class _Kernel(NamedTuple):
    """K(u) = z u^2 - mid u + z (r1 r2); polynomials in z, low to high."""

    disc: tuple  # mid^2 - 4 z^2 (r1 r2)
    mid: tuple
    root_product: tuple  # r1 r2


_KERNELS = {
    "dyck": _Kernel(disc=(1, 0, -4), mid=(1,), root_product=(1,)),
    "skew": _Kernel(disc=(1, 0, -6, 0, 5), mid=(1, 0, 1), root_product=(2, 0, -1)),
}

# twice the shared denominators of the catastrophe presets' forms
_DEN_DYCK = (2, -2, -4, -2)  # 2 (1 - z - 2z^2 - z^3)
_DEN_SKEW = (2, 0, -4, -12, -6, 2, 2)  # 2 (1 - 2z^2 - 6z^3 - 3z^4 + z^5 + z^6)

# (A, B, D) of each closed form (A + B sqrt(disc)) / D, keyed by (form, model)
_FORMS = {
    **{("r2", m): (k.mid, (-1,), (0, 2)) for m, k in _KERNELS.items()},
    **{
        ("inv_r1", m): (k.mid, (-1,), (0, *(2 * c for c in k.root_product)))
        for m, k in _KERNELS.items()
    },
    ("f0", "dyck"): ((2, -3, -2), (0, 1), _DEN_DYCK),
    ("f0", "skew"): ((1, 0, 0, -9, -5, 3, 2), (1, 0, -1, -1), _DEN_SKEW),
    ("open", "dyck"): ((1, -1), (1, 1), _DEN_DYCK),
    ("open", "skew"): ((1, -3, 0, 8, 4, -1, -1), (1, 5, 3, -1, -1), _DEN_SKEW),
    ("fgh0", "skew"): ((3, -4, -8, 3, 6, 1, -1), (-1, 4, 3, -1, -1), _DEN_SKEW),
}


def disc(model: str, order: int) -> Series:
    """The kernel discriminant, 1 - 4z^2 or 1 - 6z^2 + 5z^4."""
    return _poly(_KERNELS[_check_model(model)].disc, order)


def _expand(form: str, model: str, order: int) -> Series:
    """The closed form (A + B sqrt(disc)) / D of ``form`` through z^order.

    D is z^v times a polynomial E with E(0) != 0.  The numerator is expanded
    v orders further, z^v is cancelled by a shift, and what is left is
    divided by E, or by the scalar E when E is a constant.
    """
    a, b, d = _FORMS[form, _check_model(model)]
    v = next(i for i, c in enumerate(d) if c)
    n = order + v
    s = disc(model, n).sqrt()
    num = _poly(a, n) + (s * b[0] if len(b) == 1 else _poly(b, n) * s)
    num, e = num.shift_down(v), d[v:]
    return num / e[0] if len(e) == 1 else num / _poly(e, order)


def r2(model: str, order: int) -> Series:
    """The power-series kernel root, (mid - sqrt(disc)) / (2z).

    mid is 1 for the plain model and 1 + z^2 for the red one.  The numerator
    has valuation >= 1, so dividing by 2z keeps everything a power series.
    """
    return _expand("r2", model, order)


def inv_r1(model: str, order: int) -> Series:
    """1/r1 = r2 / (r1 r2) as a power series, (mid - sqrt(disc)) / (2z r1 r2)."""
    return _expand("inv_r1", model, order)


def kernel_at(model: str, u: Series) -> Series:
    """Evaluate the kernel at an arbitrary series u (at u's order)."""
    k = _KERNELS[_check_model(model)]
    n = u.order
    z = Series.z(n)
    return z * u * u - _poly(k.mid, n) * u + _poly((0, *k.root_product), n)


def kernel_residual(model: str, order: int) -> Series:
    """K(r2); identically zero, coefficient by coefficient."""
    return kernel_at(model, r2(model, order))


# -- closed forms for the catastrophe presets ------------------------------


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
    return _expand("f0", model, order)


def open_total(model: str, order: int) -> Series:
    """All paths of the catastrophe model, any final level.

    plain: (1 - z + (1 + z) sqrt(1-4z^2)) / (2 (1 - z - 2z^2 - z^3))
    red:   ((1+z)(1 - 4z + 4z^2 + 4z^3 - z^5) + (1 + 5z + 3z^2 - z^3 - z^4)
           sqrt(1-6z^2+5z^4)) / (2 (1 - 2z^2 - 6z^3 - 3z^4 + z^5 + z^6))
    """
    return _expand("open", model, order)


def fgh0(order: int) -> Series:
    """All red-model catastrophe paths ending on the axis (f0 + g0 + h0).

    ((1 - z^2)(3 - z)(1 - z - 2z^2 - z^3) - (1 - 4z - 3z^2 + z^3 + z^4)
    sqrt(1-6z^2+5z^4)) / (2 (1 - 2z^2 - 6z^3 - 3z^4 + z^5 + z^6))
    """
    return _expand("fgh0", "skew", order)


def level_ladder(top: int, order: int) -> list:
    """The level series f_0 .. f_top of the red catastrophe model through z^order.

    With q = 1/r1, f_j = f_0 q^j.  q is a kernel root, so
    f_{i+1} = (mid f_i - z f_{i-1}) / (z r1 r2) climbs the ladder from f_0
    and f_1 = f_0 q; each step's division by z costs one order, so those
    two start top - 1 orders higher.
    """
    if top < 0:
        raise ValueError("level index must be >= 0")
    if top == 0:
        return [f0("skew", order)]
    k, n = _KERNELS["skew"], order + top - 1
    base = f0("skew", n)
    ladder = [base, base * inv_r1("skew", n)]
    mid, zrp = _poly(k.mid, n), _poly((0, *k.root_product), n)
    for _ in range(top - 1):
        ladder.append((mid * ladder[-1] - ladder[-2].shift_up()) / zrp)
    return [f.truncate(order) for f in ladder]


def level_family(ladder: list, rt: Series, j: int) -> tuple:
    """(f_j, g_j, h_j) of the red catastrophe model from a :func:`level_ladder`
    that reaches f_{j+1} and from r2: g_j = (r2 - z) f_{j+1} and
    h_j = g_j - z f_{j+1}, at their common order."""
    f_next = ladder[j + 1]
    zf = f_next.shift_up()
    g = rt * f_next - zf
    return ladder[j], g, g - zf


def fj_family(j: int, order: int) -> tuple:
    """The level-j layer series (f_j, g_j, h_j) of the red catastrophe model:
    :func:`level_family` of the ladder to f_{j+1} and r2, the function the
    theorem suite checks."""
    if j < 0:
        raise ValueError("level index must be >= 0")
    if j > order:
        # q has valuation 1, so every factor q^j vanishes through z^order
        return (Series.zero(order),) * 3
    return level_family(level_ladder(j + 1, order), r2("skew", order), j)


def g0_via_elimination(order: int) -> Series:
    """g0 computed the long way round, f0 (r2 - 2z + z^2 q) / (2z), q = 1/r1.

    Algebraically identical to the product form g0 = (r2 - z) f1 of
    :func:`level_family`, since f1 = f0 q; computing it through a different
    chain of operations, one product of f0 with a sum of the kernel roots,
    makes the agreement a check rather than a tautology.
    """
    n = order + 1
    base = f0("skew", n)
    num = base * (r2("skew", n) - 2 * Series.z(n) + inv_r1("skew", n).shift_up(2))
    return num.shift_down(1) / 2


def tail_sums(order: int) -> tuple:
    """Sums over levels j >= 2 of (f_j, g_j, h_j), as three series.

    Geometric in q = 1/r1:  S = sum f_j = f_2 / (1 - q), f_2 = f_0 q^2.
    g_j = (r2 - z) f_{j+1} and h_j = g_j - z f_{j+1}, so the g and h tails
    are (r2 - z) T and (r2 - z) T - z T, with T = S - f_2 = sum_{j>=3} f_j:
    one product for both.
    """
    base = f0("skew", order)
    q = inv_r1("skew", order)
    rt = r2("skew", order)
    f2 = base * q.pow(2)
    s = f2 / (1 - q)
    t = s - f2
    g = (rt - Series.z(order)) * t
    return (s, g, g - t.shift_up())


# -- reference sequences ---------------------------------------------------

# axis counts of the plain catastrophe model, n = 0..13
A224747 = (1, 0, 1, 1, 3, 5, 12, 23, 52, 105, 232, 480, 1049, 2199)

# total counts of the plain catastrophe model shifted by one step, n = 0..11
A274115_PREFIX = (1, 1, 1, 2, 4, 8, 17, 35, 75, 157, 337, 712)


# closed counts of the skew model at lengths 0, 2, ..., 20, the skew Dyck
# numbers (Deutsch, Munarini and Rinaldi, 2010); the odd lengths count none
A002212 = (1, 1, 3, 10, 36, 137, 543, 2219, 9285, 39587, 171369)


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
    paths it counts and ``view`` the (layer, level) end state they reach,
    None meaning any layer or any level, so the closed paths are (None, 0)
    and all paths (None, None); ``dp.view_series`` reads a view off the
    model's rows.  Both are None for series that count no paths (the
    discriminants and kernel roots).
    """

    name: str
    build: Callable
    model: ModelConfig | None = None
    view: tuple | None = None


# the fixed names; :func:`lookup` also builds the level entries fj:J, gj:J, hj:J
REGISTRY = {
    e.name: e
    for e in (
        Entry("disc-dyck", lambda n: disc("dyck", n)),
        Entry("disc-skew", lambda n: disc("skew", n)),
        Entry("r2-dyck", lambda n: r2("dyck", n)),
        Entry("r2-skew", lambda n: r2("skew", n)),
        Entry("f0-dyck-cat", lambda n: f0("dyck", n), DYCK_CAT, (None, 0)),
        Entry("open-dyck-cat", lambda n: open_total("dyck", n), DYCK_CAT, (None, None)),
        Entry("f0-skew-cat", lambda n: f0("skew", n), SKEW_CAT, ("F", 0)),
        Entry("g0-skew-cat", lambda n: fj_family(0, n)[1], SKEW_CAT, ("G", 0)),
        Entry("h0-skew-cat", lambda n: fj_family(0, n)[2], SKEW_CAT, ("H", 0)),
        Entry("fgh0-skew-cat", fgh0, SKEW_CAT, (None, 0)),
        Entry("open-skew-cat", lambda n: open_total("skew", n), SKEW_CAT, (None, None)),
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
            j = parse_natural(tail)
        except ValueError as exc:
            raise UnknownSeriesName(f"bad level index in {name!r}: {exc}") from None
        slot = _LEVEL_SERIES.index(head)
        return Entry(
            f"{head}:{j}", lambda n: fj_family(j, n)[slot], SKEW_CAT, (LAYER_ORDER[slot], j)
        )
    raise UnknownSeriesName(
        f"unknown generating function {name!r}; known: {', '.join(series_names())}"
    )


def series_by_name(name: str, order: int) -> Series:
    """Look up a generating function by registry name and expand it."""
    return lookup(name).build(order)
