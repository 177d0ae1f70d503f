"""Cross-route verification suites.

Each suite bundles checks that pit independent computation routes against
each other: closed forms against the dynamic programming counts, both
against brute-force enumeration, the kernel roots against the kernel, and
the low-order coefficients against externally published sequences.  A
report is a flat list of named pass/fail checks plus timing, ready for
text or JSON output.
"""

from __future__ import annotations

import time
from collections import Counter

from . import brute, closedform as cf, dp
from .dp import Check, Report
from .model import CatastropheRule, DYCK_CAT, PRESETS, SKEW_CAT, with_rule
from .series import Series


def _suite_kernel(order: int, max_n: int) -> list:
    checks = []
    for model in cf.MODELS:
        res = cf.kernel_residual(model, order)
        checks.append(
            Check(
                f"kernel-root-{model}",
                res.is_zero(),
                f"K(r2) vanishes through z^{order}"
                if res.is_zero()
                else f"K(r2) nonzero at z^{res.valuation()}",
            )
        )
        # 1/r1 is a root of the reciprocal kernel:  low v^2 - mid v + z = 0
        # (recover low and mid by evaluating the kernel at u = 0 and u = 1)
        q = cf.inv_r1(model, order)
        z = Series.z(order)
        low = cf.kernel_at(model, Series.zero(order))
        mid = low + z - cf.kernel_at(model, Series.one(order))
        rec = low * q * q - mid * q + z
        checks.append(
            Check(
                f"reciprocal-root-{model}",
                rec.is_zero(),
                f"reciprocal kernel vanishes at 1/r1 through z^{order}"
                if rec.is_zero()
                else f"nonzero at z^{rec.valuation()}",
            )
        )
    return checks


def _suite_recurrences(order: int, max_n: int) -> list:
    checks = []
    for name, config in sorted(PRESETS.items()):
        report = dp.verify_recurrences(config, order)
        if report.ok:
            detail = f"{report.name} system holds through z^{order}"
        else:
            first = report.failures()[0]
            detail = f"{first.name}: {first.detail}"
        checks.append(Check(f"recurrences-{name}", report.ok, detail))
    return checks


def _suite_oracle(order: int, max_n: int) -> list:
    checks = []
    variants = dict(sorted(PRESETS.items()))
    variants["dyck-cat-even"] = with_rule(DYCK_CAT, CatastropheRule.even_min(2))
    variants["skew-cat-even"] = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    for name, config in variants.items():
        table = dp.count_table(config, max_n)
        bad = None
        for n in range(max_n + 1):
            paths = brute.enumerate_red(config, n)
            if Counter((p.final_layer, p.final_level) for p in paths) != table.final_counts(n):
                bad = n
                break
        checks.append(
            Check(
                f"oracle-{name}",
                bad is None,
                f"enumeration matches table for n <= {max_n}"
                if bad is None
                else f"census mismatch at n={bad}",
            )
        )
    geo_cap = min(max_n, 12)
    bad = None
    for n in range(geo_cap + 1):
        if not brute.models_agree(n):
            bad = n
            break
    checks.append(
        Check(
            "oracle-geometric",
            bad is None,
            f"red and geometric enumerations agree for n <= {geo_cap}"
            if bad is None
            else f"disagree at n={bad}",
        )
    )
    return checks


def _suite_theorem(order: int, max_n: int) -> list:
    checks = []
    n = order
    z = Series.z(n)
    two_m_z2 = Series([2, 0, -1], order=n)
    r2 = cf.r2("skew", n)
    q = cf.inv_r1("skew", n)
    f0 = cf.f0("skew", n)
    j_top = 10

    fj = [f0]
    for _ in range(j_top + 1):
        fj.append(fj[-1] * q)
    gj = [(r2 - z) * f0 * q]
    hj = [(r2 - 2 * z) * f0 * q]
    for _ in range(j_top):
        gj.append(gj[-1] * q)
        hj.append(hj[-1] * q)
    levels = range(j_top + 1)
    # ladder between consecutive level series, multiplied out to avoid 1/r1
    checks.append(
        dp.compare(
            "level-ladder",
            ((f"j={j}", two_m_z2 * fj[j + 1], r2 * fj[j]) for j in levels),
            f"(2 - z^2) f_(j+1) == r2 f_j for j <= {j_top}",
        )
    )
    checks.append(
        dp.compare(
            "channel-difference",
            ((f"j={j}", hj[j], gj[j] - z * fj[j + 1]) for j in levels),
            f"h_j == g_j - z f_(j+1) for j <= {j_top}",
        )
    )

    sf, sg, sh = cf.tail_sums(n)
    for name, lhs, rhs, detail in (
        ("g0-elimination", cf.g0_via_elimination(n), gj[0], "both g0 routes agree"),
        ("axis-sum", cf.fgh0(n), f0 + gj[0] + hj[0], "fgh0 == f0 + g0 + h0"),
        ("axis-boundary-tails", f0, 1 + z * (sf + sg + sh), "f0 == 1 + z (tail sums)"),
    ):
        checks.append(dp.compare(name, [(name, lhs, rhs)], f"{detail} through z^{n}"))

    # every registry series with a DP view against its counts, read off one
    # stream of the kernel's rows per model; the level-0 series expanded above
    # are not expanded again
    known = {"f0-skew-cat": f0, "g0-skew-cat": gj[0], "h0-skew-cat": hj[0]}
    viewed = [e for e in cf.REGISTRY.values() if e.view is not None]
    j_dp = min(j_top, 5)
    family = [
        (cf.lookup(f"{head}:{j}"), series)
        for j in range(j_dp + 1)
        for head, series in (("fj", fj[j]), ("gj", gj[j]), ("hj", hj[j]))
    ]
    entries = viewed + [e for e, _ in family]
    counted: dict = {}  # model -> view -> its counts as a series
    for model in dict.fromkeys(e.model for e in entries):
        wanted = [e.view for e in entries if e.model == model]
        counted[model] = dict(zip(wanted, dp.view_series(model, n, wanted)))
    for entry in viewed:
        closed = known[entry.name] if entry.name in known else entry.build(n)
        checks.append(
            dp.compare(
                f"dp-{entry.name}",
                [(entry.name, closed, counted[entry.model][entry.view])],
                f"closed form matches table through z^{n}",
            )
        )
    checks.append(
        dp.compare(
            "dp-level-family",
            ((e.name, series, counted[e.model][e.view]) for e, series in family),
            f"level series match table for j <= {j_dp}",
        )
    )
    return checks


def _suite_oeis(order: int, max_n: int) -> list:
    axis = cf.f0("dyck", len(cf.A224747) - 1)
    ok_axis = cf.matches_prefix(axis, cf.A224747)
    ok_shift = cf.oeis_shift_check(len(cf.A274115_PREFIX) - 1)
    return [
        Check(
            "oeis-axis-dyck-cat",
            ok_axis,
            f"matches published sequence for n <= {len(cf.A224747) - 1}",
        ),
        Check(
            "oeis-open-shift",
            ok_shift,
            f"1 + z * open total matches shifted sequence for n <= {len(cf.A274115_PREFIX) - 1}",
        ),
    ]


_SUITES = {
    "kernel": _suite_kernel,
    "recurrences": _suite_recurrences,
    "oracle": _suite_oracle,
    "theorem": _suite_theorem,
    "oeis": _suite_oeis,
}

SUITES = ("all",) + tuple(sorted(_SUITES))


def run_suite(suite: str = "all", order: int = 100, max_n: int = 12) -> Report:
    """Run one named suite (or all of them) and collect the report.

    ``order`` bounds the series comparisons, ``max_n`` the brute-force
    enumerations.  Raises ValueError for an unknown suite name and lets the
    brute-force size guards propagate if max_n is pushed past them.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if suite == "all":
        builders = [_SUITES[k] for k in sorted(_SUITES)]
    elif suite in _SUITES:
        builders = [_SUITES[suite]]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    start = time.perf_counter()
    checks: list = []
    for b in builders:
        checks.extend(b(order, max_n))
    elapsed = int((time.perf_counter() - start) * 1000)
    return Report(suite, checks, elapsed)
