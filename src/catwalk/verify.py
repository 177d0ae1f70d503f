"""Cross-route verification suites.

Each suite bundles checks that pit independent computation routes against
each other: closed forms against the dynamic programming counts, both
against brute-force enumeration, the kernel roots against the kernel, the
count rows against their step-inflow identities, and the low-order
coefficients against externally published sequences.  The recurrences
suite checks every preset against one system on the layers F, G and H
(:func:`dp.verify_recurrences`): without red steps H is empty, and the
split identities imply the merged ones on f_i + g_i.  Every series check
is built by :func:`compare`.  A :class:`Report` is a flat list of named
pass/fail :class:`Check` results plus timing, ready for text or JSON
output.  tests/test_fault_matrix.py pins the checks each of a table of
planted faults fails: every check is the only one to catch some fault, or
follows from checks named there.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import NamedTuple

from . import brute, closedform as cf, dp
from .dp import Check
from .model import CatastropheRule, DYCK_CAT, PRESETS, SKEW, SKEW_CAT, with_rule
from .series import Series


class Report(NamedTuple):
    """The checks of one verify suite, or of all of them."""

    name: str
    checks: list
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "checks": [
                {"name": c.name, "status": "pass" if c.ok else "fail", "detail": c.detail}
                for c in self.checks
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def compare(name: str, pairs, detail_ok: str) -> Check:
    """A check that each ``(label, lhs, rhs)`` pair of series agrees over
    their common order: the one builder of every series check of the suites.

    A failure names the first pair and the first coefficient that differ,
    with both values; a pass reports ``detail_ok``.
    """
    for label, lhs, rhs in pairs:
        n = lhs.first_difference(rhs)
        if n is not None:
            return Check(
                name,
                False,
                f"fails at {label}, coefficient of z^{n}: {lhs.coeff(n)} != {rhs.coeff(n)}",
            )
    return Check(name, True, detail_ok)


def _suite_kernel(order: int, max_n: int) -> list:
    checks = []
    zero = Series.zero(order)
    for model in cf.MODELS:
        res = cf.kernel_residual(model, order)
        checks.append(
            compare(
                f"kernel-root-{model}",
                [("K(r2)", res, zero)],
                f"K(r2) vanishes through z^{order}",
            )
        )
        # 1/r1 is a root of the reciprocal kernel:  low v^2 - mid v + z = 0
        # (recover low and mid by evaluating the kernel at u = 0 and u = 1)
        q = cf.inv_r1(model, order)
        z = Series.z(order)
        low = cf.kernel_at(model, zero)
        mid = low + z - cf.kernel_at(model, Series.one(order))
        checks.append(
            compare(
                f"reciprocal-root-{model}",
                [("reciprocal kernel at 1/r1", low * q * q - mid * q + z, zero)],
                f"reciprocal kernel vanishes at 1/r1 through z^{order}",
            )
        )
    return checks


def _suite_recurrences(order: int, max_n: int) -> list:
    checks = []
    for name, config in sorted(PRESETS.items()):
        failures = [c for c in dp.verify_recurrences(config, order) if not c.ok]
        if failures:
            detail = f"{failures[0].name}: {failures[0].detail}"
        else:
            detail = f"step-inflow identities hold through z^{order}"
        checks.append(Check(f"recurrences-{name}", not failures, detail))
    return checks


def _suite_oracle(order: int, max_n: int) -> list:
    checks = []
    variants = dict(sorted(PRESETS.items()))
    variants["dyck-cat-even"] = with_rule(DYCK_CAT, CatastropheRule.even_min(2))
    variants["skew-cat-even"] = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    geo_cap = min(max_n, 12)
    skew = {}  # n -> the red paths of SKEW, for the geometric comparison below
    for name, config in variants.items():
        table = dp.count_table(config, max_n)
        ok, detail = True, f"enumeration matches table for n <= {max_n}"
        tail_counts: dict = {}  # each list of tails with its count, across lengths
        for n, halves in enumerate(brute.red_lengths(config, max_n)):
            if name == "skew" and n <= geo_cap:
                skew[n] = brute.join(halves)
            listed, counted = brute.census(halves, tail_counts), table.final_counts(n)
            if listed != counted:
                # the first (layer, level) in sorted order whose counts differ
                key = min(
                    k for k in listed.keys() | counted.keys() if listed[k] != counted.get(k, 0)
                )
                ok, detail = False, (
                    f"census mismatch at n={n}, ({key[0]}, {key[1]}): "
                    f"{listed[key]} listed, {counted.get(key, 0)} counted"
                )
                break
        checks.append(Check(f"oracle-{name}", ok, detail))
    bad = None
    for n in range(geo_cap + 1):
        if not brute.models_agree(n, skew.get(n)):
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
    j_top = 10
    # the ladder `series --gf fj:J` prints, checked here against r2 and the
    # DP; the level-ladder check reads it and r2 j_top - 1 orders past n,
    # every other check at n
    big = n + j_top - 1
    ladder, r2_big = cf.level_ladder(j_top + 1, big), cf.r2("skew", big)
    fj = [f.truncate(n) for f in ladder]
    r2 = r2_big.truncate(n)
    # e_j = (2 - z^2) f_(j+1) - r2 f_j vanishes for every j, multiplied out
    # to avoid 1/r1.  Only e_0 and e_1 are formed; the kernel's rungs
    #     rho_j = z (2 - z^2) f_(j+1) - (1 + z^2) f_j + z f_(j-1) = 0
    # for 1 <= j <= j_top multiply sparse polynomials only.  With the kernel
    # K(u) = z u^2 - (1 + z^2) u + z (2 - z^2),
    #     z r2 e_j = z e_(j-1) + r2 rho_j - f_j K(r2),
    # and z r2 = 2 z^2 + ...: while K(r2) = 0, each rung costs e_j one
    # order, and with all of them compared through z^big, e_j = 0 holds
    # through z^(big - j + 1), at least z^n, for every j <= j_top.  e_0
    # cannot show K(r2) = 0: f_1 = f_0 r2 / (2 - z^2) takes r2's square
    # root, so e_0 vanishes for any root of the discriminant.  e_1 =
    # -f_0 K(r2) / (z (2 - z^2)) can: comparing it directly pins K(r2) = 0
    # through z^big, which the rungs need, so e_1 is not folded into them.
    two_m_z2 = Series([2, 0, -1], order=big)
    one_p_z2 = Series([1, 0, 1], order=big)
    z_big = Series.z(big)
    roots = ((f"j={j}", two_m_z2 * ladder[j + 1], r2_big * ladder[j]) for j in (0, 1))
    rungs = (
        (
            f"rung j={j}",
            z_big * two_m_z2 * ladder[j + 1],
            one_p_z2 * ladder[j] - z_big * ladder[j - 1],
        )
        for j in range(1, j_top + 1)
    )
    detail = f"(2 - z^2) f_(j+1) == r2 f_j for j <= {j_top}"
    checks.append(compare("level-ladder", chain(roots, rungs), detail))
    # (f_j, g_j, h_j) as `series --gf fj:J|gj:J|hj:J` forms them, for the
    # levels the DP checks below read
    j_dp = 5
    (f0, g0, h0), *levels = [cf.level_family(fj, r2, j) for j in range(j_dp + 1)]

    sf, sg, sh = cf.tail_sums(n)
    for name, lhs, rhs, detail in (
        ("g0-elimination", cf.g0_via_elimination(n), g0, "both g0 routes agree"),
        ("axis-sum", cf.fgh0(n), f0 + g0 + h0, "fgh0 == f0 + g0 + h0"),
        ("axis-boundary-tails", f0, 1 + z * (sf + sg + sh), "f0 == 1 + z (tail sums)"),
    ):
        checks.append(compare(name, [(name, lhs, rhs)], f"{detail} through z^{n}"))

    # every registry series with a DP view against its counts, read off one
    # stream of the kernel's rows per model; the level-0 series formed above
    # are not expanded again, and the level family starts at j = 1, past them
    known = {"f0-skew-cat": f0, "g0-skew-cat": g0, "h0-skew-cat": h0}
    viewed = [e for e in cf.REGISTRY.values() if e.view is not None]
    family = [
        (cf.lookup(f"{head}:{j}"), series)
        for j, fgh in enumerate(levels, 1)
        for head, series in zip(("fj", "gj", "hj"), fgh)
    ]
    entries = viewed + [e for e, _ in family]
    counted: dict = {}  # model -> view -> its counts as a series
    for model in dict.fromkeys(e.model for e in entries):
        wanted = [e.view for e in entries if e.model == model]
        counted[model] = dict(zip(wanted, dp.view_series(model, n, wanted)))
    for entry in viewed:
        closed = known[entry.name] if entry.name in known else entry.build(n)
        checks.append(
            compare(
                f"dp-{entry.name}",
                [(entry.name, closed, counted[entry.model][entry.view])],
                f"closed form matches table through z^{n}",
            )
        )
    checks.append(
        compare(
            "dp-level-family",
            ((e.name, series, counted[e.model][e.view]) for e, series in family),
            f"level series match table for 1 <= j <= {j_dp}",
        )
    )
    return checks


def _suite_oeis(order: int, max_n: int) -> list:
    axis = cf.f0("dyck", len(cf.A224747) - 1)
    n = len(cf.A274115_PREFIX) - 1
    shifted = 1 + Series.z(n) * cf.open_total("dyck", n)
    top = 2 * len(cf.A002212) - 2
    (closed,) = dp.view_series(SKEW, top, [(None, 0)])
    skew = Series([c for a in cf.A002212 for c in (a, 0)][: top + 1])  # none at odd lengths
    return [
        compare(
            "oeis-axis-dyck-cat",
            [("f0-dyck-cat", axis, Series(cf.A224747))],
            f"matches published sequence for n <= {axis.order}",
        ),
        compare(
            "oeis-open-shift",
            [("1 + z open-dyck-cat", shifted, Series(cf.A274115_PREFIX))],
            f"1 + z * open total matches shifted sequence for n <= {n}",
        ),
        compare(
            "oeis-skew-dyck",
            [("closed skew", closed, skew)],
            f"closed skew counts match published sequence for n <= {top}",
        ),
    ]


def _crash_site(exc: Exception) -> str:
    """``module.function`` of the innermost frame of ``exc``'s traceback in a
    catwalk module other than ``series``, a method named with its class where
    the interpreter records it (3.11+); the suite's own frame is one."""
    import traceback

    for frame, _ in reversed(list(traceback.walk_tb(exc.__traceback__))):
        module, code = frame.f_globals["__name__"], frame.f_code
        if module.startswith("catwalk.") and module != "catwalk.series":
            name = getattr(code, "co_qualname", code.co_name)
            return f"{module.removeprefix('catwalk.')}.{name}"


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
    enumerations.  A suite that raises, as a division by a wrong kernel root
    or an index past a faulty DP row does, is one failed check
    ``<suite>-error`` naming the exception and the innermost catwalk function
    outside the series engine that it passed through, and the other suites
    still run.  Raises ValueError for an unknown suite name, and lets a
    brute-force :class:`brute.SizeGuard` propagate if max_n is pushed past
    it: that is a refusal of the sizes asked for, not a fault.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    start = time.perf_counter()
    checks: list = []
    for name in sorted(_SUITES) if suite == "all" else [suite]:
        try:
            checks.extend(_SUITES[name](order, max_n))
        except brute.SizeGuard:
            raise
        except Exception as exc:
            detail = f"{type(exc).__name__} in {_crash_site(exc)}: {exc}"
            checks.append(Check(f"{name}-error", False, detail))
    elapsed = int((time.perf_counter() - start) * 1000)
    return Report(suite, checks, elapsed)
