"""Exact big-integer path counting by dynamic programming over the automaton.

A :class:`CountTable` holds, for every length ``n <= n_max`` and every
automaton state, the number of paths of length n that end in that state.
The table is filled by one forward sweep; all counts are exact Python ints.

The same table doubles as the data for the recurrence checker
:func:`verify_recurrences`, which re-reads the table as a family of
generating functions per (layer, level) and confirms the step-inflow
identities those series must satisfy.  Its :class:`Check` and
:class:`Report` are the result types of every suite in :mod:`verify` too.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

from . import automaton as automaton_mod
from .automaton import Automaton, State, sort_key
from .model import LayerTag, ModelConfig, StepKind
from .series import Series


class CountTable:
    """Counts of paths by length and end state for one model."""

    def __init__(self, auto: Automaton, slices: list):
        self._auto = auto
        self._slices = slices

    @property
    def config(self) -> ModelConfig:
        return self._auto.config

    @property
    def auto(self) -> Automaton:
        return self._auto

    @property
    def n_max(self) -> int:
        return len(self._slices) - 1

    def _slice(self, n: int) -> dict:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"length {n} outside table range 0..{self.n_max}")
        return self._slices[n]

    def state_count(self, n: int, state: State) -> int:
        return self._slice(n).get(state, 0)

    def level_count(self, n: int, level: int) -> int:
        return sum(c for st, c in self._slice(n).items() if st.level == level)

    def closed_count(self, n: int) -> int:
        return self.level_count(n, 0)

    def open_count(self, n: int) -> int:
        return sum(self._slice(n).values())

    def final_counts(self, n: int) -> dict:
        """All nonzero end-state counts at length n, keyed by State."""
        return dict(self._slice(n))

    def _upto(self, order: int | None) -> list:
        """The slices for lengths 0..order; all of them when order is None."""
        if order is None:
            return self._slices
        if not 0 <= order <= self.n_max:
            raise ValueError(f"order {order} outside table range 0..{self.n_max}")
        return self._slices[: order + 1]

    def layer_series(self, layer: LayerTag, level: int, order: int | None = None) -> Series:
        """Counts ending in (layer, level) as a power series in the length."""
        st = State(layer, level)
        return Series([sl.get(st, 0) for sl in self._upto(order)])

    def level_series(self, level: int, order: int | None = None) -> Series:
        """Counts ending at ``level``, all layers merged, as a power series."""
        return Series(
            [
                sum(c for st, c in sl.items() if st.level == level)
                for sl in self._upto(order)
            ]
        )

    def closed_series(self, order: int | None = None) -> Series:
        return self.level_series(0, order)

    def layer_series_map(self, order: int | None = None) -> dict:
        """All per-(layer, level) series at once, keyed by (LayerTag, level).

        One sweep over the table; prefer this to calling ``layer_series`` in
        a loop over levels.
        """
        slices = self._upto(order)
        acc: dict = {}
        for n, sl in enumerate(slices):
            for st, c in sl.items():
                key = (st.layer, st.level)
                if key not in acc:
                    acc[key] = [0] * len(slices)
                acc[key][n] = c
        return {key: Series(lst) for key, lst in acc.items()}

    def level_series_map(self, order: int | None = None) -> dict:
        """Per-level series with layers merged, keyed by level."""
        slices = self._upto(order)
        acc: dict = {}
        for n, sl in enumerate(slices):
            for st, c in sl.items():
                if st.level not in acc:
                    acc[st.level] = [0] * len(slices)
                acc[st.level][n] += c
        return {lv: Series(lst) for lv, lst in acc.items()}

    def open_series(self, order: int | None = None) -> Series:
        return Series([sum(sl.values()) for sl in self._upto(order)])

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["n", "state", "count"])
        for n, sl in enumerate(self._slices):
            for st in sorted(sl, key=sort_key):
                writer.writerow([n, str(st), sl[st]])


def count_table(config: ModelConfig, n_max: int, max_level: int | None = None) -> CountTable:
    """Fill the count table for all lengths up to ``n_max``.

    ``max_level`` defaults to ``n_max``, which is always enough: a path of
    length n cannot climb past level n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if max_level is None:
        max_level = n_max
    auto = automaton_mod.build(config, max_level)
    cur = {auto.start: 1}
    slices = [dict(cur)]
    for _ in range(n_max):
        nxt: dict = {}
        for st, cnt in cur.items():
            for _step, tgt in auto.successors(st):
                nxt[tgt] = nxt.get(tgt, 0) + cnt
        slices.append(nxt)
        cur = nxt
    return CountTable(auto, slices)


# -- checks, reports and recurrence verification ---------------------------


@dataclass
class Check:
    """One named pass/fail result; ``detail`` says what held or what broke."""

    name: str
    ok: bool
    detail: str


@dataclass
class Report:
    """The checks of one verify suite or of one recurrence system."""

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


class RecurrenceViolation(Exception):
    """A count table does not satisfy the requested recurrence system."""


def compare(name: str, pairs, detail_ok: str | None = None) -> Check:
    """A check that each ``(label, lhs, rhs)`` pair of series agrees.

    A failure names the first pair and the first coefficient that differ;
    a pass reports ``detail_ok``, by default the number of pairs checked.
    """
    count = 0
    for label, lhs, rhs in pairs:
        count += 1
        n = lhs.first_difference(rhs)
        if n is not None:
            return Check(
                name,
                False,
                f"fails at {label}, coefficient of z^{n}: {lhs.coeff(n)} != {rhs.coeff(n)}",
            )
    return Check(name, True, detail_ok or f"{count} instances checked")


def infer_system(config: ModelConfig) -> str:
    """Pick the recurrence family matching a config: layered for red-step
    models, merged single-sequence otherwise."""
    return "skew" if StepKind.DOWN_RED in config.steps else "dyck"


def verify_recurrences(
    config: ModelConfig,
    order: int,
    system: str | None = None,
    strict: bool = True,
) -> Report:
    """Check the step-inflow identities of a model's counting series.

    The "skew" system keeps the three layers separate and checks, writing
    f_i, g_i, h_i for the series of counts ending in (F, i), (G, i), (H, i):

        f_{i+1} = z (f_i + g_i)                 up-steps never follow a red step
        g_i     = z (f_{i+1} + g_{i+1} + h_{i+1})
        h_i     = z (g_{i+1} + h_{i+1})         red steps never follow an up-step
        f_0     = 1 + z * sum of (f_i + g_i + h_i) over catastrophe levels i

    The "dyck" system merges layers into t_i and checks

        t_i = z (t_{i-1} + t_{i+1})   for i >= 1
        t_0 = 1 + z t_1 + z * sum of t_i over catastrophe levels i

    The identities encode the preset adjacency rules, so feeding the wrong
    system to a table (pass ``system=`` explicitly) is a deliberate way to
    watch the check fail.  With ``strict`` a failure raises
    :class:`RecurrenceViolation`; otherwise the report carries the failures.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if system is None:
        system = infer_system(config)
    if system not in ("dyck", "skew"):
        raise ValueError(f"unknown recurrence system {system!r}")

    start = time.perf_counter()
    table = count_table(config, order)
    n = order
    rule = config.catastrophe
    cat_levels = [i for i in range(1, n + 1) if rule.allows(i)]
    z = Series.z(n)
    checks: list = []

    if system == "skew":
        by_key = table.layer_series_map(n)
        nil = Series.zero(n)
        f = [by_key.get((LayerTag.F, i), nil) for i in range(n + 1)]
        g = [by_key.get((LayerTag.G, i), nil) for i in range(n + 1)]
        h = [by_key.get((LayerTag.H, i), nil) for i in range(n + 1)]
        checks.append(
            compare(
                "up-inflow",
                ((f"i={i}", f[i + 1], z * (f[i] + g[i])) for i in range(n)),
            )
        )
        checks.append(
            compare(
                "black-down-inflow",
                ((f"i={i}", g[i], z * (f[i + 1] + g[i + 1] + h[i + 1])) for i in range(n)),
            )
        )
        checks.append(
            compare(
                "red-down-inflow",
                ((f"i={i}", h[i], z * (g[i + 1] + h[i + 1])) for i in range(n)),
            )
        )
        inflow = Series.zero(n)
        for i in cat_levels:
            inflow = inflow + f[i] + g[i] + h[i]
        checks.append(
            compare("axis-boundary", [("f0", f[0], 1 + z * inflow)])
        )
    else:
        by_level = table.level_series_map(n)
        nil = Series.zero(n)
        t = [by_level.get(i, nil) for i in range(n + 1)]
        checks.append(
            compare(
                "interior",
                ((f"i={i}", t[i], z * (t[i - 1] + t[i + 1])) for i in range(1, n)),
            )
        )
        inflow = Series.zero(n)
        for i in cat_levels:
            inflow = inflow + t[i]
        checks.append(
            compare("axis-boundary", [("t0", t[0], 1 + z * t[1] + z * inflow)])
        )

    report = Report(system, checks, int((time.perf_counter() - start) * 1000))
    if strict and not report.ok:
        first = report.failures()[0]
        raise RecurrenceViolation(f"{first.name}: {first.detail}")
    return report
