"""Exact big-integer path counting by a level-vector transfer DP.

A row counts the paths of one length by end state: a tuple (F, G, H) of int
lists indexed by level, one per layer (after an up-step, the start or a
catastrophe; after a black down-step; after a red down-step).
:class:`Transfer` advances a row one step by list shifts and ``map(add)``;
:func:`count` keeps one rolling row, :class:`CountTable` one row per length.

The rows also feed :func:`verify_recurrences`, which streams them two at a
time and confirms, coefficient by coefficient, the step-inflow identities
the per-(layer, level) generating functions must satisfy.  Its
:class:`Check` and :class:`Report` are the result types of every suite in
:mod:`verify` too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add

from .automaton import State
from .model import INCOMING, LAYER_ORDER, STEP_ORDER, FinalSpec, LayerTag, ModelConfig
from .model import normalize_final
from .series import Series

UP, DOWN_BLACK, DOWN_RED, CATASTROPHE = STEP_ORDER


class Transfer:
    """The level-vector transfer step of one model.

    ``sources[step]`` holds the layers (indices into ``LAYER_ORDER``) whose
    states may take ``step``.  (F, 0) is its own slot: the start and the
    catastrophe target carry no adjacency constraint, so it may take any
    step of the model, and only an up-step leaves level 0.
    """

    def __init__(self, config: ModelConfig):
        # a layer no step of the model enters stays empty; (F, 0) holds the start
        live = [j for j, tag in enumerate(LAYER_ORDER) if j == 0 or INCOMING[tag] in config.steps]
        after = {j: config.next_steps(INCOMING[LAYER_ORDER[j]]) for j in live}
        self.sources = {step: tuple(j for j in live if step in after[j]) for step in STEP_ORDER}
        self.lift_start = UP in config.steps and 0 not in self.sources[UP]
        self.firing = config.catastrophe.firing

    def __call__(self, row: tuple, size: int) -> tuple:
        """The row one step longer, cut to levels 0..size-1 (size <= len + 1)."""
        sums = {(): [0] * len(row[0]), (0,): row[0], (1,): row[1], (2,): row[2]}

        def inflow(step):  # the elementwise sum of the layers that may take ``step``
            layers = self.sources[step]
            for k in range(2, len(layers) + 1):
                if layers[:k] not in sums:
                    sums[layers[:k]] = list(map(add, sums[layers[: k - 1]], row[layers[k - 1]]))
            return sums[layers]

        fire = inflow(CATASTROPHE)
        f = [sum(map(fire.__getitem__, self.firing(len(fire) - 1)))]
        f += inflow(UP)[: size - 1]
        if self.lift_start and size > 1:
            f[1] += row[0][0]
        g, h = (inflow(step)[1 : size + 1] for step in (DOWN_BLACK, DOWN_RED))
        return f, g + [0] * (size - len(g)), h + [0] * (size - len(h))

    def predecessors(self, prev: tuple, layer: int, level: int):
        """The moves into (layer, level) from the row ``prev`` one step
        shorter, as (count, (step, layer, level)); catastrophe sources come
        lowest level first."""
        top = len(prev[0]) - 1
        if layer == level == 0:
            cat = self.sources[CATASTROPHE]
            return ((prev[j][i], (CATASTROPHE, j, i)) for i in self.firing(top) for j in cat)
        step = INCOMING[LAYER_ORDER[layer]]
        i = level - 1 if step is UP else level + 1
        moves = [(prev[j][i], (step, j, i)) for j in self.sources[step] if i <= top]
        if self.lift_start and (layer, level) == (0, 1):
            moves.append((prev[0][0], (UP, 0, 0)))
        return moves

    def rows(self, n: int, want: int | None = None):
        """The rows of lengths 0..n in turn; the row of length t has levels 0..t.

        Without catastrophes a level above ``want`` plus the steps left
        cannot come down in time, so given ``want`` it is dropped.
        """
        if n < 0:
            raise ValueError("path length must be >= 0")
        trim = want is not None and not (self.sources[CATASTROPHE] and self.firing(n))
        row = ([1], [0], [0])  # length 0: the empty path, in (F, 0)
        yield row
        for t in range(1, n + 1):
            row = self(row, min(t, want + n - t) + 1 if trim else t + 1)
            yield row


def ending(row: tuple, want: int | None) -> int:
    """The paths of one row that end at level ``want``, or anywhere if None."""
    if want is None:
        return sum(map(sum, row))
    return sum(vec[want] for vec in row) if 0 <= want < len(row[0]) else 0


def count(config: ModelConfig, n: int, final: FinalSpec) -> int:
    """The number of length-n paths meeting the end condition ``final``,
    from one rolling row."""
    want = normalize_final(final)
    for row in Transfer(config).rows(n, want):
        pass
    return ending(row, want)


class CountTable:
    """Counts of paths by length and end state for one model."""

    def __init__(self, config: ModelConfig, rows: list):
        self.config = config
        self._rows = rows

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def _row(self, n: int) -> tuple:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"length {n} outside table range 0..{self.n_max}")
        return self._rows[n]

    def level_count(self, n: int, level: int) -> int:
        return ending(self._row(n), level)

    def closed_count(self, n: int) -> int:
        return self.level_count(n, 0)

    def open_count(self, n: int) -> int:
        return ending(self._row(n), None)

    def final_counts(self, n: int) -> dict:
        """All nonzero end-state counts at length n, keyed by State."""
        return {
            State(layer, level): c
            for layer, vec in zip(LAYER_ORDER, self._row(n))
            for level, c in enumerate(vec)
            if c
        }

    def _upto(self, order: int | None) -> list:
        """The rows for lengths 0..order; all of them when order is None."""
        if order is None:
            return self._rows
        if not 0 <= order <= self.n_max:
            raise ValueError(f"order {order} outside table range 0..{self.n_max}")
        return self._rows[: order + 1]

    def layer_series(self, layer: LayerTag, level: int, order: int | None = None) -> Series:
        """Counts ending in (layer, level) as a power series in the length."""
        j = LAYER_ORDER.index(layer)
        return Series(
            [row[j][level] if 0 <= level < len(row[j]) else 0 for row in self._upto(order)]
        )

    def level_series(self, level: int, order: int | None = None) -> Series:
        """Counts ending at ``level``, all layers merged, as a power series."""
        return Series([ending(row, level) for row in self._upto(order)])

    def closed_series(self, order: int | None = None) -> Series:
        return self.level_series(0, order)

    def open_series(self, order: int | None = None) -> Series:
        return Series([ending(row, None) for row in self._upto(order)])


def count_table(config: ModelConfig, n_max: int) -> CountTable:
    """The count table of a model for all lengths up to ``n_max``."""
    return CountTable(config, list(Transfer(config).rows(n_max)))


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


def verify_recurrences(config: ModelConfig, order: int) -> Report:
    """Check the step-inflow identities of a model's counting series.

    Writing f_i, g_i, h_i for the series of counts ending in (F, i), (G, i),
    (H, i), a model with red steps is checked against the "skew" system

        f_{i+1} = z (f_i + g_i)                 up-steps never follow a red step
        g_i     = z (f_{i+1} + g_{i+1} + h_{i+1})
        h_i     = z (g_{i+1} + h_{i+1})         red steps never follow an up-step
        f_0     = 1 + z * sum of (f_i + g_i + h_i) over catastrophe levels i

    and any other model against the "dyck" system on the merged t_i:

        t_i = z (t_{i-1} + t_{i+1})   for i >= 1
        t_0 = 1 + z t_1 + z * sum of t_i over catastrophe levels i

    The catastrophe levels are those of the rule, and none when the model
    lacks the catastrophe step.  The identities are written out here, not
    derived from :class:`Transfer`, so they check the kernel rather than
    restate it; they encode the preset adjacency rules, so a model outside
    them fails.  Coefficient by coefficient, the z^t identity ties the row
    of length t to the row of length t - 1 (all zero for t = 0), so the
    rows stream past two at a time.  A failed check names its first failing
    instance and the first coefficient where it fails.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    start = time.perf_counter()
    n = order
    cat = config.catastrophe.firing(n) if CATASTROPHE in config.steps else ()
    inflow = [f"i={i}" for i in range(n)]
    if DOWN_RED in config.steps:
        system = "skew"
        labels = {
            "up-inflow": inflow,
            "black-down-inflow": inflow,
            "red-down-inflow": inflow,
            "axis-boundary": ["f0"],
        }

        def sides(t, row, prev):  # the (lhs, rhs) coefficient pairs of each check
            (f, g, h), (pf, pg, ph) = row, prev
            return (
                [(f[i + 1], pf[i] + pg[i]) for i in range(n)],
                [(g[i], pf[i + 1] + pg[i + 1] + ph[i + 1]) for i in range(n)],
                [(h[i], pg[i + 1] + ph[i + 1]) for i in range(n)],
                [(f[0], (t == 0) + sum(pf[i] + pg[i] + ph[i] for i in cat))],
            )

    else:
        system = "dyck"
        labels = {"interior": inflow[1:], "axis-boundary": ["t0"]}

        def sides(t, row, prev):
            s, ps = (list(map(sum, zip(*r))) for r in (row, prev))
            return (
                [(s[i], ps[i - 1] + ps[i + 1]) for i in range(1, n)],
                [(s[0], (t == 0) + ps[1] + sum(ps[i] for i in cat))],
            )

    first: dict = {}  # check name -> (instance, t, lhs, rhs) of its first failure
    prev = ([0] * (n + 1),) * 3
    for t, row in enumerate(Transfer(config).rows(n)):
        row = tuple(vec + [0] * (n + 1 - len(vec)) for vec in row)
        for name, pairs in zip(labels, sides(t, row, prev)):
            # only an earlier instance than the one already failing can take its place
            below = first.get(name, (len(pairs),))[0]
            k = next((k for k in range(below) if pairs[k][0] != pairs[k][1]), None)
            if k is not None:
                first[name] = (k, t, *pairs[k])
        prev = row

    checks = []
    for name, instances in labels.items():
        if name in first:
            k, t, lhs, rhs = first[name]
            detail = f"fails at {instances[k]}, coefficient of z^{t}: {lhs} != {rhs}"
            checks.append(Check(name, False, detail))
        else:
            checks.append(Check(name, True, f"{len(instances)} instances checked"))
    return Report(system, checks, int((time.perf_counter() - start) * 1000))
