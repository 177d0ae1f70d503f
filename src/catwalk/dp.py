"""Exact big-integer path counting by a level-vector transfer DP.

A row counts the paths of one length by end state: a tuple (F, G, H) of int
lists indexed by level, one per layer (after an up-step, the start or a
catastrophe; after a black down-step; after a red down-step).
:class:`Transfer` advances a row one step by list shifts and ``map(add)``.
:func:`ending` reads one row at a (layer, level) view, None meaning any
layer or any level.  :func:`count` keeps one rolling row, and so does
:func:`view_series`, which collects the series of each view the closed-form
registry names.  :class:`CountTable` keeps one row per length and reads
off it the closed and open counts, the nonzero end-state counts keyed by
:class:`State` and the series of one (layer, level); any other view is
:func:`count` or :func:`view_series`.

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
from typing import NamedTuple

from .model import INCOMING, LAYER_ORDER, STEP_ORDER, FinalSpec, LayerTag, ModelConfig
from .model import normalize_final
from .series import Series

UP, DOWN_BLACK, DOWN_RED, CATASTROPHE = STEP_ORDER


class State(NamedTuple):
    """An end state, the index of the paper's series f_j, g_j and h_j."""

    layer: LayerTag
    level: int


class Transfer:
    """The level-vector transfer step of one model, forward and back.

    ``sources[step]`` holds the layers (indices into ``LAYER_ORDER``) whose
    states may take ``step``.  (F, 0) is its own slot: the start and the
    catastrophe target carry no adjacency constraint, so it may take any
    step of the model, and only an up-step leaves level 0.

    Forward, :meth:`__call__` advances a whole row by one step.  Back,
    :meth:`predecessor` finds the one state of the row before that holds a
    given path into a given state, and the path's rank there, which is all
    the sampler needs.
    """

    def __init__(self, config: ModelConfig):
        # a layer no step of the model enters stays empty; (F, 0) holds the start
        live = [j for j, tag in enumerate(LAYER_ORDER) if j == 0 or INCOMING[tag] in config.steps]
        after = {j: config.next_steps(INCOMING[LAYER_ORDER[j]]) for j in live}
        self.sources = {step: tuple(j for j in live if step in after[j]) for step in STEP_ORDER}
        self.lift_start = UP in config.steps and 0 not in self.sources[UP]
        self.firing = config.catastrophe.firing
        # per layer: the step entering it above level 0, the level that step
        # starts from relative to where it ends, and the layers that take it
        self._into = [
            (step, -1 if step is UP else 1, self.sources[step])
            for step in (INCOMING[tag] for tag in LAYER_ORDER)
        ]

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

    def predecessor(self, prev: tuple, layer: int, level: int, x: int) -> tuple:
        """The (step, layer, level, x') of the x-th path into (layer, level),
        0 <= x < its count: the state of the row ``prev`` one step shorter
        that holds the path, and the path's rank x' among those of that state.

        The predecessors come in a fixed order, each holding as many paths
        as its count in ``prev``: into (F, 0), catastrophes from the lowest
        firing level up, each level in layer order; into any other state,
        its entering step from each layer in order, and last the up-step
        out of (F, 0) into (F, 1) when only the start may take it.  x' is x
        less the counts of the predecessors before the one it falls in, so
        the map from x to (step, layer, level, x') is a bijection.
        """
        if layer == level == 0:
            cat = self.sources[CATASTROPHE]
            for i in self.firing(len(prev[0]) - 1):
                for j in cat:
                    paths = prev[j][i]
                    if x < paths:
                        return CATASTROPHE, j, i, x
                    x -= paths
        else:
            step, shift, sources = self._into[layer]
            i = level + shift
            if i < len(prev[0]):
                for j in sources:
                    paths = prev[j][i]
                    if x < paths:
                        return step, j, i, x
                    x -= paths
            if self.lift_start and layer == 0 and level == 1 and x < prev[0][0]:
                return UP, 0, 0, x
        raise RuntimeError("sampler weights do not sum to the forward count")

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


def ending(row: tuple, layer: LayerTag | None, level: int | None) -> int:
    """The paths of one row that end in (layer, level), None meaning any."""
    vecs = row if layer is None else (row[LAYER_ORDER.index(layer)],)
    if level is None:
        return sum(map(sum, vecs))
    return sum(vec[level] for vec in vecs) if 0 <= level < len(row[0]) else 0


def count(config: ModelConfig, n: int, final: FinalSpec) -> int:
    """The number of length-n paths meeting the end condition ``final``,
    from one rolling row."""
    want = normalize_final(final)
    for row in Transfer(config).rows(n, want):
        pass
    return ending(row, None, want)


def view_series(config: ModelConfig, order: int, views) -> list:
    """One series per (layer, level) view, None meaning any: the counts of
    lengths 0..order that end there, read off the rows while holding one."""
    columns = [[] for _ in views]
    for row in Transfer(config).rows(order):
        for column, view in zip(columns, views):
            column.append(ending(row, *view))
    return [Series(column) for column in columns]


class CountTable:
    """Counts of paths by length and end state for one model, one row each."""

    def __init__(self, rows: list):
        self._rows = rows

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def _row(self, n: int) -> tuple:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"length {n} outside table range 0..{self.n_max}")
        return self._rows[n]

    def closed_count(self, n: int) -> int:
        return ending(self._row(n), None, 0)

    def open_count(self, n: int) -> int:
        return ending(self._row(n), None, None)

    def final_counts(self, n: int) -> dict:
        """All nonzero end-state counts at length n, keyed by State."""
        return {
            State(layer, level): c
            for layer, vec in zip(LAYER_ORDER, self._row(n))
            for level, c in enumerate(vec)
            if c
        }

    def layer_series(self, layer: LayerTag, level: int, order: int | None = None) -> Series:
        """Counts ending in (layer, level) for lengths 0..order, all when None."""
        top = self.n_max if order is None else order
        if not 0 <= top <= self.n_max:
            raise ValueError(f"order {order} outside table range 0..{self.n_max}")
        return Series([ending(row, layer, level) for row in self._rows[: top + 1]])


def count_table(config: ModelConfig, n_max: int) -> CountTable:
    """The count table of a model for all lengths up to ``n_max``."""
    return CountTable(list(Transfer(config).rows(n_max)))


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
    cat = config.catastrophe.firing(n)
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
