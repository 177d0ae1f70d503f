"""Exact big-integer path counting by a level-vector transfer DP.

A row counts the paths of one length by end state: a tuple of int lists
indexed by level, one per layer of ``LAYER_ORDER``, the letters F (after an
up-step, the start or a catastrophe), G (after a black down-step) and H
(after a red down-step).  :meth:`Transfer.rows` is the one row generator:
it builds each layer of the next row by one slice of its step's inflow,
a ``map(add)`` of the layers that may take the step, and
:meth:`Transfer.unrank` walks paths back through its rows.  :func:`ending`
is the one reader of a row at a (layer, level) view, None meaning any
layer or any level.  :func:`count` reads the last row through it and
:func:`view_series` every row, for the series of each view the
closed-form registry names, each holding one row.  :class:`CountTable`
keeps one row per length and reads off it the closed and open counts, the
nonzero end-state counts keyed by :class:`State` and the series of one
(layer, level); any other view is :func:`count` or :func:`view_series`.

Given c, :meth:`Transfer.rows` merges levels.  Take a path that will have
length n, now at length t and at a level of at least n - t + c, where
c >= 1 is above every level read and at least f, the lowest level from
which the rule fires at every level up to n or at none.  In its n - t
steps left it stays at c or above.  So each of its down-steps is legal, a
catastrophe is legal from every level it reaches or from none, and it meets
a level read only after a catastrophe, at (F, 0) like any other path.  All
those levels of a layer have the same completions: the rows sum them into
one top slot, and the row at length t is min(t, n - t + c) + 1 levels wide,
not t + 1.  Each row total stays exact, and so does each level below c.
:func:`horizon` gives the c that :func:`count`, :func:`view_series` and
the sampler pass.  The sampler cuts only for a fixed end level and no
catastrophe firing within n, where c = want + 1: :meth:`Transfer.unrank`
places a catastrophe by the paths at each firing level of a row on its
own, which a top slot would pool, and an open draw reads every end level.
The table and the recurrence checks read full rows.

A catastrophe falls from any firing level to (F, 0), so each coefficient
of f_0 sums a row over its firing levels (Banderier and Wallner, 2017).
Where the rule fires at every level from k up, :meth:`Transfer.rows`
carries instead each layer's paths at levels k and up from row to row,
updated by the paths that cross level k in one step.

The rows also feed :func:`verify_recurrences`, which streams them two at a
time and confirms, by one list comparison per identity at each row's own
width, the step-inflow identities the per-(layer, level) generating
functions must satisfy.  Every model meets one system on the layers F, G
and H: without red steps H is empty, and these split identities imply the
merged ones on f_i + g_i.
"""

from __future__ import annotations

from itertools import product
from operator import add
from typing import NamedTuple

from .model import INCOMING, LAYER_ORDER, STEP_ORDER, FinalSpec, ModelConfig
from .model import normalize_final
from .series import Series


class State(NamedTuple):
    """An end state, the index of the paper's series f_j, g_j and h_j: a
    layer letter (F, G or H) and a level."""

    layer: str
    level: int


class Transfer:
    """The level-vector transfer step of one model, forward and back.

    ``sources[step]`` holds the layers (indices into ``LAYER_ORDER``) whose
    states may take ``step``.  (F, 0) is its own slot: the start and the
    catastrophe target carry no adjacency constraint, so it may take any
    step of the model, and only an up-step leaves level 0.

    Forward, :meth:`__call__` advances a row by one step; back, :meth:`unrank`
    walks the rows from a path's rank to its steps.
    """

    def __init__(self, config: ModelConfig):
        # a layer no step of the model enters stays empty; (F, 0) holds the start
        live = [j for j, tag in enumerate(LAYER_ORDER) if j == 0 or INCOMING[tag] in config.steps]
        after = {j: config.next_steps(INCOMING[LAYER_ORDER[j]]) for j in live}
        self.sources = {step: tuple(j for j in live if step in after[j]) for step in STEP_ORDER}
        self.lift_start = "U" in config.steps and 0 not in self.sources["U"]
        self.firing = config.catastrophe.firing
        # a step's inflow is the elementwise sum of the layers that may take
        # it, for U, D and R in turn.  A row's step builds each sum of k >= 2
        # layers by one map(add) onto the sum of the first k - 1: (the layers,
        # the first k - 1, the last), shared prefixes once, shorter ones first.
        # A step no layer may take has the zero row as its inflow
        self._inflows = tuple(self.sources[s] for s in "UDR")
        self._idle = () in self._inflows
        sums = (
            (layers[:k], layers[: k - 1], layers[k - 1])
            for layers in self._inflows
            for k in range(2, len(layers) + 1)
        )
        self._sums = tuple(dict.fromkeys(sums))
        # per layer: the step entering it above level 0, the level that step
        # leaves less the level it enters, and the layers that may take it
        into = map(INCOMING.get, LAYER_ORDER)
        self._into = [(s, -1 if s == "U" else 1, self.sources[s]) for s in into]

    def __call__(self, row: tuple, size: int, inflow: int | None = None) -> tuple:
        """The row one step longer, cut to levels 0..size-1 (2 <= size <= len + 1),
        with ``inflow`` paths into (F, 0); None sums the catastrophes from
        the firing levels of ``row`` here.

        Each layer of the new row is one slice of its step's inflow, edited
        in place.  The up-steps that would land above level size - 1 are
        added into it, none at full width.  No down-step needs adding when
        size >= len - 1, the only sizes a row that shrinks by at most one
        level per step asks for.
        """
        if inflow is None:
            fired = self.firing(len(row[0]) - 1)
            inflow = 0
            for j in self.sources["C"]:
                if isinstance(fired, range):
                    inflow += sum(row[j][fired.start : fired.stop : fired.step])
                else:
                    inflow += sum(map(row[j].__getitem__, fired))
        sums = {(0,): row[0], (1,): row[1], (2,): row[2]}
        if self._idle:
            sums[()] = [0] * len(row[0])
        for layers, head, last in self._sums:
            sums[layers] = list(map(add, sums[head], row[last]))
        up, g, h = map(sums.__getitem__, self._inflows)
        f = up[: size - 1]
        f.insert(0, inflow)
        if self.lift_start:
            f[1] += row[0][0]
        if size <= len(up):
            f[-1] += sum(up[size - 1 :])
        g, h = g[1 : size + 1], h[1 : size + 1]
        g += [0] * (size - len(g))
        h += [0] * (size - len(h))
        return f, g, h

    def unrank(self, rows: list, layer: int, level: int, x: int) -> list:
        """The step letters of the x-th path into (layer, level), 0 <= x < its
        count in the last of ``rows`` (lengths 0..n), in one loop back.  The states
        one step shorter hold the paths into a state in a fixed order: into
        (F, 0), catastrophes from the lowest firing level up, each level in
        layer order; into any other, its entering step from each layer in
        order, then the up-step out of (F, 0) when only the start may take
        it.  x less the paths before the one it falls in is its rank there."""
        into, cat = self._into, self.sources["C"]
        lifted = ("U", -1, into[0][2] + (0,) * self.lift_start)  # into (F, 1)
        fire = tuple(self.firing(len(rows) - 2))  # row t holds those up to t
        steps = ["C"] * (len(rows) - 1)  # the steps into (F, 0)
        try:
            for t in range(len(rows) - 2, -1, -1):
                prev = rows[t]
                if layer or level:
                    steps[t], shift, sources = into[layer] if layer or level > 1 else lifted
                    level += shift
                    for layer in sources:
                        paths = prev[layer][level]
                        if x < paths:
                            break
                        x -= paths
                    else:
                        raise IndexError  # x is past their paths
                else:
                    for level, layer in product(fire, cat):
                        paths = prev[layer][level]
                        if x < paths:
                            break
                        x -= paths
                    else:
                        raise IndexError
        except IndexError:  # x ran past the paths or the levels of a row
            raise RuntimeError("sampler weights do not sum to the forward count") from None
        return steps

    def rows(self, n: int, c: int | None = None):
        """The rows of lengths 0..n in turn; the row of length t has levels 0..t.

        Given c (see the module docstring), the levels from n - t + c up
        share one top slot: the row of length t has min(t, n - t + c) + 1.

        When ``firing(n)`` is ``range(k, n + 1)``, as for ``min_level``, the
        catastrophes into a row are the paths at levels k and up of the
        layers that may take C in the row before.  :meth:`_carry` keeps
        those tails from row to row, so no row sums its firing levels.  They
        stay exact: a merged top slot keeps its paths and sits at level
        n - t + c >= c, so at k or up when c >= k, which :func:`horizon`
        gives whenever a level fires within n (a smaller c is refused), and
        a row that shrinks by one level drops no down-step.  Any other
        ``firing`` result is summed level by level at each row by
        :meth:`__call__`.
        """
        if n < 0:
            raise ValueError("path length must be >= 0")
        cat, fired = self.sources["C"], self.firing(n)
        carry = bool(cat) and type(fired) is range and fired.step == 1 and fired.stop == n + 1
        k = fired.start if carry else 0
        if carry and fired and c is not None and c < k:
            raise ValueError(f"c = {c} merges levels below the firing level {k}")
        row, tails = ([1], [0], [0]), (0, 0, 0)  # length 0: the empty path, in (F, 0)
        yield row
        for t in range(1, n + 1):
            if carry:
                inflow = 0
                for j in cat:
                    inflow += tails[j]
                tails = self._carry(row, tails, k)
            else:
                inflow = None if cat else 0
            row = self(row, t + 1 if c is None else min(t, n - t + c) + 1, inflow)
            yield row

    def _carry(self, row: tuple, tails: tuple, k: int) -> tuple:
        """The paths at levels k and up in each layer of the row after
        ``row``, given ``tails``, those of ``row``: into F, those an up-step
        takes from level k - 1 and up, with the start's lift to level 1; into
        G and H, those a down-step takes from level k + 1 and up.  A row no
        wider than k has no path at level k or up."""
        width = len(row[0])
        if width < k:
            return tails
        up, down, red = self._inflows
        f = row[0][0] if self.lift_start and k == 1 else 0
        for j in up:
            f += tails[j] + row[j][k - 1]
        if width == k:
            return f, 0, 0
        g = h = 0
        for j in down:
            g += tails[j] - row[j][k]
        for j in red:
            h += tails[j] - row[j][k]
        return f, g, h


def ending(row: tuple, layer: str | None, level: int | None) -> int:
    """The paths of one row that end in (layer, level), None meaning any;
    0 at a level below 0 or past the row's width, and one index into the
    row when both are given."""
    if level is None:
        vecs = row if layer is None else (row[LAYER_ORDER.index(layer)],)
        return sum(map(sum, vecs))
    if not 0 <= level < len(row[0]):
        return 0
    if layer is None:
        return sum(vec[level] for vec in row)
    return row[LAYER_ORDER.index(layer)][level]


def horizon(config: ModelConfig, n: int, level: int | None) -> int:
    """The c of :meth:`Transfer.rows` for length-n paths read at levels up
    to ``level``, or at row totals only when it is None: every row total
    and every level below c stay exact at every length.

    c is max(f, 1, level + 1), the last term only when ``level`` is given,
    and f is the lowest level such that the rule fires at every level from
    f to n or at none: the first firing level <= n when they run unbroken
    up to n, as for ``min_level``, else the last one plus 1, and 0 when
    none fires.  Where the firing levels alternate, as for ``even_min``, f
    is n or n + 1 and the rows stay full.
    """
    fired = config.catastrophe.firing(n)
    if not fired:
        f = 0
    elif len(fired) == n + 1 - fired[0]:  # every level from fired[0] to n
        f = fired[0]
    else:
        f = fired[-1] + 1
    return max(f, 1, 0 if level is None else level + 1)


def count(config: ModelConfig, n: int, final: FinalSpec) -> int:
    """The number of length-n paths meeting the end condition ``final``,
    read off the last of :meth:`Transfer.rows` cut at :func:`horizon`,
    holding one row."""
    want = normalize_final(final)
    for row in Transfer(config).rows(n, horizon(config, n, want)):
        pass
    return ending(row, None, want)


def view_series(config: ModelConfig, order: int, views) -> list:
    """One series per (layer, level) view, None meaning any: the counts of
    lengths 0..order that end there, each read by :func:`ending` off the
    rows cut at the :func:`horizon` of the highest level a view reads,
    holding one row."""
    top = max((level for _, level in views if level is not None), default=None)
    columns = [[] for _ in views]
    for row in Transfer(config).rows(order, horizon(config, order, top)):
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

    def layer_series(self, layer: str, level: int, order: int | None = None) -> Series:
        """Counts ending in (layer, level) for lengths 0..order, all when None."""
        top = self.n_max if order is None else order
        if not 0 <= top <= self.n_max:
            raise ValueError(f"order {order} outside table range 0..{self.n_max}")
        return Series([ending(row, layer, level) for row in self._rows[: top + 1]])


def count_table(config: ModelConfig, n_max: int) -> CountTable:
    """The count table of a model for all lengths up to ``n_max``."""
    return CountTable(list(Transfer(config).rows(n_max)))


# -- recurrence verification ------------------------------------------------


class Check(NamedTuple):
    """One named pass/fail result; ``detail`` says what held or what broke."""

    name: str
    ok: bool
    detail: str


_IDENTITIES = ("up-inflow", "black-down-inflow", "red-down-inflow", "axis-boundary")


def verify_recurrences(config: ModelConfig, order: int) -> list:
    """Check the step-inflow identities of a model's counting series, one
    :class:`Check` per identity in the order below.

    Writing f_i, g_i, h_i for the series of counts ending in (F, i), (G, i),
    (H, i), every model is checked against one system, for i < order:

        up-inflow          f_{i+1} = z (f_i + g_i)     up-steps never follow a red step
        black-down-inflow  g_i     = z (f_{i+1} + g_{i+1} + h_{i+1})
        red-down-inflow    h_i     = z (g_{i+1} + h_{i+1})   red steps never follow an up-step
        axis-boundary      f_0     = 1 + z * sum of (f_i + g_i + h_i) over catastrophe levels i

    Without red steps the red-down inflow reads h_i = 0, so a stray count in
    H is still caught.  H is then empty, and summed on t_i = f_i + g_i the
    identities give the merged system t_i = z (t_{i-1} + t_{i+1}) for i >= 1,
    t_0 = 1 + z t_1 + z * sum of t_i over catastrophe levels i (Banderier and
    Wallner, 2017): the split identities imply it, and they also catch a path
    counted in the wrong layer, which it cannot.  The catastrophe levels are
    those of the rule, and none when the model lacks the catastrophe step.

    The identities are written out here, not derived from :class:`Transfer`,
    so they check the kernel rather than restate it; they encode the preset
    adjacency rules, so a model outside them fails.  The z^t identity ties
    the row of length t to the row of length t - 1 (none for t = 0), so the
    rows stream past two at a time.  A row t + 1 levels wide after one t
    wide is compared at its own width, one list comparison per identity on
    levels 0..t: above level t both sides hold 0.  Any other row, or one
    where a comparison fails, goes to :func:`_padded_search`, which pads
    both rows to levels 0..order and searches for the first failing
    instance.  A failed check names it and the first coefficient where it
    fails.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = order
    firing = config.catastrophe.firing
    red = "R" in config.steps
    inflow = [f"i={i}" for i in range(n)]
    labels = dict(zip(_IDENTITIES, (inflow, inflow, inflow, ["f0"])))
    first: dict = {}  # check name -> (instance, t, lhs, rhs) of its first failure
    prev = ([], [], [])  # the row before length 0 has no level
    for t, row in enumerate(Transfer(config).rows(n)):
        f, g, h = row
        pf, pg, ph = prev
        if len(f) == len(g) == len(h) == t + 1 and len(pf) == len(pg) == len(ph) == t:
            up = list(map(add, pf, pg))  # the layers an up-step may leave: F and G
            total = [*map(add, up, ph), 0, 0]  # a black down-step any; 0 at levels t, t + 1
            if (
                f[1:] == up
                and g == total[1:]
                and (h == [*map(add, pg, ph), 0, 0][1:] if red else not any(h))  # a red one G, H
                and f[0] == (t == 0) + _level_sum(total, firing(t - 1))
            ):
                prev = row
                continue
        _padded_search(first, t, row, prev, n, firing(n), red)
        prev = row

    checks = []
    for name, instances in labels.items():
        if name in first:
            k, t, lhs, rhs = first[name]
            detail = f"fails at {instances[k]}, coefficient of z^{t}: {lhs} != {rhs}"
            checks.append(Check(name, False, detail))
        else:
            checks.append(Check(name, True, f"{len(instances)} instances checked"))
    return checks


def _level_sum(vec: list, levels) -> int:
    """The sum of ``vec`` at ``levels``, by one slice when they are a range."""
    if isinstance(levels, range):
        return sum(vec[levels.start : levels.stop : levels.step])
    return sum(map(vec.__getitem__, levels))


def _padded_search(first: dict, t: int, row: tuple, prev: tuple, n: int, cat, red: bool) -> None:
    """Compare the row of length t and the row before it, each padded to
    levels 0..n, on every instance of :func:`verify_recurrences`' identities,
    and record in ``first`` each check's failure at a lower instance than
    the one recorded there, as (instance, t, lhs, rhs)."""
    f, g, h = (vec + [0] * (n + 1 - len(vec)) for vec in row)
    pf, pg, ph = (vec + [0] * (n + 1 - len(vec)) for vec in prev)
    up = list(map(add, pf, pg))  # the layers an up-step may leave: F and G
    total = list(map(add, up, ph))  # a black down-step may leave any layer
    down = list(map(add, pg, ph)) if red else [0] * (n + 1)  # a red one G and H
    sides = (  # the (lhs, rhs) lists of each check, one entry per instance
        (f[1:], up[:n]),
        (g[:n], total[1:]),
        (h[:n], down[1:]),
        ([f[0]], [(t == 0) + _level_sum(total, cat)]),
    )
    for name, (lhs, rhs) in zip(_IDENTITIES, sides):
        if lhs != rhs:
            # only an earlier instance than the one already failing can take its place
            below = first.get(name, (len(lhs),))[0]
            k = next((k for k in range(below) if lhs[k] != rhs[k]), None)
            if k is not None:
                first[name] = (k, t, lhs[k], rhs[k])
