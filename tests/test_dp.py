import math
import random
from collections import Counter

import pytest

from catwalk import brute, dp, verify
from catwalk.dp import State
from catwalk.model import (
    CatastropheRule,
    DYCK,
    DYCK_CAT,
    ModelConfig,
    PRESETS,
    SKEW,
    SKEW_CAT,
    with_rule,
)
from catwalk.sampler import Sampler
from test_random_models import MODELS, random_rule

F, G, H = "FGH"
U, D, R = "UDR"

# expansions frozen from the closed forms (see test_closedform) and
# reproduced here as literals so this module stands on its own
AXIS_DYCK_CAT = [1, 0, 1, 1, 3, 5, 12, 23, 52, 105, 232, 480, 1049, 2199]
AXIS_SKEW_CAT = [1, 0, 1, 1, 4, 5, 17, 25, 76, 125, 353, 625, 1681]
OPEN_SKEW_CAT = [1, 1, 2, 4, 9, 18, 41, 85, 193, 410, 929, 2004]
F0_SKEW_CAT = [1, 0, 0, 1, 1, 4, 6, 18, 31, 85, 157, 410, 792, 2004]
G0_SKEW_CAT = [0, 0, 1, 0, 2, 1, 7, 6, 29]
H0_SKEW_CAT = [0, 0, 0, 0, 1, 0, 4]
AXIS_SKEW_PLAIN = [1, 0, 1, 0, 3, 0, 10, 0, 36]


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def test_dyck_closed_counts_are_catalan():
    table = dp.count_table(DYCK, 20)
    for n in range(21):
        expected = catalan(n // 2) if n % 2 == 0 else 0
        assert table.closed_count(n) == expected


def test_dyck_open_counts_are_central_binomials():
    # non-negative walks of length n with free endpoint
    table = dp.count_table(DYCK, 12)
    for n in range(13):
        assert table.open_count(n) == math.comb(n, n // 2)


def test_axis_counts_dyck_cat():
    table = dp.count_table(DYCK_CAT, 13)
    assert [table.closed_count(n) for n in range(14)] == AXIS_DYCK_CAT


def test_axis_counts_skew_cat():
    table = dp.count_table(SKEW_CAT, 12)
    assert [table.closed_count(n) for n in range(13)] == AXIS_SKEW_CAT


def test_open_counts_skew_cat():
    table = dp.count_table(SKEW_CAT, 11)
    assert [table.open_count(n) for n in range(12)] == OPEN_SKEW_CAT


def test_axis_counts_skew_plain():
    table = dp.count_table(SKEW, 8)
    assert [table.closed_count(n) for n in range(9)] == AXIS_SKEW_PLAIN


def test_layer_resolved_axis_counts():
    table = dp.count_table(SKEW_CAT, 13)
    assert table.layer_series(F, 0).as_integers() == F0_SKEW_CAT
    assert table.layer_series(G, 0, 8).as_integers() == G0_SKEW_CAT
    assert table.layer_series(H, 0, 6).as_integers() == H0_SKEW_CAT


def test_counts_partition_by_level_and_state():
    table = dp.count_table(SKEW_CAT, 9)
    n = 9
    by_level = sum(dp.count(SKEW_CAT, n, k) for k in range(n + 1))
    assert by_level == table.open_count(n)
    by_state = sum(table.final_counts(n).values())
    assert by_state == table.open_count(n)
    axis = [table.final_counts(n).get(State(layer, 0), 0) for layer in (F, G, H)]
    assert sum(axis) == table.closed_count(n)


def test_end_state_is_a_plain_layer_level_tuple():
    assert State._fields == ("layer", "level")
    assert State(H, 3) == (H, 3) and hash(State(H, 3)) == hash((H, 3))
    table = dp.count_table(SKEW_CAT, 8)
    for n in range(9):
        census = Counter((p.final_layer, p.final_level) for p in brute.enumerate_red(SKEW_CAT, n))
        assert table.final_counts(n) == dict(census), n


def test_series_extraction_consistency():
    table = dp.count_table(SKEW_CAT, 10)
    views = [(None, k) for k in range(11)] + [(None, None)]
    *levels, total = dp.view_series(SKEW_CAT, 10, views)
    for k, series in enumerate(levels):
        f, g, h = (table.layer_series(layer, k, 10) for layer in (F, G, H))
        assert series == f + g + h
    assert levels[0].as_integers() == [table.closed_count(n) for n in range(11)]
    assert sum(levels, dp.Series.zero(10)) == total
    assert total.as_integers() == [table.open_count(n) for n in range(11)]


def test_table_bounds():
    table = dp.count_table(DYCK, 5)
    assert table.n_max == 5
    with pytest.raises(ValueError):
        table.closed_count(6)
    with pytest.raises(ValueError):
        table.layer_series(F, 0, 7)
    with pytest.raises(ValueError):
        dp.count_table(DYCK, -1)
    with pytest.raises(ValueError):
        dp.count(DYCK, -1, "open")


def test_recurrences_pass_for_presets():
    # every model meets the one system on F, G and H, with or without red steps
    names = ["up-inflow", "black-down-inflow", "red-down-inflow", "axis-boundary"]
    for config in (DYCK, DYCK_CAT, SKEW, SKEW_CAT):
        checks = dp.verify_recurrences(config, 30)
        assert [c.name for c in checks] == names
        assert all(c.ok for c in checks), checks
        assert [c.detail for c in checks] == ["30 instances checked"] * 3 + ["1 instances checked"]


RULES = {
    "none": CatastropheRule.none(),
    "min1": CatastropheRule.min_level(1),
    "min3": CatastropheRule.min_level(3),
    "even1": CatastropheRule.even_min(1),
    "even3": CatastropheRule.even_min(3),
    "levels1": CatastropheRule.explicit({1}),
    "levels35": CatastropheRule.explicit({3, 5}),
}


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("preset", PRESETS.values(), ids=PRESETS.keys())
def test_recurrences_pass_under_every_rule(preset, rule):
    # a rule on a model without the catastrophe step fires nothing, so the
    # plain presets pass under every rule too
    checks = dp.verify_recurrences(with_rule(preset, rule), 30)
    assert failing(checks) == set(), checks


def test_recurrences_pass_for_even_rule():
    even = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    assert failing(dp.verify_recurrences(even, 25)) == set()
    even_d = with_rule(DYCK_CAT, CatastropheRule.even_min(2))
    assert failing(dp.verify_recurrences(even_d, 25)) == set()


def failing(checks) -> set:
    failures = [check for check in checks if not check.ok]
    for check in failures:
        assert check.detail.startswith("fails at ") and "coefficient of z^" in check.detail
    return {check.name for check in failures}


# two models outside the preset adjacency rules
RED_FREE = ModelConfig(frozenset({U, D, R}), frozenset(), CatastropheRule.none())
NO_DU = ModelConfig(frozenset({U, D}), frozenset({(D, U)}), CatastropheRule.none())


class Skipping(dp.Transfer):
    """A kernel that loses the lowest firing level of each catastrophe."""

    def __init__(self, config):
        super().__init__(config)
        firing = self.firing
        self.firing = lambda top: list(firing(top))[1:]


def test_recurrences_negative_controls(monkeypatch):
    # the identities encode the preset adjacency rules: red steps free to
    # follow and precede up-steps break the up and red-down inflows, and a
    # plain model that forbids an up-step after a down-step breaks the up inflow
    assert failing(dp.verify_recurrences(RED_FREE, 15)) == {"up-inflow", "red-down-inflow"}
    assert failing(dp.verify_recurrences(NO_DU, 15)) == {"up-inflow"}

    # a kernel that loses the lowest firing level breaks the boundary identity
    monkeypatch.setattr(dp, "Transfer", Skipping)
    for config in (SKEW_CAT, DYCK_CAT):
        assert failing(dp.verify_recurrences(config, 15)) == {"axis-boundary"}


def test_recurrences_bad_arguments():
    with pytest.raises(ValueError):
        dp.verify_recurrences(DYCK, 0)


def reference_recurrences(config: ModelConfig, order: int) -> list:
    """The checks of ``dp.verify_recurrences``, by a second route: for each
    row, every instance of every identity as its own coefficient pair,
    compared one by one below the instance already failing.  It reads the
    rows of ``dp.Transfer``, so a patched kernel reaches both routes."""
    n = order
    cat = config.catastrophe.firing(n)
    red = R in config.steps
    inflow = [f"i={i}" for i in range(n)]
    labels = {
        "up-inflow": inflow,
        "black-down-inflow": inflow,
        "red-down-inflow": inflow,
        "axis-boundary": ["f0"],
    }
    first: dict = {}  # check name -> (instance, t, lhs, rhs) of its first failure
    prev = ([0] * (n + 1),) * 3
    for t, row in enumerate(dp.Transfer(config).rows(n)):
        row = f, g, h = tuple(vec + [0] * (n + 1 - len(vec)) for vec in row)
        pf, pg, ph = prev
        sides = (
            [(f[i + 1], pf[i] + pg[i]) for i in range(n)],
            [(g[i], pf[i + 1] + pg[i + 1] + ph[i + 1]) for i in range(n)],
            # without red steps no path ends in H
            [(h[i], pg[i + 1] + ph[i + 1] if red else 0) for i in range(n)],
            [(f[0], (t == 0) + sum(pf[i] + pg[i] + ph[i] for i in cat))],
        )
        for name, pairs in zip(labels, sides):
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
            checks.append(dp.Check(name, False, detail))
        else:
            checks.append(dp.Check(name, True, f"{len(instances)} instances checked"))
    return checks


PARITY_CONFIGS = {
    **PRESETS,
    **{f"model{i}": config for i, config in enumerate(MODELS)},
    **{
        f"{base}-rule{seed}": with_rule(PRESETS[base], random_rule(random.Random(seed)))
        for seed in range(20)
        for base in ("skew-cat", "dyck-cat")
    },
    "red-free": RED_FREE,
    "no-du": NO_DU,
}


def reshaped(reshape) -> type:
    """A kernel whose row of length t, in the rows of lengths 0..n, is
    ``reshape(t, n, row)`` of the true row."""

    class Reshaped(dp.Transfer):
        def rows(self, n, c=None):
            for t, row in enumerate(super().rows(n, c)):
                yield reshape(t, n, row)

    return Reshaped


def widened(layer: int, lengths) -> type:
    """A kernel that gives ``layer`` one more level, holding one path, in
    the rows of the lengths in ``lengths(n)``."""
    return reshaped(
        lambda t, n, row: tuple(
            vec + [1] if j == layer and t in lengths(n) else vec for j, vec in enumerate(row)
        )
    )


# rows of a width other than t + 1, which dp.verify_recurrences sends to its
# padded search: G or H with a path above level t in row 1 and in row n
# (there at level n + 1, past every instance); every layer's top level
# dropped from one row; and a path in G at level n of row n - 1, past that
# row's instances, so only row n, itself t + 1 wide, sees it
WIDTH_KERNELS = {
    "wide-g": widened(1, lambda n: (1, n)),
    "wide-h": widened(2, lambda n: (1, n)),
    "dropped-top": reshaped(
        lambda t, n, row: tuple(vec[:-1] for vec in row) if t == n // 2 + 1 else row
    ),
    "late-g": widened(1, lambda n: (n - 1,)),
}
KERNELS = {"transfer": dp.Transfer, "skipping": Skipping, **WIDTH_KERNELS}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
@pytest.mark.parametrize("config", PARITY_CONFIGS.values(), ids=PARITY_CONFIGS.keys())
def test_recurrences_match_the_reference(config, kernel, monkeypatch):
    monkeypatch.setattr(dp, "Transfer", kernel)
    for order in (1, 2, 3, 7, 15, 40):
        assert dp.verify_recurrences(config, order) == reference_recurrences(config, order), order


def test_recurrences_report_the_lowest_failing_instance(monkeypatch):
    # planted counts: one extra path in row T1 at level L1 of a layer, and in
    # the later row T2 at the lower level L2.  Each copy feeds its own row's
    # identities and, as the row before, those of the next one; the kernel
    # itself runs on the true rows.  The system is the same with or without
    # red steps, and so are the failures
    order, (t1, l1), (t2, l2) = 12, (7, 5), (10, 2)
    true = {config: list(dp.Transfer(config).rows(order)) for config in (SKEW_CAT, DYCK_CAT)}

    class Planted(dp.Transfer):
        def rows(self, n, want=None):
            for t, row in enumerate(super().rows(n, want)):
                row = tuple(list(vec) for vec in row)
                if t in (t1, t2):
                    row[0][l1 if t == t1 else l2] += 1
                yield row

    monkeypatch.setattr(dp, "Transfer", Planted)

    for config, rows in true.items():
        f, g_next = rows[t2][0], rows[t2 + 1][1]
        f_axis = rows[t1 + 1][0][0]
        checks = {c.name: c for c in dp.verify_recurrences(config, order)}
        # f_{L2} at z^T2 is one too many; the row after sees it as f_{L2} of its
        # previous row, in black-down at i = L2 - 1; the axis sees level L1 fire first
        assert checks["up-inflow"].detail == (
            f"fails at i={l2 - 1}, coefficient of z^{t2}: {f[l2] + 1} != {f[l2]}"
        )
        assert checks["black-down-inflow"].detail == (
            f"fails at i={l2 - 1}, coefficient of z^{t2 + 1}: "
            f"{g_next[l2 - 1]} != {g_next[l2 - 1] + 1}"
        )
        assert checks["axis-boundary"].detail == (
            f"fails at f0, coefficient of z^{t1 + 1}: {f_axis} != {f_axis + 1}"
        )
        assert checks["red-down-inflow"].ok


class Overreaching(dp.Transfer):
    def rows(self, n, want=None):
        for t, row in enumerate(super().rows(n, want)):
            if t == 3:
                row = (row[0] + [0, 1], row[1], row[2])
            yield row


def test_recurrences_check_levels_above_the_row_length(monkeypatch):
    # row t holds levels 0..t; a kernel that writes a count above them is
    # still caught, because a row of any other width is checked at every
    # level up to the order
    monkeypatch.setattr(dp, "Transfer", Overreaching)
    for config in (SKEW_CAT, DYCK_CAT):
        checks = {c.name: c for c in dp.verify_recurrences(config, 8)}
        # f_5 at z^3 is one too many, and feeds g_4 at z^4 and the axis at z^4
        assert checks["up-inflow"].detail == "fails at i=4, coefficient of z^3: 1 != 0"
        assert checks["black-down-inflow"].detail == "fails at i=4, coefficient of z^4: 0 != 1"
        assert checks["axis-boundary"].detail.startswith("fails at f0, coefficient of z^4: ")


@pytest.fixture
def padded_rows(monkeypatch) -> list:
    """The lengths of the rows dp.verify_recurrences sends to its padded
    search, in the order sent."""
    rows, search = [], dp._padded_search

    def counted(first, t, *rest):
        rows.append(t)
        search(first, t, *rest)

    monkeypatch.setattr(dp, "_padded_search", counted)
    return rows


def test_recurrences_pad_no_row_of_a_passing_model(padded_rows):
    # a row t + 1 levels wide after one t wide is compared at its own width
    rule_configs = [config for name, config in PARITY_CONFIGS.items() if "-rule" in name]
    for config in (*PRESETS.values(), *rule_configs):
        assert failing(dp.verify_recurrences(config, 60)) == set()
    assert padded_rows == []


def test_recurrences_pad_the_rows_of_a_faulty_kernel(padded_rows, monkeypatch):
    # a failed comparison, or a row of another width, is searched on padded rows
    for kernel in (Skipping, Overreaching):
        monkeypatch.setattr(dp, "Transfer", kernel)
        for config in (SKEW_CAT, DYCK_CAT):
            padded_rows.clear()
            assert failing(dp.verify_recurrences(config, 15))
            assert padded_rows
    # Overreaching's row 3 is two levels too wide, and row 4 follows it
    assert padded_rows == [3, 4]


HORIZON_RULES = {
    "none": CatastropheRule.none(),
    **{f"min{k}": CatastropheRule.min_level(k) for k in (1, 2, 3, 7, 60)},
    **{f"even{k}": CatastropheRule.even_min(k) for k in (2, 3)},
    "levels1": CatastropheRule.explicit({1}),
    "levels147": CatastropheRule.explicit({1, 4, 7}),
    "levels3": CatastropheRule.explicit({3}),
    "levels50": CatastropheRule.explicit({50}),
    "levels2to60": CatastropheRule.explicit(range(2, 61)),
    "levels345": CatastropheRule.explicit({3, 4, 5}),
}


def _horizon_configs(rule) -> set:
    """The presets' step sets, each with and without C, under ``rule``:
    four distinct models."""
    configs = {
        with_rule(ModelConfig(steps, preset.forbidden_pairs), rule)
        for preset in PRESETS.values()
        for steps in (preset.steps | {"C"}, preset.steps - {"C"})
    }
    assert len(configs) == 4
    return configs


@pytest.mark.parametrize("rule", HORIZON_RULES.values(), ids=HORIZON_RULES.keys())
def test_count_with_merged_levels_equals_the_full_rows(rule):
    # count sums the levels no boundary can reach in the steps left into one
    # slot; the full rows keep every level.  n runs below each rule's first
    # firing level too, where nothing fires and only the end level bounds c.
    for config in _horizon_configs(rule):
        rows = list(dp.Transfer(config).rows(44))
        for n, row in enumerate(rows):
            for final, want in (("open", None), ("closed", 0), (1, 1), (2, 2), (3, 3), (6, 6)):
                assert dp.count(config, n, final) == dp.ending(row, None, want), (config, n, final)


@pytest.mark.parametrize("rule", HORIZON_RULES.values(), ids=HORIZON_RULES.keys())
def test_view_series_with_merged_levels_equals_the_full_rows(rule):
    # view_series merges the levels above the highest one its views read;
    # each view must read what the full rows hold, at every length
    levels = [(layer, level) for layer in (F, G, H, None) for level in range(7)]
    totals = [(None, None), (F, None), (G, None), (H, None)]
    for config in _horizon_configs(rule):
        rows = list(dp.Transfer(config).rows(44))
        for order in range(45):
            head = rows[: order + 1]
            for views in (levels + totals[:1], totals):
                want = [[dp.ending(row, *view) for row in head] for view in views]
                got = [s.as_integers() for s in dp.view_series(config, order, views)]
                assert got == want, (config, order, views)
            (above,) = dp.view_series(config, order, [(None, order + 1)])
            assert above.as_integers() == [0] * (order + 1)
            assert dp.view_series(config, order, []) == []


def test_a_layer_level_view_reads_zero_off_the_row():
    # ending reads a (layer, level) view by one index into the row, and 0
    # below level 0 and past the row's width
    views = [(F, -1), (G, -3), (H, 0), (G, 1), (F, 12)]
    for config in (SKEW_CAT, DYCK_CAT):
        rows = list(dp.Transfer(config).rows(10))
        got = [s.as_integers() for s in dp.view_series(config, 10, views)]
        assert got == [[dp.ending(row, *view) for row in rows] for view in views], config
        assert got[0] == got[1] == got[4] == [0] * 11


class Listed(dp.Transfer):
    """A kernel whose firing levels are a list: every row sums them itself."""

    def __init__(self, config):
        super().__init__(config)
        firing = self.firing
        self.firing = lambda top: list(firing(top))


# a start that alone may take an up-step, firing from level 1; and a rule
# that fires at no level up to the longest length compared
TAIL_CONFIGS = {
    **PARITY_CONFIGS,
    "lift-min1": ModelConfig("UDRC", ("UU",), CatastropheRule.min_level(1)),
    "skew-cat-min50": with_rule(SKEW_CAT, CatastropheRule.min_level(50)),
}


@pytest.mark.parametrize("config", TAIL_CONFIGS.values(), ids=TAIL_CONFIGS.keys())
def test_carried_tails_equal_the_summed_firing_levels(config):
    # a rule that fires from level k up carries each layer's paths at levels
    # k and up from row to row; summing the firing levels at every row gives
    # the same rows, full or cut at the horizon of any end level
    for n in range(41):
        for c in {None, *(dp.horizon(config, n, want) for want in (None, 0, 2))}:
            rows = list(dp.Transfer(config).rows(n, c))
            assert rows == list(Listed(config).rows(n, c)), (n, c)


def _firing_calls(kernel, config, n) -> list:
    """The tops the rule's ``firing`` is called with while ``kernel`` steps
    the rows of lengths 0..n."""
    step, calls = kernel(config), []
    firing = step.firing
    step.firing = lambda top: calls.append(top) or firing(top)
    for _ in step.rows(n):
        pass
    return calls


def test_carried_tails_read_the_firing_levels_once():
    # min_level fires from one level up: its rows read firing(n) once, at any n
    for config in (SKEW_CAT, DYCK_CAT):
        assert _firing_calls(dp.Transfer, config, 200) == [200]
        assert _firing_calls(dp.Transfer, config, 50) == [50]
        # a list of firing levels is summed at every row, from the row's top
        assert len(_firing_calls(Skipping, config, 200)) == 201
        # even_min fires every other level: summed at every row too
        even = with_rule(config, CatastropheRule.even_min(2))
        assert _firing_calls(dp.Transfer, even, 200) == [200, *range(200)]


def test_rows_refuse_a_horizon_below_the_firing_level():
    # a top slot below the lowest firing level would pool firing and
    # non-firing levels in the carried tails
    with pytest.raises(ValueError, match="firing level 2"):
        list(dp.Transfer(SKEW_CAT).rows(10, 1))
    # nothing fires within n = 1: any c will do
    assert list(dp.Transfer(SKEW_CAT).rows(1, 1)) == list(dp.Transfer(SKEW_CAT).rows(1))


def _row_widths(monkeypatch, build, n) -> list:
    """The width of each row that ``build()`` steps to, in order of length."""
    widths = []
    step = dp.Transfer.__call__

    def recording(self, row, size, *rest):
        out = step(self, row, size, *rest)
        widths.append(len(out[0]))
        return out

    monkeypatch.setattr(dp.Transfer, "__call__", recording)
    build()
    monkeypatch.undo()
    assert len(widths) == n
    return widths


def _count_widths(monkeypatch, config, n, final) -> list:
    """The width of each row ``dp.count`` reads, in order of length."""
    return _row_widths(monkeypatch, lambda: dp.count(config, n, final), n)


def test_count_rows_stop_at_the_horizon(monkeypatch):
    # for skew-cat (c = 2) the row of length t holds min(t, n - t + 2) + 1 levels
    n = 200
    widths = _count_widths(monkeypatch, SKEW_CAT, n, "open")
    assert all(w <= min(t, n - t + 2) + 1 for t, w in enumerate(widths, 1))
    assert sum(widths) < 0.6 * sum(range(2, n + 2))
    # every other level fires under even_min: no level is merged
    even = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    assert _count_widths(monkeypatch, even, 60, "open") == list(range(2, 62))
    # explicit levels that run unbroken up to n merge like min_level
    unbroken = with_rule(SKEW_CAT, HORIZON_RULES["levels2to60"])
    assert _count_widths(monkeypatch, unbroken, 60, "open") == _count_widths(
        monkeypatch, SKEW_CAT, 60, "open"
    )


def test_view_rows_stop_at_the_horizon(monkeypatch):
    # totals alone: c = 2 for skew-cat, as for an open count
    n = 200
    totals = _row_widths(monkeypatch, lambda: dp.view_series(SKEW_CAT, n, [(None, None)]), n)
    assert totals == [min(t, n + 2 - t) + 1 for t in range(1, n + 1)]
    # the theorem suite reads skew-cat levels up to 5 off one stream: c = 6
    streams = {}
    view_series = dp.view_series

    def recording(config, order, views):
        streams[config] = views
        return view_series(config, order, views)

    monkeypatch.setattr(dp, "view_series", recording)
    assert verify.run_suite("theorem", 30).ok
    monkeypatch.undo()
    views = streams[SKEW_CAT]
    assert max(level for _, level in views if level is not None) == 5
    for n in (30, 80):
        widths = _row_widths(monkeypatch, lambda: dp.view_series(SKEW_CAT, n, views), n)
        assert widths == [min(t, n - t + 6) + 1 for t in range(1, n + 1)]
    # every other level fires under even_min: no level is merged
    even = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    widths = _row_widths(monkeypatch, lambda: dp.view_series(even, 60, views), 60)
    assert widths == list(range(2, 62))


@pytest.mark.parametrize("name", ["skew", "dyck", "skew-cat"])
def test_sampler_rows_stop_at_the_horizon(monkeypatch, name):
    # with no catastrophe a fixed end level bounds the rows: a path more
    # than the steps left above it, in the top slot, cannot come down in time
    n, config = 40, PRESETS[name]
    for final, want in (("closed", 0), (2, 2)):
        widths = _row_widths(monkeypatch, lambda: Sampler(config, n, final), n)
        if name == "skew-cat":
            assert widths == list(range(2, n + 2)), final
        else:
            assert all(w <= min(t, want + n - t + 1) + 1 for t, w in enumerate(widths, 1))
