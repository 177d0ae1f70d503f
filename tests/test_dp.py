import math

import pytest

from catwalk import dp
from catwalk.automaton import State
from catwalk.model import (
    CatastropheRule,
    DYCK,
    DYCK_CAT,
    LayerTag,
    ModelConfig,
    PRESETS,
    SKEW,
    SKEW_CAT,
    StepKind,
    with_rule,
)

F, G, H = LayerTag.F, LayerTag.G, LayerTag.H
U, D, R = StepKind.UP, StepKind.DOWN_BLACK, StepKind.DOWN_RED

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


def test_recurrences_pass_for_presets():
    for config in (DYCK, DYCK_CAT, SKEW, SKEW_CAT):
        report = dp.verify_recurrences(config, 30)
        assert report.ok
        assert report.failures() == []
    assert dp.verify_recurrences(DYCK_CAT, 10).name == "dyck"
    assert dp.verify_recurrences(SKEW, 10).name == "skew"


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
    report = dp.verify_recurrences(with_rule(preset, rule), 30)
    assert report.ok, report.failures()


def test_recurrences_pass_for_even_rule():
    even = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    assert dp.verify_recurrences(even, 25).ok
    even_d = with_rule(DYCK_CAT, CatastropheRule.even_min(2))
    assert dp.verify_recurrences(even_d, 25).ok


def failing(report) -> set:
    for check in report.failures():
        assert check.detail.startswith("fails at ") and "coefficient of z^" in check.detail
    return {check.name for check in report.failures()}


def test_recurrences_negative_controls(monkeypatch):
    # the identities encode the preset adjacency rules: red steps free to
    # follow and precede up-steps break the up and red-down inflows, and a
    # plain model that forbids an up-step after a down-step breaks the interior
    red_free = ModelConfig(frozenset({U, D, R}), frozenset(), CatastropheRule.none())
    assert failing(dp.verify_recurrences(red_free, 15)) == {"up-inflow", "red-down-inflow"}
    no_du = ModelConfig(frozenset({U, D}), frozenset({(D, U)}), CatastropheRule.none())
    assert "interior" in failing(dp.verify_recurrences(no_du, 15))

    # a kernel that loses the lowest firing level breaks the boundary identity
    class Skipping(dp.Transfer):
        def __init__(self, config):
            super().__init__(config)
            firing = self.firing
            self.firing = lambda top: list(firing(top))[1:]

    monkeypatch.setattr(dp, "Transfer", Skipping)
    for config in (SKEW_CAT, DYCK_CAT):
        assert failing(dp.verify_recurrences(config, 15)) == {"axis-boundary"}


def test_recurrences_bad_arguments():
    with pytest.raises(ValueError):
        dp.verify_recurrences(DYCK, 0)
