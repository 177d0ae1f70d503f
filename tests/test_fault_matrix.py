"""A planted-fault matrix for ``verify --suite all --order 40 --max-n 8``.

Each fault is one wrong piece of one route, planted with ``monkeypatch``
in the style of mutation analysis (DeMillo, Lipton and Sayward, "Hints on
test data selection", 1978).  For each fault the matrix names the exact
set of checks that fail.  Every check must then earn its place: either it
is the only check that catches some fault, or :data:`IMPLIED` names the
checks that catch every fault it catches, and says why.

A series fault adds z^K to one series a piece returns, or to a closed
form, where it is written into the numerator as z^K times the form's
denominator.  A count fault changes one count of one row of the DP, drops
one path from one brute-force listing, or miscounts the listed paths.  A
suite that crashes on a fault reports ``<suite>-error``; that record names
no check of its own, so a check that fails beside it alone still catches
the fault alone.
"""

import pytest

from catwalk import brute, cli, closedform as cf, dp, verify
from catwalk.model import (
    DYCK,
    DYCK_CAT,
    SKEW,
    SKEW_CAT,
    CatastropheRule,
    with_rule,
)
from catwalk.series import Series

ORDER, MAX_N = 40, 8
K = 20  # the power of z a series fault adds: past MAX_N and both OEIS prefixes

DYCK_CAT_EVEN = with_rule(DYCK_CAT, CatastropheRule.even_min(2))
SKEW_CAT_EVEN = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
PRESETS = {"dyck": DYCK, "dyck-cat": DYCK_CAT, "skew": SKEW, "skew-cat": SKEW_CAT}
ORACLE = {**PRESETS, "dyck-cat-even": DYCK_CAT_EVEN, "skew-cat-even": SKEW_CAT_EVEN}


def plus(series: Series, k: int = K) -> Series:
    """``series`` + z^k, or ``series`` itself when z^k is past its order."""
    if k > series.order:
        return series
    return series + Series([0] * k + [1], order=series.order)


def form(key, k=K):
    """The closed form ``key`` of ``cf._FORMS``, plus z^k."""

    def plant(mp):
        a, b, d = cf._FORMS[key]
        num = [0] * max(len(a), k + len(d))
        for i, c in enumerate(a):
            num[i] += c
        for i, c in enumerate(d):
            num[k + i] += c
        mp.setitem(cf._FORMS, key, (tuple(num), b, d))

    return plant


def returns(owner, attr, change):
    """``owner.attr`` with ``change`` applied to what it returns."""

    def plant(mp):
        original = getattr(owner, attr)
        mp.setattr(owner, attr, lambda *args: change(original(*args)))

    return plant


def at(i, change=plus):
    """``change`` applied to item i of a sequence, when it has one."""
    return lambda items: [change(x) if j == i else x for j, x in enumerate(items)]


def row(config, length, delta):
    """The DP's row of ``length`` for ``config``, with ``delta`` added:
    {(layer index, level): paths}.  In a row whose top slot merges the
    levels from it up, a level at or above the top slot is that slot."""

    def plant(mp):
        class Faulty(dp.Transfer):
            def __init__(self, c):
                super().__init__(c)
                self.hit = c == config

            def rows(self, n, want=None):
                for t, r in enumerate(super().rows(n, want)):
                    if self.hit and t == length:
                        r = tuple(list(vec) for vec in r)
                        for (layer, level), d in delta.items():
                            r[layer][min(level, len(r[layer]) - 1)] += d
                    yield r

        mp.setattr(dp, "Transfer", Faulty)

    return plant


def carried_tail(mp):
    """``Transfer._carry`` leaves the up-steps from level k - 1 out of F's
    tail: every rule that fires from level k up loses those catastrophes."""
    original = dp.Transfer._carry

    def faulty(self, row, tails, k):
        f, g, h = original(self, row, tails, k)
        if k <= len(row[0]):
            f -= sum(row[j][k - 1] for j in self.sources["U"])
        return f, g, h

    mp.setattr(dp.Transfer, "_carry", faulty)


def drop_path(config, n=6):
    """``red_lengths`` loses one length-n path of ``config``: the last tail
    of its last head, which gets a list of tails of its own."""

    def plant(mp):
        original = brute.red_lengths

        def faulty(c, max_n):
            for m, halves in enumerate(original(c, max_n)):
                if c == config and m == n:
                    *rest, (head, tails, ends) = halves
                    halves = [*rest, (head, tails[:-1], ends[:-1])]
                yield halves

        mp.setattr(brute, "red_lengths", faulty)

    return plant


def census_weight(mp):
    """``census`` weights each shared list of tails by 1, not by its heads."""
    original = brute.census
    mp.setattr(
        brute,
        "census",
        lambda hs, counted: original({id(t): (h, t, e) for h, t, e in hs}.values(), counted),
    )


def even_min_fires_odd(attr):
    """``CatastropheRule.attr`` forgets that even_min fires at even levels only."""

    def plant(mp):
        original = getattr(CatastropheRule, attr)

        def faulty(rule, level):
            if rule.kind == "even_min":
                rule = CatastropheRule.min_level(rule.k)
            return original(rule, level)

        mp.setattr(CatastropheRule, attr, faulty)

    return plant


def view(name):
    """The registry pairs ``name`` with the wrong DP view: level 1 for
    level 0, level 0 for any level."""

    def plant(mp):
        entry = cf.REGISTRY[name]
        layer, level = entry.view
        mp.setitem(cf.REGISTRY, name, entry._replace(view=(layer, 1 if level == 0 else 0)))

    return plant


def level_view_one_up(mp):
    """``lookup`` pairs each level series fj:J, gj:J, hj:J with level J + 1."""
    original = cf.lookup

    def faulty(name):
        entry = original(name)
        if ":" in name:
            layer, level = entry.view
            entry = entry._replace(view=(layer, level + 1))
        return entry

    mp.setattr(cf, "lookup", faulty)


def swap_g_and_h(mp):
    """``level_family`` returns (f_j, h_j, g_j) for (f_j, g_j, h_j)."""
    returns(cf, "level_family", lambda fgh: (fgh[0], fgh[2], fgh[1]))(mp)


def red_drawn_south_east(mp):
    """``red_to_geometric`` draws a red step like a black one."""
    mp.setitem(brute._RED_TO_GEO, "R", brute._RED_TO_GEO["D"])


# fault -> (plant, the exact set of checks that fail)
FAULTS = {
    # the closed forms, one per _FORMS row; the z^5 faults reach the OEIS prefixes
    "form-r2-dyck": (form(("r2", "dyck")), {"kernel-root-dyck"}),
    "form-r2-skew": (
        form(("r2", "skew")),
        {
            "kernel-root-skew", "level-ladder", "g0-elimination", "axis-sum",
            "axis-boundary-tails", "dp-g0-skew-cat", "dp-h0-skew-cat", "dp-level-family",
        },
    ),
    "form-inv_r1-dyck": (form(("inv_r1", "dyck")), {"reciprocal-root-dyck"}),
    "form-inv_r1-skew": (
        form(("inv_r1", "skew")),
        {
            "reciprocal-root-skew", "level-ladder", "g0-elimination", "axis-sum",
            "axis-boundary-tails", "dp-g0-skew-cat", "dp-h0-skew-cat", "dp-level-family",
        },
    ),
    # 1 at z^5 climbs the ladder down to z^0, where dividing by z r1 r2 raises
    "form-inv_r1-skew-z5": (
        form(("inv_r1", "skew"), 5), {"reciprocal-root-skew", "theorem-error"}
    ),
    "form-f0-dyck": (form(("f0", "dyck")), {"dp-f0-dyck-cat"}),
    "form-f0-dyck-z5": (form(("f0", "dyck"), 5), {"dp-f0-dyck-cat", "oeis-axis-dyck-cat"}),
    "form-f0-skew": (
        form(("f0", "skew")),
        {
            "axis-sum", "axis-boundary-tails", "dp-f0-skew-cat", "dp-g0-skew-cat",
            "dp-h0-skew-cat", "dp-level-family",
        },
    ),
    "form-open-dyck": (form(("open", "dyck")), {"dp-open-dyck-cat"}),
    "form-open-dyck-z5": (form(("open", "dyck"), 5), {"dp-open-dyck-cat", "oeis-open-shift"}),
    "form-open-skew": (form(("open", "skew")), {"dp-open-skew-cat"}),
    "form-fgh0-skew": (form(("fgh0", "skew")), {"axis-sum", "dp-fgh0-skew-cat"}),
    # the kernel method's other pieces
    "ladder-f1": (
        returns(cf, "level_ladder", at(1)),
        {
            "level-ladder", "g0-elimination", "axis-sum", "dp-g0-skew-cat",
            "dp-h0-skew-cat", "dp-level-family",
        },
    ),
    "ladder-f8": (returns(cf, "level_ladder", at(8)), {"level-ladder"}),
    # only the top rung of the level-ladder check reads f_11
    "ladder-f11": (returns(cf, "level_ladder", at(11)), {"level-ladder"}),
    # every square root taken past the suite's order gains z^(ORDER + 10):
    # only the ladder check, at ORDER + 9, reads so far, and there only its
    # direct e_1 comparison sees that r2 is no longer a root of the kernel
    "sqrt-past-order": (returns(Series, "sqrt", lambda s: plus(s, ORDER + 10)), {"level-ladder"}),
    "channels-g": (
        returns(cf, "level_family", at(1)),
        {"g0-elimination", "axis-sum", "dp-g0-skew-cat", "dp-level-family"},
    ),
    "channels-h": (
        returns(cf, "level_family", at(2)), {"axis-sum", "dp-h0-skew-cat", "dp-level-family"}
    ),
    # g and h trade places: their sum, and so axis-sum, stays right
    "level-family-swap": (
        swap_g_and_h,
        {"dp-g0-skew-cat", "dp-h0-skew-cat", "dp-level-family", "g0-elimination"},
    ),
    "tail-sums-f": (returns(cf, "tail_sums", at(0)), {"axis-boundary-tails"}),
    "tail-sums-g": (returns(cf, "tail_sums", at(1)), {"axis-boundary-tails"}),
    "tail-sums-h": (returns(cf, "tail_sums", at(2)), {"axis-boundary-tails"}),
    "g0-elimination": (returns(cf, "g0_via_elimination", plus), {"g0-elimination"}),
    "kernel-at": (
        returns(cf, "kernel_at", plus),
        {"kernel-root-dyck", "kernel-root-skew", "reciprocal-root-dyck", "reciprocal-root-skew"},
    ),
    # the DP's rows: one more path at (F, 2) of length 4; at length 20, one
    # path moved from (F, 6) to (F, 8), past every view the registry reads,
    # and one from (F, 4) to (G, 4), which keeps every level's sum over the
    # layers.  A planted row does not feed the rows after it, so the skew
    # closed counts change only where a fault plants one: at (G, 0) of
    # length 10, past MAX_N.
    "transfer-count-dyck": (row(DYCK, 4, {(0, 2): 1}), {"oracle-dyck", "recurrences-dyck"}),
    "transfer-count-dyck-cat": (
        row(DYCK_CAT, 4, {(0, 2): 1}),
        {"oracle-dyck-cat", "recurrences-dyck-cat", "dp-open-dyck-cat"},
    ),
    "transfer-count-skew": (row(SKEW, 4, {(0, 2): 1}), {"oracle-skew", "recurrences-skew"}),
    "transfer-axis-skew": (row(SKEW, 10, {(1, 0): 1}), {"oeis-skew-dyck", "recurrences-skew"}),
    "transfer-count-skew-cat": (
        row(SKEW_CAT, 4, {(0, 2): 1}),
        {"oracle-skew-cat", "recurrences-skew-cat", "dp-open-skew-cat", "dp-level-family"},
    ),
    **{
        f"transfer-level-{name}": (
            row(config, 20, {(0, 6): -1, (0, 8): 1}), {f"recurrences-{name}"}
        )
        for name, config in PRESETS.items()
    },
    **{
        f"transfer-layer-{name}": (
            row(config, 20, {(0, 4): -1, (1, 4): 1}), {f"recurrences-{name}"}
        )
        for name, config in (("dyck", DYCK), ("dyck-cat", DYCK_CAT))
    },
    # the catastrophe tails the DP carries from row to row, off by one level
    "carried-tail": (
        carried_tail,
        {
            "oracle-dyck-cat", "oracle-skew-cat", "recurrences-dyck-cat", "recurrences-skew-cat",
            "dp-f0-dyck-cat", "dp-open-dyck-cat", "dp-f0-skew-cat", "dp-g0-skew-cat",
            "dp-h0-skew-cat", "dp-fgh0-skew-cat", "dp-open-skew-cat", "dp-level-family",
        },
    ),
    # the registry's pairing of each closed form with its DP view
    **{
        f"view-{name}": (view(name), {f"dp-{name}"})
        for name, entry in cf.REGISTRY.items()
        if entry.view is not None
    },
    "view-level-family": (level_view_one_up, {"dp-level-family"}),
    # brute force, and the catastrophe rule it and the DP read
    **{
        f"enumerate-{name}": (drop_path(config), {f"oracle-{name}"})
        for name, config in ORACLE.items()
        if config != SKEW
    },
    "enumerate-skew": (drop_path(SKEW), {"oracle-skew", "oracle-geometric"}),
    "census-weight": (census_weight, {f"oracle-{name}" for name in ORACLE}),
    "red-to-geometric": (red_drawn_south_east, {"oracle-geometric"}),
    "firing-even-min": (
        even_min_fires_odd("firing"), {"oracle-dyck-cat-even", "oracle-skew-cat-even"}
    ),
    "allows-even-min": (
        even_min_fires_odd("allows"), {"oracle-dyck-cat-even", "oracle-skew-cat-even"}
    ),
}

# the checks of the suite, in report order
CHECKS = (
    "kernel-root-dyck", "reciprocal-root-dyck", "kernel-root-skew", "reciprocal-root-skew",
    "oeis-axis-dyck-cat", "oeis-open-shift", "oeis-skew-dyck",
    "oracle-dyck", "oracle-dyck-cat", "oracle-skew", "oracle-skew-cat",
    "oracle-dyck-cat-even", "oracle-skew-cat-even", "oracle-geometric",
    "recurrences-dyck", "recurrences-dyck-cat", "recurrences-skew", "recurrences-skew-cat",
    "level-ladder", "g0-elimination", "axis-sum", "axis-boundary-tails",
    "dp-f0-dyck-cat", "dp-open-dyck-cat", "dp-f0-skew-cat", "dp-g0-skew-cat",
    "dp-h0-skew-cat", "dp-fgh0-skew-cat", "dp-open-skew-cat", "dp-level-family",
)

# check -> checks that catch every fault it catches, and why
IMPLIED = {
    # level-ladder at j = 0 and 1, with f_2 built by the ladder's kernel
    # recurrence, multiplies out to f_0 K(r2) = 0; kernel_at, the evaluator
    # both kernels share, is what kernel-root-dyck checks
    "kernel-root-skew": {"level-ladder", "kernel-root-dyck"},
    # the only checks of the closed forms against published data, which
    # ends at z^13 and z^11; the DP checks compare them through z^ORDER
    "oeis-axis-dyck-cat": {"dp-f0-dyck-cat"},
    "oeis-open-shift": {"dp-open-dyck-cat"},
    # the skew closed counts against published data through z^20; the skew
    # recurrences fix every row of the table, so every wrong count too
    "oeis-skew-dyck": {"recurrences-skew"},
    # oracle-geometric compares the same red paths with the geometric
    # enumeration, the skew recurrences fix every row of the table, and
    # every oracle check reads its counts from the one census
    "oracle-skew": {"oracle-geometric", "recurrences-skew", "oracle-dyck"},
    # the DP's axis view is the sum of its three level-0 layers; the check
    # stays while the benchmark counts its fgh0 square root
    "axis-sum": {"dp-f0-skew-cat", "dp-g0-skew-cat", "dp-h0-skew-cat", "dp-fgh0-skew-cat"},
}


def failing() -> set:
    report = verify.run_suite("all", ORDER, MAX_N)
    return {c.name for c in report.checks if not c.ok}


def test_unplanted_suite_runs_every_check_and_passes():
    report = verify.run_suite("all", ORDER, MAX_N)
    assert tuple(c.name for c in report.checks) == CHECKS
    assert report.ok


@pytest.mark.parametrize("fault", list(FAULTS))
def test_planted_fault_fails_exactly_its_checks(monkeypatch, fault):
    plant, fails = FAULTS[fault]
    plant(monkeypatch)
    assert failing() == fails


def test_a_dropped_path_is_one_listed_path_of_its_length(monkeypatch):
    listed = [brute.join(h) for h in brute.red_lengths(SKEW_CAT, 8)]
    drop_path(SKEW_CAT)(monkeypatch)
    planted = [brute.join(h) for h in brute.red_lengths(SKEW_CAT, 8)]
    assert [len(a) - len(b) for a, b in zip(listed, planted)] == [0] * 6 + [1, 0, 0]
    assert set(planted[6]) < set(listed[6])
    assert planted[:6] + planted[7:] == listed[:6] + listed[7:]


def test_a_dropped_path_names_the_first_end_state_that_differs(monkeypatch):
    # the dropped length-6 path is one of the 7 that end in (G, 0): with a
    # black down-step onto the axis
    listed = brute.join(brute.red_halves(SKEW_CAT, 6))
    drop_path(SKEW_CAT)(monkeypatch)
    (dropped,) = set(listed) - set(brute.join(list(brute.red_lengths(SKEW_CAT, 8))[6]))
    assert (dropped.steps[-1], dropped.final_level) == ("D", 0)
    assert sum(p.steps[-1] == "D" and p.final_level == 0 for p in listed) == 7
    report = verify.run_suite("oracle", ORDER, MAX_N)
    assert report.failures() == [
        dp.Check("oracle-skew-cat", False, "census mismatch at n=6, (G, 0): 6 listed, 7 counted")
    ]


# a failed oeis check names the first coefficient that differs: the
# route's value, then the published one
OEIS_FAILURES = {
    "form-f0-dyck-z5": ("oeis-axis-dyck-cat", "f0-dyck-cat, coefficient of z^5: 6 != 5"),
    "form-open-dyck-z5": ("oeis-open-shift", "1 + z open-dyck-cat, coefficient of z^6: 18 != 17"),
    "transfer-axis-skew": ("oeis-skew-dyck", "closed skew, coefficient of z^10: 138 != 137"),
}


@pytest.mark.parametrize("fault", list(OEIS_FAILURES))
def test_a_failed_oeis_check_names_the_first_coefficient_that_differs(monkeypatch, fault):
    check, where = OEIS_FAILURES[fault]
    FAULTS[fault][0](monkeypatch)
    report = verify.run_suite("oeis", ORDER, MAX_N)
    assert report.failures() == [dp.Check(check, False, f"fails at {where}")]


def test_every_route_piece_has_a_fault():
    assert {f"form-{f}-{m}" for f, m in cf._FORMS} <= set(FAULTS)
    names = set(CHECKS)
    suites = {f"{s}-error" for s in verify.SUITES}
    assert all(fails <= names | suites for _, fails in FAULTS.values())


def test_every_check_catches_a_fault_alone_or_is_implied():
    names = set(CHECKS)
    # the checks that some fault fails and no other check does
    alone = {c for _, fails in FAULTS.values() if len(fails & names) == 1 for c in fails & names}
    for check, by in IMPLIED.items():
        assert by <= names - {check}, check
        caught = [fault for fault, (_, fails) in FAULTS.items() if check in fails]
        assert caught, f"{check} catches no fault: nothing shows the implication"
        for fault in caught:
            assert FAULTS[fault][1] & by, (check, fault)
    assert names == alone | set(IMPLIED)


def test_a_crashing_suite_is_a_failed_check_of_the_report(monkeypatch, capsys):
    form(("inv_r1", "skew"), 5)(monkeypatch)
    code = cli.main(["verify", "--order", str(ORDER), "--max-n", str(MAX_N)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert (
        "FAIL theorem-error: ValuationError in closedform.level_ladder: "
        "dividend has valuation 0, divisor has valuation 1" in lines
    )
    assert lines[-1].startswith("suite=all checks=19 failures=2 ")


def test_series_and_the_suite_read_one_level_family(monkeypatch, capsys):
    # the plant the suite's level-family-swap row fails on also breaks what
    # `series --gf` prints: both form g_j and h_j through level_family
    swap_g_and_h(monkeypatch)
    code = cli.main(["series", "--gf", "g0-skew-cat", "--order", "10", "--check-dp"])
    assert (code, capsys.readouterr()) == (1, ("", "mismatch at z^2: closed form 0, table 1\n"))
