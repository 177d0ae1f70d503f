import tracemalloc

import jsonschema
import pytest

from catwalk import brute, cli, closedform as cf, dp, verify
from catwalk.model import SKEW
from catwalk.series import Series, ValuationError

from conftest import load_schema


def test_all_suites_pass_at_moderate_scale():
    report = verify.run_suite("all", order=40, max_n=8)
    assert report.ok
    assert report.failures() == []
    assert len(report.checks) == 30
    names = [c.name for c in report.checks]
    assert len(set(names)) == len(names)
    assert report.elapsed_ms >= 0


def test_individual_suites():
    for suite in ("kernel", "recurrences", "oracle", "theorem", "oeis"):
        report = verify.run_suite(suite, order=30, max_n=6)
        assert report.ok, report.failures()
        assert report.name == suite
        assert report.checks


def test_report_json_matches_schema():
    report = verify.run_suite("kernel", order=20, max_n=4)
    data = report.to_json()
    jsonschema.validate(data, load_schema("verify_report"))
    assert all(c["status"] == "pass" for c in data["checks"])


def test_kernel_failure_names_first_coefficient(monkeypatch):
    def planted(model, order):
        return Series([0, 0, 0, 5], order=order)

    monkeypatch.setattr(cf, "kernel_residual", planted)
    report = verify.run_suite("kernel", order=20, max_n=4)
    roots = [c for c in report.checks if c.name.startswith("kernel-root-")]
    assert len(roots) == len(cf.MODELS)
    for c in roots:
        assert not c.ok
        assert "coefficient of z^3" in c.detail
        assert c.detail == "fails at K(r2), coefficient of z^3: 5 != 0"
    assert all(c.ok for c in report.checks if c.name.startswith("reciprocal-root-"))


def test_a_series_error_fails_its_suite_and_the_others_run(monkeypatch):
    def crash(order, max_n):
        raise ValuationError("dividend has valuation 0, divisor has valuation 1")

    monkeypatch.setitem(verify._SUITES, "kernel", crash)
    report = verify.run_suite("all", order=20, max_n=4)
    # the crash is raised outside catwalk, so the innermost catwalk frame is the runner's
    detail = "ValuationError in verify.run_suite: dividend has valuation 0, divisor has valuation 1"
    assert report.failures() == [dp.Check("kernel-error", False, detail)]
    assert report.checks[0].name == "kernel-error"
    assert len(report.checks) == 27  # the four kernel checks are one error record
    jsonschema.validate(report.to_json(), load_schema("verify_report"))


class Overreading(dp.Transfer):
    """A kernel that reads the firing levels up to two past a row's top."""

    def __init__(self, config):
        super().__init__(config)
        firing = self.firing
        self.firing = lambda top: list(firing(top + 2))


def test_an_index_error_fails_its_suite_and_the_others_run(monkeypatch, capsys):
    # the oracle's count table runs on the faulty kernel: dyck-cat fires at
    # level 2 of a row one level wide, and the DP step raises IndexError
    def count_table(config, n_max):
        return dp.CountTable(list(Overreading(config).rows(n_max)))

    monkeypatch.setattr(dp, "count_table", count_table)
    report = verify.run_suite("all", order=20, max_n=4)
    detail = "IndexError in dp.Transfer.__call__: list index out of range"
    assert report.failures() == [dp.Check("oracle-error", False, detail)]
    assert len(report.checks) == 24  # the seven oracle checks are one error record
    jsonschema.validate(report.to_json(), load_schema("verify_report"))
    assert cli.main(["verify", "--suite", "oracle", "--order", "20", "--max-n", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"FAIL oracle-error: {detail}"


def test_a_size_guard_propagates(monkeypatch):
    # a refusal of the sizes asked for is no fault of a route: it is not a
    # failed check, and the CLI exits 2
    def refuse(order, max_n):
        raise brute.SizeGuard("refusing brute-force enumeration past n=20")

    monkeypatch.setitem(verify._SUITES, "oracle", refuse)
    with pytest.raises(brute.SizeGuard):
        verify.run_suite("all", order=20, max_n=4)


def test_suite_arguments():
    with pytest.raises(ValueError):
        verify.run_suite("everything")
    with pytest.raises(ValueError):
        verify.run_suite("kernel", order=1)
    with pytest.raises(ValueError):
        verify.run_suite("kernel", order=10, max_n=-1)


def test_suite_names_exported():
    assert verify.SUITES[0] == "all"
    assert set(verify.SUITES) == {"all", "kernel", "oeis", "oracle", "recurrences", "theorem"}


DP_VIEWED = sorted(name for name, entry in cf.REGISTRY.items() if entry.view is not None)


LEVELS = [f"{head}:{j}" for j in (0, 1, 4) for head in ("fj", "gj", "hj")]


def table_reader(table, view):
    """A (layer, level) view read off a CountTable, None meaning any."""
    layer, level = view
    if layer is not None:
        return table.layer_series(layer, level)
    assert level in (0, None), view  # the registry's only views over every layer
    read = table.open_count if level is None else table.closed_count
    return Series([read(n) for n in range(table.n_max + 1)])


@pytest.mark.parametrize("name", DP_VIEWED + LEVELS)
def test_registry_series_equal_their_table_views(name):
    entry = cf.lookup(name)
    # orders 2..6 cut the closed forms' polynomials, of degree up to 6, short
    for order in (0, 1, 2, 3, 6, 7, 30):
        closed = entry.build(order)
        assert closed == dp.view_series(entry.model, order, [entry.view])[0], order
        assert closed == table_reader(dp.count_table(entry.model, order), entry.view), order


def test_theorem_suite_checks_every_registry_view():
    report = verify.run_suite("theorem", order=20, max_n=0)
    checked = {c.name[len("dp-"):] for c in report.checks if c.name.startswith("dp-")}
    assert checked - {"level-family"} == set(DP_VIEWED)


def test_theorem_suite_forms_few_dense_products(monkeypatch):
    # level-ladder forms (2 - z^2) f_(j+1) - r2 f_j for j = 0 and 1 only and
    # climbs the kernel's rungs by sparse products; tail_sums forms its g
    # and h tails from one product (r2 - z) T, and g0_via_elimination its
    # numerator as one product f0 (r2 - 2z + z^2 q).  The 14 square roots
    # and the one power are the suite's share of what the benchmark's
    # expansion round pins
    dense, roots, powers = [], [], []
    mul, sqrt, pow_ = Series.__mul__, Series.sqrt, Series.pow

    def nonzero(s):
        return sum(1 for i in range(s.order + 1) if s.coeff(i))

    def counting(self, other):
        if isinstance(other, Series) and min(nonzero(self), nonzero(other)) >= 10:
            dense.append((self.order, other.order))
        return mul(self, other)

    def rooting(self):
        roots.append(self.order)
        return sqrt(self)

    def powering(self, k):
        powers.append(k)
        return pow_(self, k)

    monkeypatch.setattr(Series, "__mul__", counting)
    monkeypatch.setattr(Series, "sqrt", rooting)
    monkeypatch.setattr(Series, "pow", powering)
    assert verify.run_suite("theorem", 100, 12).ok
    assert len(dense) <= 13
    assert (len(roots), len(powers)) == (14, 1)


def test_oracle_suite_reaches_the_brute_force_limit_in_bounded_memory():
    # the peak measured 26.9 MiB traced (CPython 3.11); the enumeration of
    # every length afresh that this replaced reached 140 MB RSS at max_n = 18
    tracemalloc.start()
    try:
        report = verify.run_suite("oracle", max_n=brute.RED_LIMIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert [c.detail for c in report.checks[:6]] == ["enumeration matches table for n <= 20"] * 6
    assert peak < 36 * 2**20


def test_oracle_suite_enumerates_skew_once_per_length(monkeypatch):
    # one listing per model serves every length; the geometric comparison
    # joins the skew paths the census read, and no path is enumerated again
    listed = []
    red_lengths = brute.red_lengths

    def counted(config, max_n):
        lengths = []
        listed.append((config, lengths))
        for halves in red_lengths(config, max_n):
            lengths.append(len(lengths))
            yield halves

    def refuse(*args):
        raise AssertionError("enumerate_red called")

    monkeypatch.setattr(brute, "red_lengths", counted)
    monkeypatch.setattr(brute, "enumerate_red", refuse)
    report = verify.run_suite("oracle", max_n=7)
    assert report.ok
    assert [config for config, _ in listed].count(SKEW) == 1
    assert [lengths for _, lengths in listed] == [list(range(8))] * 6
    with pytest.raises(ValueError):
        list(red_lengths(SKEW, -1))
