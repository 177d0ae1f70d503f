import jsonschema
import pytest

from catwalk import closedform as cf, dp, verify

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


@pytest.mark.parametrize("name", DP_VIEWED + LEVELS)
def test_registry_series_equal_their_table_views(name):
    entry = cf.lookup(name)
    for order in (0, 1, 30):
        assert entry.build(order) == entry.view(dp.count_table(entry.model, order)), order


def test_theorem_suite_checks_every_registry_view():
    report = verify.run_suite("theorem", order=20, max_n=0)
    checked = {c.name[len("dp-"):] for c in report.checks if c.name.startswith("dp-")}
    assert checked - {"level-family"} == set(DP_VIEWED)
