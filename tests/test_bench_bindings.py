"""The benchmark still binds to this package and accepts its output.

``bench/tracer.py`` patches spans onto catwalk's functions and methods by
name from outside the package, and ``bench/workloads.py`` parses what each
command prints, so renaming a name or changing an output format breaks the
benchmark without breaking any other catwalk test; these tests catch that.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import catwalk
from catwalk import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import tracer
from catwalk import closedform, dp, model

spans = tracer.install()
dp.count_table(model.DYCK, 3)  # the table counter reads CountTable.final_counts
assert spans.summary()["counters"]["dp.table_entries"] > 0

# the series operators do their work under the names the tracer patches:
# for fj:2 f0, r2 and 1/r1 each take one square root, and the level ladder
# climbs without powers, so the tail sums' q^2 is what runs through Series.pow
closedform.series_by_name("fj:2", 20)
assert spans.summary()["layers"]["series.sqrt"]["calls"] == 3, spans.summary()["layers"]
closedform.series_by_name("hj:3", 20)  # f0, r2 and 1/r1 again, through level_family
assert spans.summary()["layers"]["series.sqrt"]["calls"] == 6, spans.summary()["layers"]
closedform.tail_sums(20)
layers = spans.summary()["layers"]
for name in ("series.mul", "series.sqrt", "series.div", "series.pow"):
    assert layers.get(name, {}).get("calls", 0) > 0, (name, sorted(layers))

# each fixed closed form takes exactly one square root; the expansion
# workload's exact series.sqrt count rests on these
for name in ("r2-skew", "f0-dyck-cat", "open-skew-cat", "fgh0-skew-cat"):
    before = spans.summary()["layers"]["series.sqrt"]["calls"]
    closedform.series_by_name(name, 20)
    assert spans.summary()["layers"]["series.sqrt"]["calls"] - before == 1, name

# the theorem suite at order 100 takes 14 square roots; with 3 for each of
# fj:J and hj:J and 1 for f0-dyck-cat they make the 21 that
# bench/test_bench.py pins for an expansion round
from catwalk import verify
before = spans.summary()["layers"]["series.sqrt"]["calls"]
assert verify.run_suite("theorem", 100, 12).ok
assert spans.summary()["layers"]["series.sqrt"]["calls"] - before == 14

# the sampler's spans: one build, and each draw validated once through the
# validate_path name the sampler imports
from catwalk import cli
assert cli.main(["sample", "--model", "skew-cat", "--n", "12", "--closed", "--count", "7"]) == 0
layers = spans.summary()["layers"]
for name, calls in (("sampler.build", 1), ("sampler.draw", 7), ("model.validate_path", 7)):
    assert layers.get(name, {}).get("calls") == calls, (name, layers.get(name))
"""


def test_tracer_installs_on_this_package():
    src = pathlib.Path(catwalk.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "bench")])},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads")


# one small command for each (subcommand, format) pair the workloads run
@pytest.mark.parametrize(
    "builder, params",
    [
        ("_count", ("dyck", 30, 4)),
        ("_count", ("skew-cat", 30, "open")),
        ("_series", ("fj:2", 30)),
        ("_series", ("open-dyck-cat", 30, "text", True)),
        ("_series", ("f0-dyck-cat", 30, "json")),
        ("_sample", ("skew", 20, "closed", 5, 7)),
        ("_enumerate", ("dyck", 12, "open")),
        ("_enumerate", ("skew-cat", 8, "open", "csv")),
        ("_verify", ("recurrences", 30)),
        ("_verify", ("theorem", 30)),
        ("_verify", ("oracle", 30, 8)),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)),
)
def test_workload_checks_accept_cli_output(capsys, workloads, builder, params):
    command = getattr(workloads, builder)(*params)
    assert cli.main(list(command.argv)) == 0
    stdout = capsys.readouterr().out
    assert workloads.check(command, workloads.reference(command), stdout) is None
