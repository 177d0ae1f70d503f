"""Tests of the benchmark itself: second routes, output checks, plans and trace.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import time
from pathlib import Path

import pytest

import harness
import tracer
import workloads
from catwalk import cli, dp, model

ROOT = Path(__file__).resolve().parent.parent


def test_layer_table_matches_catwalk_dp():
    for name, config in model.PRESETS.items():
        rows = workloads.layer_table(name, 24)
        table = dp.count_table(config, 24)
        for n in range(25):
            got = {
                (layer, level): c
                for layer, counts in zip(model.LAYER_ORDER, rows[n])
                for level, c in enumerate(counts)
                if c
            }
            want = {(st.layer, st.level): c for st, c in table.final_counts(n).items()}
            assert got == want, (name, n)


def test_ballot_matches_layer_table():
    rows = workloads.layer_table("dyck", 30)
    for n in range(31):
        for final in ("open", "closed", 1, 2, 5):
            assert workloads.ballot(n, final) == workloads._level_count(rows, n, final)


def test_plans_repeat_cover_every_subcommand_and_keep_parity():
    for workload in workloads.WHY:
        for seed in range(30):
            commands = workloads.plan(workload, seed)
            assert commands == workloads.plan(workload, seed)
            assert {c.kind for c in commands} == set(workloads.KINDS)
            for c in commands:
                p = c.params
                if p.get("model") in ("dyck", "skew") and p["final"] != "open":
                    level = 0 if p["final"] == "closed" else p["final"]
                    assert (p["n"] - level) % 2 == 0, c.argv


def _cli_stdout(capsys, argv) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [
        workloads._count("dyck", 30, 4),
        workloads._count("dyck-cat", 40, "closed"),
        workloads._count("skew-cat", 40, "open"),
        workloads._series("fj:2", 30),
        workloads._series("hj:3", 30),
        workloads._series("open-dyck-cat", 30, fmt="json", check_dp=True),
        workloads._series("f0-dyck-cat", 30),
        workloads._sample("skew", 20, 2, 30, 5),
        workloads._sample("skew-cat", 30, "closed", 30, 6),
        workloads._enumerate("dyck-cat", 10, "closed"),
        workloads._enumerate("skew-cat", 9, "open", fmt="csv"),
        workloads._verify("oeis"),
    ],
    ids=lambda c: " ".join(c.argv),
)
def test_checks_pass_real_output_and_catch_a_wrong_one(capsys, command):
    ref = workloads.reference(command)
    out = _cli_stdout(capsys, command.argv)
    assert workloads.check(command, ref, out) is None
    if command.kind == "verify":
        wrong = out.replace("failures=0", "failures=1")
    elif command.kind in ("sample", "enumerate"):
        wrong = out.rstrip("\n").rsplit("\n", 1)[0]  # one path short
    else:  # change the last digit of the last number
        at = max(i for i, ch in enumerate(out) if ch.isdigit())
        wrong = out[:at] + str((int(out[at]) + 1) % 10) + out[at + 1 :]
    assert workloads.check(command, ref, wrong) is not None


def test_sample_check_rejects_an_illegal_path():
    command = workloads._sample("skew", 4, "closed", 1, 0)
    assert workloads.check(command, None, "UUDD\n") is None
    assert workloads.check(command, None, "URDD\n") is not None  # UR is forbidden
    assert workloads.check(command, None, "UUDU\n") is not None  # ends at level 2


def test_benchmark_json_names_exactly_what_a_run_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_self_time_and_reentry():
    t = tracer.Tracer()
    inner = t.wrap("a.inner", lambda: time.sleep(0.02))
    same = t.wrap("a.outer", lambda: inner())
    outer = t.wrap("a.outer", lambda: (same(), time.sleep(0.01)))
    outer()
    layers = t.summary()["layers"]
    assert layers["a.outer"]["calls"] == 1  # the nested call of the same name merged
    assert layers["a.inner"]["calls"] == 1
    _name, _parent, start, end = t.spans[0]
    assert layers["a.outer"]["self_s"] + layers["a.inner"]["self_s"] == pytest.approx(end - start)
    assert layers["a.outer"]["self_s"] >= 0.01 and layers["a.inner"]["self_s"] >= 0.02


EXACT = [name for name in harness.per_layer_units() if name.endswith(".calls")] + [
    *tracer.COUNTERS,
    "cli.out_bytes",
]


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_traced_counts_repeat_for_a_seed(workload):
    commands = workloads.plan(workload, 3)
    refs = [workloads.reference(c) for c in commands]
    counts = []
    for attempt in range(2):
        outcomes = harness.run_round(commands, refs, True, attempt, time.monotonic())
        assert [o.error for o in outcomes] == [None] * len(commands)
        values = harness.layer_values(outcomes)
        counts.append({name: values[name] for name in EXACT})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(commands)
    if workload == "expansion":
        assert counts[0]["series.sqrt.calls"] == 21
