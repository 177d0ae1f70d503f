import csv
import io
import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

import catwalk
from catwalk import cli
from catwalk.model import SKEW_CAT

from conftest import load_schema


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--model", "skew-cat", "--n", "6", "--closed")
    assert code == 0
    assert out.strip() == "17"


def test_count_open_and_level(capsys):
    code, out, _ = run(capsys, "count", "--model", "skew-cat", "--n", "6", "--open")
    assert (code, out.strip()) == (0, "41")
    code, out, _ = run(capsys, "count", "--model", "dyck", "--n", "6", "--level", "2")
    assert code == 0
    assert out.strip() == "9"


def test_count_json_schema(capsys):
    code, out, _ = run(
        capsys, "count", "--model", "dyck-cat", "--n", "10", "--closed", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("count_result"))
    assert data == {"model": "dyck-cat", "n": 10, "final": "closed", "count": 232}


def test_count_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--model", "skew", "--n", "6", "--closed", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["model", "n", "final", "count"], ["skew", "6", "closed", "10"]]


def test_count_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(SKEW_CAT.dumps(), encoding="utf-8")
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--n", "6", "--closed")
    assert code == 0
    assert out.strip() == "17"


def test_count_requires_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--model", "dyck", "--n", "4"])
    assert exc.value.code == 2


def test_model_and_config_mutually_exclusive(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(SKEW_CAT.dumps(), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["count", "--model", "dyck", "--config", str(cfg), "--n", "4", "--closed"]
        )
    assert exc.value.code == 2


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "count", "--config", str(cfg), "--n", "4", "--closed")
    assert code == 2
    assert "error:" in err
    # well-formed JSON that breaks the schema names the offending field
    for field, value, named in (
        ("catastrophe", {"kind": "min_level", "k": 2.5}, "k >= 1"),
        ("forbidden_pairs", [["up"]], "forbidden_pairs"),
        ("forbidden_pairs", {}, "forbidden_pairs"),
        ("extra", 1, "extra"),
        ("catastrophe", {"kind": "min_level", "k": 2, "junk": 0}, "junk"),
        ("steps", ["up", "down_black", "up"], "steps"),
        ("catastrophe", {"kind": "levels", "levels": [2, 2]}, "levels"),
    ):
        cfg.write_text(json.dumps({**SKEW_CAT.to_json(), field: value}), encoding="utf-8")
        code, _, err = run(capsys, "count", "--config", str(cfg), "--n", "4", "--closed")
        assert code == 2
        assert named in err


def test_series_text_frozen(capsys):
    code, out, _ = run(capsys, "series", "--gf", "f0-skew-cat", "--order", "13")
    assert code == 0
    assert out.strip() == "1,0,0,1,1,4,6,18,31,85,157,410,792,2004"


def test_series_json_schema(capsys):
    code, out, _ = run(
        capsys, "series", "--gf", "r2-skew", "--order", "7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("series_result"))
    assert data["coeffs"] == ["0", "2", "0", "1", "0", "3", "0", "10"]


def test_series_csv(capsys):
    code, out, _ = run(
        capsys, "series", "--gf", "h0-skew-cat", "--order", "6", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "coeff"]
    assert rows[5] == ["4", "1"]


def test_series_check_dp(capsys):
    code, out, _ = run(
        capsys,
        "series",
        "--gf",
        "fgh0-skew-cat",
        "--order",
        "25",
        "--check-dp",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("series_result"))
    assert data["dp_match"] is True


@pytest.mark.parametrize("gf", ["fj: 2", "fj:+2"])
def test_series_check_dp_accepts_every_level_spelling(capsys, gf):
    code, out, _ = run(
        capsys, "series", "--gf", gf, "--order", "8", "--check-dp", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["dp_match"] is True


def test_series_check_dp_without_counterpart(capsys):
    for gf in ("disc-dyck", "disc-skew", "r2-dyck", "r2-skew"):
        code, _, err = run(capsys, "series", "--gf", gf, "--order", "5", "--check-dp")
        assert code == 2
        assert "counterpart" in err


def test_series_unknown_name(capsys):
    code, _, err = run(capsys, "series", "--gf", "nope", "--order", "5")
    assert code == 2
    assert "unknown generating function" in err


def test_enumerate_text_lex_order(capsys):
    code, out, _ = run(capsys, "enumerate", "--model", "skew", "--n", "6", "--closed")
    assert code == 0
    assert out.splitlines() == [
        "UUUDDD",
        "UUUDDR",
        "UUUDRD",
        "UUUDRR",
        "UUDUDD",
        "UUDUDR",
        "UUDDUD",
        "UDUUDD",
        "UDUUDR",
        "UDUDUD",
    ]


def test_enumerate_json_schema(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--model", "skew", "--n", "6", "--closed", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("paths_result"))
    assert data["count"] == 10
    assert data["paths"][0] == [
        "up",
        "up",
        "up",
        "down_black",
        "down_black",
        "down_black",
    ]


def test_enumerate_size_guard(capsys):
    code, _, err = run(capsys, "enumerate", "--model", "skew", "--n", "25", "--open")
    assert code == 2
    assert "refusing" in err


def test_sample_deterministic_output(capsys):
    args = ["sample", "--model", "skew", "--n", "6", "--closed", "--seed", "9", "--count", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 4


def test_sample_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        "--model",
        "skew-cat",
        "--n",
        "7",
        "--open",
        "--seed",
        "1",
        "--count",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("sample_result"))
    assert len(data) == 3
    assert all(len(p) == 7 for p in data)


def test_sample_empty_ensemble(capsys):
    code, _, err = run(capsys, "sample", "--model", "dyck", "--n", "3", "--closed")
    assert code == 2
    assert "no length-3 path" in err


def test_render_svg_default(capsys):
    code, out, _ = run(capsys, "render", "--path", "UUUUDRC")
    assert code == 0
    assert out.startswith("<svg")
    assert "stroke-dasharray" in out


def test_render_ascii(capsys):
    code, out, _ = run(
        capsys, "render", "--path", "UUCUD", "--model", "dyck-cat", "--format", "text"
    )
    assert code == 0
    assert out == " /|\n/ |/\\\n-----\n"


def test_render_json_schema(capsys):
    code, out, _ = run(
        capsys, "render", "--path", "UUUDDR", "--geometry", "sw", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("render_result"))
    assert data["vertices"][-1] == [4, 0]


def test_render_csv(capsys):
    code, out, _ = run(capsys, "render", "--path", "UU", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["x", "y"], ["0", "0"], ["1", "1"], ["2", "2"]]


def test_render_rejects_sw_ascii(capsys):
    code, _, err = run(
        capsys, "render", "--path", "UUDR", "--geometry", "sw", "--format", "text"
    )
    assert code == 2
    assert "red geometry" in err


def test_render_rejects_bad_paths(capsys):
    code, _, err = run(capsys, "render", "--path", "UUXD")
    assert code == 2
    code, _, err = run(capsys, "render", "--path", "UURD", "--model", "dyck")
    assert code == 2
    code, _, err = run(capsys, "render", "--path", "UC", "--model", "dyck-cat")
    assert code == 2


def test_render_sw_catastrophe_conflict(capsys):
    code, _, err = run(capsys, "render", "--path", "UUC", "--geometry", "sw")
    assert code == 2
    assert "sw geometry" in err


def test_verify_kernel_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kernel", "--order", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("suite=kernel checks=4 failures=0")


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "oeis",
        "--order",
        "20",
        "--max-n",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, load_schema("verify_report"))
    assert {c["name"] for c in data["checks"]} == {"oeis-axis-dyck-cat", "oeis-open-shift"}


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "oeis", "--order", "20", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "status", "detail"]
    assert all(row[1] == "pass" for row in rows[1:])


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys,
        "count",
        "--model",
        "skew",
        "--n",
        "6",
        "--closed",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["count"] == 10


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_negative_n_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--model", "dyck", "--n", "-3", "--closed"])
    assert exc.value.code == 2


@pytest.mark.parametrize("module", ["catwalk", "catwalk.cli"])
def test_module_entry_points(module):
    src = pathlib.Path(catwalk.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", module, "count", "--model", "dyck", "--n", "4", "--closed"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "2\n")
