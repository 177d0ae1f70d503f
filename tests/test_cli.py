import csv
import io
import json
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

import catwalk
from catwalk import cli, closedform as cf, dp, verify
from catwalk.model import SKEW_CAT, StepKind, preset, validate_path

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


def test_series_prints_counts_past_the_int_digit_limit(capsys):
    # the largest coefficient through z^2500 has 886 digits, past a limit
    # of 640 set here in place of the interpreter's default of 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        runs = {
            fmt: run(capsys, "series", "--gf", "open-skew-cat", "--order", "2500", "--format", fmt)
            for fmt in ("text", "json", "csv")
        }
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    want = [str(c) for c in cf.open_total("skew", 2500).as_integers()]
    assert max(map(len, want)) == 886
    for fmt, (code, _, err) in runs.items():
        assert code == 0, (fmt, err)
    assert runs["text"][1].strip().split(",") == want
    assert json.loads(runs["json"][1])["coeffs"] == want
    rows = list(csv.reader(io.StringIO(runs["csv"][1])))
    assert rows == [["n", "coeff"]] + [[str(n), c] for n, c in enumerate(want)]


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


def test_series_check_dp_without_counterpart(capsys, monkeypatch):
    def refuse(name, order):
        raise AssertionError(f"{name} was expanded")

    # the refusal comes before any expansion
    monkeypatch.setattr(cf, "series_by_name", refuse)
    for gf in ("disc-dyck", "disc-skew", "r2-dyck", "r2-skew"):
        code, _, err = run(capsys, "series", "--gf", gf, "--order", "5", "--check-dp")
        assert code == 2
        assert "counterpart" in err


def test_series_check_dp_names_the_first_mismatch(capsys, monkeypatch):
    # f0 counts the axis paths of layer F only; (None, 0) counts all of them,
    # first differing at UD, a path of length 2 that ends after a black step
    wrong = cf.REGISTRY["f0-skew-cat"]._replace(view=(None, 0))
    monkeypatch.setitem(cf.REGISTRY, "f0-skew-cat", wrong)
    code, out, err = run(capsys, "series", "--gf", "f0-skew-cat", "--order", "9", "--check-dp")
    assert code == 1
    assert out == ""
    assert err == "mismatch at z^2: closed form 0, table 1\n"


def test_check_dp_and_theorem_suite_stream_rows(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a CountTable was built")

    monkeypatch.setattr(dp.CountTable, "__init__", refuse)
    code, out, _ = run(
        capsys, "series", "--gf", "open-skew-cat", "--order", "40", "--check-dp", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["dp_match"] is True
    assert verify.run_suite("theorem", 30).ok


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


# a verify report times itself; nothing else may differ between two runs
UNTIMED = re.compile(r"(elapsed_ms\W+)\d+")


def _views(argv, data) -> tuple:
    """The csv rows and the text lines that carry the json payload ``data``."""
    kind = argv[0]
    if kind == "count":
        return [list(data), [str(v) for v in data.values()]], [str(data["count"])]
    if kind == "series":
        coeffs = data["coeffs"]
        rows = [[str(n), c] for n, c in enumerate(coeffs)]
        return [["n", "coeff"], *rows], [",".join(coeffs)]
    if kind in ("enumerate", "sample"):
        config = preset(argv[argv.index("--model") + 1])
        paths = [
            validate_path(config, [StepKind(s) for s in steps])
            for steps in (data["paths"] if kind == "enumerate" else data)
        ]
        rows = [[str(i), str(p), str(p.final_level)] for i, p in enumerate(paths)]
        return [["index", "steps", "final_level"], *rows], [str(p) or "(empty)" for p in paths]
    if kind == "render":
        verts = data["vertices"]
        return [["x", "y"], *([str(x), str(y)] for x, y in verts)], None
    rows = [[c["name"], c["status"], c["detail"]] for c in data["checks"]]
    lines = [f"{c['status'].upper()} {c['name']}: {c['detail']}" for c in data["checks"]]
    failures = sum(c["status"] == "fail" for c in data["checks"])
    summary = f"suite={data['suite']} checks={len(rows)} failures={failures} elapsed_ms="
    return [["name", "status", "detail"], *rows], lines + [summary]


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--model", "skew-cat", "--n", "9", "--level", "1"),
        ("series", "--gf", "r2-skew", "--order", "9"),
        ("series", "--gf", "fgh0-skew-cat", "--order", "12", "--check-dp"),
        ("enumerate", "--model", "skew-cat", "--n", "5", "--open"),
        ("sample", "--model", "skew", "--n", "8", "--closed", "--count", "4"),
        ("render", "--path", "UUUDDR", "--geometry", "red"),
        ("render", "--path", "UUUDDR", "--geometry", "sw"),
        ("verify", "--suite", "oeis", "--order", "12", "--max-n", "5"),
    ],
    ids=[
        "count",
        "series",
        "series-check-dp",
        "enumerate",
        "sample",
        "render-red",
        "render-sw",
        "verify",
    ],
)
def test_every_format_writes_one_payload(tmp_path, capsys, argv):
    """--out writes what stdout prints, and every format carries the json values."""
    formats = {"render": ("svg", "text", "json", "csv")}.get(argv[0], ("text", "json", "csv"))
    if "sw" in argv:
        formats = ("svg", "json", "csv")
    printed = {}
    for fmt in formats:
        code, out, _ = run(capsys, *argv, "--format", fmt)
        target = tmp_path / f"out.{fmt}"
        code_out, silent, _ = run(capsys, *argv, "--format", fmt, "--out", str(target))
        assert (code, code_out, silent) == (0, 0, "")
        written = target.read_bytes().decode("utf-8")
        assert UNTIMED.sub(r"\1", written) == UNTIMED.sub(r"\1", out)
        printed[fmt] = out
    data = json.loads(printed["json"])
    rows, lines = _views(argv, data)
    assert list(csv.reader(io.StringIO(printed["csv"]))) == rows
    if argv[0] == "render":
        assert printed["svg"].count("<circle") == len(data["vertices"])
        if "text" in printed:
            *bands, axis = printed["text"].splitlines()
            heights = [y for _, y in data["vertices"]]
            assert (len(bands), axis) == (max(heights), "-" * (len(heights) - 1))
    elif argv[0] == "verify":
        *checks, summary = printed["text"].splitlines()
        assert checks == lines[:-1] and summary.startswith(lines[-1])
    else:
        assert printed["text"].splitlines() == lines


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


def test_closed_stdout_ends_silently_with_sigpipe_status():
    # about 1.6 MB of text: far more than a pipe buffers, so the writer is
    # still writing when the reader closes its end after the first line
    src = pathlib.Path(catwalk.__file__).parents[1]
    with subprocess.Popen(
        [sys.executable, "-m", "catwalk", "series", "--gf", "open-skew-cat", "--order", "3000",
         "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(src)},
    ) as proc:
        try:
            assert proc.stdout.readline() == b"n,coeff\r\n"
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
        finally:
            proc.kill()
