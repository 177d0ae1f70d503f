import csv
import io
import json
import pathlib
import random
import re
import subprocess
import sys

import jsonschema
import pytest

import catwalk
from catwalk import brute, cli, closedform as cf, dp, sampler as sampler_mod, verify
from catwalk.model import SKEW_CAT, STEP_ORDER, preset, validate_path

from conftest import load_schema
from test_random_models import NAMES, reference_walk


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
    # a step name outside the schema's four, in the steps or in a pair
    unknown = "error: unknown step 'sideways'; choose from up, down_black, down_red, catastrophe\n"
    for field, value in (("steps", ["up", "sideways"]), ("forbidden_pairs", [["up", "sideways"]])):
        cfg.write_text(json.dumps({**SKEW_CAT.to_json(), field: value}), encoding="utf-8")
        assert run(capsys, "count", "--config", str(cfg), "--n", "4", "--closed") == (2, "", unknown)


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


@pytest.mark.parametrize("gf", ["FJ:2", "fj:02"])
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


# -- path outputs against a reference built from step letters ---------------

FINALS = {"--open": ("open", None), "--closed": ("closed", 0), "--level 2": ("level:2", 2)}


def _reference_ensemble(config, n: int, want):
    """The reference walk of ``test_random_models``, one ``predecessor`` per
    step, and what it needs: the walk of rank x as a list of step letters,
    and the ensemble's size."""
    step = dp.Transfer(config)
    rows = list(step.rows(n))
    return (lambda x: reference_walk(step, rows, want, x)), dp.ending(rows[n], None, want)


def _printed(fmt: str, walks: list, payload) -> str:
    """The stdout of ``walks``, lists of step letters, as the CLI prints paths:
    a word per line, csv as ``csv.writer`` writes it, or the json payload
    that ``payload`` builds from the step names."""
    rows = []
    for i, walk in enumerate(walks):
        level = 0
        for s in walk:
            level = 0 if s == "C" else level + (1 if s == "U" else -1)
        rows.append([i, "".join(walk), level])
    if fmt == "text":
        return "".join(f"{word or '(empty)'}\n" for _, word, _ in rows) or "(none)\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([["index", "steps", "final_level"], *rows])
        return buf.getvalue()
    return json.dumps(payload([[NAMES[s] for s in walk] for walk in walks]), indent=2) + "\n"


@pytest.mark.parametrize("end", FINALS)
@pytest.mark.parametrize("model", ["dyck", "dyck-cat", "skew", "skew-cat"])
def test_path_outputs_match_a_step_kind_reference(capsys, model, end):
    # enumerate lists the reference's walks in step order U < D < R < C
    # (not letter order), and a seeded sample unranks the same randrange
    # draws the reference walk unranks, in every format
    label, want = FINALS[end]
    config = preset(model)
    rank = STEP_ORDER.index
    for n in range(11):
        walk_of, total = _reference_ensemble(config, n, want)
        walks = sorted(map(walk_of, range(total)), key=lambda w: [rank(s) for s in w])
        rng = random.Random(n)
        drawn = [walk_of(rng.randrange(total)) for _ in range(4)] if total else []
        head = {"model": model, "n": n, "final": label, "count": total}
        for fmt in ("text", "csv", "json"):
            flags = [*end.split(), "--n", str(n), "--model", model, "--format", fmt]
            listed = run(capsys, "enumerate", *flags)
            assert listed == (0, _printed(fmt, walks, lambda ps: {**head, "paths": ps}), "")
            if total:
                got = run(capsys, "sample", *flags, "--seed", str(n), "--count", "4")
                assert got == (0, _printed(fmt, drawn, lambda ps: ps), "")
            if fmt == "csv":
                # csv.writer's CR LF ends every row, the header's and the last one's too
                out = listed[1]
                assert out.endswith("\r\n") and out.split("\r\n") == out.splitlines() + [""]
                assert len(out.splitlines()) == total + 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "model, n, end",
    [
        ("skew-cat", 14, "--open"),  # 22,362 paths over many heads
        ("dyck", 7, "--closed"),  # no path: (none), "paths": []
        ("skew-cat", 0, "--open"),  # the empty path: (empty), []
        ("dyck-cat", 1, "--open"),  # heads of length 0
        ("dyck-cat", 1, "--level 2"),
    ],
)
def test_streamed_paths_match_json_dumps_and_csv_writer(capsys, model, n, end, fmt):
    # enumerate writes the halves without making a Path; the reference
    # prints enumerate_red's words through json.dumps and csv.writer
    label, final = FINALS[end]
    walks = [list(p.steps) for p in brute.enumerate_red(preset(model), n, final)]
    head = {"model": model, "n": n, "final": label, "count": len(walks)}
    want = _printed(fmt, walks, lambda ps: {**head, "paths": ps})
    flags = ["--model", model, "--n", str(n), *end.split(), "--format", fmt]
    assert run(capsys, "enumerate", *flags) == (0, want, "")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("model, n", [("skew-cat", 14), ("dyck", 0), ("skew", 1)])
def test_streamed_draws_match_json_dumps_and_csv_writer(capsys, model, n, fmt):
    spec = sampler_mod.SamplerSpec(preset(model), n, "open", 5)
    drawn = [list(p.steps) for p in sampler_mod.sample(spec, 25)]
    flags = ["--model", model, "--n", str(n), "--open", "--seed", "5", "--count", "25"]
    got = run(capsys, "sample", *flags, "--format", fmt)
    assert got == (0, _printed(fmt, drawn, lambda ps: ps), "")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_errors_come_before_the_first_byte(tmp_path, capsys, fmt):
    # the size guard refuses before any output is opened or written
    target = tmp_path / "paths.out"
    flags = ["--model", "skew-cat", "--n", "21", "--open", "--format", fmt]
    for extra in ([], ["--out", str(target)]):
        code, out, err = run(capsys, "enumerate", *flags, *extra)
        assert (code, out) == (2, "")
        assert "refusing brute-force enumeration past n=20" in err
    assert not target.exists()


def test_sample_empty_open_ensemble_names_open(tmp_path, capsys):
    # a model with only down-steps has no path of length 3, whatever its end
    cfg = tmp_path / "down_only.json"
    down_only = {"steps": ["down_black"], "forbidden_pairs": [], "catastrophe": {"kind": "none"}}
    cfg.write_text(json.dumps(down_only), encoding="utf-8")
    code, out, err = run(capsys, "sample", "--config", str(cfg), "--n", "3", "--open")
    assert (code, out) == (2, "")
    assert "no length-3 path meets the end condition 'open'" in err


@pytest.mark.parametrize("level, label", [(0, "closed"), (2, "level:2")])
def test_sample_empty_level_ensemble_names_it_as_count_does(tmp_path, capsys, level, label):
    cfg = tmp_path / "down_only.json"
    down_only = {"steps": ["down_black"], "forbidden_pairs": [], "catastrophe": {"kind": "none"}}
    cfg.write_text(json.dumps(down_only), encoding="utf-8")
    code, out, err = run(capsys, "sample", "--config", str(cfg), "--n", "3", "--level", str(level))
    assert (code, out) == (2, "")
    assert f"no length-3 path meets the end condition {label!r}" in err
    code, out, _ = run(
        capsys, "count", "--config", str(cfg), "--n", "3", "--level", str(level), "--format", "json"
    )
    assert (code, json.loads(out)["final"]) == (0, label)


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
    names = {c["name"] for c in data["checks"]}
    assert names == {"oeis-axis-dyck-cat", "oeis-open-shift", "oeis-skew-dyck"}


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "oeis", "--order", "20", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "status", "detail"]
    assert all(row[1] == "pass" for row in rows[1:])


@pytest.mark.parametrize("order", ["0", "1"])
def test_verify_order_has_one_bound(order, capsys):
    # the parser reads any natural order; run_suite alone refuses one below 2
    code, out, err = run(capsys, "verify", "--suite", "kernel", "--order", order)
    assert (code, out, err) == (2, "", "error: order must be >= 2\n")


def test_sample_count_must_be_positive(capsys):
    argv = ["sample", "--model", "dyck", "--n", "4", "--closed", "--count", "0"]
    code, out, err = _parsed(cli.main, argv, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("catwalk sample: error: argument --count: must be >= 1\n")


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
        letter = {name: s for s, name in NAMES.items()}
        paths = [
            validate_path(config, "".join(map(letter.get, steps)))
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


@pytest.mark.parametrize("text", ["1_0", "+4", " 4", "\u0663", "\uff10", ""], ids=ascii)
def test_integer_options_take_ascii_digits_only(text, capsys):
    refusal = f"{text!r} is not an integer >= 0 in the digits 0-9\n"
    for argv in (
        ["count", "--model", "dyck", "--n", text, "--open"],
        ["count", "--model", "dyck", "--n", "4", "--level", text],
        ["sample", "--model", "dyck", "--n", "4", "--closed", "--count", text],
        ["verify", "--order", text],
    ):
        code, out, err = _parsed(cli.main, argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.endswith(refusal), argv
    code, out, err = run(capsys, "series", "--gf", f"fj:{text}", "--order", "5")
    assert (code, out) == (2, "")
    assert err == f"error: bad level index in 'fj:{text}': {refusal}"


# int() reads the first five as 10; the rest are no integer at all
NOT_SEEDS = [" +1_0", "\u0661\u0660", "+10", " 10", "\uff11\uff10", "--10", "- 1", "-", "1.0", ""]


@pytest.mark.parametrize("text", NOT_SEEDS, ids=ascii)
def test_seed_takes_a_minus_and_ascii_digits_only(text, capsys):
    argv = ["sample", "--model", "dyck", "--n", "6", "--closed", "--count", "2", f"--seed={text}"]
    code, out, err = _parsed(cli.main, argv, capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"argument --seed: {text!r} is not an integer in the digits 0-9\n")


def test_seed_spellings_keep_their_draws(capsys):
    argv = ["sample", "--model", "dyck", "--n", "6", "--closed", "--count", "4", "--seed"]
    for seed, spellings in ((10, ["10", "010"]), (-3, ["-3", "-03"]), (0, ["0", "-0"])):
        spec = sampler_mod.SamplerSpec(preset("dyck"), 6, "closed", seed)
        expected = [str(p) for p in sampler_mod.sample(spec, 4)]
        for text in spellings:
            code, out, _ = run(capsys, *argv, text)
            assert (code, out.split()) == (0, expected), text


def _parsed(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        *([name, "--help"] for name in cli._COMMANDS),
        ["count", "--model", "dyck", "--n", "4", "--closed", "surplus"],
        ["sample", "--model", "dyck", "--n", "four", "--open"],
        ["enumerate", "--model", "dyck", "--closed"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_one_subparser_prints_as_the_full_parser(argv, capsys):
    # main builds only argv[0]'s subparser; help, errors and exit codes
    # must read as if it had built all of them
    full = _parsed(cli._build_parser().parse_args, argv, capsys)
    assert _parsed(cli.main, argv, capsys) == full
    assert full[0] == (0 if "--help" in argv else 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (
            ["frobnicate"],
            "argument command: invalid choice: 'frobnicate' (choose from "
            "'count', 'series', 'enumerate', 'sample', 'render', 'verify')",
        ),
    ],
    ids=["no command", "unknown command"],
)
def test_errors_without_a_command_name_the_command_argument(argv, message, capsys):
    usage = "usage: catwalk [-h] {count,series,enumerate,sample,render,verify} ...\n"
    assert _parsed(cli.main, argv, capsys) == (2, "", f"{usage}catwalk: error: {message}\n")


@pytest.mark.parametrize("module", ["catwalk", "catwalk.cli"])
def test_module_entry_points(module):
    src = pathlib.Path(catwalk.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-B", "-m", module, "count", "--model", "dyck", "--n", "4", "--closed"],
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
        [sys.executable, "-B", "-m", "catwalk", "series", "--gf", "open-skew-cat",
         "--order", "3000", "--format", "csv"],
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


def test_pipe_closed_mid_stream_ends_silently_with_sigpipe_status():
    # about 28 MB of json, written a head's paths at a time
    src = pathlib.Path(catwalk.__file__).parents[1]
    with subprocess.Popen(
        [sys.executable, "-B", "-m", "catwalk", "enumerate", "--model", "skew-cat",
         "--n", "16", "--open", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(src)},
    ) as proc:
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
        finally:
            proc.kill()


def test_streamed_json_enumeration_stays_small():
    # 110,998 paths, about 28 MB of json: the process never holds them all
    # (221 MB when each path was a Path and the text one string).  A small
    # process starts the command, as a child's peak counts the memory of
    # the process that forked it.
    src = pathlib.Path(catwalk.__file__).parents[1]
    argv = ["enumerate", "--model", "skew-cat", "--n", "16", "--open", "--format", "json"]
    probe = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-B', '-m', 'catwalk', *sys.argv[1:]],"
        " stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 40 * 1024  # kB


def test_cli_import_loads_no_module_a_command_may_not_run():
    # dataclasses costs its import of inspect and ast; render and csv load on first use
    src = pathlib.Path(catwalk.__file__).parents[1]
    lazy = ("dataclasses", "csv", "catwalk.render", "catwalk.automaton")
    probe = f"import sys, catwalk.cli; print([m for m in {lazy} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-B", "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# small runs of every subcommand, format and series family the benchmark's
# workloads run, and the whole theorem suite at its default order
WORKLOAD_ARGVS = [
    ["series", "--gf", "f0-dyck-cat", "--order", "40"],
    ["verify", "--suite", "theorem"],
    ["series", "--gf", "fj:3", "--order", "30"],
    ["series", "--gf", "hj:2", "--order", "30"],
    ["series", "--gf", "open-dyck-cat", "--order", "30", "--check-dp"],
    ["series", "--gf", "f0-dyck-cat", "--order", "30", "--format", "json"],
    ["count", "--model", "skew-cat", "--n", "30", "--open"],
    ["count", "--model", "dyck", "--n", "30", "--level", "4"],
    ["sample", "--model", "dyck-cat", "--n", "20", "--open", "--count", "5", "--seed", "3"],
    ["sample", "--model", "skew", "--n", "20", "--closed", "--count", "5", "--seed", "3"],
    ["enumerate", "--model", "skew-cat", "--n", "8", "--open", "--format", "csv"],
    ["enumerate", "--model", "dyck-cat", "--n", "8", "--closed"],
    ["verify", "--suite", "recurrences", "--order", "30"],
    ["verify", "--suite", "oracle", "--max-n", "8"],
]


def test_workload_commands_never_load_fractions():
    # every series these commands expand has integer coefficients, so the
    # series engine never meets a Fraction, and fractions, with the decimal
    # module it imports, stays unloaded
    src = pathlib.Path(catwalk.__file__).parents[1]
    probe = (
        "import sys, catwalk.cli\n"
        f"for argv in {WORKLOAD_ARGVS!r}:\n"
        "    assert catwalk.cli.main(argv) == 0, argv\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules], file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", probe],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "[]\n")


def test_render_help_offers_the_geometries_render_draws(capsys):
    from catwalk import render

    with pytest.raises(SystemExit) as exc:
        cli.main(["render", "--help"])
    assert exc.value.code == 0
    assert f"--geometry {{{','.join(render.GEOMETRIES)}}}" in capsys.readouterr().out
    assert render.GEOMETRIES == ("red", "sw")
