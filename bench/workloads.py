"""Seeded workloads for the catwalk CLI benchmark, and the checks on their output.

A workload is one round of CLI commands.  Every round of a run repeats the
same commands, whose parameters come from the run's seed: each size is drawn
from a narrow band of roughly equal cost, so that another seed measures the
same program on other inputs.  Every workload runs all five measured
subcommands (count, series, sample, enumerate, verify); the sizes decide
which layer does most of the work.

The checks run in the harness after the timed child has exited, and compare
each output with a second route: ballot numbers, the registry's closed
forms, ``validate_path``, and a small level-vector transfer DP kept here so
that the checks do not lean on the DP code they are checking.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from catwalk import closedform
from catwalk.model import parse_steps, preset, validate_path

KINDS = ("count", "series", "sample", "enumerate", "verify")

WHY = {
    "counting": "DP over the layered automaton does most of the work: big counts "
    "plus the recurrences suite, which reads the whole table back as series",
    "expansion": "series mul and sqrt do most of the work, the DP almost none: "
    "closed-form expansions and the theorem suite",
    "paths": "sampler table build, sampler draws and brute-force enumeration do "
    "most of the work; the series engine almost none",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must match."""

    kind: str
    argv: tuple
    params: dict


def _final_flag(final) -> list:
    if final == "closed":
        return ["--closed"]
    if final == "open":
        return ["--open"]
    return ["--level", str(final)]


def _count(model: str, n: int, final) -> Command:
    argv = ("count", "--model", model, "--n", str(n), *_final_flag(final))
    return Command("count", argv, {"model": model, "n": n, "final": final})


def _series(gf: str, order: int, fmt: str = "text", check_dp: bool = False) -> Command:
    argv = ["series", "--gf", gf, "--order", str(order), "--format", fmt]
    if check_dp:
        argv.append("--check-dp")
    return Command("series", tuple(argv), {"gf": gf, "order": order, "format": fmt})


def _sample(model: str, n: int, final, count: int, seed: int) -> Command:
    argv = ("sample", "--model", model, "--n", str(n), *_final_flag(final),
            "--count", str(count), "--seed", str(seed))
    return Command("sample", argv, {"model": model, "n": n, "final": final, "count": count})


def _enumerate(model: str, n: int, final, fmt: str = "text") -> Command:
    argv = ("enumerate", "--model", model, "--n", str(n), *_final_flag(final), "--format", fmt)
    return Command("enumerate", argv, {"model": model, "n": n, "final": final, "format": fmt})


def _verify(suite: str, order: int = 100, max_n: int = 12) -> Command:
    argv = ("verify", "--suite", suite, "--order", str(order), "--max-n", str(max_n))
    return Command("verify", argv, {"suite": suite})


def _near(rng: random.Random, centre: int, spread: int) -> int:
    return rng.randint(centre - spread, centre + spread)


def _with_parity(rng: random.Random, n: int, finals: list) -> tuple:
    """One of ``finals`` for a model without catastrophes, and an n that can meet it.

    Without catastrophes a path's final level has the parity of its length,
    so a level of the other parity would be an empty (and cheap) answer.
    """
    final = rng.choice(finals)
    want = 0 if final == "closed" else final
    if want != "open" and (n - want) % 2:
        n += 1
    return n, final


def plan(workload: str, seed: int) -> list:
    """The commands of one round of ``workload`` for ``seed``."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    cat = ("closed", "open")
    if workload == "counting":
        level = rng.randint(1, 20)
        dyck_n, dyck_final = _with_parity(rng, _near(rng, 560, 4), ["closed", "open", level])
        # an open-ended sampler fills more of its completion table: not the same cost
        skew_n, skew_final = _with_parity(rng, _near(rng, 160, 3), ["closed", level])
        return [
            _count("skew-cat", _near(rng, 400, 4), rng.choice(cat)),
            _count("dyck-cat", _near(rng, 480, 4), rng.choice(cat)),
            _count("dyck", dyck_n, dyck_final),
            _series(rng.choice(["f0-dyck-cat", "open-dyck-cat"]), _near(rng, 240, 2),
                    check_dp=True),
            _sample("skew", skew_n, skew_final, 5, rng.randrange(2**31)),
            _enumerate("dyck", 16, "open"),
            _verify("recurrences", order=_near(rng, 80, 1)),
        ]
    if workload == "expansion":
        # fj:J queues about 2J series products, so the two levels sum to a
        # constant and the round's cost does not depend on the draw.
        j = rng.choice([2, 3])
        return [
            _series(f"fj:{j}", _near(rng, 200, 2)),
            _series(f"hj:{5 - j}", _near(rng, 180, 2)),
            _series("f0-dyck-cat", _near(rng, 320, 3), fmt="json"),
            _count("skew-cat", _near(rng, 130, 2), rng.choice(cat)),
            _sample("dyck-cat", _near(rng, 60, 2), "open", 200, rng.randrange(2**31)),
            _enumerate("dyck-cat", 14, "open"),
            _verify("theorem", order=_near(rng, 100, 1)),
        ]
    return [
        _sample("skew-cat", _near(rng, 320, 3), "closed", 20, rng.randrange(2**31)),
        _sample("dyck-cat", _near(rng, 100, 1), "open", 1500, rng.randrange(2**31)),
        _enumerate("skew-cat", 14, "open", fmt="csv"),
        _enumerate("dyck-cat", 16, "closed"),
        _count("dyck-cat", _near(rng, 200, 2), rng.choice(cat)),
        _series("open-dyck-cat", _near(rng, 250, 2)),
        _verify("oracle", max_n=11),
    ]


# -- second routes -----------------------------------------------------------


def layer_table(model: str, n_max: int) -> list:
    """Counts of each preset by length, end layer and end level.

    ``rows[n]`` is ``(F, G, H)``, three lists indexed by level: paths of
    length n ending after an up-step or at the start/catastrophe target (F),
    after a black down-step (G), or after a red down-step (H).  The presets
    forbid only the adjacencies UR and RU, and catastrophes fire from any
    level >= 2.
    """
    red = model.startswith("skew")
    cat = model.endswith("-cat")
    size = n_max + 2
    f, g, h = [1] + [0] * (size - 1), [0] * size, [0] * size
    rows = [(f, g, h)]
    for _ in range(n_max):
        up = [0] + [a + b for a, b in zip(f[:-1], g[:-1])]
        down = [a + b for a, b in zip(g[1:], h[1:])] + [0]
        nf = up
        ng = [a + b for a, b in zip(down, f[1:] + [0])]
        nh = down if red else [0] * size
        if cat:
            nf[0] += sum(f[2:]) + sum(g[2:]) + sum(h[2:])
        f, g, h = nf, ng, nh
        rows.append((f, g, h))
    return rows


def ballot(n: int, final) -> int:
    """Dyck-walk counts of length n by end condition, from binomials."""
    if final == "open":
        return math.comb(n, n // 2)
    k = 0 if final == "closed" else final
    if (n - k) % 2:
        return 0
    up = (n + k) // 2
    return math.comb(n, up) - math.comb(n, up + 1)


def _level_count(rows: list, n: int, final) -> int:
    f, g, h = rows[n]
    if final == "open":
        return sum(f) + sum(g) + sum(h)
    k = 0 if final == "closed" else final
    return f[k] + g[k] + h[k] if k < len(f) else 0


def _dp_series(gf: str, order: int) -> list:
    """The DP view of a registry series, from :func:`layer_table`."""
    head, _, tail = gf.partition(":")
    if tail:
        rows = layer_table("skew-cat", order)
        layer = ("fj", "gj", "hj").index(head)
        return [row[layer][int(tail)] for row in rows]
    kind, _, model = gf.partition("-")
    rows = layer_table(model, order)
    final = "open" if kind == "open" else "closed"
    return [_level_count(rows, n, final) for n in range(order + 1)]


_CLOSED_FORM = {
    ("dyck-cat", "closed"): "f0-dyck-cat",
    ("dyck-cat", "open"): "open-dyck-cat",
    ("skew-cat", "closed"): "fgh0-skew-cat",
    ("skew-cat", "open"): "open-skew-cat",
}


def reference(cmd: Command):
    """What ``cmd``'s output must equal, computed by a second route."""
    p = cmd.params
    if cmd.kind == "count":
        if p["model"] == "dyck":
            return ballot(p["n"], p["final"])
        name = _CLOSED_FORM[(p["model"], p["final"])]
        return closedform.series_by_name(name, p["n"]).coeff(p["n"])
    if cmd.kind == "series":
        return _dp_series(p["gf"], p["order"])
    if cmd.kind == "enumerate":
        return _level_count(layer_table(p["model"], p["n"]), p["n"], p["final"])
    return None


# -- output checks -----------------------------------------------------------


def check(cmd: Command, ref, stdout: str) -> str | None:
    """None if ``stdout`` is the right answer for ``cmd``, else the reason."""
    p = cmd.params
    if cmd.kind == "count":
        got = stdout.strip()
        return None if got == str(ref) else f"count {got[:40]} != {ref}"
    if cmd.kind == "series":
        if p["format"] == "json":
            coeffs = json.loads(stdout)["coeffs"]
        else:
            coeffs = stdout.strip().split(",")
        got = [Fraction(c) for c in coeffs]
        if got != ref:
            first = next((i for i, (a, b) in enumerate(zip(got, ref)) if a != b), len(got))
            return f"series differs from the DP view at z^{first}"
        return None
    if cmd.kind == "sample":
        return _check_paths(cmd, stdout.splitlines())
    if cmd.kind == "enumerate":
        if p["format"] == "csv":
            lines = [row[1] for row in csv.reader(io.StringIO(stdout))][1:]
        else:
            lines = stdout.splitlines()
        if len(lines) != ref:
            return f"{len(lines)} paths enumerated, DP counts {ref}"
        if len(set(lines)) != len(lines):
            return "duplicate paths enumerated"
        if any(len(s) != p["n"] or s.strip("UDRC") for s in lines):
            return "enumerated path of the wrong length or alphabet"
        return None
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("suite="):
        return "verify printed no summary"
    if "failures=0 " not in lines[-1] + " ":
        return f"verify failed: {lines[-1]}"
    if not all(line.startswith("PASS ") for line in lines[:-1]):
        return "verify listed a failed check"
    return None


def _check_paths(cmd: Command, lines: list) -> str | None:
    p = cmd.params
    if len(lines) != p["count"]:
        return f"{len(lines)} paths drawn, asked for {p['count']}"
    config = preset(p["model"])
    want = {"closed": 0, "open": None}.get(p["final"], p["final"])
    for line in lines:
        try:
            path = validate_path(config, parse_steps(line))
        except ValueError as exc:
            return f"drawn path {line[:40]!r} is invalid: {exc}"
        if len(path) != p["n"]:
            return f"drawn path has length {len(path)}, not {p['n']}"
        if want is not None and path.final_level != want:
            return f"drawn path ends at level {path.final_level}, not {want}"
    return None
