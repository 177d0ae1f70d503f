"""Command line front-end.

Subcommands: count, series, enumerate, sample, render, verify.  Exit code 0
means success, 1 means a verification found a genuine mismatch, 2 means the
invocation or its input was bad (unknown model, malformed path, size guard,
empty ensemble, and so on).

Every handler hands its result to one output path, ``_emit``, as one
zero-argument builder per format.  Only the form that ``--format`` names is
built, and ``--out FILE`` receives exactly the bytes stdout would print.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import brute, dp
from . import closedform as cf
from . import render as render_mod
from . import sampler as sampler_mod
from . import verify as verify_mod
from .model import (
    ModelConfig,
    PRESETS,
    normalize_final,
    parse_steps,
    preset,
    validate_path,
)
from .series import SeriesError


def _nonneg(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


def _positive(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _emit(args, **forms) -> None:
    """Build the one form ``--format`` names and write it to ``--out`` or stdout.

    Each form is a zero-argument callable: ``json`` returns the payload,
    ``csv`` the rows with the header first, any other the text itself.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact counts run past the digit limit
    try:
        value = forms[args.format]()
        if args.format == "json":
            text = json.dumps(value, indent=2)
        elif args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerows(value)
            text = buf.getvalue().rstrip("\n")
        else:
            text = value
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                print(text, file=fh)
        else:
            print(text)
    finally:
        sys.set_int_max_str_digits(limit)


def _resolve_config(args):
    if getattr(args, "config_file", None):
        with open(args.config_file, encoding="utf-8") as fh:
            return "custom", ModelConfig.loads(fh.read())
    return args.model, preset(args.model)


def _final_label(final) -> str:
    want = normalize_final(final)
    if want is None:
        return "open"
    if want == 0:
        return "closed"
    return f"level:{want}"


def _add_model_group(p, required: bool, default: str | None = None):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument(
        "--model",
        choices=sorted(PRESETS),
        default=default,
        help="preset model name",
    )
    g.add_argument(
        "--config",
        dest="config_file",
        metavar="FILE",
        help="JSON model configuration file",
    )


def _add_final_group(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--closed",
        dest="final",
        action="store_const",
        const="closed",
        help="paths ending at level 0",
    )
    g.add_argument(
        "--open",
        dest="final",
        action="store_const",
        const="all",
        help="paths ending anywhere",
    )
    g.add_argument(
        "--level",
        dest="final",
        type=_nonneg,
        metavar="K",
        help="paths ending exactly at level K",
    )


def _add_output_group(p, formats, default: str):
    p.add_argument("--format", choices=formats, default=default, help="output format")
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


# -- subcommand handlers ---------------------------------------------------


def cmd_count(args) -> int:
    label, config = _resolve_config(args)
    value = dp.count(config, args.n, args.final)
    sel = _final_label(args.final)
    _emit(
        args,
        text=lambda: str(value),
        json=lambda: {"model": label, "n": args.n, "final": sel, "count": value},
        csv=lambda: [["model", "n", "final", "count"], [label, args.n, sel, value]],
    )
    return 0


def cmd_series(args) -> int:
    entry = cf.lookup(args.gf)
    if args.check_dp and entry.view is None:
        raise ValueError(f"{args.gf} has no dynamic-programming counterpart to check")
    s = cf.series_by_name(args.gf, args.order)  # by name: bench/tracer.py wraps it
    if args.check_dp:
        (other,) = dp.view_series(entry.model, args.order, [entry.view])
        n = s.first_difference(other)
        if n is not None:
            print(
                f"mismatch at z^{n}: closed form {s.coeff(n)}, table {other.coeff(n)}",
                file=sys.stderr,
            )
            return 1
    match = {"dp_match": True} if args.check_dp else {}
    _emit(
        args,
        text=lambda: ",".join(str(c) for c in s.coeffs()),
        json=lambda: {"gf": args.gf, "order": args.order, "coeffs": s.to_json(), **match},
        csv=lambda: [["n", "coeff"], *([n, str(c)] for n, c in enumerate(s.coeffs()))],
    )
    return 0


def _emit_paths(args, paths: list, payload) -> None:
    """Emit ``paths`` one per line as text and one row each as csv."""
    _emit(
        args,
        text=lambda: "\n".join(str(p) if len(p) else "(empty)" for p in paths) or "(none)",
        json=payload,
        csv=lambda: [
            ["index", "steps", "final_level"],
            *([i, str(p), p.final_level] for i, p in enumerate(paths)),
        ],
    )


def cmd_enumerate(args) -> int:
    label, config = _resolve_config(args)
    paths = brute.enumerate_red(config, args.n, args.final)
    _emit_paths(
        args,
        paths,
        lambda: {
            "model": label,
            "n": args.n,
            "final": _final_label(args.final),
            "count": len(paths),
            "paths": [p.to_json() for p in paths],
        },
    )
    return 0


def cmd_sample(args) -> int:
    _, config = _resolve_config(args)
    spec = sampler_mod.SamplerSpec(config, args.n, args.final, args.seed)
    paths = sampler_mod.sample(spec, args.count)
    _emit_paths(args, paths, lambda: [p.to_json() for p in paths])
    return 0


def cmd_render(args) -> int:
    _, config = _resolve_config(args)
    path = validate_path(config, parse_steps(args.path))
    if args.format == "text" and args.geometry != "red":
        raise ValueError("ASCII output exists only in the red geometry")

    _emit(
        args,
        svg=lambda: render_mod.to_svg(path, args.geometry),
        text=lambda: render_mod.to_ascii(path),
        json=lambda: {
            "path": str(path),
            "geometry": args.geometry,
            "vertices": render_mod.path_vertices(path, args.geometry),
        },
        csv=lambda: [["x", "y"], *render_mod.path_vertices(path, args.geometry)],
    )
    return 0


def cmd_verify(args) -> int:
    report = verify_mod.run_suite(args.suite, args.order, args.max_n)

    def text():
        lines = [f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}" for c in report.checks]
        lines.append(
            f"suite={report.name} checks={len(report.checks)} "
            f"failures={len(report.failures())} elapsed_ms={report.elapsed_ms}"
        )
        return "\n".join(lines)

    _emit(
        args,
        text=text,
        json=report.to_json,
        csv=lambda: [
            ["name", "status", "detail"],
            *([c.name, "pass" if c.ok else "fail", c.detail] for c in report.checks),
        ],
    )
    return 0 if report.ok else 1


# -- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="catwalk",
        description="Exact enumeration of Dyck-style paths with red steps and catastrophes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="exact path count for one length")
    _add_model_group(pc, required=True)
    pc.add_argument("--n", type=_nonneg, required=True, help="path length")
    _add_final_group(pc)
    _add_output_group(pc, ("text", "json", "csv"), "text")
    pc.set_defaults(func=cmd_count)

    ps = sub.add_parser("series", help="expand a named generating function")
    ps.add_argument(
        "--gf",
        required=True,
        metavar="NAME",
        help="registry name, e.g. f0-skew-cat, r2-dyck, fj:3 (see docs)",
    )
    ps.add_argument("--order", type=_nonneg, required=True, help="truncation order")
    ps.add_argument(
        "--check-dp",
        action="store_true",
        help="cross-check the expansion against the counting table",
    )
    _add_output_group(ps, ("text", "json", "csv"), "text")
    ps.set_defaults(func=cmd_series)

    pe = sub.add_parser("enumerate", help="list all paths of one length")
    _add_model_group(pe, required=True)
    pe.add_argument("--n", type=_nonneg, required=True, help="path length")
    _add_final_group(pe)
    _add_output_group(pe, ("text", "json", "csv"), "text")
    pe.set_defaults(func=cmd_enumerate)

    pp = sub.add_parser("sample", help="draw uniform random paths")
    _add_model_group(pp, required=True)
    pp.add_argument("--n", type=_nonneg, required=True, help="path length")
    _add_final_group(pp)
    pp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    pp.add_argument("--count", type=_positive, default=1, help="number of draws")
    _add_output_group(pp, ("text", "json", "csv"), "text")
    pp.set_defaults(func=cmd_sample)

    pr = sub.add_parser("render", help="draw one path")
    _add_model_group(pr, required=False, default="skew-cat")
    pr.add_argument("--path", required=True, metavar="STEPS", help="compact path, e.g. UUUUDRC")
    pr.add_argument(
        "--geometry",
        choices=render_mod.GEOMETRIES,
        default="red",
        help="red: one step right per letter; sw: red steps travel south-west",
    )
    _add_output_group(pr, ("svg", "text", "json", "csv"), "svg")
    pr.set_defaults(func=cmd_render)

    pv = sub.add_parser("verify", help="run the cross-route verification suites")
    pv.add_argument(
        "--suite", choices=verify_mod.SUITES, default="all", help="which suite to run"
    )
    pv.add_argument("--order", type=_positive, default=100, help="series comparison order")
    pv.add_argument(
        "--max-n", type=_nonneg, default=12, help="brute-force enumeration bound"
    )
    _add_output_group(pv, ("text", "json", "csv"), "text")
    pv.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader went away: not bad input, see run()
    except (SeriesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """:func:`main` as a process.  A closed stdout ends it silently with 141,
    the status of a writer killed by SIGPIPE, as in ``yes | head``."""
    try:
        status = main()
        sys.stdout.flush()  # a broken pipe surfaces here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet the exit flush
        sys.exit(141)
    sys.exit(status)


if __name__ == "__main__":
    run()
