"""Command line front-end.

Subcommands: count, series, enumerate, sample, render, verify.  Exit code 0
means success, 1 means a verification found a genuine mismatch, 2 means the
invocation or its input was bad (unknown model, malformed path, size guard,
empty ensemble, and so on).

Every handler hands its result to one output path, ``_emit``, as one
zero-argument builder per format.  Only the form that ``--format`` names is
built, and ``--out FILE`` receives exactly the bytes stdout would print.
``enumerate`` and ``sample`` stream: their forms yield the text a head's
paths at a time, straight from the words of ``brute.red_halves``, so no
``Path`` is made for a listed path and no Python code runs per path.  Bad
input is refused before the first byte is written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain, count, repeat
from operator import itemgetter

from . import brute, dp
from . import closedform as cf
from . import sampler as sampler_mod
from . import verify as verify_mod
from .model import (
    STEP_NAMES,
    ModelConfig,
    PRESETS,
    final_label,
    parse_integer,
    parse_natural,
    parse_steps,
    preset,
    validate_path,
)
from .series import SeriesError


def _typed(parse):
    """An argparse type that reads with ``parse`` and reports its ValueError."""

    def read(text: str) -> int:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


_nonneg = _typed(parse_natural)
_integer = _typed(parse_integer)


def _positive(text: str) -> int:
    v = _nonneg(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _emit(args, **forms) -> None:
    """Build the one form ``--format`` names and write it and a newline to
    ``--out`` or stdout.

    Each form is a zero-argument callable that returns an iterator of text
    chunks, written as they come, or else: ``json`` the payload, ``csv`` the
    rows with the header first, any other the text itself.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact counts run past the digit limit
    try:
        value = forms[args.format]()
        if not hasattr(value, "__next__"):
            if args.format == "json":
                value = json.dumps(value, indent=2)
            elif args.format == "csv":
                import csv

                buf = io.StringIO()
                csv.writer(buf).writerows(value)
                value = buf.getvalue().rstrip("\n")
            value = [value]
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            fh.writelines(value)
            fh.write("\n")
    finally:
        sys.set_int_max_str_digits(limit)


def _resolve_config(args):
    if getattr(args, "config_file", None):
        with open(args.config_file, encoding="utf-8") as fh:
            return "custom", ModelConfig.loads(fh.read())
    return args.model, preset(args.model)


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
        const="open",
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
    sel = final_label(args.final)
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
        text=lambda: ",".join(s.to_json()),
        json=lambda: {"gf": args.gf, "order": args.order, "coeffs": s.to_json(), **match},
        csv=lambda: [["n", "coeff"], *enumerate(s.to_json())],
    )
    return 0


def _emit_paths(args, halves: list, meta: dict | None = None) -> None:
    """Emit paths given as ``brute.red_halves`` gives them, heads each
    joined to a list of tails, with no Python call per path.

    Text is one word per line; csv is what ``csv.writer`` writes, less the
    final LF: no cell needs quoting, and every line ends in CR LF, the last
    in CR alone.  Json is what ``json.dumps(indent=2)`` writes for the list
    of paths as lists of step names, or for ``meta`` with that list added
    as ``"paths"``.
    """

    def text():
        sep = ""
        for head, tails, ends in halves:
            if ends:
                yield sep
                if args.n:
                    yield head + ("\n" + head).join(tails)
                else:
                    yield "\n".join(["(empty)"] * len(ends))
                sep = "\n"
        if not sep:
            yield "(none)"

    def csv():
        yield "index,steps,final_level"
        i = 0
        for head, tails, ends in halves:
            yield "".join(map("\r\n{},{}{},{}".format, count(i), repeat(head), tails, ends))
            i += len(ends)
        yield "\r"

    def paths(pad: str):
        # a letter becomes a line of its step's name and a comma, so a word's
        # lines are its head's and then its tail's, less the tail's last comma;
        # heads share their lists of tails, which are made json once each
        table = str.maketrans({s: f'\n{pad}    "{name}",' for s, name in STEP_NAMES.items()})
        start, close = f"\n{pad}  [", f"\n{pad}  ]" if args.n else "]"
        all_but_last = itemgetter(slice(-1))
        done: dict = {}  # id of a list of tails -> its tails as json; halves keeps the lists
        sep = "["
        for head, tails, ends in halves:
            if ends:
                if id(tails) not in done:
                    lines = map(str.translate, tails, repeat(table))
                    done[id(tails)] = list(map(all_but_last, lines))
                lead = start + head.translate(table)
                yield sep + lead + f"{close},{lead}".join(done[id(tails)]) + close
                sep = ","
        yield f"\n{pad}]" if sep == "," else "[]"

    def json_():
        if meta is None:
            return paths("")
        lead = json.dumps(meta, indent=2)[: -len("\n}")] + ',\n  "paths": '
        return chain([lead], paths("  "), ["\n}"])

    _emit(args, text=text, csv=csv, json=json_)


def cmd_enumerate(args) -> int:
    label, config = _resolve_config(args)
    halves = brute.red_halves(config, args.n, args.final)
    total = sum(len(ends) for _, _, ends in halves)
    meta = {"model": label, "n": args.n, "final": final_label(args.final), "count": total}
    _emit_paths(args, halves, meta)
    return 0


def cmd_sample(args) -> int:
    _, config = _resolve_config(args)
    spec = sampler_mod.SamplerSpec(config, args.n, args.final, args.seed)
    paths = sampler_mod.sample(spec, args.count)
    _emit_paths(args, [("", *zip(*paths))])  # one empty head, the draws its tails
    return 0


def cmd_render(args) -> int:
    from . import render

    _, config = _resolve_config(args)
    path = validate_path(config, parse_steps(args.path))
    if args.format == "text" and args.geometry != "red":
        raise ValueError("ASCII output exists only in the red geometry")

    _emit(
        args,
        svg=lambda: render.to_svg(path, args.geometry),
        text=lambda: render.to_ascii(path),
        json=lambda: {
            "path": str(path),
            "geometry": args.geometry,
            "vertices": render.path_vertices(path, args.geometry),
        },
        csv=lambda: [["x", "y"], *render.path_vertices(path, args.geometry)],
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


def _length_args(p) -> None:
    _add_model_group(p, required=True)
    p.add_argument("--n", type=_nonneg, required=True, help="path length")
    _add_final_group(p)
    _add_output_group(p, ("text", "json", "csv"), "text")


def _series_args(p) -> None:
    p.add_argument(
        "--gf",
        required=True,
        metavar="NAME",
        help="registry name, e.g. f0-skew-cat, r2-dyck, fj:3 (see docs)",
    )
    p.add_argument("--order", type=_nonneg, required=True, help="truncation order")
    p.add_argument(
        "--check-dp",
        action="store_true",
        help="cross-check the expansion against the counting table",
    )
    _add_output_group(p, ("text", "json", "csv"), "text")


def _sample_args(p) -> None:
    _add_model_group(p, required=True)
    p.add_argument("--n", type=_nonneg, required=True, help="path length")
    _add_final_group(p)
    p.add_argument("--seed", type=_integer, default=0, help="random seed (default 0)")
    p.add_argument("--count", type=_positive, default=1, help="number of draws")
    _add_output_group(p, ("text", "json", "csv"), "text")


def _render_args(p) -> None:
    _add_model_group(p, required=False, default="skew-cat")
    p.add_argument("--path", required=True, metavar="STEPS", help="compact path, e.g. UUUUDRC")
    p.add_argument(
        "--geometry",
        choices=brute.GEOMETRIES,
        default="red",
        help="red: one step right per letter; sw: red steps travel south-west",
    )
    _add_output_group(p, ("svg", "text", "json", "csv"), "svg")


def _verify_args(p) -> None:
    p.add_argument(
        "--suite", choices=verify_mod.SUITES, default="all", help="which suite to run"
    )
    p.add_argument("--order", type=_nonneg, default=100, help="series comparison order")
    p.add_argument(
        "--max-n", type=_nonneg, default=12, help="brute-force enumeration bound"
    )
    _add_output_group(p, ("text", "json", "csv"), "text")


# each subcommand: its help line, the function that adds its arguments, its handler
_COMMANDS = {
    "count": ("exact path count for one length", _length_args, cmd_count),
    "series": ("expand a named generating function", _series_args, cmd_series),
    "enumerate": ("list all paths of one length", _length_args, cmd_enumerate),
    "sample": ("draw uniform random paths", _sample_args, cmd_sample),
    "render": ("draw one path", _render_args, cmd_render),
    "verify": ("run the cross-route verification suites", _verify_args, cmd_verify),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only ``command``'s.

    A parser of one subcommand names them all in its usage line, so its
    help and error text are the full parser's; a subparser costs about
    0.2 ms to build, so a command builds only its own."""
    p = argparse.ArgumentParser(
        prog="catwalk",
        description="Exact enumeration of Dyck-style paths with red steps and catastrophes.",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # argparse's default metavar lists the subcommands built; on the full
    # parser it is left alone, as setting it changes two error messages
    every = {"metavar": "{" + ",".join(_COMMANDS) + "}"} if len(names) == 1 else {}
    sub = p.add_subparsers(dest="command", required=True, **every)
    for name in names:
        help_text, add_args, handler = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        add_args(sp)
        sp.set_defaults(func=handler)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
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
