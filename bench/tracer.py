"""Spans and counters around catwalk's layers, installed from outside the program.

:func:`install` wraps the public functions of each layer at every binding a
caller uses: module functions are rebound in every ``catwalk`` module that
holds them (``sampler`` and ``cli`` import ``validate_path`` by name, ``dp``
and ``sampler`` reach ``automaton.build`` through the module), and methods
are patched on their class (``Series`` operators, ``CountTable`` readers,
``Sampler``).  Spans stay in memory; :meth:`Tracer.summary` folds them into
calls and self time per span name when the command has finished.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span names, in the order the benchmark reports them.  A name's prefix up to
# the first dot is the module, i.e. the layer.
LAYERS = (
    "automaton.build",
    "dp.count_table",
    "dp.read",
    "dp.verify_recurrences",
    "series.mul",
    "series.sqrt",
    "series.div",
    "series.pow",
    "series.addsub",
    "closedform.series_by_name",
    "sampler.build",
    "sampler.draw",
    "model.validate_path",
    "brute.enumerate_red",
    "brute.enumerate_geometric",
    "verify.run_suite",
    "cli.main",
)

COUNTERS = (
    "automaton.states",
    "dp.table_entries",
    "dp.max_count_bits",
    "series.mul.coeff_products",
    "brute.paths",
    "verify.checks",
)

# the tracer's own counting work, kept out of every layer's self time
BOOKKEEPING = "trace"


class Tracer:
    """Spans ``[name, parent index, start, end]`` and counters of one process."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._open: list = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``; ``count(counters, args, result)``
        runs afterwards, outside the span.

        A call made while a span of the same name is innermost (``closed_count``
        calling ``level_count``, ``a - 1`` calling ``__add__``) belongs to that
        span and is not counted again; nor is a call made by ``count``.
        """
        spans, stack = self.spans, self._open
        passthrough = (name, BOOKKEEPING)

        def timed(span_name, call, *args, **kwargs):
            span = [span_name, stack[-1] if stack else None, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return call(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] in passthrough:
                return fn(*args, **kwargs)
            result = timed(name, fn, *args, **kwargs)
            if count is not None:
                timed(BOOKKEEPING, count, self.counters, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls and self time (span time minus child span time) per name."""
        covered = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: dict = {}
        for (name, _parent, start, end), inner in zip(self.spans, covered):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
        return {"layers": layers, "counters": dict(self.counters)}


def _count_states(counters, args, auto) -> None:
    counters["automaton.states"] += len(auto.transitions)


def _count_table(counters, args, table) -> None:
    slices = [table.final_counts(n) for n in range(table.n_max + 1)]
    counters["dp.table_entries"] += sum(len(s) for s in slices)
    bits = max((c.bit_length() for s in slices for c in s.values()), default=0)
    counters["dp.max_count_bits"] = max(counters["dp.max_count_bits"], bits)


def _count_products(counters, args, result) -> None:
    # the schoolbook product of two order-n series forms (n+1)(n+2)/2 pairs
    n = min(args[0].order, args[1].order)
    counters["series.mul.coeff_products"] += (n + 1) * (n + 2) // 2


def _count_paths(counters, args, paths) -> None:
    counters["brute.paths"] += len(paths)


def _count_checks(counters, args, report) -> None:
    counters["verify.checks"] += len(report.checks)


def _rebind(original, replacement) -> None:
    """Point every ``catwalk`` module attribute bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname == "catwalk" or modname.startswith("catwalk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap catwalk's layers in spans; call before ``cli.main`` runs."""
    import catwalk.cli  # noqa: F401  loads every module whose bindings are rebound
    from catwalk import automaton, brute, closedform, dp, model, sampler, verify
    from catwalk.series import Series

    tracer = Tracer()
    for module, attr, name, count in (
        (automaton, "build", "automaton.build", _count_states),
        (dp, "count_table", "dp.count_table", _count_table),
        (dp, "verify_recurrences", "dp.verify_recurrences", None),
        (closedform, "series_by_name", "closedform.series_by_name", None),
        (model, "validate_path", "model.validate_path", None),
        (brute, "enumerate_red", "brute.enumerate_red", _count_paths),
        (brute, "enumerate_geometric", "brute.enumerate_geometric", _count_paths),
        (verify, "run_suite", "verify.run_suite", _count_checks),
    ):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, count))

    for attr, fn in list(vars(dp.CountTable).items()):
        if not attr.startswith("_") and callable(fn):
            setattr(dp.CountTable, attr, tracer.wrap("dp.read", fn))
    sampler.Sampler.__init__ = tracer.wrap("sampler.build", sampler.Sampler.__init__)
    sampler.Sampler.draw = tracer.wrap("sampler.draw", sampler.Sampler.draw)

    for attr, name in (
        ("__add__", "series.addsub"),
        ("__radd__", "series.addsub"),
        ("__sub__", "series.addsub"),
        ("__rsub__", "series.addsub"),
        ("__neg__", "series.addsub"),
        ("scale", "series.scale"),
        ("div", "series.div"),
        ("pow", "series.pow"),
        ("__pow__", "series.pow"),
        ("sqrt", "series.sqrt"),
    ):
        setattr(Series, attr, tracer.wrap(name, getattr(Series, attr)))
    for attr in ("__mul__", "__rmul__"):
        setattr(Series, attr, _series_product(tracer, getattr(Series, attr), Series))
    return tracer


def _series_product(tracer: Tracer, plain, series_type):
    """Series times series is a span of its own; series times scalar is ``scale``."""
    traced = tracer.wrap("series.mul", plain, _count_products)

    @functools.wraps(plain)
    def product(self, other):
        if isinstance(other, series_type):
            return traced(self, other)
        return plain(self, other)

    return product
