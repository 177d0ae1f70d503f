"""Brute-force enumeration: the ground truth the faster routes answer to.

Two independent enumerators live here, and both list a path as its word
of letters and its end level.  :func:`enumerate_red` walks step sequences
of a :class:`model.ModelConfig` directly, using only the model's own
validation rules.  :func:`enumerate_geometric` knows nothing about models:
it enumerates genuinely two-dimensional paths built from north-east,
south-east and south-west unit steps that never cross themselves, the
geometric picture behind the red-step relabelling, each spelt in the
letters that relabelling draws as those steps.  :func:`models_agree`
confirms the two pictures list the same paths.

Every path is still listed explicitly, so the work grows exponentially
in n and the size guards bound it; but the paths are memoised halves,
which :func:`red_halves` gives as each head with the shared list of its
tails, one list per last letter and level.  ``enumerate_red`` joins
them in C-level maps, with no Python call per path, the CLI prints them
unjoined, and the oracle suite counts them (:func:`census`) for every
length from one memo (:func:`red_lengths`).
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import itemgetter

from .model import (
    ENTRY_LAYER,
    STEP_ORDER,
    FinalSpec,
    ModelConfig,
    Path,
    SKEW,
    normalize_final,
)

RED_LIMIT = 20
GEO_LIMIT = 16

# render.py's pictures: "red", a step right per letter, and "sw", red_to_geometric's;
# named here so that the CLI parser offers them without importing render
GEOMETRIES = ("red", "sw")

# each red-model letter's geometric step, in step order: north-east (up),
# south-east (down black) and south-west (down red)
_RED_TO_GEO = {"U": (1, 1), "D": (1, -1), "R": (-1, -1)}

_last = itemgetter(slice(-1, None))  # a word's last letter, "" for the empty word


class SizeGuard(ValueError):
    """Refusal to brute-force an instance past the documented limit."""


def enumerate_red(config: ModelConfig, n: int, final: FinalSpec = None) -> list:
    """All length-n paths of the model, in lexicographic step order.

    The order of the step alphabet is U < D < R < C, not the order of the
    letters, so the words are never sorted.  ``final`` restricts the final
    level (None or "open" for no restriction, "closed" or 0 for the axis,
    any int k >= 0 for level k).  The paths are :func:`red_halves` joined.
    """
    return join(red_halves(config, n, final))


def red_halves(config: ModelConfig, n: int, final: FinalSpec = None) -> list:
    """The length-n paths of the model as ``(head, tails, end levels)``
    triples, each path a head followed by one of its tails and ending at
    the tail's end level; in order, their words are :func:`enumerate_red`'s,
    with the same meaning of ``final``.

    The heads are every word of n // 2 steps; a head's tails are the words
    of the remaining steps from its last letter and level that end as
    ``final`` asks.  Both come from :func:`_words` memos, so heads with one
    last letter and level share one list of tails and one of end levels,
    which the caller must not change.  Nothing is joined here; the heads
    have one length, so joining them keeps the paths in step order.
    """
    moves = _moves(config, n)
    want = normalize_final(final)
    anywhere: dict = {}
    return _halves(moves, anywhere, want, anywhere if want is None else {}, n)


def red_lengths(config: ModelConfig, max_n: int):
    """``red_halves(config, n)`` for n = 0, 1, ..., max_n in turn, all from
    one open :func:`_words` memo, so lists are shared across lengths too."""
    moves = _moves(config, max_n)
    memo: dict = {}
    for n in range(max_n + 1):
        yield _halves(moves, memo, None, memo, n)


def _halves(moves, anywhere: dict, want, ending: dict, n: int) -> list:
    """:func:`red_halves`' triples, heads from ``anywhere``, tails from ``ending``."""
    h = n // 2
    heads, levels = _words(moves, None, anywhere, None, 0, h)
    return [
        (head, *_words(moves, want, ending, head[-1:] or None, level, n - h))
        for head, level in zip(heads, levels)
    ]


def census(halves, counted: dict) -> Counter:
    """The paths of ``halves`` counted by (layer, end level), a path's
    layer being its last letter's, F for the empty path.  Heads that share
    a list of tails share its count: each list is counted once, found by
    its ``id``, and weighted by its heads, so no path is joined.

    ``counted`` keeps each list's count, beside the list so that its id
    stays the list's, for the next call: one dict over the lengths of one
    :func:`red_lengths` counts the lists of k-step tails its memo shares
    between lengths 2k - 1 and 2k once."""
    weights = Counter(id(tails) for _, tails, _ in halves)
    for _, tails, ends in halves:
        if id(tails) not in counted:
            layers = map(ENTRY_LAYER.get, map(_last, tails), repeat("F"))
            counted[id(tails)] = (tails, Counter(zip(layers, ends)))
    out: Counter = Counter()
    for key, weight in weights.items():
        for state, count in counted[key][1].items():
            out[state] += weight * count
    return out


def join(halves) -> list:
    """The paths of ``halves`` as ``Path``s, each head's in the order of
    its tails; ``tuple.__new__`` makes each one in a ``map``, so no Python
    call is made per path."""
    out: list = []
    for head, tails, ends in halves:
        out += map(tuple.__new__, repeat(Path), zip(map(head.__add__, tails), ends))
    return out


def _moves(config: ModelConfig, n: int):
    """The model's moves in paths of at most n steps: a function of the
    previous letter and the level that gives the legal (letter, next level)
    pairs in step order, each list built once.  The moves come from the
    model's step set, forbidden pairs and catastrophe rule, not from
    ``ModelConfig.next_steps``, so brute force is independent of the DP
    route.  Refuses n < 0 and n past ``RED_LIMIT``."""
    if n < 0:
        raise ValueError("path length must be >= 0")
    if n > RED_LIMIT:
        raise SizeGuard(f"refusing brute-force enumeration past n={RED_LIMIT}")
    letters = [s for s in STEP_ORDER if s in config.steps]
    fires = [config.catastrophe.allows(level) for level in range(n)]
    legal: dict = {}

    def moves(prev, level: int) -> list:
        key = (prev, level)
        if key not in legal:
            legal[key] = [
                (s, level + 1 if s == "U" else 0 if s == "C" else level - 1)
                for s in letters
                if (prev, s) not in config.forbidden_pairs
                and (s == "U" or (fires[level] if s == "C" else level > 0))
            ]
        return legal[key]

    return moves


def _words(moves, want, memo: dict, prev, level: int, k: int) -> tuple:
    """The length-k continuations after ``prev`` at ``level`` that end at
    level ``want`` (None: anywhere), as a list of words in step order and
    the list of their end levels, memoised in ``memo``.  A module function
    rather than a closure, so that no cycle keeps the memo alive."""
    key = (prev, level, k)
    if key not in memo:
        if k == 0:
            memo[key] = ([""], [level]) if want is None or level == want else ([], [])
        else:
            words: list = []
            ends: list = []
            for s, nxt in moves(prev, level):
                rest, rest_ends = _words(moves, want, memo, s, nxt, k - 1)
                words += map(s.__add__, rest)
                ends += rest_ends
            memo[key] = (words, ends)
    return memo[key]


def enumerate_geometric(n: int, final: FinalSpec = None) -> list:
    """All length-n non-self-crossing paths from (0,0) over {NE, SE, SW}.

    Each path is a ``(word, height)`` pair: its steps as the letters that
    ``_RED_TO_GEO`` draws as them, in the table's order, and its final
    height.  Paths stay at height >= 0 and may not traverse the same
    ground twice: no two steps may cover the same segment of the plane, in
    either direction.  Sharing vertices is fine (SE then SW makes a perfectly
    legal spike).  Overlap is detected by segment midpoints: in doubled
    coordinates every unit segment has an integer midpoint that identifies
    it regardless of direction.
    """
    if n < 0:
        raise ValueError("path length must be >= 0")
    if n > GEO_LIMIT:
        raise SizeGuard(f"refusing geometric enumeration past n={GEO_LIMIT}")
    want = normalize_final(final)
    out: list = []
    used: set = set()

    def walk(word: str, x: int, y: int) -> None:
        if len(word) == n:
            if want is None or y == want:
                out.append((word, y))
            return
        for s, (dx, dy) in _RED_TO_GEO.items():
            mid = (2 * x + dx, 2 * y + dy)
            if y + dy < 0 or mid in used:
                continue
            used.add(mid)
            walk(word + s, x + dx, y + dy)
            used.remove(mid)

    walk("", 0, 0)
    return out


def red_to_geometric(path: Path) -> tuple:
    """Relabel a red-model path (no catastrophes) into its tuple of vertices."""
    x, y = 0, 0
    verts = [(0, 0)]
    for s in path.steps:
        if s not in _RED_TO_GEO:
            raise ValueError(f"step {s!r} has no geometric counterpart")
        dx, dy = _RED_TO_GEO[s]
        x, y = x + dx, y + dy
        verts.append((x, y))
    return tuple(verts)


def models_agree(n: int, red: list | None = None) -> bool:
    """Do the red and geometric enumerations of length n match exactly?

    A red path is its word and end level, a geometric one its word and
    height.  The geometric paths are distinct, so one length and one set
    of pairs mean that the two lists hold the same paths, each once.
    ``red`` is ``enumerate_red(SKEW, n)`` if the caller already holds it.
    """
    if red is None:
        red = enumerate_red(SKEW, n)
    geo = enumerate_geometric(n)
    return len(red) == len(geo) and set(red) == set(geo)
