"""Brute-force enumeration: the ground truth the faster routes answer to.

Two independent enumerators live here.  :func:`enumerate_red` walks step
sequences of a :class:`model.ModelConfig` directly, using only the model's
own validation rules.  :func:`enumerate_geometric` knows nothing about
models: it enumerates genuinely two-dimensional paths built from north-east,
south-east and south-west unit steps that never cross themselves, the
geometric picture behind the red-step relabelling, each as its tuple of
(x, y) vertices from (0, 0).  :func:`models_agree` confirms the two
pictures count (and mean) the same thing.

Every path is still listed explicitly, so the work grows exponentially
in n and the size guards bound it; but the paths are memoised halves,
which :func:`red_halves` gives as each head with the shared list of its
tails, and ``enumerate_red`` joins them in C-level maps, so it makes no
Python call per path.  The CLI prints the halves without joining them.
The oracle suite lists every length of a model from one memo of halves
(:func:`red_junctions`) and counts the listed halves (:func:`census`),
joining none of them.
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

# geometric step vectors, in an order mirroring the step order of the
# red model: north-east ~ up, south-east ~ down black, south-west ~ down red
NE = (1, 1)
SE = (1, -1)
SW = (-1, -1)
GEO_STEPS = (NE, SE, SW)

_RED_TO_GEO = {"U": NE, "D": SE, "R": SW}

_last = itemgetter(slice(-1, None))  # a word's last letter, "" for the empty word


class SizeGuard(ValueError):
    """Refusal to brute-force an instance past the documented limit."""


def enumerate_red(config: ModelConfig, n: int, final: FinalSpec = None) -> list:
    """All length-n paths of the model, in lexicographic step order.

    The order of the step alphabet is U < D < R < C, not the order of the
    letters, so the words are never sorted.  ``final`` restricts the final
    level (None or "open" for no restriction, "closed" or 0 for the axis,
    any int k >= 0 for level k).  The paths are :func:`red_halves`' heads,
    each joined to its tails by :func:`join`.
    """
    return join(([head], tails, ends) for head, tails, ends in red_halves(config, n, final))


def red_halves(config: ModelConfig, n: int, final: FinalSpec = None) -> list:
    """The length-n paths of the model as ``(head, tails, end levels)``
    triples: each path is the head followed by one of the tails, and ends
    at the tail's end level.  In order, the triples' words are those of
    :func:`enumerate_red`, with the same meaning of ``final``.

    The heads are every word of n // 2 steps, ending anywhere; a head's
    tails are the words of the remaining steps from its last letter and
    level that end as ``final`` asks.  Both halves come from :func:`_words`
    memos, one per end condition, so heads with one last letter and level
    share one list of tails and one of end levels: the caller must not
    change them.  The heads have one length, so the joins stay in step
    order.  Nothing is joined here: a caller that prints the paths or
    counts them needs no word of n steps.
    """
    moves = _moves(config, n)
    want = normalize_final(final)
    h = n // 2
    anywhere: dict = {}
    ending = anywhere if want is None else {}
    heads, levels = _words(moves, None, anywhere, None, 0, h)
    return [
        (head, *_words(moves, want, ending, head[-1:] or None, level, n - h))
        for head, level in zip(heads, levels)
    ]


def red_junctions(config: ModelConfig, max_n: int):
    """For each n = 0, 1, ..., max_n in turn, the length-n paths of the
    model as a list of ``(heads, tails, end levels)`` junctions: each head
    followed by each tail is a path, ending at the tail's end level.

    A junction's heads are the words of n // 2 steps that end at one last
    letter and level, in step order; its tails are the words of the
    remaining steps from there, ending anywhere.  One :func:`_words` memo
    serves the heads and tails of every length, so the lists are shared
    and the caller must not change them.  The junctions are in the order
    of their first heads.
    """
    moves = _moves(config, max_n)
    memo: dict = {}
    for n in range(max_n + 1):
        h = n // 2
        heads, levels = _words(moves, None, memo, None, 0, h)
        groups: dict = {}
        for head, level in zip(heads, levels):
            groups.setdefault((head[-1:] or None, level), []).append(head)
        yield [
            (group, *_words(moves, None, memo, prev, level, n - h))
            for (prev, level), group in groups.items()
        ]


def census(junctions) -> Counter:
    """The paths of ``junctions`` counted by (layer, end level), a path's
    layer being its last letter's, F for the empty path.  Each junction's
    tails are counted once and weighted by its number of heads, so no path
    is joined."""
    out: Counter = Counter()
    for heads, tails, ends in junctions:
        weight = len(heads)
        layers = map(ENTRY_LAYER.get, map(_last, tails), repeat("F"))
        for key, count in Counter(zip(layers, ends)).items():
            out[key] += weight * count
    return out


def join(junctions) -> list:
    """The paths of ``junctions`` as ``Path``s, each head's in the order of
    its tails; ``tuple.__new__`` makes each one in a ``map``, so no Python
    call is made per path."""
    out: list = []
    for heads, tails, ends in junctions:
        for head in heads:
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

    Each path is its tuple of n + 1 (x, y) vertices; the last one's y is its
    final height.  Paths stay at height >= 0 and may not traverse the same
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
    verts = [(0, 0)]
    used: set = set()

    def walk(x: int, y: int) -> None:
        if len(verts) == n + 1:
            if want is None or y == want:
                out.append(tuple(verts))
            return
        for dx, dy in GEO_STEPS:
            ny = y + dy
            if ny < 0:
                continue
            mid = (2 * x + dx, 2 * y + dy)
            if mid in used:
                continue
            used.add(mid)
            verts.append((x + dx, ny))
            walk(x + dx, ny)
            verts.pop()
            used.remove(mid)

    walk(0, 0)
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

    Relabelling the red paths must yield the geometric paths, and the red
    end levels the same census as the last vertices' heights.  The
    geometric paths are distinct and the census counts both lists, so
    together the two also rule out collisions in the relabelling.
    ``red`` is ``enumerate_red(SKEW, n)`` if the caller already holds it.
    """
    if red is None:
        red = enumerate_red(SKEW, n)
    geo = enumerate_geometric(n)
    mapped = {red_to_geometric(p) for p in red}
    census = Counter(p.final_level for p in red)
    return mapped == set(geo) and census == Counter(g[-1][1] for g in geo)
