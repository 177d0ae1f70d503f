import gc
import itertools
from collections import Counter
from operator import itemgetter

import pytest

from catwalk import brute
from catwalk.brute import (
    GEO_LIMIT,
    RED_LIMIT,
    SizeGuard,
    enumerate_geometric,
    enumerate_red,
    models_agree,
    red_to_geometric,
)
from catwalk.model import (
    DYCK,
    DYCK_CAT,
    ENTRY_LAYER,
    PRESETS,
    SKEW,
    SKEW_CAT,
    STEP_ORDER,
    CatastropheRule,
    Path,
    PathError,
    parse_steps,
    validate_path,
    with_rule,
)
from test_random_models import MODELS

VARIANTS = {
    **PRESETS,
    "dyck-cat-even": with_rule(DYCK_CAT, CatastropheRule.even_min(2)),
    "skew-cat-even": with_rule(SKEW_CAT, CatastropheRule.even_min(2)),
}
DEFINITION_MODELS = [*VARIANTS.values(), *MODELS]
DEFINITION_IDS = [*VARIANTS, *(f"model{i}" for i in range(len(MODELS)))]

# the complete census of closed red-model paths of length 6, in the
# lexicographic order (U < D < R) the enumerator promises
CLOSED_SKEW_6 = [
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


def test_closed_skew_length_6_census():
    paths = enumerate_red(SKEW, 6, "closed")
    assert [str(p) for p in paths] == CLOSED_SKEW_6


def test_geometric_length_6_census():
    paths = enumerate_geometric(6, "closed")
    assert len(paths) == 10
    assert all(len(word) == 6 and height == 0 for word, height in paths)


def test_geometric_words_draw_paths_that_reuse_no_segment():
    for n in range(9):
        for word, height in enumerate_geometric(n):
            verts = red_to_geometric(Path(word, height))
            assert len(verts) == n + 1
            # a unit segment is its midpoint, in doubled coordinates
            mids = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(verts, verts[1:])]
            assert len(set(mids)) == n, word
            assert verts[-1][1] == height, word


def test_lex_order_includes_catastrophes_last():
    rank = {"U": 0, "D": 1, "R": 2, "C": 3}
    names = [str(p) for p in enumerate_red(DYCK_CAT, 3)]
    keys = [[rank[ch] for ch in name] for name in names]
    assert keys == sorted(keys)
    assert names.index("UUD") < names.index("UUC")


def test_empty_and_tiny_lengths():
    only = enumerate_red(DYCK, 0)
    assert len(only) == 1 and len(only[0]) == 0
    assert [str(p) for p in enumerate_red(SKEW, 2)] == ["UU", "UD"]
    assert len(enumerate_geometric(2)) == 2


def test_final_filters_partition():
    n = 7
    everything = enumerate_red(SKEW_CAT, n)
    by_level = sum(len(enumerate_red(SKEW_CAT, n, k)) for k in range(n + 1))
    assert by_level == len(everything)
    closed = enumerate_red(SKEW_CAT, n, "closed")
    assert all(p.final_level == 0 for p in closed)
    assert {str(p) for p in closed} <= {str(p) for p in everything}


def test_red_counts_match_frozen_axis_series():
    # closed counts of the plain red model: nonzero only at even lengths
    expected = [1, 0, 1, 0, 3, 0, 10, 0, 36]
    got = [len(enumerate_red(SKEW, n, "closed")) for n in range(9)]
    assert got == expected


def test_validation_agrees_with_enumeration():
    # == compares the end level the enumerator tracked with the validator's
    for config in VARIANTS.values():
        for n in range(9):
            for p in enumerate_red(config, n):
                assert validate_path(config, p.steps) == p, p


def test_size_guards():
    with pytest.raises(SizeGuard):
        enumerate_red(SKEW, RED_LIMIT + 1)
    with pytest.raises(SizeGuard):
        enumerate_geometric(GEO_LIMIT + 1)
    with pytest.raises(ValueError):
        enumerate_red(SKEW, -1)


def test_halves_share_tails_and_refuse_on_the_call():
    halves = brute.red_halves(SKEW_CAT, 9, "closed")
    words = [head + tail for head, tails, _ in halves for tail in tails]
    assert words == [p.steps for p in enumerate_red(SKEW_CAT, 9, "closed")]
    # heads of one last letter and level share one list of tails
    sharing = {}
    for head, tails, _ in halves:
        sharing.setdefault(id(tails), set()).add(
            (head[-1], validate_path(SKEW_CAT, head).final_level)
        )
    assert sorted(map(len, sharing.values())) == [1] * len(sharing)
    assert len(set.union(*sharing.values())) == len(sharing) < len(halves)
    for bad in ((RED_LIMIT + 1, None), (-1, None), (3, "sideways")):
        with pytest.raises(ValueError):
            brute.red_halves(SKEW_CAT, *bad)


def test_geometric_blocks_immediate_backtrack():
    # NE followed by SW would retrace the same segment back to (0, 0); of
    # the three two-step words from the origin only NE NE and NE SE remain
    assert enumerate_geometric(2) == [("UU", 2), ("UD", 0)]


def test_geometric_allows_vertex_sharing_spike():
    # NE NE SE SW: the SE and SW steps share their meeting vertex but no
    # ground, so the path is legal
    assert ("UUDR", 0) in enumerate_geometric(4, "closed")


def test_red_to_geometric():
    p = validate_path(SKEW, parse_steps("UUDR"))
    g = red_to_geometric(p)
    assert g == ((0, 0), (1, 1), (2, 2), (3, 1), (2, 0))
    assert g[-1][1] == p.final_level
    with pytest.raises(ValueError):
        red_to_geometric(validate_path(SKEW_CAT, parse_steps("UUC")))


def test_models_agree_small():
    for n in range(11):
        assert models_agree(n)


def test_models_agree_reads_the_red_paths_it_is_given():
    red = enumerate_red(SKEW, 5)
    assert models_agree(5, red)
    assert not models_agree(5, red[1:])
    assert not models_agree(5, enumerate_red(SKEW, 4))


def test_models_agree_catches_a_collision():
    # the first red path listed twice and the last not at all: one length,
    # one path short; and a repeat alone is one path too many
    red = enumerate_red(SKEW, 4)
    assert not models_agree(4, [red[0], *red[:-1]])
    assert not models_agree(4, [red[0], *red])


def test_models_agree_catches_a_moved_vertex():
    # the first red path's last vertex, its end level, lifted by two
    red = enumerate_red(SKEW, 4)
    moved = red[0]._replace(final_level=red[0].final_level + 2)
    assert not models_agree(4, [moved, *red[1:]])


def _valid_words(config, n: int) -> list:
    """Every length-n word over the model's alphabet, in step order, that
    ``validate_path`` accepts: the definition ``enumerate_red`` answers to."""
    alphabet = [s for s in STEP_ORDER if s in config.steps]
    out = []
    for word in itertools.product(alphabet, repeat=n):
        try:
            out.append(validate_path(config, "".join(word)))
        except PathError:
            pass
    return out


@pytest.mark.parametrize("config", DEFINITION_MODELS, ids=DEFINITION_IDS)
def test_enumeration_is_the_definition(config):
    for n in range(8):
        words = _valid_words(config, n)
        assert enumerate_red(config, n) == words, n
        assert enumerate_red(config, n, "closed") == [p for p in words if p.final_level == 0], n
        for level in range(n + 2):
            got = enumerate_red(config, n, level)
            assert got == [p for p in words if p.final_level == level], (n, level)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_census_of_the_junctions_is_the_census_of_the_paths(name):
    config = VARIANTS[name]
    last = itemgetter(slice(-1, None))
    counted: dict = {}  # one dict over every length, as the oracle suite holds it
    for n, halves in enumerate(brute.red_lengths(config, 12)):
        paths = enumerate_red(config, n)
        # the per-path census: a path's layer is its last letter's, F if empty
        layers = map(ENTRY_LAYER.get, map(last, map(itemgetter(0), paths)), itertools.repeat("F"))
        assert brute.census(halves, counted) == Counter(zip(layers, map(itemgetter(1), paths))), n
        assert brute.join(halves) == paths, n
    assert n == 12


@pytest.mark.parametrize("name", list(VARIANTS))
def test_census_counts_each_list_once_across_lengths(name):
    # one dict of counts over every length of one memo holds one count per
    # list, beside the list itself
    counted: dict = {}
    ids: set = set()
    per_length = 0
    for halves in brute.red_lengths(VARIANTS[name], 12):
        brute.census(halves, counted)
        lists = {id(tails) for _, tails, _ in halves}
        ids |= lists
        per_length += len(lists)
    assert set(counted) == ids
    assert all(id(tails) == key for key, (tails, _) in counted.items())
    if name in ("dyck-cat", "skew-cat"):
        # catastrophes from odd levels mix the parities of the levels, so
        # lengths 2k - 1 and 2k read some lists of k-step tails both
        assert len(ids) < per_length


@pytest.mark.parametrize("name", list(VARIANTS))
def test_one_memo_of_every_length_lists_the_halves_of_each(name):
    config = VARIANTS[name]
    for n, halves in enumerate(brute.red_lengths(config, 12)):
        assert halves == brute.red_halves(config, n), n
        # census counts a shared list once: the heads of one last letter
        # and level have one list of tails, and other heads another
        tails = {}
        for head, shared, _ in halves:
            key = (head[-1:], validate_path(config, head).final_level)
            assert tails.setdefault(key, shared) is shared, (n, head)
        assert len({id(t) for t in tails.values()}) == len(tails), n
    assert n == 12


def test_calls_share_no_memo():
    fresh = {final: enumerate_red(SKEW_CAT, 9, final) for final in (None, "closed", 3)}
    again = [enumerate_red(SKEW_CAT, 9, final) for final in ("closed", 3, None, "closed")]
    assert again == [fresh["closed"], fresh[3], fresh[None], fresh["closed"]]


def test_enumeration_leaves_no_cyclic_garbage():
    # reference counting frees the memos: the cyclic collector finds nothing
    gc.collect()
    gc.disable()
    try:
        paths = enumerate_red(SKEW_CAT, 12)
        freed = gc.collect()
    finally:
        gc.enable()
    assert len(paths) == 4536
    assert freed == 0


def test_catastrophe_rule_is_read_once_per_level(monkeypatch):
    # the walk tabulates the rule, so its checks do not grow with the
    # number of prefixes (a walk that checks it per prefix makes 3,697)
    n = 12
    expected = enumerate_red(SKEW_CAT, n)
    calls = []
    allows = CatastropheRule.allows

    def counted(self, level):
        calls.append(level)
        return allows(self, level)

    monkeypatch.setattr(CatastropheRule, "allows", counted)
    assert enumerate_red(SKEW_CAT, n) == expected
    assert 0 < len(calls) <= 4 * (n + 1)
