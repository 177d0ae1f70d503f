"""Seeded random models: brute force, the DP and the sampler agree.

The models draw random step subsets, forbidden pairs (never one that starts
with a catastrophe) and catastrophe rules, plus two fixed corner cases: a
catastrophe step without a rule that lets it fire, and a rule without the
catastrophe step (which the model holds in its canonical form, rule "none").
Each model also survives a JSON round trip, and a few are counted through
``catwalk count --config``.  Random catastrophe rules on the catastrophe
presets keep the recurrences that ``dp.verify_recurrences`` checks, and a
model outside the preset adjacency rules fails them.  On these models and
the presets, the backward step and ``validate_path`` are checked against
references written out here from the model's rules, and ``predecessor``,
one backward step per call, is the reference walk that the sampler's
one-loop walk, ``dp.Transfer.unrank``, must follow rank for rank.
"""

import json
import random
from collections import Counter

import pytest

from catwalk import brute, cli, dp
from catwalk.dp import State
from catwalk.model import (
    DYCK_CAT,
    ENTRY_LAYER,
    INCOMING,
    LAYER_ORDER,
    PRESETS,
    SKEW_CAT,
    STEP_ORDER,
    CatastropheRule,
    ForbiddenAdjacency,
    IllegalCatastrophe,
    IllegalStep,
    ModelConfig,
    NegativeLevel,
    Path,
    PathError,
    validate_path,
    with_rule,
)
from catwalk.sampler import EmptyEnsemble, Sampler

U, D, R, C = "UDRC"
N_MAX = 9


def random_rule(rng: random.Random) -> CatastropheRule:
    kind = rng.choice(["none", "min_level", "even_min", "levels"])
    if kind == "none":
        return CatastropheRule.none()
    if kind == "levels":
        return CatastropheRule.explicit(rng.sample(range(1, N_MAX + 1), rng.randint(1, 3)))
    return CatastropheRule(kind, k=rng.randint(1, 4))


def random_model(rng: random.Random) -> ModelConfig:
    steps = {s for s in STEP_ORDER if rng.random() < (0.9 if s == U else 0.7)}
    pairs = {(a, b) for a in (U, D, R) for b in STEP_ORDER if rng.random() < 0.15}
    return ModelConfig(frozenset(steps), frozenset(pairs), random_rule(rng))


MODELS = [random_model(random.Random(seed)) for seed in range(40)] + [
    ModelConfig(frozenset({U, D, C}), frozenset(), CatastropheRule.none()),
    ModelConfig(frozenset({U, D, R}), frozenset({(R, U)}), CatastropheRule.min_level(2)),
]


@pytest.mark.parametrize("config", MODELS, ids=[f"model{i}" for i in range(len(MODELS))])
def test_random_model_routes_agree(config):
    table = dp.count_table(config, N_MAX)
    rng = random.Random(repr(config.to_json()))
    for n in range(N_MAX + 1):
        paths = brute.enumerate_red(config, n)
        census: dict = {}
        for p in paths:
            key = State(p.final_layer, p.final_level)
            census[key] = census.get(key, 0) + 1
        assert table.final_counts(n) == census, n
        words = {str(p) for p in paths}
        for final in (None, 0, rng.randint(1, n + 1)):
            want = table.open_count(n) if final is None else sum(
                c for st, c in table.final_counts(n).items() if st.level == final
            )
            assert dp.count(config, n, final) == want, (n, final)
            if want == 0:
                with pytest.raises(EmptyEnsemble):
                    Sampler(config, n, final)
                continue
            sampler = Sampler(config, n, final)
            assert sampler.total == want, (n, final)
            for _ in range(4):
                path = sampler.draw(rng)  # draw() validates the path
                assert len(path) == n and str(path) in words
                assert final is None or path.final_level == final


@pytest.mark.parametrize("config", MODELS, ids=[f"model{i}" for i in range(len(MODELS))])
def test_end_conditions_filter_the_open_enumeration(config):
    # the tails of brute force end as asked, under rules outside the presets
    for n in range(N_MAX + 1):
        paths = brute.enumerate_red(config, n)
        assert all(type(p) is Path for p in paths)
        for final in ("closed", *range(n + 2)):
            level = 0 if final == "closed" else final
            got = brute.enumerate_red(config, n, final)
            assert got == [p for p in paths if p.final_level == level], (n, final)
            assert all(type(p) is Path for p in got)


@pytest.mark.parametrize("config", MODELS, ids=[f"model{i}" for i in range(len(MODELS))])
def test_random_model_json_round_trip(config):
    assert ModelConfig.from_json(json.loads(json.dumps(config.to_json()))) == config
    assert ModelConfig.loads(config.dumps()) == config


@pytest.mark.parametrize("index", [0, 7, 14, 21, 28, 35, 40, 41])
def test_count_with_random_config_file(index, tmp_path, capsys):
    config = MODELS[index]
    path = tmp_path / "model.json"
    path.write_text(config.dumps(), encoding="utf-8")
    for flags, final in ((["--open"], None), (["--closed"], 0), (["--level", "2"], 2)):
        assert cli.main(["count", "--config", str(path), "--n", "12", *flags]) == 0
        assert capsys.readouterr().out.strip() == str(dp.count(config, 12, final)), flags


@pytest.mark.parametrize("seed", range(20))
def test_recurrences_hold_under_random_rules(seed):
    # any catastrophe rule inside the preset adjacency rules keeps the
    # step-inflow identities that verify_recurrences writes out
    rule = random_rule(random.Random(seed))
    for base in (SKEW_CAT, DYCK_CAT):
        checks = dp.verify_recurrences(with_rule(base, rule), 40)
        assert all(c.ok for c in checks), (base, rule, checks)


def test_recurrences_fail_outside_the_preset_rules():
    # model 41 forbids RU but not UR, so red steps follow up-steps
    checks = dp.verify_recurrences(MODELS[41], 40)
    assert [(c.name, c.detail) for c in checks if not c.ok] == [
        ("red-down-inflow", "fails at i=0, coefficient of z^2: 1 != 0")
    ]


EVERY_MODEL = [*PRESETS.values(), *MODELS]
EVERY_ID = [*PRESETS, *(f"model{i}" for i in range(len(MODELS)))]


def moves_into(config: ModelConfig, prev: tuple) -> dict:
    """For each state (layer, level), the count of paths that the row ``prev``
    sends into it by each move (step, layer, level), from the model's rules."""
    moves: dict = {}
    for j, vec in enumerate(prev):
        for i, paths in enumerate(vec):
            came_by = None if (j, i) == (0, 0) else INCOMING[LAYER_ORDER[j]]
            for s in config.steps:
                if paths == 0 or (came_by, s) in config.forbidden_pairs:
                    continue
                if s == U:
                    into = (0, i + 1)
                elif s == C:
                    if not config.catastrophe.allows(i):
                        continue
                    into = (0, 0)
                elif i:
                    into = (LAYER_ORDER.index(ENTRY_LAYER[s]), i - 1)
                else:
                    continue
                moves.setdefault(into, Counter())[(s, j, i)] += paths
    return moves


def predecessor(step: dp.Transfer, prev: tuple, layer: int, level: int, x: int) -> tuple:
    """The (step, layer, level, x') of the x-th path into (layer, level),
    0 <= x < its count: the state of the row ``prev`` one step shorter
    that holds the path, and the path's rank x' among those of that state.

    The predecessors come in a fixed order, each holding as many paths as
    its count in ``prev``: into (F, 0), catastrophes from the lowest firing
    level up, each level in layer order; into any other state, its entering
    step from each layer in order, and last the up-step out of (F, 0) into
    (F, 1) when only the start may take it.  x' is x less the counts of the
    predecessors before the one it falls in.  ``dp.Transfer.unrank`` walks
    the same order in one loop; this is the reference it is checked against.
    """
    if layer == level == 0:
        for i in step.firing(len(prev[0]) - 1):
            for j in step.sources[C]:
                paths = prev[j][i]
                if x < paths:
                    return C, j, i, x
                x -= paths
    else:
        into = INCOMING[LAYER_ORDER[layer]]
        i = level - 1 if into == U else level + 1
        if i < len(prev[0]):
            for j in step.sources[into]:
                paths = prev[j][i]
                if x < paths:
                    return into, j, i, x
                x -= paths
        if step.lift_start and layer == 0 and level == 1 and x < prev[0][0]:
            return U, 0, 0, x
    raise RuntimeError("sampler weights do not sum to the forward count")


def reference_walk(step: dp.Transfer, rows: list, want, x: int) -> list:
    """The steps of the x-th path of the last of ``rows`` that ends at
    level ``want`` (None: any): the end states, layer by layer and each
    layer by level, take x off their counts until it falls in one, and one
    :func:`predecessor` per step walks back from there."""
    n = len(rows) - 1
    levels = range(n + 1) if want is None else (want,)
    for layer, level in ((j, i) for j in range(3) for i in levels):
        paths = rows[n][layer][level]
        if x < paths:
            break
        x -= paths
    steps = [None] * n
    for t in range(n - 1, -1, -1):
        steps[t], layer, level, x = predecessor(step, rows[t], layer, level, x)
    return steps


@pytest.mark.parametrize("config", EVERY_MODEL, ids=EVERY_ID)
def test_backward_step_visits_each_predecessor_by_its_weight(config):
    # x over range(count) must meet each predecessor (step, layer, level)
    # that the rules allow, handing on every rank below its count once: in
    # order, since the predecessors come in order
    step = dp.Transfer(config)
    rows = list(step.rows(12))
    for t in range(1, len(rows)):
        prev, moves = rows[t - 1], moves_into(config, rows[t - 1])
        for layer, vec in enumerate(rows[t]):
            for level, paths in enumerate(vec):
                ranks: dict = {}
                for x in range(paths):
                    *move, rank = predecessor(step, prev, layer, level, x)
                    ranks.setdefault(tuple(move), []).append(rank)
                assert Counter({m: len(r) for m, r in ranks.items()}) == moves.get(
                    (layer, level), Counter()
                ), (t, layer, level)
                for (_, j, i), r in ranks.items():
                    assert r == list(range(prev[j][i])), (t, layer, level, j, i)
                with pytest.raises(RuntimeError):
                    predecessor(step, prev, layer, level, paths)


@pytest.mark.parametrize("config", EVERY_MODEL, ids=EVERY_ID)
def test_walk_back_refuses_a_rank_past_the_count(config):
    step = dp.Transfer(config)
    rows = list(step.rows(12))
    for t in range(1, len(rows)):
        for layer, vec in enumerate(rows[t]):
            for level, paths in enumerate(vec):
                with pytest.raises(RuntimeError):
                    step.unrank(rows[: t + 1], layer, level, paths)


# each step's JSON name, spelled out here so that the references below do
# not read the names they are checked against
NAMES = {U: "up", D: "down_black", R: "down_red", C: "catastrophe"}


def reference_validate(config: ModelConfig, steps: str) -> tuple:
    """``validate_path`` as a plain loop over the letters of a word,
    testing each rule in turn: the Path, and the level trace the loop kept
    (the level before each step, then the final level)."""
    if not isinstance(steps, str):
        raise IllegalStep(f"steps must be a word of U, D, R, C, not {type(steps).__name__}", 0)
    level = 0
    levels = [0]
    prev = None
    for i, s in enumerate(steps):
        if s not in NAMES:
            raise IllegalStep(f"not a step letter: {s!r}", i)
        if s not in config.steps:
            raise IllegalStep(f"{NAMES[s]} is not in this model", i)
        if prev is not None and (prev, s) in config.forbidden_pairs:
            raise ForbiddenAdjacency(f"{NAMES[prev]} may not be followed by {NAMES[s]}", i)
        if s == U:
            level += 1
        elif s in (D, R):
            if level == 0:
                raise NegativeLevel(f"{NAMES[s]} from level 0", i)
            level -= 1
        else:
            if not config.catastrophe.allows(level):
                raise IllegalCatastrophe(f"catastrophe from level {level} is not allowed here", i)
            level = 0
        levels.append(level)
        prev = s
    return Path(steps, level), tuple(levels)


def outcome(validate, config: ModelConfig, steps):
    """What ``validate`` returns, or the class, index and message of the
    PathError raised."""
    try:
        return validate(config, steps)
    except PathError as exc:
        return type(exc), exc.index, str(exc)


# characters that are not step letters: lower case, another letter, a space, a digit
JUNK = "uXa 1"
# inputs that are not words: letters in a tuple or a list
NOT_WORDS = [(U,), (U, D), [U, D]]


def step_sequences(config: ModelConfig, rng: random.Random, count: int):
    """Seeded words: legal walks, some with one letter replaced or appended,
    words drawn freely from the letters, and a few inputs that are not words."""
    yield from NOT_WORDS
    letters = "UDRC"
    for _ in range(count):
        n = rng.randint(0, 12)
        if rng.random() < 0.3:
            yield "".join(rng.choice(letters) for _ in range(n))
            continue
        word = ""
        for _ in range(n):
            legal = [
                s for s in letters
                if isinstance(outcome(reference_validate, config, word + s)[0], Path)
            ]
            if not legal:
                break
            word += rng.choice(legal)
        if rng.random() < 0.6:
            k = rng.randint(0, len(word))
            word = word[:k] + rng.choice(letters + JUNK) + word[k + 1 :]
        yield word


@pytest.mark.parametrize("config", EVERY_MODEL, ids=EVERY_ID)
def test_validate_path_matches_reference(config):
    rng = random.Random(repr(config.to_json()))
    results = Counter()
    for steps in step_sequences(config, rng, 300):
        want = outcome(reference_validate, config, steps)
        got = outcome(validate_path, config, steps)
        if isinstance(got, Path):
            got = got, got.levels  # the derived trace against the one the loop kept
        assert got == want, steps
        results[Path if isinstance(want[0], Path) else want[0]] += 1
    assert results[Path] and results[IllegalStep], results
