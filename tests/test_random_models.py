"""Seeded random models: brute force, the DP and the sampler agree.

The models draw random step subsets, forbidden pairs (never one that starts
with a catastrophe) and catastrophe rules, plus two fixed corner cases: a
catastrophe step without a rule that lets it fire, and a rule without the
catastrophe step (which the model holds in its canonical form, rule "none").
Each model also survives a JSON round trip, and a few are counted through
``catwalk count --config``.  Random catastrophe rules on the catastrophe
presets keep the recurrences that ``dp.verify_recurrences`` checks, and a
model outside the preset adjacency rules fails them.  On these models and
the presets, the sampler's backward step and ``validate_path`` are checked
against references written out here from the model's rules.
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
    StepKind,
    validate_path,
    with_rule,
)
from catwalk.sampler import EmptyEnsemble, Sampler

U, D, R, C = STEP_ORDER
N_MAX = 9


def random_rule(rng: random.Random) -> CatastropheRule:
    kind = rng.choice(["none", "min_level", "even_min", "levels"])
    if kind == "none":
        return CatastropheRule.none()
    if kind == "levels":
        return CatastropheRule.explicit(rng.sample(range(1, N_MAX + 1), rng.randint(1, 3)))
    return CatastropheRule(kind, k=rng.randint(1, 4))


def random_model(rng: random.Random) -> ModelConfig:
    steps = {s for s in STEP_ORDER if rng.random() < (0.9 if s is U else 0.7)}
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
        report = dp.verify_recurrences(with_rule(base, rule), 40)
        assert report.ok, (base, rule, [c.detail for c in report.failures()])


def test_recurrences_fail_outside_the_preset_rules():
    # model 41 forbids RU but not UR, so red steps follow up-steps
    report = dp.verify_recurrences(MODELS[41], 40)
    assert [(c.name, c.detail) for c in report.failures()] == [
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
                if s is U:
                    into = (0, i + 1)
                elif s is C:
                    if not config.catastrophe.allows(i):
                        continue
                    into = (0, 0)
                elif i:
                    into = (LAYER_ORDER.index(ENTRY_LAYER[s]), i - 1)
                else:
                    continue
                moves.setdefault(into, Counter())[(s, j, i)] += paths
    return moves


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
                    *move, rank = step.predecessor(prev, layer, level, x)
                    ranks.setdefault(tuple(move), []).append(rank)
                assert Counter({m: len(r) for m, r in ranks.items()}) == moves.get(
                    (layer, level), Counter()
                ), (t, layer, level)
                for (_, j, i), r in ranks.items():
                    assert r == list(range(prev[j][i])), (t, layer, level, j, i)
                with pytest.raises(RuntimeError):
                    step.predecessor(prev, layer, level, paths)


def reference_validate(config: ModelConfig, steps) -> tuple:
    """``validate_path`` as a plain loop testing each rule in turn: the Path,
    and the level trace the loop kept (the level before each step, then the
    final level)."""
    level = 0
    levels = [0]
    prev = None
    for i, s in enumerate(steps):
        if not isinstance(s, StepKind):
            raise IllegalStep(f"not a step kind: {s!r}", i)
        if s not in config.steps:
            raise IllegalStep(f"{s.value} is not in this model", i)
        if prev is not None and (prev, s) in config.forbidden_pairs:
            raise ForbiddenAdjacency(f"{prev.value} may not be followed by {s.value}", i)
        if s is StepKind.UP:
            level += 1
        elif s in (StepKind.DOWN_BLACK, StepKind.DOWN_RED):
            if level == 0:
                raise NegativeLevel(f"{s.value} from level 0", i)
            level -= 1
        else:
            if not config.catastrophe.allows(level):
                raise IllegalCatastrophe(f"catastrophe from level {level} is not allowed here", i)
            level = 0
        levels.append(level)
        prev = s
    return Path(config, tuple(steps), level), tuple(levels)


def outcome(validate, config: ModelConfig, steps):
    """What ``validate`` returns, or the class, index and message of the
    PathError raised."""
    try:
        return validate(config, steps)
    except PathError as exc:
        return type(exc), exc.index, str(exc)


# entries that are not step kinds: a value string, None, an int, an unhashable list
JUNK = ["up", None, 1, [StepKind.UP]]


def step_sequences(config: ModelConfig, rng: random.Random, count: int):
    """Seeded step lists: legal walks, some with one entry replaced or
    appended, and lists drawn freely from the step kinds."""
    entries = [*STEP_ORDER, *JUNK]
    for _ in range(count):
        n = rng.randint(0, 12)
        if rng.random() < 0.3:
            yield [rng.choice(STEP_ORDER) for _ in range(n)]
            continue
        seq: list = []
        for _ in range(n):
            legal = [
                s for s in STEP_ORDER
                if isinstance(outcome(reference_validate, config, seq + [s])[0], Path)
            ]
            if not legal:
                break
            seq.append(rng.choice(legal))
        if rng.random() < 0.6:
            k = rng.randint(0, len(seq))
            seq[k : k + 1] = [rng.choice(entries)]
        yield seq


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
