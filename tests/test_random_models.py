"""Seeded random models: brute force, the DP and the sampler agree.

The models draw random step subsets, forbidden pairs (never one that starts
with a catastrophe) and catastrophe rules, plus two fixed corner cases: a
catastrophe step without a rule that lets it fire, and a rule without the
catastrophe step (which the model holds in its canonical form, rule "none").
Each model also survives a JSON round trip, and a few are counted through
``catwalk count --config``.
"""

import json
import random

import pytest

from catwalk import brute, cli, dp
from catwalk.automaton import State
from catwalk.model import STEP_ORDER, CatastropheRule, ModelConfig, StepKind
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
            want = table.open_count(n) if final is None else table.level_count(n, final)
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
