import pathlib
import random
import shlex
import sys
from collections import Counter

import pytest

from catwalk import brute, cli, dp, sampler
from catwalk.model import DYCK, DYCK_CAT, PRESETS, SKEW, SKEW_CAT
from catwalk.sampler import EmptyEnsemble, Sampler, SamplerSpec, sample

from test_random_models import EVERY_ID, EVERY_MODEL, MODELS, reference_walk

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Seeded draws, recorded again when each draw came to take one rank: a draw
# calls randrange(total) exactly once, the draws of a batch in draw order,
# and unranks that number, so a change to the sampler must keep this order
# of RNG calls, not only the distribution.  Three draws each, at n = 14 for
# the presets; (final, seed) is ("closed", 11), ("open", 12) or (2, 13).
# Random models 4 and 27 forbid UU, so every draw leaves the start by the
# lone up-step out of (F, 0), and in model 27 also every catastrophe.
PINNED_DRAWS = {
    ("dyck", "closed"): ["UUDDUUUDUDDUDD", "UUDUDUDUDUUDDD", "UUUUDUUDDUDDDD"],
    ("dyck", "open"): ["UUDUUDDUUDDUDD", "UDUUUDDUUUDUUU", "UUUDUUDUUUDDDD"],
    ("dyck", 2): ["UUDDUDUDUUUDDU", "UDUUUDUDDUUDDU", "UDUUDUUUUDDDUD"],
    ("dyck-cat", "closed"): ["UUUDUUUUDUDCUD", "UUUDDDUDUUUDDD", "UUCUUDUDUCUDUD"],
    ("dyck-cat", "open"): ["UUDUCUUDUDUUDU", "UDUUDDUUUUUUCU", "UUCUUUCUUCUDUD"],
    ("dyck-cat", 2): ["UDUUUUCUUCUUDU", "UUUUUUUUDCUUDU", "UDUUUUUDDCUDUU"],
    ("skew", "closed"): ["UUUUUUUDDRRRDR", "UUDUUUDRDUUDRR", "UUUUUDUUDRRRDR"],
    ("skew", "open"): ["UDUUDUDDUUDUUD", "UUUUDUUDUUUDDU", "UUUDDUUDUUUUUD"],
    ("skew", 2): ["UUUDUDUDUDDUUD", "UDUUDUDUUDUDUD", "UDUUUUUUDDRDDU"],
    ("skew-cat", "closed"): ["UUDUUDUUDUUUUC", "UUUDUDDDUUDUDR", "UUUCUDUUUUUCUD"],
    ("skew-cat", "open"): ["UDUUDUUUUDRRRD", "UUUUUDDDDUUDDU", "UDUDUUUUUDDUDR"],
    ("skew-cat", 2): ["UUDUUUUDUDDDDU", "UUDDUUUDUCUUUD", "UUUUDUUUDCUUDU"],
    # (model index, final): closed at n = 12, open at n = 11
    (4, "closed"): ["URUDUDURURUR", "URURUDURURUR", "URUDUDURURUR"],
    (4, "open"): ["UDURURURURU", "URUDUDUDURU", "UDURURUDURU"],
    (27, "closed"): ["UCUCUCUCUCUC"] * 3,
    (27, "open"): ["UCUCUCUCUCU"] * 3,
}
SEEDS = {"closed": 11, "open": 12, 2: 13}

# Seeded draws at the sizes of the benchmark's sample commands, keyed by
# (model, n, final, seed): their walks back pass through deep levels and,
# more often than at n = 14, through catastrophes.
PINNED_LONG_DRAWS = {
    ("dyck-cat", 100, "open", 12): [
        "UUUDUUUDUUUDUUDUUDUDCUUUDUUUDUCUUDUUDUDDDUUDDUDUUUDUDUDDUUUUCUUUUDUDDCUUDUUDCUUD"
        "UDUCUUDUCUUUDUUUUUUU",
        "UUUUUCUUDUDUCUUUUDUUUDUUUDDDUUDUUUUCUUCUUCUDUUUUUDUDDUDCUUDUUUDUDUDUDDCUUUUUUDUD"
        "UDDUDUUDDUDDUDUDCUUU",
        "UUDUUCUUUUUDUUUDCUUCUUUUDUDDUDUDUUUDUUDUUUDDUUUCUUCUUUUDUDDCUUUDDUUUDUUDDUUCUUCU"
        "UDUUDDUDDUUUUUUDDDUU",
        "UUUDUUUUDUDDCUDUUUCUUUUDUUDUUUUDDDUUDUUDCUUUDCUUDUDDUUUUUDDDCUUUDDDUUUUUUUUUUDDC"
        "UUCUUUDUDCUUUUDUDUDU",
        "UUUUDDUUUDUDUDCUUUDUDDDUUDDUUCUUUUDUUUUUDCUUDUUUDUUCUDUUUUUUUDDDUDUUUUUUCUUDUUUU"
        "UDUUDCUUUDDUUUUUDDCU",
    ],
    ("skew-cat", 320, "closed", 11): [
        "UUDUUDUUDDCUUDUDDUUUUDDDUUDRDUUUCUDUDUUUUUDUCUUUCUUUUUDUUUUUDDUDUUDDDRDUCUUUUDDU"
        "CUUCUUUUDDUDUCUUUUDUDRDDUUUUDDUUUUUUUUDUUUDDUUUDUDRDRDCUDUUUUUUUDUCUUCUUCUUDUUUU"
        "DRDUUUCUUDUUUUUDDUUUDUDRRRCUDUUDUCUUUUUCUUUCUUDUCUUUDUUDDUUUUUUUDDUUUUUUDUDRRDDD"
        "UUDRRRDRRDUUUDDUUUUUUUDUDDUUCUUUUDDDUDUUUDUUDUUDRCUUUUDUUUDUDUDRDUUUUDRDDRDDUUUC",
        "UDUUUCUUUUDUUUUDUDDDDUDUUUDUDDUDUDRRCUUUUUUUUUUUDRDDUUUDUUUDUDUUUUUDUCUUUDUUCUDU"
        "UDDUDUUDUUDCUUDDUUDDUUUUUDUUDDUDUUUUUCUUUUDDUDDUDUUUUCUDUUUDUDDUUUUUDRDDDUUUDUUD"
        "DRDUUDUUDUUUUUDDDDDDUDUUUUDDDCUUUUDCUUCUUUCUDUUUUUUUUUUDUDRRDDDRCUUUUUUDUUUDUDRR"
        "RRDDUUUUUUDUUDDUDUDDDUUDUUDDRDDUDUUDUDUUUDRRCUUUUUUUDUDUDDRDUUUDUUUDRRRDUUUDRRDC",
        "UUUDDUUUDUDUUUDCUUCUUCUUUUDDDDUUCUUDUUDUUUUUUUDUDDRDDDUUUUUDRRDDUDDUDCUDUUUCUDUU"
        "UDUUUUUUUUUDUUDDUDUUUUDRRRRRDUUDDDRDUUCUUDUUUUDUUUDUDUDUUDRDRDUDDUDRDUUUUUDRDUUU"
        "DRCUUUUUUUUDRDUUDRDUDUUDDRRDDUUDDUDUUDUUUUDUUUUUUUDRDRDUUDRRCUUCUUUUUUDRDDDUDDUU"
        "CUUUDUCUUDUUUUUDDUDUDDRCUUUUCUDUUDUUDUCUUUUDUUUDDUUUUDDDDDRDUUUUUUUDUUDUUDUDRDUC",
    ],
}


def test_determinism():
    spec = SamplerSpec(SKEW_CAT, 9, "closed", seed=7)
    a = sample(spec, 25)
    b = sample(spec, 25)
    assert [str(p) for p in a] == [str(p) for p in b]


def test_different_seeds_diverge():
    a = sample(SamplerSpec(SKEW_CAT, 10, "closed", seed=0), 20)
    b = sample(SamplerSpec(SKEW_CAT, 10, "closed", seed=1), 20)
    assert [str(p) for p in a] != [str(p) for p in b]


def test_draws_satisfy_the_spec():
    spec = SamplerSpec(SKEW_CAT, 8, 2, seed=3)
    for p in sample(spec, 40):
        assert len(p) == 8
        assert p.final_level == 2


def test_total_counts_match_dp():
    for name, config in PRESETS.items():
        table = dp.count_table(config, 9)
        assert Sampler(config, 9, "open").total == table.open_count(9)
        assert Sampler(config, 8, "closed").total == table.closed_count(8)
        assert Sampler(config, 9, 3).total == dp.count(config, 9, 3)


def test_seeded_random_final_levels_match_brute():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randrange(0, 9)
        k = rng.randrange(0, n + 2)
        try:
            total = Sampler(SKEW_CAT, n, k).total
        except EmptyEnsemble:
            total = 0
        assert total == len(brute.enumerate_red(SKEW_CAT, n, k))


def test_empty_ensemble():
    with pytest.raises(EmptyEnsemble):
        sample(SamplerSpec(DYCK, 3, "closed"), 1)
    with pytest.raises(EmptyEnsemble):
        Sampler(DYCK, 2, 5)
    with pytest.raises(EmptyEnsemble):
        Sampler(DYCK_CAT, 1, "closed")
    with pytest.raises(EmptyEnsemble):
        Sampler(SKEW_CAT, 6, 7)


def test_length_zero():
    paths = sample(SamplerSpec(DYCK, 0, "closed"), 3)
    assert [len(p) for p in paths] == [0, 0, 0]
    with pytest.raises(EmptyEnsemble):
        sample(SamplerSpec(DYCK, 0, 1), 1)


def test_uniformity_small_scale():
    # length-4 closed plain-red paths: UUDD, UUDR, UDUD
    spec = SamplerSpec(SKEW, 4, "closed", seed=11)
    assert Sampler(spec.config, spec.n, spec.final).total == 3
    draws = sample(spec, 3000)
    freq: dict = {}
    for p in draws:
        freq[str(p)] = freq.get(str(p), 0) + 1
    assert set(freq) == {"UUDD", "UUDR", "UDUD"}
    for v in freq.values():
        assert 0.28 <= v / 3000 <= 0.39


def test_every_ensemble_member_is_reachable():
    # 10 closed paths of length 6; a modest number of draws must hit all 10
    spec = SamplerSpec(SKEW, 6, "closed", seed=5)
    seen = {str(p) for p in sample(spec, 400)}
    assert seen == {str(p) for p in brute.enumerate_red(SKEW, 6, "closed")}
    # with catastrophes the walk back passes through (F, 0) from several
    # levels; 40 draws per member, each member within about 4 sigma of 40
    for config in (SKEW_CAT, DYCK_CAT):
        for final in ("closed", "open", 2):
            members = {str(p) for p in brute.enumerate_red(config, 6, final)}
            spec = SamplerSpec(config, 6, final, seed=6)
            hits = Counter(str(p) for p in sample(spec, 40 * len(members)))
            assert set(hits) == members
            assert all(15 <= h <= 65 for h in hits.values()), (final, hits)


class OneRank:
    """Stands in for ``random.Random``: answers ``randrange(total)`` with a
    chosen rank x and counts the calls."""

    def __init__(self, total: int, x: int):
        self.total, self.x, self.calls = total, x, 0

    def randrange(self, total: int) -> int:
        assert total == self.total
        self.calls += 1
        return self.x


@pytest.mark.parametrize("config", EVERY_MODEL, ids=EVERY_ID)
def test_draws_unrank_each_ensemble_member_once(config):
    # exact uniformity: one randrange(total) per draw, and the ranks
    # 0..total-1 give every path of the ensemble exactly once; and each
    # rank gives the path the reference walk gives it, the order that
    # seeded draws rest on
    step = dp.Transfer(config)
    for n in range(9):
        for final in ("closed", "open", 2):
            members = sorted(str(p) for p in brute.enumerate_red(config, n, final))
            if not members:
                with pytest.raises(EmptyEnsemble):
                    Sampler(config, n, final)
                continue
            s = Sampler(config, n, final)
            assert s.total == len(members)
            rows = list(step.rows(n))
            drawn = []
            for x in range(s.total):
                rng = OneRank(s.total, x)
                drawn.append(str(s.draw(rng)))
                assert rng.calls == 1
                assert drawn[-1] == "".join(reference_walk(step, rows, s.want, x))
            assert sorted(drawn) == members, (n, final)


def calls_in_one_draw(config, n: int) -> list:
    """The Python functions one open draw at length n enters, in order."""
    s, rng, calls = Sampler(config, n, "open"), random.Random(n), []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        s.draw(rng)
    finally:
        sys.setprofile(before)
    return calls


@pytest.mark.parametrize("config", [DYCK, SKEW], ids=["dyck", "skew"])
def test_a_draw_makes_no_call_per_step(config):
    # the walk back runs inline: as many calls at n = 400 as at n = 50
    assert calls_in_one_draw(config, 400) == calls_in_one_draw(config, 50)


def test_reusable_sampler_object():
    s = Sampler(DYCK_CAT, 7, "open")
    rng = random.Random(0)
    draws = [s.draw(rng) for _ in range(10)]
    assert s.total == dp.count_table(DYCK_CAT, 7).open_count(7)
    assert all(len(p) == 7 for p in draws)


def test_bad_arguments():
    with pytest.raises(ValueError):
        Sampler(DYCK, -1)
    with pytest.raises(ValueError):
        sample(SamplerSpec(DYCK, 2, "open"), -1)


@pytest.mark.parametrize("key", list(PINNED_DRAWS), ids=lambda k: "-".join(map(str, k)))
def test_seeded_draws_are_pinned(key):
    name, final = key
    if name in PRESETS:
        config, n = PRESETS[name], 14
    else:
        config, n = MODELS[name], 12 if final == "closed" else 11
        assert dp.Transfer(config).lift_start
    drawn = sample(SamplerSpec(config, n, final, seed=SEEDS[final]), 3)
    assert [str(p) for p in drawn] == PINNED_DRAWS[key]


@pytest.mark.parametrize("key", list(PINNED_LONG_DRAWS), ids=lambda k: "-".join(map(str, k)))
def test_seeded_draws_at_benchmark_size_are_pinned(key):
    name, n, final, seed = key
    words = PINNED_LONG_DRAWS[key]
    drawn = sample(SamplerSpec(PRESETS[name], n, final, seed=seed), len(words))
    assert [str(p) for p in drawn] == words


def test_pinned_draws_pass_through_catastrophes():
    cat = [key for key, words in PINNED_DRAWS.items() if any("C" in w for w in words)]
    assert {key[0] for key in cat} == {"dyck-cat", "skew-cat", 27}


def test_readme_sample_example_reproduces(capsys):
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("$ catwalk sample "))
    end = lines.index("```", start)
    argv = shlex.split(lines[start])[2:]
    assert "--seed" in argv
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines[start + 1 : end]
