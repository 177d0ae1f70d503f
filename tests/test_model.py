
import copy
import itertools
import pathlib
import pickle
import subprocess
import sys

import jsonschema
import pytest

from catwalk.brute import enumerate_red
from catwalk.dp import Check

from catwalk.model import (
    CatastropheRule,
    ConfigError,
    DYCK,
    DYCK_CAT,
    ForbiddenAdjacency,
    IllegalCatastrophe,
    IllegalStep,
    LayerTag,
    ModelConfig,
    NegativeLevel,
    PRESETS,
    Path,
    PathError,
    SKEW,
    SKEW_CAT,
    STEP_NAMES,
    STEP_ORDER,
    normalize_final,
    parse_integer,
    parse_natural,
    parse_steps,
    preset,
    validate_path,
    with_rule,
)

from catwalk.sampler import SamplerSpec, sample

from conftest import load_schema

U, D, R, C = "UDRC"


def test_presets_shape():
    assert DYCK.steps == {U, D}
    assert DYCK.catastrophe.kind == "none"
    assert DYCK_CAT.steps == {U, D, C}
    assert DYCK_CAT.catastrophe == CatastropheRule.min_level(2)
    assert SKEW.forbidden_pairs == {(U, R), (R, U)}
    assert SKEW_CAT.steps == {U, D, R, C}
    assert set(PRESETS) == {"dyck", "dyck-cat", "skew", "skew-cat"}
    # the letters and letter pairs build a preset as the paper writes it
    built = ModelConfig("UDRC", ("UR", "RU"), CatastropheRule.min_level(2))
    assert built == SKEW_CAT and hash(built) == hash(SKEW_CAT)
    assert repr(built) == repr(SKEW_CAT) and built.to_json() == SKEW_CAT.to_json()


def test_preset_lookup():
    assert preset("skew-cat") is SKEW_CAT
    assert preset("skew_cat") is SKEW_CAT
    assert preset("DYCK") is DYCK
    with pytest.raises(ConfigError):
        preset("motzkin")


def test_catastrophe_rules():
    none = CatastropheRule.none()
    assert not any(none.allows(k) for k in range(6))
    m2 = CatastropheRule.min_level(2)
    assert [m2.allows(k) for k in range(5)] == [False, False, True, True, True]
    e2 = CatastropheRule.even_min(2)
    assert [e2.allows(k) for k in range(7)] == [False, False, True, False, True, False, True]
    pick = CatastropheRule.explicit([2, 5])
    assert pick.allows(2) and pick.allows(5)
    assert not pick.allows(3) and not pick.allows(0)


@pytest.mark.parametrize(
    "rule",
    [
        CatastropheRule.none(),
        CatastropheRule.min_level(1),
        CatastropheRule.min_level(3),
        CatastropheRule.even_min(1),
        CatastropheRule.even_min(2),
        CatastropheRule.even_min(3),
        CatastropheRule.explicit({1}),
        CatastropheRule.explicit({3, 5}),
        CatastropheRule.explicit(()),
    ],
    ids=["none", "min1", "min3", "even1", "even2", "even3", "at1", "at3-5", "at-none"],
)
def test_allows_agrees_with_firing(rule):
    # brute force asks allows() level by level; the kernel reads firing()
    firing = set(rule.firing(40))
    assert [rule.allows(lv) for lv in range(41)] == [lv in firing for lv in range(41)]
    # ascending, because the draws walk catastrophe sources from the lowest level up
    for top in range(41):
        assert list(rule.firing(top)) == [lv for lv in range(1, top + 1) if rule.allows(lv)]


def test_rule_validation():
    with pytest.raises(ConfigError):
        CatastropheRule.min_level(0)
    with pytest.raises(ConfigError):
        CatastropheRule.even_min(-1)
    with pytest.raises(ConfigError):
        CatastropheRule.explicit([0, 2])
    with pytest.raises(ConfigError):
        CatastropheRule("sometimes")


def test_config_rejects_catastrophe_first_pairs():
    with pytest.raises(ConfigError):
        ModelConfig(frozenset({U, D, C}), frozenset({(C, U)}), CatastropheRule.min_level(2))


def test_config_rejects_non_steps():
    with pytest.raises(ConfigError):
        ModelConfig(frozenset({"up"}), frozenset())
    with pytest.raises(ConfigError):
        ModelConfig(frozenset({U}), frozenset({(U,)}))
    # a step is one letter of U, D, R, C, and a pair two of them, C not first
    for steps, pairs in (("UDX", ()), ("up", ()), ("UDR", ("URD",)), ("UDC", [("C", "U")])):
        with pytest.raises(ConfigError):
            ModelConfig(steps, pairs)


def test_validate_good_path():
    p = validate_path(SKEW_CAT, parse_steps("UUUUDRC"))
    assert p.levels == (0, 1, 2, 3, 4, 3, 2, 0)
    assert str(p) == "UUUUDRC"


def test_validate_good_path_with_repeated_catastrophes():
    p = validate_path(DYCK_CAT, parse_steps("UUCUUC"))
    assert p.levels == (0, 1, 2, 0, 1, 2, 0)
    assert p.final_level == 0


def test_validate_errors_carry_index():
    with pytest.raises(IllegalStep) as exc:
        validate_path(DYCK, "UUR")
    assert exc.value.index == 2
    with pytest.raises(NegativeLevel) as exc:
        validate_path(DYCK, "D")
    assert exc.value.index == 0
    with pytest.raises(ForbiddenAdjacency) as exc:
        validate_path(SKEW, "UURD")
    assert exc.value.index == 2
    with pytest.raises(IllegalCatastrophe) as exc:
        validate_path(DYCK_CAT, "UC")
    assert exc.value.index == 1


def test_validate_takes_one_spelling_a_word():
    # a path's steps are one str of letters; letters in a tuple or a list
    # are not a word, and a lower-case letter is not a step letter
    assert isinstance(validate_path(DYCK, "UD").steps, str)
    for steps in ((U, D), [U, D], iter("UD")):
        with pytest.raises(IllegalStep) as exc:
            validate_path(DYCK, steps)
        assert exc.value.index == 0
    with pytest.raises(IllegalStep, match="step 1: not a step letter: 'd'") as exc:
        validate_path(DYCK, "Ud")
    assert exc.value.index == 1


def test_validation_table_is_not_a_config_field():
    # ==, hash, repr and to_json read the fields alone
    assert ModelConfig._fields == ("steps", "forbidden_pairs", "catastrophe")


def test_every_path_source_gives_words():
    # enumeration, draws and validation hold a path's steps as one str,
    # which is what the path prints as
    paths = [
        *enumerate_red(SKEW_CAT, 5),
        *sample(SamplerSpec(SKEW_CAT, 9, "open", 3), 5),
        validate_path(SKEW_CAT, "UUC"),
    ]
    assert all(type(p.steps) is str and str(p) is p.steps for p in paths)
    assert paths[-1].to_json() == ["up", "up", "catastrophe"]


def test_red_after_down_is_fine():
    validate_path(SKEW, "UUDR")
    for steps in ("UR", "UURU"):
        with pytest.raises(ForbiddenAdjacency):
            validate_path(SKEW, steps)


def test_path_properties():
    empty = validate_path(DYCK, "")
    assert empty.final_level == 0 and empty.levels == (0,)
    assert empty.final_layer == LayerTag.F
    assert len(empty) == 0

    p = validate_path(SKEW, parse_steps("UUDR"))
    assert p.final_level == 0
    assert p.final_layer == LayerTag.H
    after_cat = validate_path(SKEW_CAT, parse_steps("UUC"))
    assert after_cat.final_layer == LayerTag.F
    assert validate_path(DYCK, "UD").final_layer == LayerTag.G


def test_path_has_slots_and_value_semantics():
    p = validate_path(SKEW_CAT, parse_steps("UUUDRDUUC"))
    q = validate_path(SKEW_CAT, parse_steps("uuudrduuc"))
    assert not hasattr(p, "__dict__")
    assert p == q and p is not q and hash(p) == hash(q)
    assert len({p, q, validate_path(SKEW_CAT, parse_steps("UUUDRDUUD"))}) == 2
    assert p != validate_path(DYCK_CAT, parse_steps("UUDDUUC"))
    # the model is not part of the path: equal steps are equal paths
    assert validate_path(DYCK, "UD") == validate_path(DYCK_CAT, "UD")
    with pytest.raises(AttributeError):
        p.steps = ""
    # _replace builds through the class, whose len() counts steps, not fields
    assert p._replace(final_level=0) == Path(p.steps, 0) and len(p) == 9


def test_level_trace():
    assert validate_path(DYCK_CAT, parse_steps("UUCU")).levels == (0, 1, 2, 0, 1)


def test_path_stores_steps_and_end_level_only():
    # the level trace is derived from the steps, not held beside them
    assert Path._fields == ("steps", "final_level")


def test_parse_steps():
    assert parse_steps(" udrc\n") == "UDRC"
    assert parse_steps("") == ""
    with pytest.raises(ValueError, match=r"character 1 \('X'\) is not one of U, D, R, C"):
        parse_steps("UXD")
    assert "".join(STEP_NAMES) == STEP_ORDER == "UDRC"


def test_normalize_final():
    assert normalize_final(None) is None
    assert normalize_final("open") is None
    assert normalize_final("closed") == 0
    assert normalize_final(0) == 0
    assert normalize_final(3) == 3
    assert normalize_final(7) == 7
    with pytest.raises(ValueError):
        normalize_final(-1)
    with pytest.raises(ValueError):
        normalize_final("sideways")


def test_parse_natural_reads_ascii_digits():
    assert [parse_natural(t) for t in ("0", "7", "007", "1000")] == [0, 7, 7, 1000]


# int() reads all of these but the empty string: an underscore, signs,
# spaces, ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT ZERO, DEVANAGARI DIGIT FOUR
NOT_NATURAL = ["1_0", "+4", "-3", " 4", "4\n", "\u0663", "\uff10", "\u096a", ""]


@pytest.mark.parametrize("text", NOT_NATURAL, ids=ascii)
def test_parse_natural_refuses_what_only_int_reads(text):
    with pytest.raises(ValueError, match="is not an integer >= 0 in the digits 0-9"):
        parse_natural(text)


def test_parse_integer_reads_a_minus_and_ascii_digits():
    texts = ("0", "-0", "7", "-7", "007", "-007", "-1000")
    assert [parse_integer(t) for t in texts] == [0, 0, 7, -7, 7, -7, -1000]


@pytest.mark.parametrize(
    "text", [t for t in NOT_NATURAL if t != "-3"] + ["--3", "-", "- 3", "-+3", "+-3"], ids=ascii
)
def test_parse_integer_refuses_what_only_int_reads(text):
    with pytest.raises(ValueError, match="is not an integer in the digits 0-9"):
        parse_integer(text)


@pytest.mark.parametrize(
    "final", [True, False, 2.5, "all", "any", "*", "4", "\u0663", " closed", "Open", [0]]
)
def test_normalize_final_takes_one_spelling_per_end_condition(final):
    # "\u0663" is ARABIC-INDIC DIGIT THREE, which str.isdigit accepts
    with pytest.raises(ValueError, match="cannot interpret end condition"):
        normalize_final(final)


def test_json_round_trip_all_presets():
    for config in PRESETS.values():
        again = ModelConfig.loads(config.dumps())
        assert again == config


def test_json_is_canonical_and_valid():
    data = SKEW_CAT.to_json()
    assert data["steps"] == ["up", "down_black", "down_red", "catastrophe"]
    assert data["catastrophe"] == {"kind": "min_level", "k": 2}
    schema = load_schema("model_config")
    for config in PRESETS.values():
        jsonschema.validate(config.to_json(), schema)
    even = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    jsonschema.validate(even.to_json(), schema)
    pick = with_rule(DYCK_CAT, CatastropheRule.explicit([2, 4]))
    jsonschema.validate(pick.to_json(), schema)


def test_schemas_name_the_steps_as_the_model_does():
    names = [STEP_NAMES[s] for s in STEP_ORDER]
    assert load_schema("model_config")["$defs"]["step"]["enum"] == names
    paths = load_schema("paths_result")["properties"]["paths"]["items"]
    assert paths["items"]["enum"] == names
    assert load_schema("sample_result")["items"]["items"]["enum"] == names


def test_catastrophe_first_pair_fails_schema_and_loader():
    data = {**SKEW_CAT.to_json(), "forbidden_pairs": [["catastrophe", "down_red"]]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, load_schema("model_config"))
    with pytest.raises(ConfigError, match="starting with a catastrophe"):
        ModelConfig.from_json(data)
    # a catastrophe second is a pair both accept
    data["forbidden_pairs"] = [["down_red", "catastrophe"]]
    jsonschema.validate(data, load_schema("model_config"))
    assert ModelConfig.from_json(data).forbidden_pairs == {(R, C)}


def test_integral_float_threshold_passes_schema_but_not_loader():
    # JSON Schema counts 2.0 as an integer; the schema's description says so
    data = {**SKEW_CAT.to_json(), "catastrophe": {"kind": "min_level", "k": 2.0}}
    jsonschema.validate(data, load_schema("model_config"))
    with pytest.raises(ConfigError, match="integer"):
        ModelConfig.from_json(data)


def test_from_json_malformed():
    with pytest.raises(ConfigError):
        ModelConfig.from_json({"steps": ["up"]})
    with pytest.raises(ConfigError, match="unknown step 'sideways'; choose from up, "):
        ModelConfig.from_json(
            {"steps": ["sideways"], "forbidden_pairs": [], "catastrophe": {"kind": "none"}}
        )
    with pytest.raises(ConfigError):
        ModelConfig.loads('{"steps": []}')
    # the schema's rule object, integer thresholds and two-step pairs
    base = SKEW_CAT.to_json()
    with pytest.raises(ConfigError):
        ModelConfig.from_json({**base, "catastrophe": 5})
    for rule in (
        {"kind": "min_level", "k": 2.5},
        {"kind": "even_min", "k": True},
        {"kind": "levels", "levels": [2.0]},
    ):
        with pytest.raises(ConfigError, match="integer"):
            ModelConfig.from_json({**base, "catastrophe": rule})
    for pairs in ([["up"]], [["up", "down_red", "up"]], ["ud"], {}, ""):
        with pytest.raises(ConfigError, match="forbidden_pairs"):
            ModelConfig.from_json({**base, "forbidden_pairs": pairs})
    # no key the schema does not name, no repeated step or level
    for data, named in (
        ({**base, "extra": 1}, "extra"),
        ({**base, "catastrophe": {"kind": "min_level", "k": 2, "junk": 0}}, "junk"),
        ({**base, "catastrophe": {"kind": "none", "k": 2}}, "k"),
        ({**base, "steps": ["up", "down_black", "up"]}, "steps"),
        ({**base, "steps": ""}, "steps"),
        ({**base, "catastrophe": {"kind": "levels", "levels": [2, 3, 2]}}, "levels"),
    ):
        with pytest.raises(ConfigError, match=named):
            ModelConfig.from_json(data)


def test_with_rule_replaces_only_rule():
    even = with_rule(SKEW_CAT, CatastropheRule.even_min(2))
    assert even.steps == SKEW_CAT.steps
    assert even.forbidden_pairs == SKEW_CAT.forbidden_pairs
    assert even.catastrophe.kind == "even_min"
    assert SKEW_CAT.catastrophe.kind == "min_level"


def _outcome(config, steps):
    try:
        return validate_path(config, steps)
    except PathError as exc:
        return type(exc), exc.index


def test_every_route_to_a_config_validates():
    # a namedtuple's _make and _replace skip __new__ unless the class routes them
    with pytest.raises(ConfigError):
        CatastropheRule._make(["bogus", 0, frozenset()])
    for bad in ({"kind": "min_level", "k": 0}, {"kind": "bogus"}, {"kind": "levels", "levels": [0]}):
        with pytest.raises(ConfigError):
            CatastropheRule(**bad)
        with pytest.raises(ConfigError):
            CatastropheRule.min_level(2)._replace(**bad)
        with pytest.raises(ConfigError):
            ModelConfig.from_json({**SKEW_CAT.to_json(), "catastrophe": bad})
    cat_first = {(C, U)}
    with pytest.raises(ConfigError):
        ModelConfig(SKEW_CAT.steps, cat_first)
    with pytest.raises(ConfigError):
        SKEW_CAT._replace(forbidden_pairs=cat_first)
    with pytest.raises(ConfigError):
        ModelConfig._make([SKEW_CAT.steps, cat_first, SKEW_CAT.catastrophe])

    rule = CatastropheRule.none()._replace(kind="levels", levels=[4, 2])
    assert rule == CatastropheRule.explicit({2, 4}) and list(rule.firing(3)) == [2]
    routes = [
        ModelConfig(SKEW_CAT.steps, SKEW_CAT.forbidden_pairs, rule),
        with_rule(SKEW_CAT, rule),
        ModelConfig.from_json({**SKEW_CAT.to_json(), "catastrophe": rule.to_json()}),
        SKEW_CAT._replace(catastrophe=rule),
        ModelConfig._make([SKEW_CAT.steps, SKEW_CAT.forbidden_pairs, rule]),
    ]
    words = ["".join(w) for n in range(6) for w in itertools.product("UDRC", repeat=n)]
    first = routes[0]
    assert all(config == first and config._follows == first._follows for config in routes)
    outcomes = [_outcome(first, w) for w in words]
    assert sum(isinstance(o, Path) for o in outcomes) > 30
    for config in routes[1:]:
        assert [_outcome(config, w) for w in words] == outcomes


@pytest.mark.parametrize(
    "value",
    [
        CatastropheRule.explicit({3, 5}),
        SKEW_CAT,
        validate_path(SKEW, parse_steps("UUDR")),
        SamplerSpec(DYCK_CAT, 6, "closed", 7),
        Check("oracle-skew", True, "enumeration matches table for n <= 4"),
    ],
    ids=lambda v: type(v).__name__,
)
def test_value_types_are_their_field_tuples(value):
    fields = tuple(getattr(value, name) for name in value._fields)
    assert value == fields and hash(value) == hash(fields)
    assert value == type(value)(*fields)
    shown = ", ".join(f"{name}={v!r}" for name, v in zip(value._fields, fields))
    assert repr(value) == f"{type(value).__name__}({shown})"


IMMUTABLE = {
    "preset": SKEW_CAT,
    "built-config": ModelConfig({U, D, R, C}, {(R, U)}, CatastropheRule.explicit({4, 2})),
    "replaced-config": DYCK_CAT._replace(catastrophe=CatastropheRule.even_min(1)),
    "preset-rule": SKEW_CAT.catastrophe,
    "built-rule": CatastropheRule.explicit({4, 2}),
    "none-rule": CatastropheRule.none(),
}


@pytest.mark.parametrize("value", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_rules_and_configs_refuse_every_attribute_change(value):
    # a preset is shared by every caller in the process, so nothing may be
    # added to one, and neither a field nor the table __new__ derives changes
    before = (repr(value), hash(value), dict(vars(value)))
    for name in ("foo", "_follows", *value._fields):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "foo")
    assert (repr(value), hash(value), dict(vars(value))) == before


@pytest.mark.parametrize("value", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_rules_and_configs_survive_copy_pickle_and_replace(value):
    fields = tuple(value)
    copies = [copy.copy(value), copy.deepcopy(value), value._replace()]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(6)]
    for other in copies:
        assert type(other) is type(value) and other == value == fields
        assert hash(other) == hash(value) == hash(fields) and vars(other) == vars(value)
        # a frozenset's repr follows its insertion history, so the copy's own fields
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(other._fields, other))
        assert repr(other) == f"{type(value).__name__}({shown})"
    if isinstance(value, ModelConfig):
        path = parse_steps("UUDRUC")
        assert all(_outcome(other, path) == _outcome(value, path) for other in copies)
    else:
        assert all(list(other.firing(6)) == list(value.firing(6)) for other in copies)


REPR_OF_COPIES = """
import copy, pickle
from catwalk.model import PRESETS
for name, config in PRESETS.items():
    copies = (copy.copy(config), copy.deepcopy(config), config._replace())
    for other in (*copies, pickle.loads(pickle.dumps(config))):
        assert repr(other) == repr(config), name
"""


@pytest.mark.parametrize("hash_seed", range(8))
def test_equal_configs_print_alike(hash_seed):
    # which copies of a preset printed differently varied with the hash seed
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(src), "PYTHONHASHSEED": str(hash_seed)}
    done = subprocess.run(
        [sys.executable, "-B", "-c", REPR_OF_COPIES],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


FIRST_BAD_ITEM = """
from catwalk.model import ConfigError, ModelConfig
for steps, pairs in (("up", ()), ("UD", ("Ux", "Uy", "UD"))):
    try:
        ModelConfig(steps, pairs)
    except ConfigError as exc:
        print(exc)
"""


def test_config_errors_name_the_first_bad_item_under_any_hash_seed():
    # the steps and pairs are checked in the order given, not a set's order
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    for hash_seed in (1, 3):  # a set yields p and (U, y) first under seed 3
        env = {"PYTHONPATH": str(src), "PYTHONHASHSEED": str(hash_seed)}
        done = subprocess.run(
            [sys.executable, "-B", "-c", FIRST_BAD_ITEM],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "not a step letter: 'u'",
            "forbidden pair must be two step letters, got ('U', 'x')",
        ]


def test_pairs_naming_a_missing_step_are_dropped():
    # like a rule without the catastrophe step, such a pair changes no path
    assert ModelConfig("UD", ("UR",)) == DYCK
    assert ModelConfig("UDC", ("UR", "RC", "DU"), SKEW_CAT.catastrophe).forbidden_pairs == {(D, U)}
    data = {"steps": ["up", "down_black"], "forbidden_pairs": [["up", "down_red"]]}
    loaded = ModelConfig.from_json({**data, "catastrophe": {"kind": "none"}})
    assert loaded == DYCK and loaded.to_json() == DYCK.to_json()
    assert ModelConfig.from_json(loaded.to_json()) == loaded
    # a pair the model could never represent is still refused
    with pytest.raises(ConfigError, match="starting with a catastrophe"):
        ModelConfig("UD", ("CU",))


def test_rule_repr_is_the_field_repr():
    shown = "CatastropheRule(kind='min_level', k=2, levels=frozenset())"
    assert repr(CatastropheRule.min_level(2)) == shown


def test_rules_that_fire_the_same_levels_are_equal():
    # a field the rule's kind does not read cannot tell two rules apart
    for spelled, canonical in (
        (CatastropheRule("min_level", 2, frozenset({5})), CatastropheRule.min_level(2)),
        (CatastropheRule("even_min", 3, {4}), CatastropheRule.even_min(3)),
        (CatastropheRule("none", 3), CatastropheRule.none()),
        (CatastropheRule("none", 0, {1, 2}), CatastropheRule.none()),
        (CatastropheRule("levels", 7, {3, 5}), CatastropheRule.explicit({3, 5})),
    ):
        assert spelled == canonical and hash(spelled) == hash(canonical)
        assert spelled.to_json() == canonical.to_json()
        assert list(spelled.firing(9)) == list(canonical.firing(9))
        ruled, preset_ruled = with_rule(SKEW_CAT, spelled), with_rule(SKEW_CAT, canonical)
        assert ruled == preset_ruled and hash(ruled) == hash(preset_ruled)


def test_rule_without_catastrophe_step_is_canonical():
    # a model without the catastrophe step holds rule "none", however built
    for config in (DYCK, SKEW):
        for rule in (
            CatastropheRule.min_level(2),
            CatastropheRule.even_min(1),
            CatastropheRule.explicit({3, 5}),
        ):
            ruled = with_rule(config, rule)
            assert ruled == config and hash(ruled) == hash(config)
            assert ruled.catastrophe == CatastropheRule.none()
            data = {**config.to_json(), "catastrophe": rule.to_json()}
            loaded = ModelConfig.from_json(data)
            assert loaded == config
            assert loaded.to_json() == config.to_json()
            assert ModelConfig.loads(loaded.dumps()) == config
    # with the step, the rule stays
    assert with_rule(SKEW_CAT, CatastropheRule.min_level(3)) != SKEW_CAT
