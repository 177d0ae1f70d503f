import jsonschema
import pytest

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
    SKEW,
    SKEW_CAT,
    StepKind,
    normalize_final,
    parse_steps,
    preset,
    step_char,
    validate_path,
    with_rule,
)

from conftest import load_schema

U, D, R, C = StepKind.UP, StepKind.DOWN_BLACK, StepKind.DOWN_RED, StepKind.CATASTROPHE


def test_presets_shape():
    assert DYCK.steps == {U, D}
    assert DYCK.catastrophe.kind == "none"
    assert DYCK_CAT.steps == {U, D, C}
    assert DYCK_CAT.catastrophe == CatastropheRule.min_level(2)
    assert SKEW.forbidden_pairs == {(U, R), (R, U)}
    assert SKEW_CAT.steps == {U, D, R, C}
    assert set(PRESETS) == {"dyck", "dyck-cat", "skew", "skew-cat"}


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


def test_validate_good_path():
    p = validate_path(SKEW_CAT, parse_steps("UUUUDRC"))
    assert p.levels == (0, 1, 2, 3, 4, 3, 2, 0)
    assert str(p) == "UUUUDRC"


def test_validate_good_path_with_repeated_catastrophes():
    p = validate_path(DYCK_CAT, parse_steps("UUCUUC"))
    assert p.levels == (0, 1, 2, 0, 1, 2, 0)
    assert p.is_closed


def test_validate_errors_carry_index():
    with pytest.raises(IllegalStep) as exc:
        validate_path(DYCK, [U, U, R])
    assert exc.value.index == 2
    with pytest.raises(NegativeLevel) as exc:
        validate_path(DYCK, [D])
    assert exc.value.index == 0
    with pytest.raises(ForbiddenAdjacency) as exc:
        validate_path(SKEW, [U, U, R, D])
    assert exc.value.index == 2
    with pytest.raises(IllegalCatastrophe) as exc:
        validate_path(DYCK_CAT, [U, C])
    assert exc.value.index == 1


def test_red_after_down_is_fine():
    validate_path(SKEW, [U, U, D, R])
    for steps in ([U, R], [U, U, R, U]):
        with pytest.raises(ForbiddenAdjacency):
            validate_path(SKEW, steps)


def test_path_properties():
    empty = validate_path(DYCK, [])
    assert empty.final_level == 0 and empty.is_closed
    assert empty.final_layer is LayerTag.F
    assert len(empty) == 0

    p = validate_path(SKEW, parse_steps("UUDR"))
    assert p.final_level == 0
    assert p.final_layer is LayerTag.H
    after_cat = validate_path(SKEW_CAT, parse_steps("UUC"))
    assert after_cat.final_layer is LayerTag.F
    assert validate_path(DYCK, [U, D]).final_layer is LayerTag.G


def test_level_trace():
    assert validate_path(DYCK_CAT, parse_steps("UUCU")).levels == (0, 1, 2, 0, 1)


def test_parse_steps():
    assert parse_steps("udrc") == (U, D, R, C)
    assert parse_steps("") == ()
    with pytest.raises(ValueError):
        parse_steps("UXD")
    assert "".join(step_char(s) for s in (U, D, R, C)) == "UDRC"


def test_normalize_final():
    assert normalize_final(None) is None
    assert normalize_final("all") is None
    assert normalize_final("open") is None
    assert normalize_final("closed") == 0
    assert normalize_final(3) == 3
    assert normalize_final("4") == 4
    with pytest.raises(ValueError):
        normalize_final(-1)
    with pytest.raises(ValueError):
        normalize_final("sideways")


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


def test_from_json_malformed():
    with pytest.raises(ConfigError):
        ModelConfig.from_json({"steps": ["up"]})
    with pytest.raises(ConfigError):
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
