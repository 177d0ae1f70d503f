import pytest

from catwalk.automaton import State, build
from catwalk.model import (
    CatastropheRule,
    DYCK,
    DYCK_CAT,
    LayerTag,
    SKEW,
    SKEW_CAT,
    StepKind,
    with_rule,
)

F, G, H = LayerTag.F, LayerTag.G, LayerTag.H
U, D, R, C = StepKind.UP, StepKind.DOWN_BLACK, StepKind.DOWN_RED, StepKind.CATASTROPHE


def succ(auto, layer, level):
    return auto.successors(State(layer, level))


def test_start_state():
    auto = build(DYCK, 4)
    assert auto.start == State(F, 0)


def test_dyck_transitions():
    auto = build(DYCK, 5)
    assert succ(auto, F, 2) == ((U, State(F, 3)), (D, State(G, 1)))
    assert succ(auto, G, 2) == ((U, State(F, 3)), (D, State(G, 1)))
    assert succ(auto, F, 0) == ((U, State(F, 1)),)
    # no up-step past the truncation level
    assert succ(auto, F, 5) == ((D, State(G, 4)),)


def test_dyck_h_states_exist_but_are_unreachable():
    auto = build(DYCK, 4)
    assert State(H, 2) in auto.transitions
    targets = {tgt for moves in auto.transitions.values() for _, tgt in moves}
    assert all(st.layer is not H for st in targets)
    assert State(F, 1) in targets and State(G, 0) in targets
    # nothing lands on the top G level: a down-step onto it would start
    # above the truncation
    assert State(G, 4) not in targets
    assert State(G, 3) in targets


def test_skew_adjacency_rules_in_transitions():
    auto = build(SKEW, 5)
    # after an up-step: no red down
    assert succ(auto, F, 2) == ((U, State(F, 3)), (D, State(G, 1)))
    # after a black down-step: everything
    assert succ(auto, G, 2) == (
        (U, State(F, 3)),
        (D, State(G, 1)),
        (R, State(H, 1)),
    )
    # after a red down-step: no up
    assert succ(auto, H, 2) == ((D, State(G, 1)), (R, State(H, 1)))


def test_skew_cat_transitions():
    auto = build(SKEW_CAT, 5)
    assert succ(auto, F, 2) == (
        (U, State(F, 3)),
        (D, State(G, 1)),
        (C, State(F, 0)),
    )
    assert succ(auto, G, 2) == (
        (U, State(F, 3)),
        (D, State(G, 1)),
        (R, State(H, 1)),
        (C, State(F, 0)),
    )
    assert succ(auto, H, 2) == (
        (D, State(G, 1)),
        (R, State(H, 1)),
        (C, State(F, 0)),
    )
    # below the threshold no catastrophe
    assert succ(auto, F, 1) == ((U, State(F, 2)), (D, State(G, 0)))
    assert succ(auto, F, 0) == ((U, State(F, 1)),)


def test_even_rule_transitions():
    auto = build(with_rule(DYCK_CAT, CatastropheRule.even_min(2)), 6)
    assert (C, State(F, 0)) not in succ(auto, F, 3)
    assert (C, State(F, 0)) in succ(auto, F, 4)
    assert (C, State(F, 0)) in succ(auto, G, 6)
    assert (C, State(F, 0)) not in succ(auto, G, 1)


def test_negative_max_level_rejected():
    with pytest.raises(ValueError):
        build(DYCK, -1)


def test_max_level_zero():
    auto = build(DYCK_CAT, 0)
    assert succ(auto, F, 0) == ()
