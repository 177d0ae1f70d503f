"""The layered state space of a model and its explicit automaton.

A state is a pair (layer, level), :class:`dp.State`: the level is the
current height, the layer remembers what kind of step got us here
(:class:`model.LayerTag`).  Because the forbidden adjacencies of a model only
ever constrain *consecutive* steps, this one-step memory is enough to decide
which steps may come next, so paths of a model correspond exactly to walks
of this automaton from the start state (F, 0).

``ModelConfig.next_steps`` is that rule.  The level-vector transfer step of
:mod:`catwalk.dp` reads it once per layer; :func:`build` spells it out as an
explicit transition table, truncated at a maximum level.  Walks of length n
never pass level n, so truncating at (or above) n loses no path.

No command imports this module and no counting route walks the table; it
stays because the tests read its transitions and the benchmark's tracer
(``bench/tracer.py``) wraps :func:`build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dp import State
from .model import ENTRY_LAYER, INCOMING, LAYER_ORDER, LayerTag, ModelConfig, StepKind

START = State(LayerTag.F, 0)


@dataclass(frozen=True)
class Automaton:
    """Explicit transition table of a model, truncated at ``max_level``."""

    config: ModelConfig
    max_level: int
    start: State
    transitions: dict = field(compare=False)


def build(config: ModelConfig, max_level: int) -> Automaton:
    """Build the layered automaton of a model.

    From (layer, level) the candidate moves are, in canonical order:

    * up        -> (F, level + 1)   if level < max_level
    * down black-> (G, level - 1)   if level > 0
    * down red  -> (H, level - 1)   if level > 0
    * catastrophe -> (F, 0)         if the rule allows firing from ``level``

    each kept only when ``config.next_steps`` allows the step after the one
    that entered (layer, level).  (F, 0) is the start and the catastrophe
    target, neither of which constrains the next step.
    """
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    transitions = {}
    for layer in LAYER_ORDER:
        for level in range(max_level + 1):
            st = State(layer, level)
            out = []
            came_by = None if st == START else INCOMING[layer]
            for step in config.next_steps(came_by):
                if step is StepKind.UP:
                    if level < max_level:
                        out.append((step, State(LayerTag.F, level + 1)))
                elif step in (StepKind.DOWN_BLACK, StepKind.DOWN_RED):
                    if level > 0:
                        tgt = ENTRY_LAYER[step]
                        out.append((step, State(tgt, level - 1)))
                else:  # catastrophe
                    if config.catastrophe.allows(level):
                        out.append((step, State(LayerTag.F, 0)))
            transitions[st] = tuple(out)
    return Automaton(config, max_level, START, transitions)
