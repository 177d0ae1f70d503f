"""The layered state space of a model and its explicit automaton.

A state is a pair (layer, level), :class:`dp.State`: the level is the
current height, the layer is a letter, F, G or H of ``model.LAYER_ORDER``,
that remembers which step got us here.  Because the forbidden adjacencies
of a model only ever constrain *consecutive* steps, this one-step memory is
enough to decide which steps may come next, so paths of a model correspond
exactly to walks of this automaton from the start state (F, 0).

``ModelConfig.next_steps`` is that rule.  The level-vector transfer step of
:mod:`catwalk.dp` reads it once per layer; :func:`build` spells it out as a
table of (step letter, state) transitions up to a maximum level.  Walks
of length n never pass level n, so truncating at (or above) n loses no path.

No command imports this module and no counting route walks the table; it
stays because the tests read its transitions and the benchmark's tracer
(``bench/tracer.py``) wraps :func:`build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dp import State
from .model import ENTRY_LAYER, INCOMING, LAYER_ORDER, ModelConfig

START = State("F", 0)


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

    * U (up)          -> (F, level + 1)   if level < max_level
    * D (down black)  -> (G, level - 1)   if level > 0
    * R (down red)    -> (H, level - 1)   if level > 0
    * C (catastrophe) -> (F, 0)           if the rule allows firing from ``level``

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
                if step == "U":
                    if level < max_level:
                        out.append((step, State("F", level + 1)))
                elif step in ("D", "R"):
                    if level > 0:
                        out.append((step, State(ENTRY_LAYER[step], level - 1)))
                else:  # catastrophe
                    if config.catastrophe.allows(level):
                        out.append((step, START))
            transitions[st] = tuple(out)
    return Automaton(config, max_level, START, transitions)
