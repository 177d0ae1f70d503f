"""Exactly uniform random sampling of model paths.

The sampler walks the counting automaton forward while consulting a table
of completion counts: for every state and number of remaining steps, the
exact number of ways to finish a path that meets the end condition.  Each
step is drawn with ``randrange`` over integer weights, so every admissible
path of the ensemble has probability exactly 1/total; no floats are
involved at any point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import automaton as automaton_mod
from .model import FinalSpec, ModelConfig, Path, normalize_final, validate_path


class EmptyEnsemble(ValueError):
    """No path satisfies the requested length and end condition."""


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample: model, path length, end condition, and seed."""

    config: ModelConfig
    n: int
    final: FinalSpec = "closed"
    seed: int = 0


class Sampler:
    """Reusable sampler for one (model, length, end condition) ensemble."""

    def __init__(self, config: ModelConfig, n: int, final: FinalSpec = "closed"):
        if n < 0:
            raise ValueError("path length must be >= 0")
        self.config = config
        self.n = n
        self.want = normalize_final(final)
        self.auto = automaton_mod.build(config, n)
        # completion[r][state] = number of admissible r-step continuations
        layer0 = {
            st: 1
            for st in self.auto.transitions
            if self.want is None or st.level == self.want
        }
        table = [layer0]
        for _ in range(n):
            prev = table[-1]
            cur: dict = {}
            for st, succ in self.auto.transitions.items():
                total = 0
                for _step, tgt in succ:
                    total += prev.get(tgt, 0)
                if total:
                    cur[st] = total
            table.append(cur)
        self._completion = table
        self.total = table[n].get(self.auto.start, 0)
        if self.total == 0:
            raise EmptyEnsemble(
                f"no length-{n} path meets the end condition {final!r}"
            )

    def draw(self, rng: random.Random) -> Path:
        """One exactly uniform draw from the ensemble."""
        state = self.auto.start
        steps = []
        for remaining in range(self.n, 0, -1):
            layer = self._completion[remaining - 1]
            choices = [
                (step, tgt, layer[tgt])
                for step, tgt in self.auto.successors(state)
                if tgt in layer
            ]
            x = rng.randrange(sum(w for _, _, w in choices))
            for step, tgt, w in choices:
                if x < w:
                    steps.append(step)
                    state = tgt
                    break
                x -= w
        return validate_path(self.config, steps)


def sample(spec: SamplerSpec, count: int) -> list:
    """Draw ``count`` paths for a spec; same spec and count, same paths."""
    if count < 0:
        raise ValueError("count must be >= 0")
    s = Sampler(spec.config, spec.n, spec.final)
    rng = random.Random(spec.seed)
    return [s.draw(rng) for _ in range(count)]

