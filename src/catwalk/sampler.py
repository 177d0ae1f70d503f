"""Exactly uniform random sampling of model paths by the recursive method
(Nijenhuis and Wilf, 1978; Flajolet, Zimmermann and Van Cutsem, 1994).

The sampler picks the end state weighted by its count in the forward rows
of :class:`dp.Transfer`, then walks back, picking each predecessor weighted
by its count one length earlier.  Each choice is one ``randrange`` over
exact integer weights, so every admissible path of the ensemble has
probability exactly 1/total; no floats are involved at any point.

A backward step draws x below the count of the current state and hands it
to :meth:`dp.Transfer.predecessor`, which subtracts the predecessors'
counts from x in place until it goes negative: no list of moves is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import dp
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


def _choose(rng: random.Random, total: int, options):
    """The value of one ``(weight, value)`` option, drawn with probability
    weight / total; the weights must sum to ``total``."""
    x = rng.randrange(total)
    for weight, value in options:
        if x < weight:
            return value
        x -= weight
    raise RuntimeError("sampler weights do not sum to the forward count")


class Sampler:
    """Reusable sampler for one (model, length, end condition) ensemble."""

    def __init__(self, config: ModelConfig, n: int, final: FinalSpec = "closed"):
        self.config = config
        self.n = n
        self.want = normalize_final(final)
        self._step = dp.Transfer(config)
        self._rows = list(self._step.rows(n))
        self.total = dp.ending(self._rows[n], None, self.want)
        if self.total == 0:
            raise EmptyEnsemble(
                f"no length-{n} path meets the end condition {final!r}"
            )

    def draw(self, rng: random.Random) -> Path:
        """One exactly uniform draw from the ensemble."""
        rows, n, back, randrange = self._rows, self.n, self._step.predecessor, rng.randrange
        levels = range(n + 1) if self.want is None else (self.want,)
        ends = ((rows[n][j][i], (j, i)) for j in range(3) for i in levels)
        layer, level = _choose(rng, self.total, ends)
        steps = [None] * n
        for t in range(n, 0, -1):
            x = randrange(rows[t][layer][level])
            steps[t - 1], layer, level = back(rows[t - 1], layer, level, x)
        return validate_path(self.config, steps)


def sample(spec: SamplerSpec, count: int) -> list:
    """Draw ``count`` paths for a spec; same spec and count, same paths."""
    if count < 0:
        raise ValueError("count must be >= 0")
    s = Sampler(spec.config, spec.n, spec.final)
    rng = random.Random(spec.seed)
    return [s.draw(rng) for _ in range(count)]
