"""Exactly uniform random sampling of model paths by the recursive method
(Nijenhuis and Wilf, 1978; Flajolet, Zimmermann and Van Cutsem, 1994).

A draw takes one ``randrange(total)``, the rank x of its path, and unranks
it through the forward rows of :class:`dp.Transfer`: one bisection in the
running totals of the end states, in a fixed order, finds the state x falls
in, and :meth:`dp.Transfer.unrank` walks back from there in one loop over
the rows, doing the same over the states one length earlier at each step.
Unranking is a bijection from ``range(total)`` onto the ensemble, so every
admissible path has probability exactly 1/total; no floats are involved.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from . import dp
from .model import FinalSpec, ModelConfig, Path, final_label, normalize_final, validate_path


class EmptyEnsemble(ValueError):
    """No path satisfies the requested length and end condition."""


class SamplerSpec(NamedTuple):
    """What to sample: model, path length, end condition, and seed."""

    config: ModelConfig
    n: int
    final: FinalSpec = "closed"
    seed: int = 0


class Sampler:
    """Reusable sampler for one (model, length, end condition) ensemble.

    When the end level is fixed and no catastrophe fires within the length,
    a path above that level plus the steps left cannot come down in time:
    the rows are cut at :func:`dp.horizon`, which merges those levels into
    one top slot, and no draw reads it.
    """

    def __init__(self, config: ModelConfig, n: int, final: FinalSpec = "closed"):
        self.config = config
        self.want = normalize_final(final)
        self._step = dp.Transfer(config)
        full = self.want is None or config.catastrophe.firing(n)
        self._rows = list(self._step.rows(n, None if full else dp.horizon(config, n, self.want)))
        self.total = dp.ending(self._rows[n], None, self.want)
        if self.total == 0:
            raise EmptyEnsemble(
                f"no length-{n} path meets the end condition {final_label(final)!r}"
            )
        # the end states in a fixed order, and the paths of those before each
        levels = range(n + 1) if self.want is None else (self.want,)
        self._ends = [(j, i) for j in range(3) for i in levels]
        self._before = [0, *accumulate(self._rows[n][j][i] for j, i in self._ends[:-1])]

    def draw(self, rng: random.Random) -> Path:
        """One exactly uniform draw from the ensemble: one ``randrange``."""
        x = rng.randrange(self.total)
        k = bisect_right(self._before, x) - 1
        layer, level = self._ends[k]
        steps = self._step.unrank(self._rows, layer, level, x - self._before[k])
        return validate_path(self.config, "".join(steps))


def sample(spec: SamplerSpec, count: int) -> list:
    """Draw ``count`` paths for a spec; same spec and count, same paths."""
    if count < 0:
        raise ValueError("count must be >= 0")
    s = Sampler(spec.config, spec.n, spec.final)
    rng = random.Random(spec.seed)
    return [s.draw(rng) for _ in range(count)]
