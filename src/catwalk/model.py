"""Step alphabet, model configurations, and path validation.

Paths live on the non-negative integers, starting at level 0.  Four step
kinds exist:

* ``UP`` rises by 1,
* ``DOWN_BLACK`` falls by 1 (the plain down-step),
* ``DOWN_RED`` falls by 1 (the marked down-step of the skew models),
* ``CATASTROPHE`` jumps from a qualifying level straight back to 0.

A :class:`ModelConfig` selects a subset of the alphabet, forbids chosen
adjacent step pairs, and fixes the catastrophe rule (which levels may fire
one).  Four presets cover the path languages this package enumerates:
plain Dyck-style paths and skew (red-step) paths, each with and without
catastrophes.  In the skew presets a red step may neither follow nor be
followed by an up-step; that adjacency restriction is exactly what makes
the red model a faithful relabelling of non-crossing geometric paths
(see ``brute.enumerate_geometric``).
"""

from __future__ import annotations

import dataclasses
import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Sequence, Union


class StepKind(Enum):
    UP = "up"
    DOWN_BLACK = "down_black"
    DOWN_RED = "down_red"
    CATASTROPHE = "catastrophe"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with ==; it runs in C, where Enum's own hashes the name in Python.
    __hash__ = object.__hash__


# canonical order, also the lexicographic order used by the enumerators
STEP_ORDER = (
    StepKind.UP,
    StepKind.DOWN_BLACK,
    StepKind.DOWN_RED,
    StepKind.CATASTROPHE,
)

# each step's letter in compact path strings, read by Path.__str__ and parse_steps
for _step, _char in zip(STEP_ORDER, "UDRC"):
    _step.char = _char
del _step, _char
_CHAR_STEP = {s.char: s for s in STEP_ORDER}


class LayerTag(Enum):
    """Memory of the last step kind: the layer of a DP end state (``dp.State``).

    F: at the start, after an up-step, or after a catastrophe.
    G: after a black down-step.
    H: after a red down-step.
    """

    F = "F"
    G = "G"
    H = "H"


LAYER_ORDER = (LayerTag.F, LayerTag.G, LayerTag.H)

# layer a path is in right after taking a step of the given kind
ENTRY_LAYER = {
    StepKind.UP: LayerTag.F,
    StepKind.CATASTROPHE: LayerTag.F,
    StepKind.DOWN_BLACK: LayerTag.G,
    StepKind.DOWN_RED: LayerTag.H,
}

# the step kind that enters each layer at a level above 0
INCOMING = {ENTRY_LAYER[s]: s for s in (StepKind.UP, StepKind.DOWN_BLACK, StepKind.DOWN_RED)}


class ConfigError(ValueError):
    """A model configuration that the package cannot represent."""


def _is_level(value) -> bool:
    """An integer level >= 1; JSON booleans and floats such as 2.5 are not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class CatastropheRule:
    """Which levels are allowed to fire a catastrophe.

    ``kind`` is one of "none", "min_level" (every level >= k), "even_min"
    (every even level >= k), or "levels" (an explicit finite set).  Level 0
    can never fire one: a catastrophe must actually fall.
    """

    kind: str
    k: int = 0
    levels: frozenset = frozenset()

    def __post_init__(self):
        if self.kind == "none":
            pass
        elif self.kind in ("min_level", "even_min"):
            if not _is_level(self.k):
                raise ConfigError(
                    f"{self.kind} rule needs an integer threshold k >= 1, got {self.k!r}"
                )
        elif self.kind == "levels":
            object.__setattr__(self, "levels", frozenset(self.levels))
            if not all(_is_level(lv) for lv in self.levels):
                raise ConfigError("explicit catastrophe levels must all be integers >= 1")
            # sorted once for firing(); not a field, so ==, hash and repr ignore it
            object.__setattr__(self, "_ascending", sorted(self.levels))
        else:
            raise ConfigError(f"unknown catastrophe rule kind {self.kind!r}")

    @classmethod
    def none(cls) -> "CatastropheRule":
        return cls("none")

    @classmethod
    def min_level(cls, k: int) -> "CatastropheRule":
        return cls("min_level", k=k)

    @classmethod
    def even_min(cls, k: int) -> "CatastropheRule":
        return cls("even_min", k=k)

    @classmethod
    def explicit(cls, levels: Iterable[int]) -> "CatastropheRule":
        return cls("levels", levels=frozenset(levels))

    def allows(self, level: int) -> bool:
        """True if a catastrophe may start from ``level``."""
        if self.kind == "min_level":
            return level >= self.k
        if self.kind == "even_min":
            return level >= self.k and level % 2 == 0
        return level in self.levels

    def firing(self, top: int):
        """The levels 1..top that may fire a catastrophe, ascending."""
        if self.kind == "none":
            return range(0)
        if self.kind == "min_level":
            return range(self.k, top + 1)
        if self.kind == "even_min":
            return range(self.k + self.k % 2, top + 1, 2)
        return self._ascending[: bisect_right(self._ascending, top)]

    def to_json(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        if self.kind in ("min_level", "even_min"):
            return {"kind": self.kind, "k": self.k}
        return {"kind": "levels", "levels": sorted(self.levels)}

    @classmethod
    def from_json(cls, data: dict) -> "CatastropheRule":
        fields = {"none": (), "min_level": ("k",), "even_min": ("k",), "levels": ("levels",)}
        kind = data.get("kind") if isinstance(data, dict) else None
        if kind not in fields:
            raise ConfigError(f"unknown catastrophe rule {data!r}")
        _only(data, ("kind", *fields[kind]), "catastrophe")
        if kind == "levels":
            _distinct(data["levels"], "catastrophe levels")
        return cls(kind, **{key: data[key] for key in fields[kind]})


def _only(data, keys: tuple, where: str) -> None:
    """Reject what is not a JSON object with no key outside ``keys``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    extra = sorted(set(data) - set(keys))
    if extra:
        raise ConfigError(f"{where} has unknown key(s): {', '.join(extra)}")


def _distinct(items: list, where: str) -> None:
    if not isinstance(items, list) or len(set(items)) != len(items):
        raise ConfigError(f"{where} must be an array without repeats, got {items!r}")


@dataclass(frozen=True)
class ModelConfig:
    """An immutable path model: step set, forbidden adjacencies, catastrophe rule."""

    steps: frozenset
    forbidden_pairs: frozenset
    catastrophe: CatastropheRule = CatastropheRule.none()

    def __post_init__(self):
        object.__setattr__(self, "steps", frozenset(self.steps))
        object.__setattr__(
            self, "forbidden_pairs", frozenset(tuple(p) for p in self.forbidden_pairs)
        )
        if StepKind.CATASTROPHE not in self.steps:
            # a rule for a step the model lacks fires nothing: one canonical form
            object.__setattr__(self, "catastrophe", CatastropheRule.none())
        for s in self.steps:
            if not isinstance(s, StepKind):
                raise ConfigError(f"not a step kind: {s!r}")
        for pair in self.forbidden_pairs:
            if len(pair) != 2 or not all(isinstance(s, StepKind) for s in pair):
                raise ConfigError(f"forbidden pair must be two step kinds, got {pair!r}")
            if pair[0] is StepKind.CATASTROPHE:
                # The layered state space remembers "after a catastrophe" and
                # "path start" as the same thing, so a restriction that applies
                # only after catastrophes cannot be represented.
                raise ConfigError(
                    "forbidden pairs starting with a catastrophe are not supported"
                )
        # For each previous step (None at the start), the steps that may come
        # next; read by validate_path.  It is not a field, so ==, hash and
        # to_json do not see it, and it is built from the model's own sets
        # rather than from next_steps, the rule the DP reads.
        object.__setattr__(
            self,
            "_follows",
            {
                prev: frozenset(s for s in self.steps if (prev, s) not in self.forbidden_pairs)
                for prev in (None, *self.steps)
            },
        )

    def next_steps(self, came_by) -> tuple:
        """The steps that may follow a ``came_by`` step (None: any), in canonical order."""
        return tuple(
            s for s in STEP_ORDER if s in self.steps and (came_by, s) not in self.forbidden_pairs
        )

    def to_json(self) -> dict:
        return {
            "steps": [s.value for s in STEP_ORDER if s in self.steps],
            "forbidden_pairs": sorted(
                [a.value, b.value] for a, b in self.forbidden_pairs
            ),
            "catastrophe": self.catastrophe.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        try:
            _only(data, ("steps", "forbidden_pairs", "catastrophe"), "model configuration")
            _distinct(data["steps"], "steps")
            steps = frozenset(StepKind(s) for s in data["steps"])
            pairs = data["forbidden_pairs"]
            if not isinstance(pairs, list):
                raise ConfigError(f"forbidden_pairs must be an array, got {pairs!r}")
            for pair in pairs:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError(f"forbidden_pairs entry must be two steps, got {pair!r}")
            pairs = frozenset((StepKind(a), StepKind(b)) for a, b in pairs)
            rule = CatastropheRule.from_json(data["catastrophe"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed model configuration: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(steps, pairs, rule)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "ModelConfig":
        return cls.from_json(json.loads(text))


def with_rule(config: ModelConfig, rule: CatastropheRule) -> ModelConfig:
    """A copy of ``config`` with a different catastrophe rule."""
    return dataclasses.replace(config, catastrophe=rule)


# -- presets ---------------------------------------------------------------

DYCK = ModelConfig(
    frozenset({StepKind.UP, StepKind.DOWN_BLACK}),
    frozenset(),
    CatastropheRule.none(),
)

DYCK_CAT = ModelConfig(
    frozenset({StepKind.UP, StepKind.DOWN_BLACK, StepKind.CATASTROPHE}),
    frozenset(),
    CatastropheRule.min_level(2),
)

SKEW = ModelConfig(
    frozenset({StepKind.UP, StepKind.DOWN_BLACK, StepKind.DOWN_RED}),
    frozenset(
        {
            (StepKind.UP, StepKind.DOWN_RED),
            (StepKind.DOWN_RED, StepKind.UP),
        }
    ),
    CatastropheRule.none(),
)

SKEW_CAT = ModelConfig(
    frozenset({StepKind.UP, StepKind.DOWN_BLACK, StepKind.DOWN_RED, StepKind.CATASTROPHE}),
    frozenset(
        {
            (StepKind.UP, StepKind.DOWN_RED),
            (StepKind.DOWN_RED, StepKind.UP),
        }
    ),
    CatastropheRule.min_level(2),
)

PRESETS = {
    "dyck": DYCK,
    "dyck-cat": DYCK_CAT,
    "skew": SKEW,
    "skew-cat": SKEW_CAT,
}


def preset(name: str) -> ModelConfig:
    """Look up a preset by name; underscores and hyphens are interchangeable."""
    key = name.replace("_", "-").lower()
    if key not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[key]


# -- paths -----------------------------------------------------------------


class PathError(ValueError):
    """A step sequence that is not a path of the given model.

    ``index`` is the position of the offending step.
    """

    def __init__(self, message: str, index: int):
        super().__init__(f"step {index}: {message}")
        self.index = index


class IllegalStep(PathError):
    pass


class NegativeLevel(PathError):
    pass


class ForbiddenAdjacency(PathError):
    pass


class IllegalCatastrophe(PathError):
    pass


@dataclass(frozen=True, slots=True)
class Path:
    """A validated step sequence and the level it ends at.

    The level trace follows from the steps alone, so it is not stored:
    :attr:`levels` derives it on each access.
    """

    config: ModelConfig
    steps: tuple
    final_level: int

    def __len__(self):
        return len(self.steps)

    @property
    def levels(self) -> tuple:
        """The level before each step, then the final level: up +1, down -1,
        catastrophe to 0.  Costs O(n) per access."""
        up, cat = StepKind.UP, StepKind.CATASTROPHE
        return tuple(accumulate(
            self.steps, lambda lv, s: lv + 1 if s is up else 0 if s is cat else lv - 1, initial=0
        ))

    @property
    def final_layer(self) -> LayerTag:
        if not self.steps:
            return LayerTag.F
        return ENTRY_LAYER[self.steps[-1]]

    def __str__(self):
        return "".join([s.char for s in self.steps])

    def to_json(self) -> list:
        return [s.value for s in self.steps]


def validate_path(config: ModelConfig, steps: Sequence[StepKind]) -> Path:
    """Check a step sequence against a model and return the validated Path.

    Raises a :class:`PathError` subclass naming the first offending step:
    IllegalStep for an entry that is not a step kind of the model,
    ForbiddenAdjacency for a banned step pair, IllegalCatastrophe for a
    catastrophe from a non-qualifying level, and NegativeLevel for a
    down-step from level 0.

    The walk keeps only the current level.  Each step costs one lookup in
    the model's table of the steps that may follow the previous one, plus
    identity tests.  The first step that fails them is then tested rule by
    rule, in the order above, to name the error.
    """
    steps = tuple(steps)
    follows = config._follows
    allows = config.catastrophe.allows
    up, cat = StepKind.UP, StepKind.CATASTROPHE
    level = 0
    allowed = follows[None]
    try:
        for i, s in enumerate(steps):
            if s not in allowed:
                break
            if s is up:
                level += 1
            elif s is cat:
                if not allows(level):
                    break
                level = 0
            elif level:  # a down-step: whatever is allowed is a step kind
                level -= 1
            else:
                break
            allowed = follows[s]
        else:
            return Path(config, steps, level)
    except TypeError:  # an unhashable entry
        pass
    if not isinstance(s, StepKind):
        raise IllegalStep(f"not a step kind: {s!r}", i)
    if s not in config.steps:
        raise IllegalStep(f"{s.value} is not in this model", i)
    if s not in allowed:
        raise ForbiddenAdjacency(f"{steps[i - 1].value} may not be followed by {s.value}", i)
    if s is StepKind.CATASTROPHE:
        raise IllegalCatastrophe(f"catastrophe from level {level} is not allowed here", i)
    raise NegativeLevel(f"{s.value} from level 0", i)


def parse_steps(text: str) -> tuple:
    """Parse a compact path string like "UUUUDRC" into step kinds."""
    out = []
    for i, ch in enumerate(text.strip().upper()):
        if ch not in _CHAR_STEP:
            raise ValueError(f"character {i} ({ch!r}) is not one of U, D, R, C")
        out.append(_CHAR_STEP[ch])
    return tuple(out)


FinalSpec = Union[None, int, str]


def normalize_final(final: FinalSpec):
    """Normalize an end-condition spec to None (any end), or an int level.

    Accepts None, "all"/"open"/"any", "closed", or a level number.
    """
    if final is None:
        return None
    if isinstance(final, int):
        if final < 0:
            raise ValueError("final level must be >= 0")
        return final
    key = final.strip().lower()
    if key in ("all", "open", "any", "*"):
        return None
    if key == "closed":
        return 0
    if key.isdigit():
        return int(key)
    raise ValueError(f"cannot interpret end condition {final!r}")
