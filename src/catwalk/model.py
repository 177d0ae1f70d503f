"""Step alphabet, model configurations, and path validation.

Paths live on the non-negative integers, starting at level 0.  Four steps
exist, each a letter, as the paper writes paths:

* ``U`` (up) rises by 1,
* ``D`` (down_black) falls by 1 (the plain down-step),
* ``R`` (down_red) falls by 1 (the marked down-step of the skew models),
* ``C`` (catastrophe) jumps from a qualifying level straight back to 0.

A :class:`Path` holds its steps as one word of those letters, and a model
names its steps and forbidden pairs by the same letters; JSON files and
validation messages name a step by its word in :data:`STEP_NAMES`.

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

import json
from collections import namedtuple
from itertools import accumulate
from typing import Iterable, Union

# canonical order, also the lexicographic order used by the enumerators;
# letter order (C < D < R < U) is not step order
STEP_ORDER = "UDRC"

# each step's name in the JSON configurations and outputs
STEP_NAMES = {"U": "up", "D": "down_black", "R": "down_red", "C": "catastrophe"}
_STEP_OF_NAME = {name: s for s, name in STEP_NAMES.items()}


# the layers of a DP end state (``dp.State``), letters that remember the last step
LAYER_ORDER = ("F", "G", "H")


class LayerTag:
    """The layer letters by name: F at the start, after an up-step or after
    a catastrophe; G after a black down-step; H after a red down-step."""

    F, G, H = LAYER_ORDER


# layer a path is in right after taking a step of the given letter
ENTRY_LAYER = {"U": "F", "C": "F", "D": "G", "R": "H"}

# the step that enters each layer at a level above 0
INCOMING = {ENTRY_LAYER[s]: s for s in "UDR"}


class ConfigError(ValueError):
    """A model configuration that the package cannot represent."""


# A namedtuple's _make, and with it _replace, skips a subclass's __new__ and
# checks the field count with len(); the value types below build through the class.
_make_by_new = classmethod(lambda cls, fields: cls(*fields))


def _frozen(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a value type with a ``__dict__``,
    where a config keeps what ``__new__`` derives: every instance is immutable."""
    verb = "set" if value else "delete"
    raise AttributeError(f"cannot {verb} {name!r}: {type(self).__name__} is immutable")


def _is_level(value) -> bool:
    """An integer level >= 1; JSON booleans and floats such as 2.5 are not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


class CatastropheRule(namedtuple("CatastropheRule", "kind k levels")):
    """Which levels are allowed to fire a catastrophe.

    ``kind`` is one of "none", "min_level" (every level >= k), "even_min"
    (every even level >= k), or "levels" (an explicit finite set).  Level 0
    can never fire one: a catastrophe must actually fall.
    """

    def __new__(cls, kind: str, k: int = 0, levels: frozenset = frozenset()):
        # a field the kind does not read is reset, so rules that fire the
        # same levels are equal and hash alike
        if kind in ("min_level", "even_min"):
            if not _is_level(k):
                raise ConfigError(f"{kind} rule needs an integer threshold k >= 1, got {k!r}")
            levels = frozenset()
        elif kind == "levels":
            levels = frozenset(levels)
            if not all(_is_level(lv) for lv in levels):
                raise ConfigError("explicit catastrophe levels must all be integers >= 1")
            k = 0
        elif kind == "none":
            k, levels = 0, frozenset()
        else:
            raise ConfigError(f"unknown catastrophe rule kind {kind!r}")
        return super().__new__(cls, kind, k, levels)

    _make = _make_by_new
    __setattr__ = __delattr__ = _frozen

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
        return sorted(lv for lv in self.levels if lv <= top)

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


def _step_of_name(name) -> str:
    if isinstance(name, str) and name in _STEP_OF_NAME:
        return _STEP_OF_NAME[name]
    raise ConfigError(f"unknown step {name!r}; choose from {', '.join(STEP_NAMES.values())}")


class ModelConfig(namedtuple("ModelConfig", "steps forbidden_pairs catastrophe")):
    """An immutable path model: step set, forbidden adjacencies, catastrophe rule."""

    def __new__(cls, steps, forbidden_pairs, catastrophe=CatastropheRule.none()):
        # checked in input order, so an error names the same item in every process
        steps = tuple(steps)
        forbidden_pairs = [tuple(p) for p in forbidden_pairs]
        for s in steps:
            if s not in STEP_NAMES:
                raise ConfigError(f"not a step letter: {s!r}")
        for pair in forbidden_pairs:
            if len(pair) != 2 or not all(s in STEP_NAMES for s in pair):
                raise ConfigError(f"forbidden pair must be two step letters, got {pair!r}")
            if pair[0] == "C":
                # The layered state space remembers "after a catastrophe" and
                # "path start" as the same thing, so a restriction that applies
                # only after catastrophes cannot be represented.
                raise ConfigError("forbidden pairs starting with a catastrophe are not supported")
        # a frozenset prints in the order its items went in: one order, so
        # equal configs print alike however they were built or copied
        rank = STEP_ORDER.index
        steps = frozenset(sorted(steps, key=rank))
        # a rule or a pair naming a step the model lacks changes no path, so it
        # goes: configs that differ only in such a rule or pair are equal
        forbidden_pairs = [p for p in forbidden_pairs if steps.issuperset(p)]
        forbidden_pairs = frozenset(sorted(forbidden_pairs, key=lambda p: tuple(map(rank, p))))
        if "C" not in steps:
            catastrophe = CatastropheRule.none()
        self = super().__new__(cls, steps, forbidden_pairs, catastrophe)
        # For each previous step (None at the start), the steps that may come
        # next; read by validate_path.  It is not a field, so ==, hash and
        # to_json do not see it, and it is built from the model's own sets
        # rather than from next_steps, the rule the DP reads.
        follows = {
            prev: frozenset(s for s in steps if (prev, s) not in forbidden_pairs)
            for prev in (None, *steps)
        }
        object.__setattr__(self, "_follows", follows)
        return self

    _make = _make_by_new
    __setattr__ = __delattr__ = _frozen

    def next_steps(self, came_by) -> tuple:
        """The steps that may follow a ``came_by`` step (None: any), in canonical order."""
        return tuple(
            s for s in STEP_ORDER if s in self.steps and (came_by, s) not in self.forbidden_pairs
        )

    def to_json(self) -> dict:
        pairs = sorted([STEP_NAMES[a], STEP_NAMES[b]] for a, b in self.forbidden_pairs)
        return {
            "steps": [STEP_NAMES[s] for s in STEP_ORDER if s in self.steps],
            "forbidden_pairs": pairs,
            "catastrophe": self.catastrophe.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        try:
            _only(data, ("steps", "forbidden_pairs", "catastrophe"), "model configuration")
            _distinct(data["steps"], "steps")
            steps = [_step_of_name(s) for s in data["steps"]]
            pairs = data["forbidden_pairs"]
            if not isinstance(pairs, list):
                raise ConfigError(f"forbidden_pairs must be an array, got {pairs!r}")
            for pair in pairs:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError(f"forbidden_pairs entry must be two steps, got {pair!r}")
            pairs = [(_step_of_name(a), _step_of_name(b)) for a, b in pairs]
            rule = CatastropheRule.from_json(data["catastrophe"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed model configuration: {exc}") from exc
        return cls(steps, pairs, rule)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "ModelConfig":
        return cls.from_json(json.loads(text))


def with_rule(config: ModelConfig, rule: CatastropheRule) -> ModelConfig:
    """A copy of ``config`` with a different catastrophe rule."""
    return ModelConfig(config.steps, config.forbidden_pairs, rule)


# -- presets ---------------------------------------------------------------

DYCK = ModelConfig("UD", (), CatastropheRule.none())
DYCK_CAT = ModelConfig("UDC", (), CatastropheRule.min_level(2))
SKEW = ModelConfig("UDR", ("UR", "RU"), CatastropheRule.none())
SKEW_CAT = ModelConfig("UDRC", ("UR", "RU"), CatastropheRule.min_level(2))

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


class Path(namedtuple("Path", "steps final_level")):
    """A validated word of step letters and the level it ends at; equal
    words are an equal path, whatever model validated them.  :attr:`levels`
    derives the level trace on each access.  ``len`` is the number of steps.
    """

    __slots__ = ()
    _make = _make_by_new

    def __len__(self):
        return len(self.steps)

    @property
    def levels(self) -> tuple:
        """The level before each step, then the final level: up +1, down -1,
        catastrophe to 0.  Costs O(n) per access."""
        return tuple(accumulate(
            self.steps, lambda lv, s: lv + 1 if s == "U" else 0 if s == "C" else lv - 1, initial=0
        ))

    @property
    def final_layer(self) -> str:
        """The layer the path ends in: its last letter's, F for the empty path."""
        return ENTRY_LAYER.get(self.steps[-1:], "F")

    def __str__(self):
        return self.steps

    def to_json(self) -> list:
        return list(map(STEP_NAMES.__getitem__, self.steps))


def validate_path(config: ModelConfig, steps: str) -> Path:
    """Check a word of step letters against a model and return its Path.

    Raises a :class:`PathError` subclass naming the first offending step:
    IllegalStep for anything but a ``str`` (at index 0), a character not
    one of U, D, R, C, or a step the model lacks; ForbiddenAdjacency for a
    banned step pair, IllegalCatastrophe for a catastrophe from a
    non-qualifying level, and NegativeLevel for a down-step from level 0.

    The walk keeps only the current level.  Each letter costs one lookup in
    the model's table of the letters that may follow the previous one, plus
    comparisons; a catastrophe looks its level up in the rule's firing
    levels, read once per call.  The first letter that fails them is then
    tested rule by rule, in the order above, to name the error.
    """
    if not isinstance(steps, str):
        raise IllegalStep(f"steps must be a word of U, D, R, C, not {type(steps).__name__}", 0)
    follows = config._follows
    fires = config.catastrophe.firing(len(steps))  # no level above len(steps) is reached
    level = 0
    allowed = follows[None]
    for i, s in enumerate(steps):
        if s not in allowed:
            break
        if s == "U":
            level += 1
        elif s == "C":
            if level not in fires:
                break
            level = 0
        elif level:  # a down-step
            level -= 1
        else:
            break
        allowed = follows[s]
    else:
        return Path(steps, level)
    if s not in STEP_NAMES:
        raise IllegalStep(f"not a step letter: {s!r}", i)
    value = STEP_NAMES[s]
    if s not in follows:
        raise IllegalStep(f"{value} is not in this model", i)
    if s not in allowed:
        raise ForbiddenAdjacency(f"{STEP_NAMES[steps[i - 1]]} may not be followed by {value}", i)
    if s == "C":
        raise IllegalCatastrophe(f"catastrophe from level {level} is not allowed here", i)
    raise NegativeLevel(f"{value} from level 0", i)


def parse_steps(text: str) -> str:
    """The word of step letters in a compact path string like "uuuudrc":
    stripped, upper-cased, and checked to hold only U, D, R and C."""
    word = text.strip().upper()
    for i, ch in enumerate(word):
        if ch not in STEP_NAMES:
            raise ValueError(f"character {i} ({ch!r}) is not one of U, D, R, C")
    return word


FinalSpec = Union[None, int, str]


def parse_natural(text: str) -> int:
    """The integer >= 0 that ``text`` writes in the ASCII digits 0-9 alone.

    Signs, spaces, underscores and the digits of other scripts, all of
    which ``int`` reads, raise ValueError, as does the empty string.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not an integer >= 0 in the digits 0-9")
    return int(text)


def parse_integer(text: str) -> int:
    """The integer that ``text`` writes as an optional ``-`` and then the
    ASCII digits 0-9 alone; every other spelling raises ValueError, as in
    :func:`parse_natural`."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer in the digits 0-9")
    return int(text)


def normalize_final(final: FinalSpec):
    """The level an end condition asks for, or None for any level.

    None or "open" is any level, "closed" is level 0, and an int k >= 0
    (not a bool) is level k.  Anything else raises ValueError.
    """
    if final is None or final == "open":
        return None
    if final == "closed":
        return 0
    if isinstance(final, int) and not isinstance(final, bool) and final >= 0:
        return final
    raise ValueError(f"cannot interpret end condition {final!r}")


def final_label(final: FinalSpec) -> str:
    """An end condition as the outputs name it: "open", "closed" or "level:K"."""
    want = normalize_final(final)
    return "open" if want is None else "closed" if want == 0 else f"level:{want}"
