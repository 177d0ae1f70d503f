"""Exact enumeration of Dyck-style lattice paths with red down-steps and
catastrophe resets.

Three independent computation routes are provided and kept in agreement:
brute-force enumeration (:mod:`catwalk.brute`), a level-vector transfer DP
(:mod:`catwalk.dp`), and closed-form generating functions
(:mod:`catwalk.closedform`).  :mod:`catwalk.verify` pits them against each
other; :mod:`catwalk.sampler` draws exactly uniform random paths; the
``catwalk`` command line wraps everything.
"""

from .model import (
    CatastropheRule,
    DYCK,
    DYCK_CAT,
    LayerTag,
    ModelConfig,
    Path,
    PRESETS,
    SKEW,
    SKEW_CAT,
    parse_steps,
    preset,
    validate_path,
    with_rule,
)
from .series import Series

__version__ = "0.1.0"

__all__ = [
    "CatastropheRule",
    "DYCK",
    "DYCK_CAT",
    "LayerTag",
    "ModelConfig",
    "Path",
    "PRESETS",
    "SKEW",
    "SKEW_CAT",
    "Series",
    "parse_steps",
    "preset",
    "validate_path",
    "with_rule",
    "__version__",
]
