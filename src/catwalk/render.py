"""Drawing paths, as SVG markup or terminal ASCII.

Two geometries.  The "red" geometry is the bookkeeping picture: every step
moves one unit right, height is the level, and red down-steps only differ
from black ones by colour.  The "sw" geometry is the two-dimensional
picture in which red steps actually travel south-west; it exists only for
paths without catastrophes.
"""

from __future__ import annotations

from . import brute
from .brute import GEOMETRIES
from .model import Path


def path_vertices(path: Path, geometry: str = "red") -> list:
    """Vertex list of a path in the chosen geometry, starting at (0, 0).

    The red geometry plots the level trace against the step index; the sw
    geometry is the relabelling of :func:`brute.red_to_geometric`.
    """
    if geometry not in GEOMETRIES:
        raise ValueError(f"geometry must be one of {GEOMETRIES}, got {geometry!r}")
    if geometry == "red":
        return list(enumerate(path.levels))
    if "C" in path.steps:
        raise ValueError("catastrophe steps cannot be drawn in sw geometry")
    return list(brute.red_to_geometric(path))


# each step letter's colour
_SVG_STROKE = {"U": "#1a1a1a", "D": "#1a1a1a", "R": "#c0392b", "C": "#8e44ad"}

_UNIT = 24
_PAD = 14


def to_svg(path: Path, geometry: str = "red") -> str:
    """Standalone SVG drawing of the path."""
    verts = path_vertices(path, geometry)
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys + [0]), max(ys)

    def cx(x):
        return _PAD + (x - xmin) * _UNIT

    def cy(y):
        return _PAD + (ymax - y) * _UNIT

    width = 2 * _PAD + max(1, xmax - xmin) * _UNIT
    height = 2 * _PAD + max(1, ymax - ymin) * _UNIT
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'  <line x1="{cx(xmin)}" y1="{cy(0)}" x2="{cx(xmax)}" y2="{cy(0)}" '
        'stroke="#bbbbbb" stroke-width="1"/>',
    ]
    for i, s in enumerate(path.steps):
        (x1, y1), (x2, y2) = verts[i], verts[i + 1]
        dash = ' stroke-dasharray="5 4"' if s == "C" else ""
        parts.append(
            f'  <line x1="{cx(x1)}" y1="{cy(y1)}" x2="{cx(x2)}" y2="{cy(y2)}" '
            f'stroke="{_SVG_STROKE[s]}" stroke-width="2" stroke-linecap="round"{dash}/>'
        )
    for x, y in verts:
        parts.append(f'  <circle cx="{cx(x)}" cy="{cy(y)}" r="2.5" fill="#1a1a1a"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def to_ascii(path: Path) -> str:
    """Terminal drawing in the red geometry.

    Up-steps print as '/', black down-steps as '\\', red down-steps as 'r',
    and a catastrophe as a column of '|'.  The last line is the axis.
    """
    n = len(path.steps)
    levels = path.levels
    top = max(levels)
    grid = [[" "] * n for _ in range(top)]  # row r holds band (top-r-1, top-r]

    def put(row_level, col, ch):
        # row_level is the upper level of the band the glyph occupies
        grid[top - row_level][col] = ch

    for i, s in enumerate(path.steps):
        before = levels[i]
        if s == "U":
            put(before + 1, i, "/")
        elif s == "D":
            put(before, i, "\\")
        elif s == "R":
            put(before, i, "r")
        else:
            for lv in range(1, before + 1):
                put(lv, i, "|")
    lines = ["".join(row).rstrip() for row in grid]
    lines.append("-" * n)
    return "\n".join(lines)
