"""
Every closed skew path of length six
====================================

There are exactly ten of them.  This script lists them twice -- once as
red-step words, once as self-avoiding polygonal lines in the plane --
confirms the two enumerations describe the same objects, and draws the
gallery, ASCII art to the terminal and SVG files to the working directory.
"""

import os

from catwalk import preset
from catwalk.brute import enumerate_geometric, enumerate_red, models_agree, red_to_geometric
from catwalk.render import to_ascii, to_svg

SKEW = preset("skew")
N = 6

red = enumerate_red(SKEW, N, final=0)
geo = enumerate_geometric(N, final=0)
print(f"red-step words of length {N} ending on the axis: {len(red)}")
print(f"self-avoiding geometric paths, same constraints: {len(geo)}")
print(f"relabelling is a bijection for all n <= 10: {models_agree(10)}")
print()

for path in red:
    word = str(path)
    vertices = red_to_geometric(path)
    print(f"{word}   {vertices}")
    art = to_ascii(path)
    for line in art.splitlines():
        print("   " + line)
    print()

# One of the ten as a standalone SVG file, in both geometries, written to
# the working directory.
pick = red[1]  # UUUDDR, ends with a red step
for geometry in ("red", "sw"):
    target = f"gallery_{geometry}.svg"
    with open(target, "w") as fh:
        fh.write(to_svg(pick, geometry=geometry))
    print(f"wrote {os.path.abspath(target)}")
