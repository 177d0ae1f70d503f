"""
Counting walks with and without catastrophes
============================================

A quick tour of the counting side of the package: take the four built-in
step models, tabulate how many paths of each length exist, and watch what
the catastrophe step changes.
"""

from catwalk import preset
from catwalk.dp import count, count_table, view_series

N = 12

# The four presets.  "dyck" is the classic up/down walk, "skew" adds the
# red south-west step, and the "-cat" variants allow a catastrophe: a jump
# straight to the x-axis from any level >= 2.
names = ["dyck", "dyck-cat", "skew", "skew-cat"]
tables = {name: count_table(preset(name), N) for name in names}

print("closed paths (end on the axis)")
print("n    " + "".join(f"{name:>10}" for name in names))
for n in range(N + 1):
    row = "".join(f"{tables[name].closed_count(n):>10}" for name in names)
    print(f"{n:<5}{row}")

# Closed Dyck paths of odd length do not exist; a catastrophe can eat an
# arbitrary height in one step, so the odd columns fill in.
print()
print("open paths (any final level)")
print("n    " + "".join(f"{name:>10}" for name in names))
for n in range(N + 1):
    row = "".join(f"{tables[name].open_count(n):>10}" for name in names)
    print(f"{n:<5}{row}")

# Where do paths of length 8 end?  count takes the level as its end condition.
print()
print("skew-cat, n=8, paths by final level:")
for level in range(8 + 1):
    print(f"  level {level}: {count(preset('skew-cat'), 8, level)}")

# The same numbers as generating series: view_series reads one per
# (layer, level) view, None meaning any, off the DP's rows.  The closed
# paths end at level 0 in any of the three layers, so their series is the
# axis total f0 + g0 + h0, the registry's fgh0-skew-cat; f0 alone is the
# view ("F", 0).
closed, total = view_series(preset("skew-cat"), N, [(None, 0), (None, None)])
print()
print("f0 + g0 + h0 for skew-cat :", closed)
print("open for skew-cat         :", total)
