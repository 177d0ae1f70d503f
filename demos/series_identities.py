"""
Closed forms against the dynamic programme
==========================================

The generating functions for these walks are algebraic: each one is a
rational expression in z and the square root of a small discriminant
polynomial.  This script expands the closed forms as exact power series
and checks them coefficient-by-coefficient against counts produced by
the transfer-matrix DP, which knows nothing about kernels or roots.
"""

from catwalk import preset
from catwalk import closedform as cf
from catwalk.dp import view_series

ORDER = 60

# --- the kernel and its roots ----------------------------------------
# Both models are governed by a quadratic kernel K(u); r2 is the small
# root, and kernel_residual substitutes it back in.  If the algebra is
# right the residual is identically zero.
for model in cf.MODELS:
    residual = cf.kernel_residual(model, ORDER)
    print(f"kernel residual, {model:>4}: zero up to z^{ORDER}? {residual.is_zero()}")

print()
print("small kernel root, skew model:")
print("  r2 =", cf.r2("skew", 13))

# --- closed forms vs. brute-force-free counting ----------------------
# view_series reads the DP's counts at each (layer, level) view, None
# meaning any: the axis is (None, 0), the open total (None, None).
axis_d, open_d = view_series(preset("dyck-cat"), ORDER, [(None, 0), (None, None)])
f0_s, axis_s, open_s = view_series(
    preset("skew-cat"), ORDER, [("F", 0), (None, 0), (None, None)]
)

# For the skew model the axis census splits across three channels
# (plain, after a black down step, after a red one); f0 is the first
# channel alone and fgh0 is their sum.
pairs = [
    ("f0, dyck-cat", cf.f0("dyck", ORDER), axis_d),
    ("open, dyck-cat", cf.open_total("dyck", ORDER), open_d),
    ("f0, skew-cat", cf.f0("skew", ORDER), f0_s),
    ("f0+g0+h0, skew-cat", cf.fgh0(ORDER), axis_s),
    ("open, skew-cat", cf.open_total("skew", ORDER), open_s),
]
print()
for label, closed, dp_side in pairs:
    verdict = "agree" if closed == dp_side else "DISAGREE"
    print(f"{label:<20} closed form vs table, order {ORDER}: {verdict}")

# --- the level ladder ------------------------------------------------
# Writing f_j for paths that end at level j (in the F layer), successive
# levels differ by a fixed factor q = 1/r1.  So f_j = f_0 * q^j, and the
# same factor shifts the g and h layers too.
q = cf.inv_r1("skew", ORDER)
f0 = cf.f0("skew", ORDER)
ladder_ok = all(cf.fj_family(j, ORDER)[0] == f0 * q**j for j in range(6))
print()
print(f"f_j = f_0 * q^j for j <= 5: {ladder_ok}")

# The first few rungs, as plain integer coefficient lists.
for j in range(4):
    fj, gj, hj = cf.fj_family(j, 8)
    print(f"  j={j}  f={fj.as_integers()}  g={gj.as_integers()}  h={hj.as_integers()}")

# --- a sequence with a name ------------------------------------------
print()
print("axis series for dyck-cat matches its OEIS prefix:",
      cf.matches_prefix(cf.f0("dyck", len(cf.A224747) - 1), cf.A224747))
print("shifted open-series identity:", cf.oeis_shift_check(40))
