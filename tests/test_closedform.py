import functools

import pytest

from catwalk import closedform as cf
from catwalk.series import Series

# frozen expansions; every list here is independently reproduced by the
# dynamic programming route in test_dp and by brute force in test_brute
DISC_DYCK = [1, 0, -4, 0, 0]
SQRT_DISC_DYCK = [1, 0, -2, 0, -2, 0, -4, 0, -10]
SQRT_DISC_SKEW = [1, 0, -3, 0, -2, 0, -6, 0, -20]
R2_DYCK = [0, 1, 0, 1, 0, 2, 0, 5]
R2_SKEW = [0, 2, 0, 1, 0, 3, 0, 10, 0, 36, 0, 137, 0, 543]
F0_DYCK_CAT = [1, 0, 1, 1, 3, 5, 12, 23, 52, 105, 232, 480, 1049, 2199]
OPEN_DYCK_CAT = [1, 1, 2, 4, 8, 17, 35, 75, 157, 337, 712]
F0_SKEW_CAT = [1, 0, 0, 1, 1, 4, 6, 18, 31, 85, 157, 410, 792, 2004]
F1_SKEW_CAT = [0, 1, 0, 1, 1, 3, 5, 13, 24]
G0_SKEW_CAT = [0, 0, 1, 0, 2, 1, 7, 6, 29]
H0_SKEW_CAT = [0, 0, 0, 0, 1, 0, 4]
FGH0_SKEW_CAT = [1, 0, 1, 1, 4, 5, 17, 25, 76, 125, 353, 625, 1681]
OPEN_SKEW_CAT = [1, 1, 2, 4, 9, 18, 41, 85, 193, 410, 929, 2004]
TAIL_F = [0, 0, 1, 1, 3, 5, 12, 23, 54]
TAIL_G = [0, 0, 0, 0, 1, 1, 5, 7, 24]
TAIL_H = [0, 0, 0, 0, 0, 0, 1, 1, 7]


def test_disc_and_sqrt():
    assert cf.disc("dyck", 4).as_integers() == DISC_DYCK
    assert cf.disc("dyck", 8).sqrt().as_integers() == SQRT_DISC_DYCK
    assert cf.disc("skew", 8).sqrt().as_integers() == SQRT_DISC_SKEW


def test_r2_expansions():
    assert cf.r2("dyck", 7).as_integers() == R2_DYCK
    assert cf.r2("skew", 13).as_integers() == R2_SKEW


def test_r2_dyck_is_aerated_catalan():
    # the odd coefficients of r2 are the Catalan numbers
    import math

    r = cf.r2("dyck", 21).as_integers()
    for m in range(10):
        assert r[2 * m + 1] == math.comb(2 * m, m) // (m + 1)
        assert r[2 * m] == 0


def test_kernel_residuals_vanish():
    assert cf.kernel_residual("dyck", 60).is_zero()
    assert cf.kernel_residual("skew", 60).is_zero()


def test_kernel_rejects_perturbed_root():
    bumped = cf.r2("skew", 30) + Series.z(30)
    assert not cf.kernel_at("skew", bumped).is_zero()
    bumped_d = cf.r2("dyck", 30) + Series.z(30)
    assert not cf.kernel_at("dyck", bumped_d).is_zero()


def test_inv_r1_relations():
    for model in cf.MODELS:
        q = cf.inv_r1(model, 30)
        # K(0) = z * (r1 r2), so this recovers the root product as a polynomial
        prod = cf.kernel_at(model, Series.zero(31)).shift_down(1)
        assert (q * prod) == cf.r2(model, 30)
    # for the plain model r1 r2 = 1, so 1/r1 is r2 itself
    assert cf.inv_r1("dyck", 20) == cf.r2("dyck", 20)


def test_f0_expansions():
    assert cf.f0("dyck", 13).as_integers() == F0_DYCK_CAT
    assert cf.f0("skew", 13).as_integers() == F0_SKEW_CAT


def test_open_expansions():
    assert cf.open_total("dyck", 10).as_integers() == OPEN_DYCK_CAT
    assert cf.open_total("skew", 11).as_integers() == OPEN_SKEW_CAT


def test_fgh0_expansion_and_sum():
    assert cf.fgh0(12).as_integers() == FGH0_SKEW_CAT
    n = 40
    _, g0, h0 = cf.fj_family(0, n)
    assert cf.fgh0(n) == cf.f0("skew", n) + g0 + h0


# every (A + B sqrt(disc)) / D form, as a function of the order alone
FORMS = {
    **{
        f"{form.__name__}-{model}": functools.partial(form, model)
        for form in (cf.r2, cf.inv_r1, cf.f0, cf.open_total)
        for model in cf.MODELS
    },
    "fgh0-skew": cf.fgh0,
}


@pytest.mark.parametrize("name", sorted(FORMS))
def test_forms_truncate_consistently(name):
    # below order 6 the expander cuts A, B and D short, and at order 0 it
    # still cancels the z in the denominator of r2 and 1/r1
    full = FORMS[name](40)
    for k in range(9):
        assert FORMS[name](k) == full.truncate(k), k


def test_fj_family_low_levels():
    f1, g1, h1 = cf.fj_family(1, 8)
    assert f1.as_integers() == F1_SKEW_CAT
    f0, g0, h0 = cf.fj_family(0, 8)
    assert f0 == cf.f0("skew", 8)
    assert g0.as_integers() == G0_SKEW_CAT
    assert h0.truncate(6).as_integers() == H0_SKEW_CAT
    with pytest.raises(ValueError):
        cf.fj_family(-1, 5)


def test_fj_family_vanishes_beyond_order():
    zero = Series.zero(3)
    assert cf.fj_family(10**8, 3) == (zero, zero, zero)
    # j = order + 1 agrees with the product forms expanded one order higher
    long = cf.fj_family(7, 7)
    assert [s.truncate(6) for s in long] == list(cf.fj_family(7, 6))
    assert long[0].coeff(7) == 1  # UUUUUUU: f_7 starts right past the cut


@pytest.mark.parametrize("n", [*range(13), 60])
def test_fj_family_matches_the_product_forms(n):
    # the ladder climbs by the kernel recurrence; the product forms take
    # powers of q = 1/r1 instead, and vanish for j > n
    base, q, r2 = cf.f0("skew", n), cf.inv_r1("skew", n), cf.r2("skew", n)
    z = Series([0, 1][: n + 1], order=n)
    for j in range(10):
        tail = base * q.pow(j + 1)
        want = (base * q.pow(j), (r2 - z) * tail, (r2 - 2 * z) * tail)
        assert cf.fj_family(j, n) == want, j
    assert cf.level_ladder(9, n) == [base * q.pow(j) for j in range(10)]
    assert cf.level_ladder(0, n) == [base]


def test_level_ladder():
    n = 40
    r2 = cf.r2("skew", n)
    two_m_z2 = Series([2, 0, -1], order=n)
    prev = cf.f0("skew", n)
    for j in range(8):
        cur = cf.fj_family(j + 1, n)[0]
        assert two_m_z2 * cur == r2 * prev
        prev = cur


def test_channel_difference():
    n = 40
    z = Series.z(n)
    for j in range(6):
        fj, gj, hj = cf.fj_family(j, n)
        fnext = cf.fj_family(j + 1, n)[0]
        assert hj == gj - z * fnext


def test_g0_elimination_route():
    assert cf.g0_via_elimination(40) == cf.fj_family(0, 40)[1]


@pytest.mark.parametrize("n", [2, 3, 7, 30])
def test_second_routes_equal_the_ladder(n):
    # f_j has valuation >= j, so the levels 2 <= j <= n give every tail
    # sum exactly through z^n; g0's elimination route is g0 of fj_family
    ladder, r2 = cf.level_ladder(n + 1, n), cf.r2("skew", n)
    sums = [Series.zero(n)] * 3
    for j in range(2, n + 1):
        sums = [s + x for s, x in zip(sums, cf.level_family(ladder, r2, j))]
    assert list(cf.tail_sums(n)) == sums
    assert cf.g0_via_elimination(n) == cf.fj_family(0, n)[1]


def test_tail_sums_expansions_and_boundary():
    sf, sg, sh = cf.tail_sums(8)
    assert sf.as_integers() == TAIL_F
    assert sg.as_integers() == TAIL_G
    assert sh.as_integers() == TAIL_H
    n = 40
    sf, sg, sh = cf.tail_sums(n)
    assert cf.f0("skew", n) == 1 + Series.z(n) * (sf + sg + sh)


def test_open_total_is_sum_over_all_levels():
    n = 30
    total = Series.zero(n)
    for j in range(2):
        fj, gj, hj = cf.fj_family(j, n)
        total = total + fj + gj + hj
    sf, sg, sh = cf.tail_sums(n)
    total = total + sf + sg + sh
    assert total == cf.open_total("skew", n)


def test_reference_sequences():
    assert cf.matches_prefix(cf.f0("dyck", 13), cf.A224747)
    assert cf.oeis_shift_check(11)
    assert cf.oeis_shift_check(30)


def test_matches_prefix_rejects_perturbation():
    wrong = list(cf.A224747)
    wrong[7] += 1
    assert not cf.matches_prefix(cf.f0("dyck", 13), wrong)


def test_registry_names_resolve():
    for name in cf.series_names():
        concrete = name.replace(":J", ":2")
        s = cf.series_by_name(concrete, 9)
        assert s.order == 9
    assert cf.series_by_name("fj:3", 12) == cf.fj_family(3, 12)[0]
    assert cf.series_by_name("gj:0", 12) == cf.fj_family(0, 12)[1]
    assert cf.series_by_name("F0-Skew-Cat", 6) == cf.f0("skew", 6)


def test_registry_unknown_names():
    with pytest.raises(cf.UnknownSeriesName):
        cf.series_by_name("motzkin", 5)
    with pytest.raises(cf.UnknownSeriesName):
        cf.series_by_name("fj:x", 5)
    with pytest.raises(cf.UnknownSeriesName):
        cf.series_by_name("fj:-1", 5)


def test_counting_series_are_integral():
    for name in (
        "r2-dyck",
        "r2-skew",
        "f0-dyck-cat",
        "open-dyck-cat",
        "f0-skew-cat",
        "g0-skew-cat",
        "h0-skew-cat",
        "fgh0-skew-cat",
        "open-skew-cat",
        "fj:4",
        "gj:4",
        "hj:4",
    ):
        cf.series_by_name(name, 25).as_integers()  # must not raise
    # 1/r1 = f1/f0 is a ratio of integer series with unit constant term,
    # hence integral as well
    cf.inv_r1("dyck", 25).as_integers()
    cf.inv_r1("skew", 25).as_integers()


def test_unknown_model_rejected():
    for form in (cf.disc, cf.r2, cf.inv_r1, cf.f0, cf.open_total):
        with pytest.raises(ValueError):
            form("motzkin", 5)
