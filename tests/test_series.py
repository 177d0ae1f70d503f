import random
from fractions import Fraction

import pytest

from catwalk import closedform as cf
from catwalk.series import (
    DivisionByZeroSeries,
    NonIntegerCoefficient,
    OrderExceeded,
    Series,
    SqrtDomain,
    ValuationError,
)


def test_construction_pads_to_order():
    s = Series([1, 0, 3], order=5)
    assert s.order == 5
    assert s == Series([1, 0, 3, 0, 0, 0])


def test_construction_rejects_overflow_and_empty():
    with pytest.raises(ValueError):
        Series([1, 2, 3], order=1)
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        Series([1], order=-1)


def test_constructors():
    assert Series.zero(3) == Series([0, 0, 0, 0])
    assert Series.one(2) == Series([1, 0, 0])
    assert Series.z(4) == Series([0, 1, 0, 0, 0])
    assert Series([Fraction(1, 2)], order=1).coeff(0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        Series.z(0)


def test_coeff_bounds():
    s = Series([1, 2, 3])
    assert s.coeff(2) == 3
    with pytest.raises(OrderExceeded):
        s.coeff(3)
    with pytest.raises(ValueError):
        s.coeff(-1)


def test_valuation():
    assert Series([0, 0, 5, 1]).valuation() == 2
    assert Series.zero(4).valuation() is None
    assert Series.zero(4).is_zero()
    assert not Series([0, 1]).is_zero()


def test_add_sub_truncate_to_smaller_order():
    a = Series([1, 1, 1, 1])
    b = Series([1, 2], order=1)
    assert a + b == Series([2, 3])
    assert a - b == Series([0, -1])
    assert 1 + Series.z(2) == Series([1, 1, 0])
    assert 1 - Series.z(2) == Series([1, -1, 0])
    assert Series.z(2) - 1 == Series([-1, 1, 0])


def test_mul():
    a = Series([1, 1], order=4)  # 1 + z
    assert a * a == Series([1, 2, 1, 0, 0])
    assert a * 3 == Series([3, 3, 0, 0, 0])
    assert 3 * a == Series([3, 3, 0, 0, 0])
    assert (a * Fraction(1, 2)).coeff(0) == Fraction(1, 2)


def test_div_exact_with_valuation_cancellation():
    num = Series([0, 0, 4, 0, 2], order=6)  # 4z^2 + 2z^4
    den = Series([0, 2], order=6)  # 2z
    q = num / den
    assert q.order == 5
    assert q == Series([0, 2, 0, 1, 0, 0])


def test_div_geometric():
    one = Series.one(6)
    den = Series([1, -1], order=6)
    assert one / den == Series([1, 1, 1, 1, 1, 1, 1])


def test_div_errors():
    with pytest.raises(DivisionByZeroSeries):
        Series.one(3) / Series.zero(3)
    # dividend valuation below the divisor's
    with pytest.raises(ValuationError):
        Series.z(4) / (Series.z(4) * Series.z(4))
    # divisor vanishes past the working order entirely
    with pytest.raises(ValuationError):
        Series.zero(2) / Series([0, 0, 0, 1])


def test_first_difference_over_the_common_order():
    s = Series([1, 2, 3, 4])
    assert s.first_difference(Series([1, 2, 3, 4])) is None
    assert s.first_difference(Series([1, 2, 3])) is None  # the common order is 2
    assert s.first_difference(Series([1, 2, 5, 4, 9])) == 2
    assert Series([0, 1]).first_difference(Series([1, 1])) == 0
    # an integral Fraction is the int of the same value
    assert s.first_difference(Series([1, Fraction(4, 2), 3, 4])) is None
    assert Series([1, Fraction(1, 2)]).first_difference(Series([1, Fraction(1, 3)])) == 1


def test_scalar_division():
    s = Series([2, 4]) / 2
    assert s == Series([1, 2])
    with pytest.raises(ZeroDivisionError):
        Series([1]) / 0


def test_sqrt_known_expansions():
    # these two expansions recur throughout the closed forms
    assert Series([1, 0, -4], order=8).sqrt().as_integers() == [1, 0, -2, 0, -2, 0, -4, 0, -10]
    assert Series([1, 0, -6, 0, 5], order=8).sqrt().as_integers() == [1, 0, -3, 0, -2, 0, -6, 0, -20]


def test_sqrt_domain():
    with pytest.raises(SqrtDomain):
        Series([2, 1]).sqrt()
    with pytest.raises(SqrtDomain):
        Series([0, 1]).sqrt()


def test_sqrt_square_round_trip_seeded():
    rng = random.Random(1101)
    for _ in range(25):
        coeffs = [1] + [rng.randint(-6, 6) for _ in range(12)]
        s = Series(coeffs)
        assert (s * s).sqrt() == s


def test_shift_round_trip():
    s = Series([1, 2, 3])
    up = s.shift_up(2)
    assert up.order == 4
    assert up == Series([0, 0, 1, 2, 3])
    assert up.shift_down(2) == s
    with pytest.raises(ValuationError):
        Series([1, 2]).shift_down(1)
    with pytest.raises(ValuationError):
        Series([0, 1]).shift_down(2)


def test_truncate():
    s = Series([1, 2, 3, 4])
    assert s.truncate(1) == Series([1, 2])
    with pytest.raises(OrderExceeded):
        s.truncate(9)


def test_pow():
    a = Series([1, 1], order=5)
    assert a.pow(0) == Series.one(5)
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a.pow(-1)


def test_as_integers():
    assert Series([1, Fraction(4, 2)]).as_integers() == [1, 2]
    with pytest.raises(NonIntegerCoefficient) as exc:
        Series([1, Fraction(1, 2)]).as_integers()
    assert "z^1" in str(exc.value)


def test_str_forms():
    assert str(Series([1, 0, 1, 0, 3], order=4)) == "1 + z^2 + 3*z^4"
    assert str(Series([1, -2])) == "1 - 2*z"
    assert str(Series([-1, 1])) == "-1 + z"
    assert str(Series.zero(3)) == "0"
    assert str(Series([0, Fraction(1, 2)])) == "1/2*z"


def test_json_round_trip():
    s = Series([Fraction(3, 2), -1, 0])
    data = s.to_json()
    assert data == ["3/2", "-1", "0"]
    assert Series(map(Fraction, data)) == s


def test_equality_requires_same_order():
    assert Series([1, 2]) != Series([1, 2], order=3)
    assert Series([1, 2]) == Series([1, 2])
    assert hash(Series([1, 2])) == hash(Series([1, 2]))


# -- the engine against a plain-Fraction reference -------------------------
#
# The engine mixes ints and Fractions in one tuple and takes each quotient
# through one exact-division helper; these schoolbook routines stay on
# Fractions throughout, so a quotient that comes back rounded, or an int
# that should have become a Fraction, shows as a differing list.


def ref_mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_div(a: list, b: list) -> list:
    n = min(len(a), len(b))
    v = next(i for i, c in enumerate(b) if c)
    a, b = a[v:n], b[v:n]
    out = []
    for k in range(len(a)):
        acc = a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc / b[0])
    return out


def ref_sqrt(a: list) -> list:
    r = [Fraction(1)]
    for m in range(1, len(a)):
        r.append((a[m] - sum(r[k] * r[m - k] for k in range(1, m))) / 2)
    return r


def rand_fracs(rng: random.Random, length: int, denominators=(1, 2, 3, 4, 6, 7, 9)) -> list:
    return [Fraction(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(length)]


def test_engine_add_sub_match_reference_over_mixed_denominators():
    rng = random.Random(6001)
    for _ in range(60):
        a = rand_fracs(rng, rng.randint(1, 12))
        b = rand_fracs(rng, rng.randint(1, 12), denominators=(1, 5, 8, 10, 12))
        n = min(len(a), len(b))
        assert Series(a) + Series(b) == Series([x + y for x, y in zip(a[:n], b[:n])])
        assert Series(a) - Series(b) == Series([x - y for x, y in zip(a[:n], b[:n])])
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        assert Series(a) + k == Series([a[0] + k, *a[1:]])
        assert k - Series(a) == Series([k - a[0], *(-x for x in a[1:])])


def test_engine_mul_matches_reference():
    rng = random.Random(6002)
    for _ in range(60):
        a = rand_fracs(rng, rng.randint(1, 15))
        b = rand_fracs(rng, rng.randint(1, 15))
        if rng.random() < 0.3:  # a sparse polynomial factor
            b = [c if rng.random() < 0.2 else Fraction(0) for c in b]
        assert Series(a) * Series(b) == Series(ref_mul(a, b))


@pytest.mark.parametrize("lead", [1, -1, 2, 3, -5, Fraction(2, 3)])
def test_engine_div_matches_reference(lead):
    rng = random.Random(6003)
    for _ in range(40):
        a = rand_fracs(rng, 14)
        b = rand_fracs(rng, 14)
        b[0] = Fraction(lead)
        v = rng.randrange(0, 3)
        # valuation cancellation: both sides carry z^v
        a = [Fraction(0)] * v + a[: 14 - v]
        b = [Fraction(0)] * v + b[: 14 - v]
        q = Series(a) / Series(b)
        assert q.order == 13 - v
        assert q == Series(ref_div(a, b))
        assert q * Series(b[v:]) == Series(a[v:])


@pytest.mark.parametrize("lead", [2, -5, Fraction(2, 3)])
def test_div_over_sparse_divisors_matches_reference(lead):
    # the quotient runs over the divisor's nonzero taps: divisors with zero
    # taps inside, trailing zeros and valuation up to 2, over integer
    # dividends, so each quotient is an int where it is exact and a Fraction
    # where it is not
    rng = random.Random(6007)
    kinds = set()
    for _ in range(40):
        v = rng.randrange(0, 3)
        inner = [Fraction(rng.randint(-6, 6)) if rng.random() < 0.4 else Fraction(0) for _ in range(6)]
        inner[rng.randrange(6)] = Fraction(0)
        b = [Fraction(0)] * v + [Fraction(lead)] + inner + [Fraction(0)] * rng.randint(1, 5)
        a = [Fraction(0)] * v + [Fraction(rng.randint(-9, 9)) for _ in range(len(b) - v)]
        q = Series(a) / Series(b)
        want = ref_div(a, b)
        assert q == Series(want)
        types = [type(q.coeff(i)) for i in range(q.order + 1)]
        assert types == [int if c.denominator == 1 else Fraction for c in want]
        assert q * Series(b[v:]) == Series(a[v:])
        kinds.update(types)
    assert kinds == {int, Fraction}


def test_engine_sqrt_matches_reference_on_fractional_series():
    # sqrt(1 + z) = 1 + z/2 - z^2/8 + z^3/16 - 5z^4/128 + ...
    root = Series([1, 1], order=6).sqrt()
    assert root.truncate(4) == Series(
        [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16), Fraction(-5, 128)]
    )
    assert root == Series(ref_sqrt([Fraction(1), Fraction(1)] + [Fraction(0)] * 5))
    assert root * root == Series([1, 1], order=6)
    rng = random.Random(6004)
    for _ in range(40):
        a = [Fraction(1)] + rand_fracs(rng, rng.randint(0, 14))
        r = Series(a).sqrt()
        assert r == Series(ref_sqrt(a))
        assert r * r == Series(a)


def test_sqrt_recurrence_runs_over_the_radicand_span():
    rng = random.Random(6006)
    # trailing zeros make the span shorter than the order; an odd numerator
    # at z^1 puts 8 into the denominator of the root's z^2 term (-a_1^2 / 8
    # plus a_2 / 2), so the root's denominators outgrow the radicand's
    for den in (1, 2, 3, 5, 7):
        for _ in range(8):
            a = [Fraction(1)] + [Fraction(rng.randint(-9, 9), den) for _ in range(rng.randint(1, 6))]
            if not a[1].numerator % 2:
                a[1] += Fraction(1, den)
            a += [Fraction(0)] * rng.randint(1, 12)
            r = Series(a).sqrt()
            assert r == Series(ref_sqrt(a))
            assert r * r == Series(a)
            assert max(r.coeff(i).denominator for i in range(r.order + 1)) > den
    # span 1, order 0 included: the square root of 1 is 1
    for k in range(6):
        assert Series([1], order=k).sqrt() == Series.one(k)


def test_engine_pow_is_repeated_product():
    rng = random.Random(6005)
    for _ in range(6):
        s = Series(rand_fracs(rng, 10))
        product = Series.one(s.order)
        for k in range(10):
            assert s.pow(k) == product and s ** k == product
            product = product * s


def test_integral_coefficients_are_ints_and_spellings_agree():
    s = Series([1, Fraction(1, 2), Fraction(4, 2), 0])
    assert [type(s.coeff(i)) for i in range(4)] == [int, Fraction, int, int]
    assert type(s.coeff(0)) is int and type(s.coeff(1)) is Fraction
    assert _all_ints(Series([1, 2]))
    half = Series([Fraction(1, 2), 1])
    same = Series([Fraction(2, 4), Fraction(3, 3)])
    assert half == same and hash(half) == hash(same)
    # a result that reduces to integers equals the integer spelling
    assert half * 2 == Series([1, 2]) and hash(half * 2) == hash(Series([1, 2]))
    assert Series([Fraction(1, 3), Fraction(2, 3)]) + Series([Fraction(2, 3), Fraction(1, 3)]) == Series([1, 1])
    assert Series([1, Fraction(1, 2)]).truncate(0) == Series([1])


def _all_ints(s: Series) -> bool:
    return all(type(s.coeff(i)) is int for i in range(s.order + 1))


@pytest.mark.parametrize("name", cf.series_names())
def test_registry_series_hold_only_ints(name):
    s = cf.series_by_name(name.replace(":J", ":3"), 60)
    assert _all_ints(s)
    assert Series(s.as_integers()) == s


def test_integer_quotients_stay_ints():
    for model in cf.MODELS:
        assert _all_ints(cf.disc(model, 60).sqrt())
    # (4 + 8z - 4z^2)(1 + z + 3z^3) over a divisor whose lead 4 divides every step
    divisor = Series([4, 8, -4], order=12)
    q = (divisor * Series([1, 1, 0, 3], order=12)).div(divisor)
    assert q == Series([1, 1, 0, 3], order=12) and _all_ints(q)
    assert _all_ints(Series([2, 4, -6]) / 2)


def test_inexact_quotients_are_fractions():
    halved = Series([1, 1]) / 2
    assert halved == Series([Fraction(1, 2), Fraction(1, 2)])
    assert type(halved.coeff(0)) is Fraction and type(halved.coeff(1)) is Fraction
    root = Series([1, 1]).sqrt()
    assert root == Series([1, Fraction(1, 2)]) and type(root.coeff(1)) is Fraction


def test_floats_are_refused_and_bools_stored_as_ints():
    with pytest.raises(TypeError):
        Series([1.5])
    with pytest.raises(TypeError):
        Series([1]) * 0.5
    with pytest.raises(TypeError):
        Series([1]) / 2.0
    assert Series([True]).to_json() == ["1"]
    assert type(Series([True, False]).coeff(0)) is int
    assert type((Series([1]) * True).coeff(0)) is int
