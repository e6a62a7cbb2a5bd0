import decimal
from decimal import Decimal
from functools import partial
from itertools import islice

import pytest
from interpreter import STR_GUARDS, needs_str_guard, str_guard

from kfiblike.genfunc import (
    RationalGF,
    XPoly,
    derived_gf,
    gf_equal,
    gf_expand,
    gf_from_rec,
    gf_str,
    iter_gf,
    published_gf,
    xpoly,
    xpoly_str,
)
from kfiblike import genfunc
from kfiblike._text import _EXACT_CONTEXT, decimal_copy
from kfiblike.ring import K, KPoly
from kfiblike.sequences import Order2Rec, k_fib, modified_k_fib, terms
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence


def test_gf_from_rec_symbolic_shapes():
    gf = derived_gf(TransformKind.BINOMIAL, K)
    assert gf.num.coeffs == (KPoly.constant(2), KPoly((0, -2)))      # 2 - 2kx
    assert gf.den.coeffs == (KPoly.constant(1), KPoly((-2, -1)), K)  # 1-(k+2)x+kx^2
    gf = derived_gf(TransformKind.RISING_K, K)
    assert gf.num.coeffs == (KPoly.constant(2), KPoly((-2, 2, -2)))  # 2-(2k^2-2k+2)x
    gf = derived_gf(TransformKind.FALLING_K, K)
    assert gf.num.coeffs == (KPoly.constant(2), KPoly((2, -4)))      # 2+(2-4k)x


def test_gf_expand_examples():
    assert gf_expand(derived_gf(TransformKind.BINOMIAL, 2), 6) == \
        [2, 4, 12, 40, 136, 464]
    geometric = RationalGF(num=xpoly([1]), den=xpoly([1, -1]))
    assert gf_expand(geometric, 4) == [1, 1, 1, 1]
    assert gf_expand(derived_gf(TransformKind.K_BINOMIAL, 3), 4) == \
        [2, 12, 126, 1566]


# Each transform, and the k-Fibonacci sequence, whose numerator has a zero
# constant term.
@pytest.mark.parametrize("make", [*(partial(transform_recurrence, kind) for kind in KIND_ORDER),
                                  k_fib],
                         ids=[*(kind.value for kind in KIND_ORDER), "k_fib"])
def test_round_trip_recurrence_to_series(make):
    for k in (*range(1, 11), K):
        rec = make(k)
        assert gf_expand(gf_from_rec(rec), 40) == terms(rec, 40)


def _assert_series_of(gf, series):
    """``series`` times the denominator is the numerator, to the series' length."""
    den, num = gf.den.coeffs, gf.num.coeffs
    zero = series[0] - series[0]
    for n in range(len(series)):
        acc = zero
        for j in range(min(n, len(den) - 1) + 1):
            acc = acc + den[j] * series[n - j]
        assert acc == (num[n] if n < len(num) else zero)


@pytest.mark.parametrize("num, den", [
    ([1, 2, 3, 4, 5, -6, 0, 7], [1, -1, -1]),  # numerator past the denominator's tail
    ([0, 0, 5], [1, 3, 0, -2]),
    ([], [1, 3]),                              # the zero series
    ([K, KPoly(), KPoly((1, 2, 3)), -K, KPoly((9,))], [KPoly((1,)), -K, KPoly((-1,))]),
    ([KPoly((0, 0, 4))], [KPoly((1,)), KPoly((2, 1)), KPoly(), KPoly((0, -3))]),
])
def test_hand_built_expansions_divide_out(num, den):
    gf = RationalGF(num=xpoly(num), den=xpoly(den))
    series = gf_expand(gf, 40)
    _assert_series_of(gf, series)
    mode = KPoly if isinstance(den[0], KPoly) else int
    assert all(type(c) is mode for c in series)


@pytest.mark.parametrize("num, zero", [([3, 0, -1], 0),
                                       ([K, KPoly(), KPoly((5, -1))], KPoly())])
def test_a_unit_denominator_gives_the_numerator_then_typed_zeros(num, zero):
    one = KPoly((1,)) if isinstance(zero, KPoly) else 1
    series = gf_expand(RationalGF(num=xpoly(num), den=xpoly([one])), 8)
    assert series == num + [zero] * 5
    assert all(type(c) is type(zero) for c in series)


def test_a_decimal_expansion_prints_no_negative_zero():
    # A negated denominator coefficient times a zero term is Decimal("-0").
    rec = Order2Rec(a=Decimal(-2), b=Decimal(-1), x0=Decimal(0), x1=Decimal(0))
    with decimal.localcontext(_EXACT_CONTEXT):
        series = list(islice(iter_gf(gf_from_rec(rec)), 6))
        assert str(Decimal(-3) * Decimal(0)) == "-0"
    assert [str(c) for c in series] == ["0"] * 6


@pytest.mark.parametrize("num, den, order_2", [
    ([1], [1, 0, 1], False),  # 1/(1 + x^2): a zero d1 leaves the convolution
    ([0, 1], [1, -3, -1], True),  # F at k = 3: the series starts at 0
])
def test_decimal_expansions_of_either_route_print_no_negative_zero(calls, num, den, order_2):
    orders = calls(genfunc, "iter_terms")
    gf = decimal_copy(RationalGF(xpoly(num), xpoly(den)))
    with decimal.localcontext(_EXACT_CONTEXT):
        series = [str(c) for c in islice(iter_gf(gf), 12)]
    assert "-0" not in series
    assert series == [str(c) for c in gf_expand(RationalGF(xpoly(num), xpoly(den)), 12)]
    assert bool(orders) is order_2


@pytest.mark.parametrize("k", [*range(1, 11), K])
def test_every_gf_the_library_builds_is_expanded_by_iter_terms(calls, k):
    """Each GF built from a record, and each printed one, is expanded as
    iter_terms of the record read back from it: the record itself, or one
    with the transform's a and b; at int k its Decimal copy too."""
    orders = calls(genfunc, "iter_terms")

    def read_back(gf):
        orders.clear()
        series = gf_expand(gf, 40)
        ((rec,),) = orders
        assert series == terms(rec, 40)
        if isinstance(k, int):
            with decimal.localcontext(_EXACT_CONTEXT):
                assert gf_expand(decimal_copy(gf), 40) == series
            assert len(orders) == 2
        return rec

    for rec in [*(transform_recurrence(kind, k) for kind in KIND_ORDER),
                modified_k_fib(k), k_fib(k)]:
        assert read_back(gf_from_rec(rec)) == rec
    for kind in KIND_ORDER:
        rec, printed = transform_recurrence(kind, k), read_back(published_gf(kind, k))
        assert (printed.a, printed.b) == (rec.a, rec.b)


def test_published_binomial_gf_diverges_at_index_one():
    assert gf_expand(published_gf(TransformKind.BINOMIAL, 1), 4) == [2, 2, 4, 10]
    assert not gf_equal(published_gf(TransformKind.BINOMIAL, K),
                        derived_gf(TransformKind.BINOMIAL, K))


def test_published_gfs_match_derivations_for_other_kinds():
    for kind in (TransformKind.K_BINOMIAL, TransformKind.RISING_K,
                 TransformKind.FALLING_K):
        for k in range(1, 11):
            assert gf_equal(published_gf(kind, k), derived_gf(kind, k))


def test_published_rising_gf_expansion():
    assert gf_expand(published_gf(TransformKind.RISING_K, 2), 4) == [2, 6, 34, 198]


def test_gf_equal_is_cross_multiplied():
    g = derived_gf(TransformKind.BINOMIAL, 3)
    doubled = RationalGF(
        num=xpoly([c * 2 for c in g.num.coeffs]),
        den=g.den,
    )
    assert not gf_equal(g, doubled)
    # same series written with a scaled (still unit-constant) denominator
    shifted = RationalGF(
        num=g.num * xpoly([1, 1]),
        den=g.den * xpoly([1, 1]),
    )
    assert gf_equal(g, shifted)


def test_denominator_must_have_unit_constant_term():
    with pytest.raises(ValueError):
        RationalGF(num=xpoly([1]), den=xpoly([2, 1]))
    with pytest.raises(ValueError):
        RationalGF(num=xpoly([1]), den=xpoly([]))


def test_xpoly_canonicalisation():
    assert xpoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert xpoly([]).coeffs == ()
    with pytest.raises(ValueError):
        XPoly((1, 0))  # direct construction must already be canonical


def test_xpoly_from_a_list_is_a_frozen_tuple():
    cs = [1, 2]
    p = XPoly(cs)
    assert p == xpoly([1, 2]) and hash(p) == hash(xpoly([1, 2]))
    cs.append(0)  # the caller's list, now non-canonical, is not the value
    assert p.coeffs == (1, 2)


def test_xpoly_arithmetic():
    p = xpoly([1, 2])
    q = xpoly([3, -2])
    assert (p * q).coeffs == (3, 4, -4)
    assert xpoly([0]).coeffs == ()
    assert p.coeffs[0] == 1
    assert xpoly([]) * xpoly([1]) == xpoly([])
    with pytest.raises(TypeError):
        xpoly([1]) * 3  # noqa: B018


def test_gf_text_rendering():
    assert gf_str(derived_gf(TransformKind.RISING_K, K)) == \
        "(2 - (2k^2-2k+2)x) / (1 - (k^2+2)x + x^2)"
    assert gf_str(derived_gf(TransformKind.BINOMIAL, 2)) == \
        "(2 - 4x) / (1 - 4x + 2x^2)"
    assert gf_str(derived_gf(TransformKind.BINOMIAL, K)) == \
        "(2 - 2kx) / (1 - (k+2)x + kx^2)"
    assert gf_str(derived_gf(TransformKind.K_BINOMIAL, K)) == \
        "(2 - 2k^2x) / (1 - (k^2+2k)x + k^3x^2)"
    assert xpoly_str(xpoly([])) == "0"
    assert xpoly_str(xpoly([1, 1])) == "1 + x"
    assert xpoly_str(xpoly([1, 0, 1])) == "1 + x^2"


@needs_str_guard
@pytest.mark.parametrize("limit", STR_GUARDS)
def test_gf_str_works_under_the_str_guard(limit):
    k = 7**4000  # 3381 digits; k**3 has 10,141
    with str_guard(limit):
        with pytest.raises(ValueError):
            str(k**3)
        texts = [gf_str(derived_gf(kind, k))
                 for kind in (TransformKind.BINOMIAL, TransformKind.K_BINOMIAL)]
    with str_guard(0):
        assert texts == [f"(2 - {2 * k}x) / (1 - {k + 2}x + {k}x^2)",
                         f"(2 - {2 * k**2}x) / (1 - {k**2 + 2 * k}x + {k**3}x^2)"]


def test_expand_count_validation():
    gf = derived_gf(TransformKind.BINOMIAL, 2)
    assert gf_expand(gf, 0) == []
    with pytest.raises(ValueError):
        gf_expand(gf, -1)
