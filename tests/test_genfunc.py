import decimal
from decimal import Decimal
from functools import partial
from itertools import islice

import pytest
from interpreter import needs_str_guard, run_python

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
from kfiblike.ring import _EXACT_CONTEXT, K, KPoly
from kfiblike.sequences import Order2Rec, k_fib, terms
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


def test_published_binomial_gf_diverges_at_index_one():
    assert gf_expand(published_gf(TransformKind.BINOMIAL, 1), 4) == [2, 2, 4, 10]
    for k in range(1, 11):
        printed = gf_expand(published_gf(TransformKind.BINOMIAL, k), 2)
        truth = gf_expand(derived_gf(TransformKind.BINOMIAL, k), 2)
        assert printed[0] == truth[0]
        assert printed[1] != truth[1]
    assert not gf_equal(published_gf(TransformKind.BINOMIAL, K),
                        derived_gf(TransformKind.BINOMIAL, K))


def test_published_gfs_match_derivations_for_other_kinds():
    for kind in (TransformKind.K_BINOMIAL, TransformKind.RISING_K,
                 TransformKind.FALLING_K):
        assert gf_equal(published_gf(kind, K), derived_gf(kind, K))
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


def test_xpoly_arithmetic():
    p = xpoly([1, 2])
    q = xpoly([3, -2])
    assert (p * q).coeffs == (3, 4, -4)
    assert xpoly([0]).coeffs == ()
    assert p.coeffs[0] == 1


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


GF_CHILD = """
import sys
from kfiblike.genfunc import derived_gf, gf_str
from kfiblike.transforms import TransformKind
k = 7**4000  # 3381 digits; k**3 has 10,141
try:
    str(k**3)
except ValueError:
    pass
else:
    raise SystemExit("the default str(int) guard is not in force")
text = gf_str(derived_gf(TransformKind.K_BINOMIAL, k))
sys.set_int_max_str_digits(0)
want = f"(2 - {2 * k**2}x) / (1 - {k**2 + 2 * k}x + {k**3}x^2)"
assert text == want, text[:40]
"""


@needs_str_guard
def test_gf_str_works_under_the_default_str_guard():
    proc = run_python("-c", GF_CHILD)
    assert proc.returncode == 0, proc.stderr.decode()


def test_expand_count_validation():
    gf = derived_gf(TransformKind.BINOMIAL, 2)
    assert gf_expand(gf, 0) == []
    with pytest.raises(ValueError):
        gf_expand(gf, -1)
