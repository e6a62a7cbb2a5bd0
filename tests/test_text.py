"""The exact-text layer: decimal text of ints past the ``str(int)`` guard, the
``Decimal`` copies a stream runs on, and the digit count and estimate."""

import ast
import decimal
import inspect
import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st
from interpreter import STR_GUARDS, needs_str_guard, str_guard
from test_public_surface import _sample_values

import kfiblike.ring
from kfiblike import _text
from kfiblike._text import decimal_copy, elem_str
from kfiblike.sequences import term_fast
from kfiblike.transforms import TransformKind, transform_recurrence


def test_text_imports_nothing_from_the_package():
    for node in ast.walk(ast.parse(inspect.getsource(_text))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("kfiblike")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("kfiblike") for alias in node.names)
    assert kfiblike.ring.elem_str is _text.elem_str


def _leaves(value):
    """The ints, or Decimals, of a record of them, in field order."""
    if isinstance(value, (int, Decimal)):
        return [value]
    items = value if isinstance(value, tuple) else value._values()
    return [leaf for item in items for leaf in _leaves(item)]


@pytest.mark.parametrize("record", [value for value, *_ in _sample_values()
                                    if "KPoly" not in repr(value)],
                         ids=lambda record: type(record).__name__)
def test_decimal_copy_rebuilds_an_int_record_from_decimal_fields(record):
    copy = decimal_copy(record)
    assert type(copy) is type(record)
    ints, decimals = _leaves(record), _leaves(copy)
    assert {type(x) for x in ints} == {int} and {type(d) for d in decimals} == {Decimal}
    assert decimals == ints


# bit widths from 0 to about three times the str() threshold, either sign
WIDE_INTS = st.integers(0, 3 * _text._STR_MAX_BITS).flatmap(
    lambda b: st.integers(-(1 << b), 1 << b))


@settings(max_examples=150, deadline=None)
@given(WIDE_INTS)
def test_elem_str_equals_str_on_both_sides_of_the_threshold(x):
    with str_guard(0):
        assert elem_str(x) == str(x)


# the str() threshold, the leaf width and the first split widths above it
EDGE_BITS = (_text._STR_MAX_BITS, _text._STR_MAX_BITS + 1, _text._LEAF_BITS,
             2 * _text._LEAF_BITS, 4 * _text._LEAF_BITS, 16 * _text._LEAF_BITS,
             32 * _text._LEAF_BITS)


@pytest.mark.parametrize("b", EDGE_BITS)
def test_decimal_route_at_edge_widths(b):
    with str_guard(0):
        for m in (2**b - 1, 2**b, 2**b + 1):
            with decimal.localcontext(_text._EXACT_CONTEXT):
                assert str(_text._to_decimal(m)) == str(m)
            for x in (m, -m):
                assert elem_str(x) == str(x)
    assert elem_str(0) == "0"


# split widths whose power of two is past libmpdec's schoolbook cut, and the
# digit counts of a high part on both sides of each edge of the padded band
PAD_SPLITS = (16384, 32768, 65536)
PAD_EDGE_DIGITS = (_text._PAD_MIN_DIGITS - 1, _text._PAD_MIN_DIGITS,
                   _text._SCHOOLBOOK_MAX_DIGITS, _text._SCHOOLBOOK_MAX_DIGITS + 1)
NOISY_DROP_CONTEXT = _text._DROP_ZEROS_CONTEXT.copy()
NOISY_DROP_CONTEXT.traps[decimal.Rounded] = True


@pytest.mark.parametrize("s", PAD_SPLITS)
@pytest.mark.parametrize("d", PAD_EDGE_DIGITS)
def test_decimal_route_at_the_edges_of_the_padded_band(monkeypatch, s, d):
    rng = random.Random(f"{s}:{d}")
    his = (10**(d - 1), 10**d - 1)
    for hi in his:
        x = (hi << s) + rng.getrandbits(s)  # its top split is at s
        with str_guard(0):
            assert elem_str(x) == str(x) and elem_str(-x) == str(-x)
    # only a padded product drops zeros, which this context traps
    monkeypatch.setattr(_text, "_DROP_ZEROS_CONTEXT", NOISY_DROP_CONTEXT)
    with decimal.localcontext(_text._EXACT_CONTEXT):
        for hi in map(Decimal, his):
            if _text._PAD_MIN_DIGITS <= d <= _text._SCHOOLBOOK_MAX_DIGITS:
                with pytest.raises(decimal.Rounded):
                    _text._times_pow2(hi, s)
            else:
                assert _text._times_pow2(hi, s) == hi * _text._pow2(s)


def test_a_padded_product_that_would_drop_a_nonzero_digit_raises():
    hi, drop = Decimal(10**2999 + 7), _text._DROP_ZEROS_CONTEXT
    with decimal.localcontext(_text._EXACT_CONTEXT):
        product = hi.quantize(Decimal("1e-3")) * _text._pow2(16384)
        assert product.quantize(_text._ONE, context=drop) == hi * _text._pow2(16384)
        with pytest.raises(decimal.Inexact):
            (product + Decimal("0.001")).quantize(_text._ONE, context=drop)


# widths whose top split pads its high part: the split width, plus from about
# _PAD_MIN_DIGITS to _SCHOOLBOOK_MAX_DIGITS digits, at each split width
# below 2**17 bits
PAD_BAND_WIDTHS = st.sampled_from(PAD_SPLITS).flatmap(lambda s: st.integers(
    s + (10**(_text._PAD_MIN_DIGITS - 1)).bit_length() - 64,
    s + (10**_text._SCHOOLBOOK_MAX_DIGITS).bit_length() + 64))


@settings(max_examples=80, deadline=None)
@given(PAD_BAND_WIDTHS, st.randoms(use_true_random=False), st.booleans())
def test_elem_str_equals_str_in_the_padded_bands(w, rng, negative):
    x = rng.getrandbits(w) | 1 << (w - 1)
    x = -x if negative else x
    with str_guard(0):
        assert elem_str(x) == str(x)


def test_str_threshold_is_the_default_guard():
    # every int of at most _STR_MAX_BITS bits has at most 4300 digits
    with str_guard(0):
        assert len(str(2**_text._STR_MAX_BITS - 1)) == 4300
        assert len(str(2**(_text._STR_MAX_BITS + 1) - 1)) == 4301


def test_power_table_is_bounded_by_the_widest_value(monkeypatch):
    monkeypatch.setattr(_text, "_POW2", {})
    x = 3**90_000  # 142,650 bits; its top split pads an 11,578-bit high part
    with str_guard(0):  # the reference's own str() of the high part
        high_digits = len(str(x >> 2**17))
    assert _text._PAD_MIN_DIGITS <= high_digits <= _text._SCHOOLBOOK_MAX_DIGITS
    elem_str(x)
    table = dict(_text._POW2)
    assert len(table) <= x.bit_length().bit_length()
    assert all(s & (s - 1) == 0 and _text._LEAF_BITS <= s < x.bit_length() for s in table)
    elem_str(x // 7**5000)
    elem_str(-x)
    assert _text._POW2 == table
    # the padded products add no entry: with none, the table is the same
    monkeypatch.setattr(_text, "_POW2", {})
    monkeypatch.setattr(_text, "_PAD_MIN_DIGITS", _text._SCHOOLBOOK_MAX_DIGITS + 1)
    elem_str(x)
    assert _text._POW2 == table


@needs_str_guard
@pytest.mark.parametrize("limit", STR_GUARDS)
def test_elem_str_works_under_the_str_guard(limit):
    # 16,902 digits, then 641, 1691 and 4300: only a lowered guard refuses those
    values = [7**20000, 10**640, 7**2000, 10**4300 - 1]
    with str_guard(limit):
        with pytest.raises(ValueError):
            str(values[0])
        texts = [elem_str(sign * x) for x in values for sign in (1, -1)]
    with str_guard(0):
        assert texts == [str(sign * x) for x in values for sign in (1, -1)]


def test_digit_count_at_powers_of_ten():
    # len(str(10**d - 1)) is d and len(str(10**d)) is d + 1; a minus sign adds one
    assert _text._digit_count(0) == len(str(0)) == 1
    p = 1
    for d in range(1, 5001):
        p *= 10
        assert _text._digit_count(p - 1) == _text._digit_count(1 - p) - 1 == d
        assert _text._digit_count(p) == _text._digit_count(-p) - 1 == d + 1


@pytest.mark.parametrize("kind", list(TransformKind))
def test_digits_estimate_tracks_the_length(kind):
    # n*log10 r1 leaves out log10 of the leading coefficient, which is within
    # about log10 k of zero for these families
    for k in (1, 2, 3, 10, 1000, 10**20):
        rec = transform_recurrence(kind, k)
        for n in (1, 2, 3, 5, 10, 50, 100, 200, 400):
            digits = len(elem_str(term_fast(rec, n)))
            assert abs(_text._digits_estimate(rec, n) - digits) <= len(str(k)) + 1


# _digits_estimate at n = 1, 1000, 10**6 for k = 1, 2, 10**50, 10**4000
DIGITS_ESTIMATES = {
    "binomial": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
                 (0.5332906831698523, 533.2906831698523, 533290.6831698522),
                 (50.0, 50000.0, 50000000.0), (4000.0, 4000000.0, 4000000000.0)],
    "kbinomial": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
                  (0.8343206788338335, 834.3206788338335, 834320.6788338335),
                  (100.0, 100000.0, 100000000.0), (8000.0, 8000000.0, 8000000000.0)],
    "rising": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
               (0.7655513706757269, 765.5513706757268, 765551.3706757269),
               (100.0, 100000.0, 100000000.0), (8000.0, 8000000.0, 8000000000.0)],
    "falling": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
                (0.6448533407686625, 644.8533407686625, 644853.3407686625),
                (50.30102999566398, 50301.02999566398, 50301029.99566398),
                (4000.3010299956636, 4000301.0299956636, 4000301029.9956636)],
}


@pytest.mark.parametrize("kind", list(TransformKind))
def test_digits_estimate_pinned(kind):
    for k, row in zip((1, 2, 10**50, 10**4000), DIGITS_ESTIMATES[kind.value]):
        rec = transform_recurrence(kind, k)
        got = tuple(_text._digits_estimate(rec, n) for n in (1, 1000, 10**6))
        assert got == pytest.approx(row, rel=1e-12)
        assert _text._digits_estimate(rec, 10**400) == math.inf


# below CPython's default 4300-digit limit on str(int)
@given(x=st.integers() | st.integers(-10**4000, 10**4000))
def test_digit_count_matches_str(x):
    with str_guard(0):  # the reference's own str()
        expected = len(str(x))
    assert _text._digit_count(x) == expected
