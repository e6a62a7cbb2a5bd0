"""Exact decimal text: how an exact int, or a record of ints, becomes output.

Every library function returns ``int``, and most of what the library prints
is the text of very wide ints.  CPython 3.11's ``str(int)`` is quadratic in
the digits, and refuses an int past its guard (4300 digits by default);
``str(Decimal)`` is linear.  So wide values become text in exact ``decimal``
arithmetic, in one context: unbounded precision, any rounding trapped, so a
rounded value raises instead of being printed.  A stream computes its terms
on :func:`decimal_copy` of its record inside :func:`exact_context`, and
:func:`elem_str` converts an int past the guard by divide and conquer, in
subquadratic time and with no lifted guard.

libmpdec 2.5.1, bundled with CPython 3.10 to 3.13, multiplies by schoolbook
whenever the shorter factor has at most 4864 digits (256 words of 19): a
4864 x 10000-digit product took 1.38 ms, a 4865 x 10000-digit one 0.35 ms.
A 13.6k-digit int meets that cut at its top split: a 3.7k-digit high part
times the 9865-digit 2**32768.  So where a split's high part has from 2000
digits up to the cut and its power of two is past it, the high part is
padded with trailing zeros to one digit past the cut, which keeps its value,
and the product drops the zeros again.  Such a product ran 1.0 to 3.5 times
as fast; a whole conversion took 0.17 s instead of 0.20 s at 533k digits,
12-13% less just above 2**18 and 2**20 bits, and ``elem_str`` over the
``bigterm`` benchmark's values 9-21% less.  Below 2000 digits the padded
product is slower at some split widths: 0.8-0.95x at 1800 digits against
2**65536, 0.25-0.8x at 500-1000 digits.

The digit count and estimate, and the check that text agrees with a value
without converting it, live here too.  This module imports nothing from the
package.
"""

import decimal
import math
from decimal import Decimal

_EXACT_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)

# Takes a padded product back to exponent 0.  That drops only zeros, which
# signals Rounded; a nonzero digit dropped would signal Inexact, and raise.
_DROP_ZEROS_CONTEXT = _EXACT_CONTEXT.copy()
_DROP_ZEROS_CONTEXT.traps[decimal.Rounded] = False

# Every int of at most this many bits has at most 4300 digits, so str() may print it.
_STR_MAX_BITS = 14_284

# Widths at or below this go to Decimal(int) in one piece.  A power of two, so
# that every split width is one too.
_LEAF_BITS = 1024

_SCHOOLBOOK_MAX_DIGITS = 256 * 19  # libmpdec's schoolbook cut
_PAD_MIN_DIGITS = 2000  # the shortest high part padded past it
_ONE = Decimal(1)

# Decimal(2**s) for each split width s converted so far: powers of two from
# _LEAF_BITS up to below the widest int converted, so at most its
# bit_length().bit_length() entries.
_POW2: dict[int, Decimal] = {}

_LOG10_2 = math.log10(2)


def exact_context():
    """``decimal.localcontext`` of the exact context, for a ``with`` block."""
    return decimal.localcontext(_EXACT_CONTEXT)


def _pow2(s: int) -> Decimal:
    """``Decimal(2**s)`` for a power of two ``s >= _LEAF_BITS``, by squaring."""
    p = _POW2.get(s)
    if p is None:
        if s == _LEAF_BITS:
            p = Decimal(1 << s)
        else:
            half = _pow2(s >> 1)
            p = half * half
        _POW2[s] = p
    return p


def _times_pow2(d: Decimal, s: int) -> Decimal:
    """``d * 2**s`` at exponent 0, for an integral ``d`` and a split width
    ``s``, padding ``d`` as the module docstring tells: ``quantize`` to a
    negative exponent brings in the zeros, and quantizing the product back
    under ``_DROP_ZEROS_CONTEXT`` drops them.  Call inside the exact context."""
    p = _pow2(s)
    digits = d.adjusted() + 1
    if _PAD_MIN_DIGITS <= digits <= _SCHOOLBOOK_MAX_DIGITS <= p.adjusted():
        padded = d.quantize(Decimal((0, (1,), digits - _SCHOOLBOOK_MAX_DIGITS - 1)))
        return (padded * p).quantize(_ONE, context=_DROP_ZEROS_CONTEXT)
    return d * p


def _to_decimal(m: int) -> Decimal:
    """A non-negative int as an exact ``Decimal``; call inside the exact context.

    Radix conversion by divide and conquer (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 1.7): m = lo + hi * 2**s, s the largest power of two
    below m's width.  Bit shifts split m in linear time, and the decimal
    products are subquadratic, where str(int) and int division are quadratic
    on CPython 3.11.  ``hi`` has at most s bits, so it is the shorter factor.
    """
    w = m.bit_length()
    if w <= _LEAF_BITS:
        return Decimal(m)
    s = 1 << ((w - 1).bit_length() - 1)
    hi = m >> s
    return _to_decimal(m - (hi << s)) + _times_pow2(_to_decimal(hi), s)


def elem_str(x) -> str:
    """Decimal string for ints, descending-degree text for polynomials:
    ``str(x)``, with no lifted guard for an int too wide for CPython's
    default ``str(int)`` guard or for a guard lowered below it."""
    if type(x) is not int:
        return str(x)
    if x.bit_length() <= _STR_MAX_BITS:
        try:
            return str(x)
        except ValueError:  # a str(int) guard set below 4300 digits
            pass
    with exact_context():
        text = str(_to_decimal(abs(x)))
    return "-" + text if x < 0 else text


def decimal_copy(value):
    """An int, a tuple of them or a record of ints (``Order2Rec``, ``XPoly``,
    ``RationalGF``) with a ``Decimal`` in place of each int, converted, not
    computed.  A record is rebuilt as ``Frozen.__reduce__`` rebuilds it for
    pickle and copy: its class called on its ``_fields``, here copied."""
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, tuple):
        return tuple([decimal_copy(c) for c in value])
    return type(value)(*[decimal_copy(getattr(value, name)) for name in value._fields])


def _digits_estimate(rec, n: int) -> float:
    """About ``len(str(x(n)))`` of an int ``Order2Rec``: n*log10 r1, r1 =
    (|a| + sqrt(a^2 + 4b)) / 2 the dominant characteristic root, taken in
    ints scaled by 2**64, with ``isqrt``, so that it stays accurate for a k
    too large for a float; an n too large for a float gives infinity."""
    disc = rec.a * rec.a + 4 * rec.b
    r1_scaled = (abs(rec.a) << 64) + math.isqrt(disc << 128)
    try:
        return n * (math.log10(r1_scaled) - 65 * _LOG10_2)
    except OverflowError:
        return math.inf


def _digit_count(x: int) -> int:
    """``len(str(x))`` without the decimal conversion: the bit length
    brackets log10 |x| in an interval 0.301 wide, so ``e``, floor(log10 |x|)
    estimated from its midpoint, is off by at most one either way;
    comparisons with 10**e and 10**(e+1) settle it."""
    m = abs(x) or 1  # "0" has one digit, as "1" does
    e = int((m.bit_length() - 0.5) * _LOG10_2)
    p = 10**e
    digits = e if m < p else e + 1 + (m >= 10 * p)
    return digits + (x < 0)


def _decimal_agrees(text: str, x: int, x_digits: int) -> bool:
    """Whether ``text`` agrees with ``x`` in length (``x_digits``, which is
    ``_digit_count(x)``), last 18 digits, digit sum mod 9 and alternating
    digit sum mod 11 (a digit at an odd place from the end weighs
    10**odd = -1), with no decimal conversion of ``x``.  One wrong digit moves
    the sums by 1 to 9 either way, which 11 never divides."""
    digits, m = text.lstrip("-"), abs(x)
    if len(text) != x_digits or int(digits[-18:]) != m % 10**18:
        return False
    even, odd = digits[::-2], digits[-2::-2]
    total = alternating = 0
    for d in range(1, 10):
        e, o = even.count(str(d)), odd.count(str(d))
        total, alternating = total + d * (e + o), alternating + d * (e - o)
    return total % 9 == m % 9 and alternating % 11 == m % 11
