"""Exact arithmetic substrate shared by every other module.

Two carriers, never mixed inside one computation:

* numeric mode -- plain Python ``int`` (already arbitrary precision), used
  when k is a concrete integer >= 1;
* symbolic mode -- :class:`KPoly`, a dense polynomial in the indeterminate k
  with integer coefficients, used to check identities for *every* k at once;
  an immutable :class:`Frozen` value, like the records built on it.

There is deliberately no rational carrier: every identity in scope stays
integral, and the single 1/2 factor that occurs is handled by
:func:`exact_div_int`, which fails loudly if divisibility is ever violated.

``KPoly`` arithmetic is the cost of every symbolic check.  Ring results
are trusted (trimmed, not re-validated) and built without ``__init__``,
their one slot filled through its descriptor.  One row-pass kernel serves
products and sums of products: a whole-row pass over the longer factor per
nonzero coefficient of the shorter one, all into one list, so a recurrence
step a*x(n) + b*x(n-1) (:meth:`KPoly.dot`) builds one polynomial, not three.
Two shortcuts have their one home here.  :func:`kronecker_eval` computes a
whole single value on ints at k = 256**w and reads it back once: Kronecker
substitution (Schoenhage 1982; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", 2009).  Each caller states its own bound
on the coefficients, which fixes w, in the docstring of the function that
computes it: :func:`ipow`, ``transforms._weighted_sum``,
``sequences._lucas_bound`` and ``sequences.lucas_form``.
:func:`times_k_power` multiplies by k**m, at ``K`` by a coefficient shift.

``int`` is the numeric result type of every library function.  Its decimal
output goes through exact ``decimal.Decimal`` arithmetic, in one context
with unbounded precision that traps any rounding, because CPython 3.11's
``str(int)`` is quadratic in the digits and ``str(Decimal)`` is linear: the
CLI iterates the streams it prints in that context, and :func:`elem_str`
converts an int past CPython's 4300-digit ``str(int)`` guard to a
``Decimal`` in it by divide and conquer, in subquadratic time and with no
lifted guard.  libmpdec 2.5.1, bundled with CPython 3.10 to 3.13,
multiplies by schoolbook whenever the shorter factor has at most 4864
digits (256 words of 19).  So where a split's high part has 2000 to 4864
digits and the power of two it multiplies is past that cut, the high part
is padded with trailing zeros to 4865 digits, which lowers its exponent and
keeps its value, and the zeros are dropped from the product again.  Such a
product ran 1.0 to 3.5 times as fast, and ``elem_str`` over the ``bigterm``
benchmark's values took 9-21% less time.
"""

from __future__ import annotations

import decimal
import operator
from decimal import Decimal
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Tuple, Union


class ModeMismatchError(TypeError):
    """Raised when numeric and symbolic values meet in one expression."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact integer division does not divide evenly."""


class Frozen:
    """Base of an immutable value with the fields named in ``_fields``.

    It behaves as a frozen dataclass over those fields: equal only to an
    instance of the same class with equal fields, hashed, printed as
    ``Name(field=value, ...)`` and copied or pickled through them; assigning
    or deleting an attribute raises ``AttributeError``.  A subclass names
    its fields in ``_fields`` and ``__slots__``, and its ``__init__``
    validates its arguments and sets each field once with
    ``object.__setattr__`` (:class:`KPoly`, on its hot path, through its
    slot's descriptor).  It keeps ``dataclasses`` (and the ``inspect`` it
    loads) off the import of the package.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class KPoly(Frozen):
    """Dense polynomial in k with integer coefficients, ascending degree.

    Canonical form: no trailing zero coefficient; the zero polynomial is the
    empty coefficient tuple.  A :class:`Frozen` value over ``coeffs``, equal
    and hashed by the coefficient tuple alone and printed as ``KPoly(...)``.
    Arithmetic operators accept KPoly operands only -- combining a KPoly with
    a plain int via ``+``, ``-`` or ``*`` is a mode violation and raises
    ``TypeError``.  Scalar integers enter only through the explicit
    :meth:`scale` (and :func:`exact_div_int`), which is how binomial weights
    are applied.

    Ring results skip the public constructor's per-coefficient type check
    and are only trimmed.  One kernel, ``_row_sum``, serves ``*`` and
    :meth:`dot`, a sum of products: one whole-row pass over the longer
    factor (the right one, at equal lengths) for each nonzero coefficient c
    of the other, in C (``map``), never a Python loop over the row.  The
    first c places its row at its degree (the factor itself when c is 1,
    else c times it); each later c adds its row in, with no multiply when c
    is 1 or -1.  So ``k**i * x``, for an ``x`` at least as long, is one copy
    of ``x``, ``(k + 2) * x`` two passes, and ``dot((k + 2, -k), (x, y))``
    three passes into one list.  A product whose longer row is shorter than
    ``_ROW_PASS_MIN_LEN`` is multiplied in a Python loop instead.  There is
    no per-product Kronecker path, only :func:`kronecker_eval`'s per value.
    """

    _fields = __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"KPoly coefficients must be int, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    @staticmethod
    def _trusted(cs: List[int]) -> "KPoly":
        """A KPoly from a list of ints, which it trims in place; no type check."""
        while cs and not cs[-1]:
            cs.pop()
        p = _new(KPoly)
        _set_coeffs(p, tuple(cs))
        return p

    @classmethod
    def constant(cls, c: int) -> "KPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def evaluate(self, value: int) -> int:
        """Horner evaluation at an integer point, exact."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def norm(self) -> int:
        """The l1 norm: the sum of the coefficients' magnitudes."""
        return sum(map(abs, self.coeffs))

    @staticmethod
    def from_kronecker(value: int, width: int) -> "KPoly":
        """The KPoly whose value at k = 256**width is ``value``, read back as
        balanced base-256**width digits: each coefficient must lie in
        [-2**(8*width - 1), 2**(8*width - 1)), as :func:`kronecker_width`
        makes sure."""
        size = (value.bit_length() // (8 * width) + 1) * width
        buf = value.to_bytes(size, "little", signed=True)
        half = 1 << (8 * width - 1)
        full = half << 1
        out = []
        borrow = 0
        for i in range(0, size, width):
            c = int.from_bytes(buf[i:i + width], "little") + borrow
            borrow = c >= half
            out.append(c - full if borrow else c)
        return KPoly._trusted(out)

    def scale(self, c: int) -> "KPoly":
        """Multiply by an integer scalar."""
        if not isinstance(c, int):
            raise TypeError("scale factor must be int")
        return KPoly._trusted(list(map(operator.mul, self.coeffs, repeat(c))))

    def __add__(self, other):
        if not isinstance(other, KPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(operator.add, a, b))
        out += a[len(b):]
        return KPoly._trusted(out)

    def __sub__(self, other):
        if not isinstance(other, KPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(map(operator.sub, a, b))
        if len(a) > len(b):
            out += a[len(b):]
        else:
            out += map(operator.neg, b[len(a):])
        return KPoly._trusted(out)

    def __neg__(self):
        return KPoly._trusted(list(map(operator.neg, self.coeffs)))

    def __mul__(self, other):
        if not isinstance(other, KPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return KPoly._trusted([])
        if len(a) > len(b):
            a, b = b, a
        nb = len(b)
        if nb < _ROW_PASS_MIN_LEN:
            out = [0] * (len(a) + nb - 1)
            for i, x in enumerate(a):
                if x:
                    j = i
                    for y in b:
                        out[j] += x * y
                        j += 1
            return KPoly._trusted(out)
        return KPoly._trusted(_row_sum(((a, b),), len(a) + nb - 1))

    @staticmethod
    def dot(xs: Iterable["KPoly"], ys: Iterable["KPoly"]) -> "KPoly":
        """The sum of x * y over the pairs ``zip(xs, ys)`` makes, zero when
        there are none: all its row passes go into one list, so no product
        is built as a polynomial of its own."""
        pairs = []
        size = 0
        for x, y in zip(xs, ys):
            if not isinstance(x, KPoly) or not isinstance(y, KPoly):
                raise TypeError("KPoly.dot takes KPoly operands only")
            a, b = x.coeffs, y.coeffs
            if a and b:
                if len(a) > len(b):
                    a, b = b, a
                pairs.append((a, b))
                size = max(size, len(a) + len(b) - 1)
        return KPoly._trusted(_row_sum(pairs, size))

    def shift(self, m: int) -> "KPoly":
        """Multiply by k**m, m >= 0: m zero coefficients put in front."""
        if type(m) is not int:
            raise TypeError("shift must be int")
        if m < 0:
            raise ValueError("shift must be >= 0")
        if not self.coeffs:
            return self
        p = _new(KPoly)
        _set_coeffs(p, (0,) * m + self.coeffs)
        return p

    def __eq__(self, other):
        if not isinstance(other, KPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"KPoly({self.coeffs!r})"

    def __str__(self):
        """Conventional descending-degree text, e.g. ``2k^4+2k^3+6k^2+4k+2``."""
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if d == 0:
                body = elem_str(mag)
            else:
                var = "k" if d == 1 else f"k^{d}"
                body = var if mag == 1 else elem_str(mag) + var
            parts.append(sign + body)
        return "".join(parts)


# Ring results skip __init__, and every KPoly fills its slot through the
# slot's descriptor, past Frozen's blocking __setattr__.
_new = object.__new__
_set_coeffs = KPoly.coeffs.__set__

# A row shorter than this is cheaper to multiply in a Python loop than to
# set up the row passes for, at the small coefficients of the audit's
# symbolic leg.
_ROW_PASS_MIN_LEN = 16


def _row_sum(pairs: Iterable[Tuple[Tuple[int, ...], Tuple[int, ...]]], size: int) -> List[int]:
    """The coefficients of the sum of a * b over the coefficient tuples
    (a, b) in ``pairs``, untrimmed, ``size`` long: each a nonempty and no
    longer than its b, ``size`` the longest len(a) + len(b) - 1.

    One whole-row pass over b, in C, per nonzero coefficient c of a: the
    first c places its row, zero padded to ``size``; each later c adds b
    (c = 1) or subtracts it (c = -1) with no multiply, and adds c times b
    otherwise.
    """
    out = None
    for a, b in pairs:
        nb = len(b)
        for i, c in enumerate(a):
            if not c:
                continue
            if out is None:
                out = [0] * i
                out += b if c == 1 else map(operator.mul, b, repeat(c))
                out += [0] * (size - nb - i)
            elif c == 1:
                out[i:i + nb] = map(operator.add, out[i:i + nb], b)
            elif c == -1:
                out[i:i + nb] = map(operator.sub, out[i:i + nb], b)
            else:
                out[i:i + nb] = map(operator.add, out[i:i + nb], map(operator.mul, b, repeat(c)))
    return [] if out is None else out


def kronecker_width(bound: int) -> int:
    """The fewest bytes w whose slot at k = 256**w holds, with its sign, every
    coefficient of magnitude at most ``bound``: 2**(8w - 1) > bound."""
    return (bound.bit_length() + 8) // 8


#: The indeterminate itself: pass this as k to run any computation symbolically.
K = KPoly((0, 1))

RingElem = Union[int, KPoly]


def require_same_mode(*elems: RingElem) -> None:
    """Reject mixed numeric/symbolic operands before any arithmetic runs."""
    rest = iter(elems)
    symbolic = isinstance(next(rest, None), KPoly)
    for e in rest:
        if isinstance(e, KPoly) is not symbolic:
            raise ModeMismatchError(
                "cannot mix numeric (int) and symbolic (KPoly) values in one computation"
            )


def scale(x: RingElem, c: int) -> RingElem:
    """Multiply a ring element by an integer scalar (mode preserving)."""
    if isinstance(x, KPoly):
        return x.scale(c)
    return x * c


def const_like(c: int, template: RingElem) -> RingElem:
    """The integer constant c carried in the same mode as ``template``."""
    return KPoly.constant(c) if isinstance(template, KPoly) else c


def zero_like(template: RingElem) -> RingElem:
    return KPoly() if isinstance(template, KPoly) else 0


def one_like(template: RingElem) -> RingElem:
    return const_like(1, template)


def kronecker_eval(fn: Callable, args: Tuple[KPoly, ...], bound: int):
    """``fn(*args)`` at KPoly ``args`` by Kronecker substitution.  ``fn`` only
    adds, subtracts and multiplies; the caller states ``bound``, at least the
    magnitude of every coefficient of every value ``fn`` returns, which fixes
    w.  ``fn`` runs once at the args' values at k = 256**w, and each value it
    returns, one or a tuple, is read back from its base-256**w digits."""
    width = kronecker_width(bound)
    point = 256**width
    value = fn(*[a.evaluate(point) for a in args])
    if isinstance(value, tuple):
        return tuple([KPoly.from_kronecker(v, width) for v in value])
    return KPoly.from_kronecker(value, width)


def ipow(x: RingElem, e: int) -> RingElem:
    """x**e for a non-negative integer exponent, either mode; a KPoly power
    is one :func:`kronecker_eval` at the bound ||x||**e, since the l1 norm is
    submultiplicative."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    if isinstance(x, int):
        return x**e
    return kronecker_eval(lambda v: v**e, (x,), x.norm()**e)


def times_k_power(x: RingElem, k: RingElem, m: int) -> RingElem:
    """x * k**m for m >= 0, either mode; at ``K`` itself a :meth:`KPoly.shift`."""
    if not isinstance(k, KPoly):
        return x * k**m
    return x.shift(m) if k == K else x * ipow(k, m)


def exact_div_int(x: RingElem, d: int) -> RingElem:
    """Divide by an integer that must divide evenly; error otherwise.

    The error names the offending value (for polynomials, the first
    non-divisible coefficient and its degree).
    """
    if not isinstance(d, int):
        raise TypeError("divisor must be int")
    if d == 0:
        raise ZeroDivisionError("exact division by zero")
    if isinstance(x, KPoly):
        out = []
        for i, c in enumerate(x.coeffs):
            if c % d != 0:
                raise ExactDivisionError(
                    f"{d} does not divide coefficient {c} of k^{i} in {x}"
                )
            out.append(c // d)
        return KPoly._trusted(out)
    if x % d != 0:
        raise ExactDivisionError(f"{d} does not divide {x}")
    return x // d


# Exact decimal arithmetic: no precision or exponent limit an int could reach,
# and any rounding raises rather than reaching the output.
_EXACT_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)

# Every int of at most this many bits has at most 4300 digits, the default
# limit of CPython's str(int) guard (3.11+), so str() may print it.
_STR_MAX_BITS = 14_284

# Widths at or below this go to Decimal(int) in one piece.  A power of two, so
# that every split width is one too.
_LEAF_BITS = 1024

# libmpdec multiplies by schoolbook whenever the shorter factor has at most
# 256 words of 19 digits; one digit more takes its subquadratic path.
_SCHOOLBOOK_MAX_DIGITS = 256 * 19

# A split's high part with from this many digits up to the cut is padded past
# it when the power of two it multiplies is past it too.  Below about 2000
# digits the padded product is slower than schoolbook at some split widths:
# 0.8-0.95x at 1800 digits against 2**65536, 0.25-0.8x at 500-1000 digits.
_PAD_MIN_DIGITS = 2000

# Takes a padded product back to exponent 0.  That drops only zeros, which
# signals Rounded; a nonzero digit dropped would signal Inexact, and raise.
_DROP_ZEROS_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact],
)
_ONE = Decimal(1)

# Decimal(2**s) for each split width s converted so far: powers of two from
# _LEAF_BITS up to below the widest int converted, so at most its
# bit_length().bit_length() entries.
_POW2: Dict[int, Decimal] = {}


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
    ``s``; call inside ``_EXACT_CONTEXT``.

    When ``Decimal(2**s)`` is past the schoolbook cut (s >= 16384) and ``d``
    has from ``_PAD_MIN_DIGITS`` digits up to the cut, ``d`` is first
    quantized to the negative exponent that gives its coefficient one digit
    past the cut.  Only trailing zeros come in, so its value does not
    change.  Quantizing the product back to exponent 0 drops them again,
    under ``_DROP_ZEROS_CONTEXT``, where a nonzero digit would raise.
    """
    p = _pow2(s)
    digits = d.adjusted() + 1
    if _PAD_MIN_DIGITS <= digits <= _SCHOOLBOOK_MAX_DIGITS <= p.adjusted():
        padded = d.quantize(Decimal((0, (1,), digits - _SCHOOLBOOK_MAX_DIGITS - 1)))
        return (padded * p).quantize(_ONE, context=_DROP_ZEROS_CONTEXT)
    return d * p


def _to_decimal(m: int) -> Decimal:
    """A non-negative int as an exact ``Decimal``; call inside ``_EXACT_CONTEXT``.

    Radix conversion by divide and conquer (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 1.7): m = lo + hi * 2**s, s the largest power of two
    below m's width.  Bit shifts split m in linear time, and the decimal
    products are subquadratic, where str(int) and int division are quadratic
    on CPython 3.11.  ``hi`` has at most s bits, so it is the shorter factor
    of ``hi * 2**s``, and libmpdec multiplies it by schoolbook whenever it
    has at most 4864 digits: a 4864 x 10000-digit product took 1.38 ms, a
    4865 x 10000-digit one 0.35 ms.  An int a little wider than 2**15 or
    2**16 bits meets that at its top split: a 13.6k-digit int multiplies a
    3.7k-digit ``hi`` by the 9865-digit 2**32768.  :func:`_times_pow2` pads
    a ``hi`` of 2000 to 4864 digits past the cut when 2**s is past it, with
    trailing zeros that leave its value and the text as they were.  That
    product ran 1.0 to 3.5 times as fast, and a whole conversion took 0.17 s
    instead of 0.20 s at 533k digits, 12-13% less just above 2**18 and 2**20
    bits.
    """
    w = m.bit_length()
    if w <= _LEAF_BITS:
        return Decimal(m)
    s = 1 << ((w - 1).bit_length() - 1)
    hi = m >> s
    return _to_decimal(m - (hi << s)) + _times_pow2(_to_decimal(hi), s)


def elem_str(x: RingElem) -> str:
    """Decimal string for ints, descending-degree text for polynomials.

    Equal to ``str(x)``.  An int too wide for CPython's default ``str(int)``
    guard is converted through an exact ``Decimal``, in time subquadratic in
    its digits, and needs no lifted guard.
    """
    if type(x) is int and x.bit_length() > _STR_MAX_BITS:
        with decimal.localcontext(_EXACT_CONTEXT):
            text = str(_to_decimal(abs(x)))
        return "-" + text if x < 0 else text
    return str(x)
