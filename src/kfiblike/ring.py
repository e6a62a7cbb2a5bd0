"""Exact arithmetic substrate shared by every other module.

Two carriers, never mixed inside one computation:

* numeric mode -- plain Python ``int`` (already arbitrary precision), used
  when k is a concrete integer >= 1;
* symbolic mode -- :class:`KPoly`, a dense polynomial in the indeterminate k
  with integer coefficients, used to check identities for *every* k at once.

There is deliberately no rational carrier: every identity in scope stays
integral, and the single 1/2 factor that occurs is handled by
:func:`exact_div_int`, which fails loudly if divisibility is ever violated.

``KPoly`` arithmetic is the cost of every symbolic check.  Ring results
are trusted (trimmed, not re-validated), and a product is a schoolbook loop
over the sparser operand, or, when both operands are dense, one big-int
product by Kronecker substitution (Schoenhage 1982; Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", 2009).

``int`` is the numeric result type of every library function.  Its decimal
output goes through exact ``decimal.Decimal`` arithmetic, in one context
with unbounded precision that traps any rounding, because CPython 3.11's
``str(int)`` is quadratic in the digits and ``str(Decimal)`` is linear: the
CLI iterates the streams it prints in that context, and :func:`elem_str`
converts an int past CPython's 4300-digit ``str(int)`` guard to a
``Decimal`` in it by divide and conquer, in subquadratic time and with no
lifted guard.
"""

from __future__ import annotations

import decimal
import operator
from decimal import Decimal
from itertools import repeat
from typing import Dict, Iterable, List, Tuple, Union


class ModeMismatchError(TypeError):
    """Raised when numeric and symbolic values meet in one expression."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact integer division does not divide evenly."""


class KPoly:
    """Dense polynomial in k with integer coefficients, ascending degree.

    Canonical form: no trailing zero coefficient; the zero polynomial is the
    empty coefficient tuple.  Instances are immutable and hashable.
    Arithmetic operators accept KPoly operands only -- combining a KPoly with
    a plain int via ``+``, ``-`` or ``*`` is a mode violation and raises
    ``TypeError``.  Scalar integers enter only through the explicit
    :meth:`scale` (and :func:`exact_div_int`), which is how binomial weights
    are applied.

    Ring results skip the public constructor's per-coefficient type check
    and are only trimmed.  ``*`` loops over the operand with fewer nonzero
    coefficients, skipping zeros, so ``k**i * x`` is one pass over ``x``;
    two operands with ``_KRONECKER_MIN_TERMS`` or more nonzero coefficients
    each go through :func:`_kronecker_mul` instead.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"KPoly coefficients must be int, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, cs: List[int]) -> "KPoly":
        """A KPoly from a list of ints, which it trims in place; no type check."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("KPoly is immutable")

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
        na, nb = len(a) - a.count(0), len(b) - b.count(0)
        if na > nb:
            a, b, na = b, a, nb
        if na >= _KRONECKER_MIN_TERMS:
            return KPoly._trusted(_kronecker_mul(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                j = i
                for y in b:
                    out[j] += x * y
                    j += 1
        return KPoly._trusted(out)

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


# Both operands of a product need at least this many nonzero coefficients
# before one big-int product beats the schoolbook loop.  Such products are
# the squarings and cross products of the Lucas doubling (term_fast,
# binet_closed) at symbolic k.
_KRONECKER_MIN_TERMS = 16


def _kronecker_mul(a: Tuple[int, ...], b: Tuple[int, ...]) -> List[int]:
    """Coefficients of the product of two nonzero coefficient tuples.

    Kronecker substitution (Schoenhage 1982; Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", 2009): evaluate
    both polynomials at k = 256**width, multiply the two ints, and read the
    product's coefficients back from its base-256**width digits.  Every
    product coefficient has magnitude below 2**(8*width - 1), so a slot
    holds it with its sign.
    """
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length())
    width = (bits + 8) // 8
    size = width * (len(a) + len(b) - 1)
    buf = (_pack(a, width) * _pack(b, width)).to_bytes(size, "little", signed=True)
    half = 1 << (8 * width - 1)
    full = half << 1
    out = []
    borrow = 0
    for i in range(0, size, width):
        c = int.from_bytes(buf[i:i + width], "little") + borrow
        borrow = c >= half
        out.append(c - full if borrow else c)
    return out


def _pack(a: Tuple[int, ...], width: int) -> int:
    """The value of ``a`` at k = 256**width, each |coefficient| < 256**width."""
    zero = bytes(width)
    pos = int.from_bytes(b"".join(c.to_bytes(width, "little") if c > 0 else zero
                                  for c in a), "little")
    if min(a) >= 0:
        return pos
    neg = int.from_bytes(b"".join((-c).to_bytes(width, "little") if c < 0 else zero
                                  for c in a), "little")
    return pos - neg


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


def ipow(x: RingElem, e: int) -> RingElem:
    """x**e for a non-negative integer exponent, either mode."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    if isinstance(x, int):
        return x**e
    acc = KPoly.constant(1)
    base = x
    n = e
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


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


def _to_decimal(m: int) -> Decimal:
    """A non-negative int as an exact ``Decimal``; call inside ``_EXACT_CONTEXT``.

    Radix conversion by divide and conquer (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 1.7): m = lo + hi * 2**s, s the largest power of two
    below m's width.  Bit shifts split m in linear time, and the decimal
    products are subquadratic, where str(int) and int division are quadratic
    on CPython 3.11.
    """
    w = m.bit_length()
    if w <= _LEAF_BITS:
        return Decimal(m)
    s = 1 << ((w - 1).bit_length() - 1)
    hi = m >> s
    return _to_decimal(m - (hi << s)) + _to_decimal(hi) * _pow2(s)


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
