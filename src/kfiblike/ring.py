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
their one slot filled through its descriptor.  One kernel serves long
products and sums of products: each nonzero coefficient of a multiplier
contributes the other factor as one zero-padded row, the rows chain lazily
through ``map``, and the result is the one tuple read off the chain, so a
recurrence step a*x(n) + b*x(n-1) (:meth:`KPoly._dot_step`) builds one
polynomial, not three.  A prefix stream, which multiplies by the same
polynomials at every term, makes their row plan once.
Two shortcuts have their one home here.  :func:`kronecker_eval` computes a
whole single value on ints at k = 256**w and reads it back once: Kronecker
substitution (Schoenhage 1982; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", 2009).  Each caller states its own bound
on the coefficients, which fixes w, in the docstring of the function that
computes it: :func:`ipow`, ``transforms._weighted_sum`` and
``sequences.lucas_form``.
:func:`times_k_power` multiplies by k**m, at ``K`` by a coefficient shift.

Decimal text is made in :mod:`kfiblike._text`.  Its :func:`elem_str`, which
``KPoly.__str__`` prints coefficients with, is importable from here too.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Callable, Iterable, List, Sequence, Tuple, Union

from ._text import elem_str


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
    :meth:`_dot_step`, a sum of products.  A multiplier's row plan holds the
    degree i and value c of each of its nonzero coefficients.  Each (i, c)
    contributes the other factor b as one zero-padded row,
    ``(0,)*i + b + (0,)*pad``, as long as the result, and the rows chain
    lazily through ``map``, in C, never a Python loop over a row: the first
    row is the start (negated or times c unless c is 1), each later one is
    added (c = 1) or subtracted (c = -1) with no multiply, or added c times.
    One tuple is built per result, read off the chain, and trimmed only
    when its top coefficient cancels.  ``*`` walks the plan of the shorter
    factor (the left one, at equal lengths) over the rows of the other; when
    that factor has one term, c*k**i, the product is the other shifted by i
    in one copy, times c unless c is 1.  ``_dot_step((k + 2, -k))((x, y))``
    chains three rows into one tuple.  It makes the plan of fixed
    multipliers once, for the prefix streams, which multiply by the same
    polynomials at every term.
    A product whose longer row is shorter than ``_ROW_PASS_MIN_LEN`` is
    multiplied in a Python loop instead.  There is no per-product Kronecker
    path, only :func:`kronecker_eval`'s per value.
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
        if not any(a[:-1]):  # c * k**i: one shifted copy of b
            c = a[-1]
            row = b if c == 1 else tuple(map(operator.mul, b, repeat(c)))
            p = _new(KPoly)
            _set_coeffs(p, (0,) * (len(a) - 1) + row)
            return p
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
        p = _new(KPoly)
        _set_coeffs(p, _row_sum((_row_plan(a),), (b,)))
        return p

    @staticmethod
    def _dot_step(multipliers: Iterable["KPoly"]) -> Callable[[Iterable["KPoly"]], "KPoly"]:
        """The step from KPoly ``ys`` to the sum of m * y over ``zip(multipliers,
        ys)``, zero when it is empty, unchecked; no product is built on its own.
        The multipliers' row plan is made once: a stream that multiplies by the
        same polynomials at every term calls the step per term."""
        plan = tuple([_row_plan(m.coeffs) for m in multipliers])

        def step(ys: Iterable["KPoly"]) -> "KPoly":
            p = _new(KPoly)
            _set_coeffs(p, _row_sum(plan, [y.coeffs for y in ys]))
            return p

        return step

    def shift(self, m: int) -> "KPoly":
        """Multiply by k**m, m >= 0: m zero coefficients put in front."""
        require_int(m, "shift")
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


# Every this many row passes, the chain of maps is read into a tuple: taking
# an item of a chain calls down through all its maps on the C stack, about
# 120 bytes a link, and 70000 links overflowed CPython's 8 MB main stack.
_CHAIN_MAX_LINKS = 256


def _row_plan(a: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """The row plan of a multiplier: (degree, coefficient) of each nonzero
    coefficient of ``a``, lowest first, so the last is its degree."""
    return tuple([(i, c) for i, c in enumerate(a) if c])


def _row_sum(plan: Tuple[Tuple[Tuple[int, int], ...], ...],
             rows: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """The canonical coefficients of the sum of a * b over the multipliers a,
    given by their :func:`_row_plan`, and the coefficient tuples b in
    ``rows``, paired like ``zip``.

    Each (i, c) of a plan contributes its row b as one zero-padded tuple,
    ``(0,)*i + b + (0,)*pad``, all as long as the sum, and the rows chain
    lazily through ``map``: the first row starts the chain as it is (c = 1),
    negated (c = -1) or times c; each later row is added (c = 1) or
    subtracted (c = -1) with no multiply, or added c times.  So no pass
    builds a list or a slice, and the one tuple of the sum is read off the
    chain at the end; it is trimmed only when its top coefficient cancels.
    """
    size = 0
    for terms, b in zip(plan, rows):
        if terms and b and terms[-1][0] + len(b) > size:
            size = terms[-1][0] + len(b)
    acc = None
    links = 0
    for terms, b in zip(plan, rows):
        if not b:
            continue
        pad = size - len(b)
        for i, c in terms:
            row = (0,) * i + b + (0,) * (pad - i)
            if acc is None:
                if c == 1:
                    acc = row
                elif c == -1:
                    acc = map(operator.neg, row)
                else:
                    acc = map(operator.mul, row, repeat(c))
                continue
            if c == 1:
                acc = map(operator.add, acc, row)
            elif c == -1:
                acc = map(operator.sub, acc, row)
            else:
                acc = map(operator.add, acc, map(operator.mul, row, repeat(c)))
            links += 1
            if links == _CHAIN_MAX_LINKS:
                acc, links = tuple(acc), 0
    if acc is None:
        return ()
    out = tuple(acc)
    if not out[-1]:
        n = len(out) - 1
        while n and not out[n - 1]:
            n -= 1
        out = out[:n]
    return out


def kronecker_width(bound: int) -> int:
    """The fewest bytes w whose slot at k = 256**w holds, with its sign, every
    coefficient of magnitude at most ``bound``: 2**(8w - 1) > bound."""
    return (bound.bit_length() + 8) // 8


#: The indeterminate itself: pass this as k to run any computation symbolically.
K = KPoly((0, 1))

RingElem = Union[int, KPoly]


_MIXED_MODES = "cannot mix numeric (int) and symbolic (KPoly) values in one computation"


def require_same_mode(*elems: RingElem) -> None:
    """Reject mixed numeric/symbolic operands before any arithmetic runs."""
    rest = iter(elems)
    symbolic = isinstance(next(rest, None), KPoly)
    for e in rest:
        if isinstance(e, KPoly) is not symbolic:
            raise ModeMismatchError(_MIXED_MODES)


def require_int(n: int, name: str, low: int = 0, message: str = "") -> None:
    """Reject an index, count or exponent n that is no int (a bool is no int
    here) with ``TypeError``, and an n < low with ``ValueError``, whose text is
    ``message`` or "<name> must be >= <low>"."""
    if type(n) is not int:
        raise TypeError(f"{name} must be int, got {type(n).__name__}")
    if n < low:
        raise ValueError(message or f"{name} must be >= {low}")


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


def kronecker_eval(fn: Callable, args: Tuple[KPoly, ...], bound: int) -> KPoly:
    """``fn(*args)`` at KPoly ``args`` by Kronecker substitution.  ``fn`` only
    adds, subtracts and multiplies; the caller states ``bound``, at least the
    magnitude of every coefficient of the value ``fn`` returns, which fixes
    w.  ``fn`` runs once at the args' values at k = 256**w, and the one int it
    returns is read back from its base-256**w digits."""
    width = kronecker_width(bound)
    point = 256**width
    return KPoly.from_kronecker(fn(*[a.evaluate(point) for a in args]), width)


def ipow(x: RingElem, e: int) -> RingElem:
    """x**e for an int exponent e >= 0 (:func:`require_int`), either mode; a
    KPoly power is one :func:`kronecker_eval` at the bound ||x||**e, since
    the l1 norm is submultiplicative."""
    require_int(e, "exponent")
    if isinstance(x, int):
        return x**e
    return kronecker_eval(lambda v: v**e, (x,), x.norm()**e)


def times_k_power(x: RingElem, k: RingElem, m: int) -> RingElem:
    """x * k**m for m >= 0, either mode; at ``K`` itself a :meth:`KPoly.shift`.
    Both modes refuse an x of the other mode than k (``ModeMismatchError``)
    and a bad m, as :func:`ipow` does, before any arithmetic."""
    if isinstance(k, KPoly):
        if isinstance(x, KPoly):
            return x.shift(m) if k == K else x * ipow(k, m)
    elif not isinstance(x, KPoly):
        return x * ipow(k, m)
    raise ModeMismatchError(_MIXED_MODES)


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
                    f"{elem_str(d)} does not divide coefficient {elem_str(c)} of k^{i} in {x}"
                )
            out.append(c // d)
        return KPoly._trusted(out)
    if x % d != 0:
        raise ExactDivisionError(f"{elem_str(d)} does not divide {elem_str(x)}")
    return x // d

