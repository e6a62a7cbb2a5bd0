"""Closed (Binet-style) forms for second-order recurrences.

Three evaluators with very different trust levels; the two exact ones are
one form, c1*U(n) + c2*U(n-1), with different coefficient pairs:

* :func:`binet_closed` -- the exact closed form.  Root quotients of the
  characteristic polynomial x^2 - P x + Q are carried algebraically by the
  Lucas sequence U(P, Q), so x(n) = x1*U(n) - Q*x0*U(n-1) holds in exact
  arithmetic for every second-order recurrence, both carriers.  This is the
  library's ground-truth Binet, evaluated in O(log n) ring products by Lucas
  doubling.
* :func:`binet_float` -- the textbook double-precision root formula,
  C1*r1^n + C2*r2^n.  Useful as a sanity cross-check; accuracy is bounded
  (and tested) at 1e-9 relative for n <= 40, k <= 5.  The audit reads its
  per-record form, ``_float_form``, which takes the roots once per record.
* :func:`published_binet` -- the coefficients exactly as printed in the
  published Binet formulas for the four transforms (4 and -2k for the
  binomial and k-binomial families; 2k+2 and -2 for the rising and falling
  families).  Evaluated faithfully and *not* assumed correct: the audit
  compares it against ground truth and records where it breaks.

Each exact form is one coefficient pair (:func:`_exact_coefficients` or
:func:`_printed_coefficients`) at n - 1 of ``sequences.lucas_form``, which
fuses the last doubling step with the combination c1*U(n) + c2*U(n-1): one
pass, and at ``KPoly`` one Kronecker read-back.  Their carrier is checked
once, where their ``Order2Rec`` is built, so they call the form's kernel
``sequences._lucas_form`` past its mode check.  The audit reads the same
pairs at ascending n over its own list of U, made once per (kind, k) by
``sequences._lucas_prefix``: each step appends U(2j+1) and U(2j+2) from U(j)
and U(j+1) in the list, not a pass per value.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Tuple

from ._text import elem_str
from .ring import KPoly, RingElem, const_like, require_int, scale
from .sequences import Order2Rec, _lucas_form
from .transforms import TransformKind, transform_recurrence


def binet_closed(rec: Order2Rec, n: int) -> RingElem:
    """Exact closed-form term: x(n) = x1*U(n) - Q*x0*U(n-1), x(0) = x0.

    O(log n) ring products: one ``sequences._lucas_form`` at n - 1 over
    P, Q = a, -b, whose mode ``rec`` has checked.  n = 0 is special-cased so
    U(-1) = -1/Q never materialises; the carrier stays division free.
    """
    require_int(n, "index")
    if n == 0:
        return rec.x0
    return _lucas_form(rec.a, -rec.b, *_exact_coefficients(rec), n - 1)


def binet_float(rec: Order2Rec, n: int) -> float:
    """Double-precision Binet value C1*r1^n + C2*r2^n over the real roots.

    Numeric mode only, and only for recurrences with a positive discriminant
    (true of all four transform families for every k >= 1).  Relative error
    against :func:`binet_closed` is within 1e-9 for n <= 40, k <= 5.  Raises
    OverflowError when the value does not fit in a double.
    """
    require_int(n, "index")
    return _float_form(rec)(n)


def _float_form(rec: Order2Rec) -> Callable[[int], float]:
    """``binet_float(rec, n)`` as a function of an index n >= 0 the caller
    has checked; ``rec`` checked, roots taken once."""
    if isinstance(rec.a, KPoly):
        raise ValueError("the floating-point Binet path needs a numeric recurrence")
    p, q = rec.a, -rec.b
    disc = p * p - 4 * q
    if disc <= 0:
        raise ValueError(f"discriminant must be positive, got {elem_str(disc)}")
    sq = math.sqrt(disc)
    r1 = (p + sq) / 2.0
    r2 = (p - sq) / 2.0
    c1 = (rec.x1 - rec.x0 * r2) / (r1 - r2)
    c2 = (rec.x0 * r1 - rec.x1) / (r1 - r2)

    def at(n: int) -> float:
        try:
            value = c1 * r1**n + c2 * r2**n
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"x({elem_str(n)}) is beyond the double-precision range"
                                f" (max {sys.float_info.max:.4g})")
        return value

    return at


def published_binet(kind: TransformKind, k: RingElem, n: int) -> RingElem:
    """The printed Binet formula for this transform, evaluated verbatim.

    Coefficient pairs as published: (4, -2k) for the binomial and k-binomial
    transforms, (2k+2, -2) for the rising and falling ones, each over that
    family's own characteristic roots.  Defined for n >= 1 (the formula
    involves U(n-1)).  Returned for comparison against ground truth; two of
    the four disagree with their own initial conditions, which is precisely
    what the audit demonstrates.
    """
    require_int(n, "n", 1, "the printed Binet formulas are evaluated for n >= 1 only")
    rec = transform_recurrence(kind, k)
    return _lucas_form(rec.a, -rec.b, *_printed_coefficients(kind, k), n - 1)


def _exact_coefficients(rec: Order2Rec) -> Tuple[RingElem, RingElem]:
    """(c1, c2) of x(n) = x1*U(n) + b*x0*U(n-1), the true coefficients."""
    return rec.x1, rec.b * rec.x0


def _printed_coefficients(kind: TransformKind, k: RingElem) -> Tuple[RingElem, RingElem]:
    """(c1, c2) as printed for one (kind, k)."""
    if kind in (TransformKind.BINOMIAL, TransformKind.K_BINOMIAL):
        c1: RingElem = const_like(4, k)
        c2: RingElem = scale(k, -2)
    else:
        c1 = scale(k, 2) + const_like(2, k)
        c2 = const_like(-2, k)
    return c1, c2

