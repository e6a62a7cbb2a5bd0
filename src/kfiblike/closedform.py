"""Closed (Binet-style) forms for second-order recurrences.

Three evaluators with very different trust levels:

* :func:`binet_closed` -- the exact closed form.  Root quotients of the
  characteristic polynomial x^2 - P x + Q are carried algebraically by the
  Lucas sequence U(P, Q), so x(n) = x1*U(n) - Q*x0*U(n-1) holds in exact
  arithmetic for every second-order recurrence, both carriers.  This is the
  library's ground-truth Binet, evaluated in O(log n) ring products by Lucas
  doubling.
* :func:`binet_float` -- the textbook double-precision root formula,
  C1*r1^n + C2*r2^n.  Useful as a sanity cross-check; accuracy is bounded
  (and tested) at 1e-9 relative for n <= 40, k <= 5.
* :func:`published_binet` -- the coefficients exactly as printed in the
  published Binet formulas for the four transforms (4 and -2k for the
  binomial and k-binomial families; 2k+2 and -2 for the rising and falling
  families).  Evaluated faithfully and *not* assumed correct: the audit
  compares it against ground truth and records where it breaks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .ring import KPoly, RingElem, const_like, require_same_mode, scale
from .sequences import Order2Rec, lucas_pair
from .transforms import TransformKind, transform_recurrence


@dataclass(frozen=True)
class QuadChar:
    """Monic characteristic x^2 - P x + Q of a second-order recurrence."""

    P: RingElem
    Q: RingElem

    def __post_init__(self):
        require_same_mode(self.P, self.Q)

    @classmethod
    def from_rec(cls, rec: Order2Rec) -> "QuadChar":
        # x(n+1) = a x(n) + b x(n-1)  <->  x^2 - a x - b
        return cls(P=rec.a, Q=-rec.b)

    @property
    def discriminant(self) -> RingElem:
        return self.P * self.P - scale(self.Q, 4)


def binet_closed(rec: Order2Rec, n: int) -> RingElem:
    """Exact closed-form term: x(n) = x1*U(n) - Q*x0*U(n-1), x(0) = x0.

    O(log n) ring products: U(n-1) and U(n) come from one Lucas doubling
    pass over P, Q = a, -b, which checks their mode.  n = 0 is special-cased
    so U(-1) = -1/Q never materialises; the carrier stays division free.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return rec.x0
    q = -rec.b
    u_prev, u_cur = lucas_pair(rec.a, q, n - 1)
    return rec.x1 * u_cur - q * (rec.x0 * u_prev)


def binet_float(rec: Order2Rec, n: int) -> float:
    """Double-precision Binet value C1*r1^n + C2*r2^n over the real roots.

    Numeric mode only, and only for recurrences with a positive discriminant
    (true of all four transform families for every k >= 1).  Relative error
    against :func:`binet_closed` is within 1e-9 for n <= 40, k <= 5.  Raises
    OverflowError when the value does not fit in a double.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if isinstance(rec.a, KPoly):
        raise ValueError("the floating-point Binet path needs a numeric recurrence")
    p, q = rec.a, -rec.b
    disc = p * p - 4 * q
    if disc <= 0:
        raise ValueError(f"discriminant must be positive, got {disc}")
    sq = math.sqrt(disc)
    r1 = (p + sq) / 2.0
    r2 = (p - sq) / 2.0
    c1 = (rec.x1 - rec.x0 * r2) / (r1 - r2)
    c2 = (rec.x0 * r1 - rec.x1) / (r1 - r2)
    try:
        value = c1 * r1**n + c2 * r2**n
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(
            f"x({n}) is beyond the double-precision range (max {sys.float_info.max:.4g})"
        )
    return value


def published_binet(kind: TransformKind, k: RingElem, n: int) -> RingElem:
    """The printed Binet formula for this transform, evaluated verbatim.

    Coefficient pairs as published: (4, -2k) for the binomial and k-binomial
    transforms, (2k+2, -2) for the rising and falling ones, each over that
    family's own characteristic roots.  Defined for n >= 1 (the formula
    involves U(n-1)).  Returned for comparison against ground truth; two of
    the four disagree with their own initial conditions, which is precisely
    what the audit demonstrates.
    """
    if n < 1:
        raise ValueError("the printed Binet formulas are evaluated for n >= 1 only")
    return _published_binet_form(kind, k)(n)


def _published_binet_form(kind: TransformKind, k: RingElem) -> Callable[[int], RingElem]:
    """The printed Binet formula of one (kind, k) as a function of n >= 1.

    The recurrence, its P and Q and the printed coefficients are built once
    here; each call is one Lucas doubling pass.  :func:`published_binet` is
    one call of it, and the audit keeps one per (kind, k) for its sweep.
    """
    rec = transform_recurrence(kind, k)
    p, q = rec.a, -rec.b
    if kind in (TransformKind.BINOMIAL, TransformKind.K_BINOMIAL):
        c1: RingElem = const_like(4, k)
        c2: RingElem = scale(k, -2)
    else:
        c1 = scale(k, 2) + const_like(2, k)
        c2 = const_like(-2, k)

    def term(n: int) -> RingElem:
        u_prev, u_cur = lucas_pair(p, q, n - 1)
        return c1 * u_cur + c2 * u_prev

    return term
