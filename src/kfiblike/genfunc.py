"""Rational generating functions for second-order recurrences.

A generating function here is a pair of polynomials in the formal variable x
whose coefficients are ring elements (ints, or polynomials in k).  For the
recurrence x(n+1) = a x(n) + b x(n-1) the construction is

    den = 1 - a x - b x^2,      num = x0 + (x1 - a x0) x,

and the series is that recurrence again, run by ``sequences.iter_terms``;
a GF of another shape is expanded by the convolution recurrence, coefficient
by coefficient -- no polynomial long division, no partial fractions.

GFs are kept unreduced; equality is decided by the cross-multiplied
polynomial identity num1*den2 == num2*den1, which is exact and needs no gcd
machinery.  :func:`published_gf` reproduces the printed generating functions
for the four transforms verbatim so the audit can compare them against the
derivation-built ones.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice, repeat
from operator import mul
from typing import Deque, Iterable, Iterator, List, Sequence, Tuple

from ._text import elem_str
from .ring import (
    Frozen,
    KPoly,
    RingElem,
    const_like,
    ipow,
    one_like,
    require_int,
    require_same_mode,
    scale,
    zero_like,
)
from .sequences import Order2Rec, iter_terms, require_valid_k
from .transforms import TransformKind, require_kind, transform_recurrence


class XPoly(Frozen):
    """Polynomial in the formal variable x with RingElem coefficients.

    Canonical: no trailing zero coefficient; all coefficients share a mode.
    The coefficients are kept as a tuple, whatever sequence they come in, so
    the value is equal to, and hashed as, the one :func:`xpoly` builds, which
    normalises; the constructor rejects a non-canonical sequence.
    """

    _fields = ("coeffs",)
    __slots__ = _fields

    def __init__(self, coeffs: Iterable[RingElem]):
        coeffs = tuple(coeffs)
        if coeffs:
            require_same_mode(*coeffs)
            if not coeffs[-1]:
                raise ValueError("XPoly must be canonical (no trailing zero); use xpoly()")
        object.__setattr__(self, "coeffs", coeffs)

    def __mul__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return XPoly(())
        zero = zero_like(self.coeffs[0])
        out: List[RingElem] = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return xpoly(out)


def xpoly(coeffs: Sequence[RingElem]) -> XPoly:
    """Canonicalise a coefficient sequence (ascending powers of x)."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return XPoly(cs)


class RationalGF(Frozen):
    """num/den with den(0) = 1, so the power series is well-defined exactly."""

    _fields = ("num", "den")
    __slots__ = _fields

    def __init__(self, num: XPoly, den: XPoly):
        if not den.coeffs:
            raise ValueError("denominator must be nonzero")
        c0 = den.coeffs[0]
        if c0 != one_like(c0):
            raise ValueError("denominator constant term must be 1")
        require_same_mode(*(num.coeffs + den.coeffs))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)


def gf_from_rec(rec: Order2Rec) -> RationalGF:
    """Generating function of a recurrence: (x0 + (x1 - a x0) x) / (1 - a x - b x^2)."""
    num = xpoly([rec.x0, rec.x1 - rec.a * rec.x0])
    den = xpoly([one_like(rec.a), -rec.a, -rec.b])
    return RationalGF(num=num, den=den)


def iter_gf(gf: RationalGF) -> Iterator[RingElem]:
    """Series coefficients c(0), c(1), c(2), ... forever.

    Every GF the library builds has a denominator 1 + d1 x + d2 x^2 and a
    numerator of at most two terms.  When d1, d2 and the numerator are
    nonzero, its series is :func:`~kfiblike.sequences.iter_terms` of the
    recurrence c(n+1) = -d1 c(n) - d2 c(n-1) from c(0) = num(0) and
    c(1) = num(1) - d1 c(0), its fused ``KPoly`` step included.  No two
    consecutive coefficients are then zero, so each step sums a nonzero
    product and no coefficient is the ``Decimal('-0')`` that the CLI's
    ``Decimal`` copy would otherwise print.  Any other GF runs the
    convolution c(n) = num(n) + sum_{j>=1} (-den(j)) * c(n-j), the
    denominator's tail negated once per expansion, each zero coefficient
    the typed zero.  Either keeps only the last deg(den) coefficients.
    """
    den, num = gf.den.coeffs, gf.num.coeffs
    zero = zero_like(den[0])
    if len(den) == 3 and den[1] and 0 < len(num) <= 2:
        c0 = num[0] or zero
        c1 = (num[1] if len(num) == 2 else zero) - den[1] * c0 or zero
        yield from iter_terms(Order2Rec(a=-den[1], b=-den[2], x0=c0, x1=c1))  # never ends
    tail = [-d for d in den[1:]]  # -den(1), -den(2), ...
    recent: Deque[RingElem] = deque(maxlen=len(tail))  # c(n-1), c(n-2), ...
    for c in chain(num, repeat(zero)):
        for p in map(mul, tail, recent):
            c = c + p
        c = c or zero
        yield c
        recent.appendleft(c)


def gf_expand(gf: RationalGF, count: int) -> List[RingElem]:
    """First ``count`` series coefficients of :func:`iter_gf`."""
    require_int(count, "count")
    return list(islice(iter_gf(gf), count))


def gf_equal(g1: RationalGF, g2: RationalGF) -> bool:
    """Equality of unreduced GFs by cross multiplication: n1*d2 == n2*d1.

    Decides for every n that two GFs have one series, where comparing
    prefixes only samples it: acceptance criterion 6 checks the published GFs
    against the derived ones this way, symbolically in k, and a GF built by
    substitution (as in B(x) = M(x/(1-x))/(1-x)) can only be checked against
    :func:`derived_gf` this way.  It is the one caller of ``XPoly.__mul__``.
    """
    return (g1.num * g2.den).coeffs == (g2.num * g1.den).coeffs


def published_gf(kind: TransformKind, k: RingElem) -> RationalGF:
    """The printed generating function for this transform, transcribed verbatim.

    The binomial one is printed with numerator 2(1-2kx); its own derivation
    gives 2-2kx, and the audit records the resulting series divergence rather
    than silently repairing it.  The other three match their derivations.
    """
    require_kind(kind)
    require_valid_k(k)
    two = const_like(2, k)
    one = one_like(k)
    ksq = k * k
    if kind is TransformKind.BINOMIAL:
        num = xpoly([two, scale(k, -4)])
        den = xpoly([one, -(k + two), k])
    elif kind is TransformKind.K_BINOMIAL:
        num = xpoly([two, scale(ksq, -2)])
        den = xpoly([one, -(k * (k + two)), ipow(k, 3)])
    elif kind is TransformKind.RISING_K:
        num = xpoly([two, scale(k, 2) - (scale(ksq, 2) + two)])
        den = xpoly([one, -(ksq + two), one])
    else:
        num = xpoly([two, two - scale(k, 4)])
        den = xpoly([one, scale(k, -3), scale(ksq, 2) - one])
    return RationalGF(num=num, den=den)


def derived_gf(kind: TransformKind, k: RingElem) -> RationalGF:
    """The GF constructed from the transform's recurrence (the trusted side)."""
    return gf_from_rec(transform_recurrence(kind, k))


# ---------------------------------------------------------------------------
# text rendering (shared by the CLI and the demo scripts)
# ---------------------------------------------------------------------------

def _coeff_text(c: RingElem, x_degree: int) -> Tuple[bool, str]:
    """(is_negative, body) for one term; body excludes sign and includes x part."""
    if isinstance(c, KPoly):
        lead = c.coeffs[-1]
        negative = lead < 0
        body_poly = -c if negative else c
        if len([v for v in body_poly.coeffs if v]) > 1:
            text = f"({body_poly})"
        else:
            text = str(body_poly)
    else:
        negative = c < 0
        text = elem_str(-c if negative else c)
    if x_degree >= 1:
        if text == "1":
            text = ""
        xpart = "x" if x_degree == 1 else f"x^{x_degree}"
        text += xpart
    return negative, text


def xpoly_str(p: XPoly) -> str:
    """Ascending-power text like ``2 - (2k^2-2k+2)x`` or ``1 - 4x + 2x^2``."""
    if not p.coeffs:
        return "0"
    parts: List[str] = []
    for d, c in enumerate(p.coeffs):
        if not c:
            continue
        negative, body = _coeff_text(c, d)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts)


def gf_str(gf: RationalGF) -> str:
    return f"({xpoly_str(gf.num)}) / ({xpoly_str(gf.den)})"
