"""Rational generating functions for second-order recurrences.

A generating function here is a pair of polynomials in the formal variable x
whose coefficients are ring elements (ints, or polynomials in k).  For the
recurrence x(n+1) = a x(n) + b x(n-1) the construction is

    den = 1 - a x - b x^2,      num = x0 + (x1 - a x0) x,

and the series falls out of the convolution recurrence coefficient by
coefficient -- no polynomial long division, no partial fractions.

GFs are kept unreduced; equality is decided by the cross-multiplied
polynomial identity num1*den2 == num2*den1, which is exact and needs no gcd
machinery.  :func:`published_gf` reproduces the printed generating functions
for the four transforms verbatim so the audit can compare them against the
derivation-built ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Deque, Iterator, List, Sequence, Tuple

from .ring import (
    KPoly,
    RingElem,
    const_like,
    elem_str,
    ipow,
    one_like,
    require_same_mode,
    scale,
    zero_like,
)
from .sequences import Order2Rec
from .transforms import TransformKind, transform_recurrence


@dataclass(frozen=True)
class XPoly:
    """Polynomial in the formal variable x with RingElem coefficients.

    Canonical: no trailing zero coefficient; all coefficients share a mode.
    Build through :func:`xpoly`, which normalises.
    """

    coeffs: Tuple[RingElem, ...]

    def __post_init__(self):
        if self.coeffs:
            require_same_mode(*self.coeffs)
            if not self.coeffs[-1]:
                raise ValueError("XPoly must be canonical (no trailing zero); use xpoly()")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> RingElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return zero_like(self.coeffs[0]) if self.coeffs else 0

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
    return XPoly(tuple(cs))


@dataclass(frozen=True)
class RationalGF:
    """num/den with den(0) = 1, so the power series is well-defined exactly."""

    num: XPoly
    den: XPoly

    def __post_init__(self):
        if not self.den.coeffs:
            raise ValueError("denominator must be nonzero")
        c0 = self.den.coeffs[0]
        if c0 != one_like(c0):
            raise ValueError("denominator constant term must be 1")
        require_same_mode(*(self.num.coeffs + self.den.coeffs))


def gf_from_rec(rec: Order2Rec) -> RationalGF:
    """Generating function of a recurrence: (x0 + (x1 - a x0) x) / (1 - a x - b x^2)."""
    num = xpoly([rec.x0, rec.x1 - rec.a * rec.x0])
    den = xpoly([one_like(rec.a), -rec.a, -rec.b])
    return RationalGF(num=num, den=den)


def iter_gf(gf: RationalGF) -> Iterator[RingElem]:
    """Series coefficients c(0), c(1), c(2), ... forever, by the convolution recurrence.

    c(n) = num(n) - sum_{j>=1} den(j) * c(n-j): O(deg den) ring products per
    coefficient.  Only the last deg(den) coefficients are kept, so however far
    a stream runs it holds that many values.
    """
    zero = zero_like(gf.den.coeffs[0])
    tail = gf.den.coeffs[1:]
    recent: Deque[RingElem] = deque(maxlen=len(tail))  # c(n-1), c(n-2), ...
    for c in chain([c or zero for c in gf.num.coeffs], repeat(zero)):  # num(n)
        for d, prev in zip(tail, recent):
            c = c - d * prev
        yield c
        recent.appendleft(c)


def gf_expand(gf: RationalGF, count: int) -> List[RingElem]:
    """First ``count`` series coefficients of :func:`iter_gf`."""
    if count < 0:
        raise ValueError("count must be >= 0")
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
    return "".join(parts) if parts else "0"


def gf_str(gf: RationalGF) -> str:
    return f"({xpoly_str(gf.num)}) / ({xpoly_str(gf.den)})"
