"""The four binomial-family transforms of the modified k-Fibonacci-like sequence.

Each transform of the base sequence M is available through two independent
routes that the audit pits against each other:

* :func:`transform_direct` -- the definitional weighted binomial sum
  sum_i C(n,i) * weight(n,i) * M(i), with weight 1, k^n, k^i or k^(n-i)
  for the plain, k-, rising-k- and falling-k-binomial transforms;
* :func:`transform_recurrence` -- the closed second-order recurrence each
  family satisfies, evaluated by plain iteration.

The lemma-level identities (consecutive-difference forms, the even-index
collapse of the rising transform, and the k^n scaling that links the
k-binomial to the plain binomial transform) are exposed as pair-producing
functions: each returns (lhs, rhs) computed separately so a caller can check
equality without trusting either side.

Binomial coefficients are produced per row by Pascal addition (exact,
division free) and cached monotonically; rows beyond the cache bound fall
back to the exact multiplicative rule, whose divisions always divide evenly.
Weight domain is k >= 1 (or symbolic k), so the degenerate k = 0 branch some
published definitions carry is deliberately out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Sequence, Tuple

from .ring import RingElem, const_like, ipow, one_like, scale, zero_like
from .sequences import Order2Rec, require_valid_k, terms


class TransformKind(Enum):
    """The four transforms and the exponent shape of their weights."""

    BINOMIAL = "binomial"        # weight 1
    K_BINOMIAL = "kbinomial"     # weight k^n
    RISING_K = "rising"          # weight k^i
    FALLING_K = "falling"        # weight k^(n-i)

    @property
    def weight_rule(self) -> str:
        return {
            TransformKind.BINOMIAL: "1",
            TransformKind.K_BINOMIAL: "k^n",
            TransformKind.RISING_K: "k^i",
            TransformKind.FALLING_K: "k^(n-i)",
        }[self]


#: Canonical ordering used everywhere a per-kind sweep or claim id is derived.
KIND_ORDER: Tuple[TransformKind, ...] = (
    TransformKind.BINOMIAL,
    TransformKind.K_BINOMIAL,
    TransformKind.RISING_K,
    TransformKind.FALLING_K,
)


class Provenance(Enum):
    DIRECT_SUM = "direct-sum"
    CLOSED_RECURRENCE = "closed-recurrence"


@dataclass(frozen=True)
class TransformSeq:
    """A transform prefix together with the route that produced it."""

    kind: TransformKind
    k: RingElem
    terms: Tuple[RingElem, ...]
    provenance: Provenance


# ---------------------------------------------------------------------------
# binomial coefficients
# ---------------------------------------------------------------------------

# Rows up to this index are kept in a monotonically growing Pascal cache;
# larger rows (bench scale) are rebuilt per call by the multiplicative rule
# because caching dense rows of huge integers would cost gigabytes.
PASCAL_CACHE_LIMIT = 512

_pascal_rows: List[List[int]] = [[1]]


def pascal_row(n: int) -> Sequence[int]:
    """Row n of Pascal's triangle by pure addition, cached and shared.

    The returned row is the cache's own storage; treat it as read-only.
    """
    if n < 0:
        raise ValueError("row index must be >= 0")
    while n >= len(_pascal_rows):
        prev = _pascal_rows[-1]
        row = [1]
        row.extend(prev[i] + prev[i + 1] for i in range(len(prev) - 1))
        row.append(1)
        _pascal_rows.append(row)
    return _pascal_rows[n]


def multiplicative_row(n: int) -> List[int]:
    """Row n via C(n,i+1) = C(n,i)*(n-i)//(i+1); every division is exact."""
    if n < 0:
        raise ValueError("row index must be >= 0")
    row = [1]
    c = 1
    for i in range(n):
        c = c * (n - i) // (i + 1)
        row.append(c)
    return row


def binomial_row(n: int) -> Sequence[int]:
    if n <= PASCAL_CACHE_LIMIT:
        return pascal_row(n)
    return multiplicative_row(n)


def binomial_coeff(n: int, i: int) -> int:
    """C(n, i) with the usual convention C(n, i) = 0 outside 0 <= i <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if i < 0 or i > n:
        return 0
    if n <= PASCAL_CACHE_LIMIT:
        return pascal_row(n)[i]
    return math.comb(n, i)


# ---------------------------------------------------------------------------
# prefix cache for the base sequence
# ---------------------------------------------------------------------------

# Direct sums are Theta(n) terms each; sweeping n without a shared M prefix
# would make every audit pass quadratic in big-integer work all over again.
# At most M_CACHE_K_LIMIT values of k keep a prefix; the oldest-inserted one
# is dropped first, so a caller sweeping k cannot grow the cache without
# bound.  The limit covers the default audit (k = 1..10 and symbolic k).
M_CACHE_K_LIMIT = 16

_m_cache: Dict[RingElem, List[RingElem]] = {}


def m_prefix(k: RingElem, count: int) -> List[RingElem]:
    """First ``count`` terms of M for this k, from a bounded prefix cache."""
    require_valid_k(k)
    cached = _m_cache.get(k)
    if cached is None:
        if len(_m_cache) >= M_CACHE_K_LIMIT:
            del _m_cache[next(iter(_m_cache))]
        two = const_like(2, k)
        cached = _m_cache[k] = [two, two]
    while len(cached) < count:
        cached.append(k * cached[-1] + cached[-2])
    return cached[:count]


# ---------------------------------------------------------------------------
# the two evaluation routes
# ---------------------------------------------------------------------------

def transform_direct(kind: TransformKind, k: RingElem, n: int) -> RingElem:
    """Term n of the transform, straight from the weighted-sum definition."""
    require_valid_k(k)
    if n < 0:
        raise ValueError("index must be >= 0")
    row = binomial_row(n)
    ms = m_prefix(k, n + 1)
    if kind is TransformKind.BINOMIAL:
        powers = None
    else:
        powers = _powers(k, n)
    acc = zero_like(k)
    for i in range(n + 1):
        term = scale(ms[i], row[i])
        if kind is TransformKind.K_BINOMIAL:
            term = term * powers[n]
        elif kind is TransformKind.RISING_K:
            term = term * powers[i]
        elif kind is TransformKind.FALLING_K:
            term = term * powers[n - i]
        acc = acc + term
    return acc


def _powers(k: RingElem, n: int) -> List[RingElem]:
    """[k^0, k^1, ..., k^n]."""
    powers = [one_like(k)]
    for _ in range(n):
        powers.append(powers[-1] * k)
    return powers


def transform_recurrence(kind: TransformKind, k: RingElem) -> Order2Rec:
    """The closed second-order recurrence satisfied by each transform family.

    binomial    x(n+1) = (k+2) x(n) - k x(n-1)            x0 = 2, x1 = 4
    k-binomial  x(n+1) = k(k+2) x(n) - k^3 x(n-1)         x0 = 2, x1 = 4k
    rising-k    x(n+1) = (k^2+2) x(n) - x(n-1)            x0 = 2, x1 = 2k+2
    falling-k   x(n+1) = 3k x(n) - (2k^2-1) x(n-1)        x0 = 2, x1 = 2k+2
    """
    require_valid_k(k)
    two = const_like(2, k)
    ksq = k * k
    if kind is TransformKind.BINOMIAL:
        a, b = k + two, -k
        x1: RingElem = const_like(4, k)
    elif kind is TransformKind.K_BINOMIAL:
        a, b = k * (k + two), -(ksq * k)
        x1 = scale(k, 4)
    elif kind is TransformKind.RISING_K:
        a, b = ksq + two, const_like(-1, k)
        x1 = scale(k, 2) + two
    else:
        a, b = scale(k, 3), one_like(k) - scale(ksq, 2)
        x1 = scale(k, 2) + two
    return Order2Rec(a=a, b=b, x0=two, x1=x1, label=f"{kind.value}(k={k})")


def transform_seq(
    kind: TransformKind,
    k: RingElem,
    count: int,
    provenance: Provenance = Provenance.DIRECT_SUM,
) -> TransformSeq:
    """A transform prefix computed by the requested route."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if provenance is Provenance.DIRECT_SUM:
        vals = tuple(transform_direct(kind, k, n) for n in range(count))
    else:
        vals = tuple(terms(transform_recurrence(kind, k), count))
    return TransformSeq(kind=kind, k=k, terms=vals, provenance=provenance)


# ---------------------------------------------------------------------------
# lemma-level identities, each side computed independently
# ---------------------------------------------------------------------------

#: The direct-sum route a lemma pair reads its transform terms from.
DirectRoute = Callable[[TransformKind, RingElem, int], RingElem]


def binomial_diff_identity(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(b(n+1) - b(n),  sum_i C(n,i) * M(i+1))."""
    require_valid_k(k)
    return _binomial_diff_pair(transform_direct, k, n)


def _binomial_diff_pair(direct: DirectRoute, k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    lhs = direct(TransformKind.BINOMIAL, k, n + 1) - direct(TransformKind.BINOMIAL, k, n)
    row = binomial_row(n)
    ms = m_prefix(k, n + 2)
    rhs = zero_like(k)
    for i in range(n + 1):
        rhs = rhs + scale(ms[i + 1], row[i])
    return lhs, rhs


def falling_diff_identity(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(f(n+1) - k*f(n),  sum_i C(n,i) * k^(n-i) * M(i+1))."""
    require_valid_k(k)
    return _falling_diff_pair(transform_direct, k, n)


def _falling_diff_pair(direct: DirectRoute, k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    lhs = direct(TransformKind.FALLING_K, k, n + 1) - k * direct(TransformKind.FALLING_K, k, n)
    row = binomial_row(n)
    ms = m_prefix(k, n + 2)
    powers = _powers(k, n)
    rhs = zero_like(k)
    for i in range(n + 1):
        rhs = rhs + scale(ms[i + 1], row[i]) * powers[n - i]
    return lhs, rhs


def rising_even_index(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(rising transform at n,  M(2n)): the rising sum walks the even indices."""
    require_valid_k(k)
    return _rising_even_pair(transform_direct, k, n)


def _rising_even_pair(direct: DirectRoute, k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    return direct(TransformKind.RISING_K, k, n), m_prefix(k, 2 * n + 1)[2 * n]


def w_scaling(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(k-binomial transform at n,  k^n * binomial transform at n)."""
    require_valid_k(k)
    return _w_scaling_pair(transform_direct, k, n)


def _w_scaling_pair(direct: DirectRoute, k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    lhs = direct(TransformKind.K_BINOMIAL, k, n)
    return lhs, ipow(k, n) * direct(TransformKind.BINOMIAL, k, n)
