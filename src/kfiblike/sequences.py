"""Second-order linear recurrences and the two sequence families under study.

The modified k-Fibonacci-like sequence M and the k-Fibonacci sequence F share
the recurrence x(n+1) = k*x(n) + x(n-1); they differ only in initial values
(M starts 2, 2 while F starts 0, 1).  Everything downstream (transforms,
closed forms, generating functions) is expressed over :class:`Order2Rec`, so
the four transform recurrences reuse the same machinery.

``terms``/``iter_terms`` are the deliberately simple ground truth.  The
logarithmic path is Lucas doubling: :func:`lucas_pair` is the one kernel
behind :func:`term_fast` here and the exact Binet forms in ``closedform``.
It is never used implicitly, so cross-checks against iteration stay
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Tuple

from .ring import (
    RingElem,
    const_like,
    exact_div_int,
    one_like,
    require_same_mode,
    scale,
    zero_like,
)


@dataclass(frozen=True)
class Order2Rec:
    """The recurrence x(n+1) = a*x(n) + b*x(n-1) with initial values x0, x1.

    All four coefficients must live in one mode (all int or all KPoly).
    """

    a: RingElem
    b: RingElem
    x0: RingElem
    x1: RingElem

    def __post_init__(self):
        require_same_mode(self.a, self.b, self.x0, self.x1)


def require_valid_k(k: RingElem) -> None:
    """Reject a numeric k < 1; symbolic k is always valid."""
    if isinstance(k, int) and k < 1:
        raise ValueError(f"numeric k must be >= 1, got {k}")


def modified_k_fib(k: RingElem) -> Order2Rec:
    """The modified k-Fibonacci-like sequence: x(n+1) = k*x(n) + x(n-1), 2, 2."""
    require_valid_k(k)
    two = const_like(2, k)
    return Order2Rec(a=k, b=one_like(k), x0=two, x1=two)


def k_fib(k: RingElem) -> Order2Rec:
    """The k-Fibonacci sequence: same recurrence with x0 = 0, x1 = 1."""
    require_valid_k(k)
    return Order2Rec(a=k, b=one_like(k), x0=zero_like(k), x1=one_like(k))


def iter_terms(rec: Order2Rec) -> Iterator[RingElem]:
    """Yield x0, x1, x2, ... forever with O(1) memory."""
    prev, cur = rec.x0, rec.x1
    yield prev
    yield cur
    while True:
        prev, cur = cur, rec.a * cur + rec.b * prev
        yield cur


def terms(rec: Order2Rec, count: int) -> List[RingElem]:
    """First ``count`` terms x0 .. x(count-1); count 0 and 1 truncate the initials."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return list(islice(iter_terms(rec), count))


def term_iterative(rec: Order2Rec, n: int) -> RingElem:
    """x(n) by plain iteration, keeping only a rolling pair of values."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return rec.x0
    prev, cur = rec.x0, rec.x1
    for _ in range(n - 1):
        prev, cur = cur, rec.a * cur + rec.b * prev
    return cur


def lucas_pair(P: RingElem, Q: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(U(n), U(n+1)) of the Lucas sequence U0 = 0, U1 = 1, U(m+1) = P*U(m) - Q*U(m-1).

    Left-to-right doubling over the bits of n after the leading one, from
    (U(1), U(2)) = (1, P), in O(log n) ring products:

        U(2m)   = U(m) * (2*U(m+1) - P*U(m))
        U(2m+1) = U(m+1)^2 - Q*U(m)^2
        U(2m+2) = U(m+1) * (P*U(m+1) - 2*Q*U(m))

    (Joye & Quisquater, "Efficient computation of full Lucas sequences",
    Electronics Letters, 1996.)  Only ``+ - *`` and no division, so the same
    code runs on int and KPoly; the mode is checked once, here.
    """
    require_same_mode(P, Q)
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return zero_like(P), one_like(P)
    u, v = one_like(P), P
    for bit in bin(n)[3:]:
        odd = v * v - Q * (u * u)
        if bit == "1":
            qu = Q * u
            u, v = odd, v * (P * v - qu - qu)
        else:
            u, v = u * (v + v - P * u), odd
    return u, v


def term_fast(rec: Order2Rec, n: int) -> RingElem:
    """x(n) = x0*U(n+1) + (x1 - a*x0)*U(n) over U(a, -b), in O(log n) products.

    Opt-in fast path through :func:`lucas_pair`; b*U(n-1) = U(n+1) - a*U(n)
    keeps the combination free of U(-1) at n = 0.
    """
    u, u_next = lucas_pair(rec.a, -rec.b, n)
    return rec.x0 * u_next + (rec.x1 - rec.a * rec.x0) * u


def m_from_f(k: RingElem, n: int) -> RingElem:
    """M(n) reconstructed as 2*(F(n) + F(n-1)); defined for n >= 1."""
    require_valid_k(k)
    if n < 1:
        raise ValueError("the F-to-M identity needs n >= 1 (F(-1) is undefined)")
    return _m_from_f_terms(terms(k_fib(k), n + 1), n)


def _m_from_f_terms(fs: List[RingElem], n: int) -> RingElem:
    """2*(F(n) + F(n-1)) read from a prefix holding at least F(0) .. F(n)."""
    return scale(fs[n] + fs[n - 1], 2)


def f_from_m(k: RingElem, n: int) -> RingElem:
    """F(n) as the halved alternating sum of M(n), M(n-1), ..., M(1).

    Read from :func:`_halved_alternating_sums` over M's terms, one ring
    subtraction per index.  Each sum is even for every valid input, so the
    exact halving cannot fail unless the implementation itself is broken.
    """
    require_valid_k(k)
    if n < 1:
        raise ValueError("the alternating-sum identity needs n >= 1")
    sums = _halved_alternating_sums(iter_terms(modified_k_fib(k)))
    return next(islice(sums, n, None))


def _halved_alternating_sums(ms: Iterable[RingElem]) -> Iterator[RingElem]:
    """(1/2) A(n) for n = 0, 1, 2, ..., from M(0), M(1), M(2), ...

    A(n) = sum_{i<n} (-1)^i M(n-i) = M(n) - M(n-1) + ... +- M(1) is kept as
    the running A(n) = M(n) - A(n-1) from the empty sum A(0) = 0, so each
    term costs one subtraction and one exact halving; M(0) enters no sum.
    """
    rest = iter(ms)
    acc = zero_like(next(rest))
    yield acc
    for m in rest:
        acc = m - acc
        yield exact_div_int(acc, 2)
