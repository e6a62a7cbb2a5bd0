"""Second-order linear recurrences and the two sequence families under study.

The modified k-Fibonacci-like sequence M and the k-Fibonacci sequence F share
the recurrence x(n+1) = k*x(n) + x(n-1); they differ only in initial values
(M starts 2, 2 while F starts 0, 1).  Everything downstream (transforms,
closed forms, generating functions) is expressed over :class:`Order2Rec`, so
the four transform recurrences reuse the same machinery.

``terms``/``iter_terms`` are the deliberately simple ground truth.  The
logarithmic path is Lucas doubling, three identities that make the pair
(U(m), U(m+1)) from the pair at m >> 1 in one step.  Two shapes read them,
one value and one prefix list:

* :func:`lucas_form` gives c1*U(n+1) + c2*U(n) for one n: O(log n) steps,
  the last one fused with the combination, so the pair is never built, and
  one ``ring.kronecker_eval`` at symbolic arguments, at the bound proved in
  :func:`_lucas_form`.  U(n) itself is the form with (c1, c2) = (0, 1).
  :func:`term_fast` here and the single-n Binet forms in ``closedform`` are
  this form with their own coefficient pairs, ``term_fast`` at n and the
  Binet forms at n - 1, so their fused steps always take opposite branches
  and stay checks of each other.  They take an ``Order2Rec``, whose carrier
  is checked when it is built, so they call :func:`_lucas_form`, the form
  past its mode check;
* :func:`_lucas_prefix` builds the audit's lists U(0) .. U(count - 1), each
  step appending U(2j+1) and U(2j+2) from the U(j) and U(j+1) in the list.

Neither uses the plain U recurrence, and neither is used implicitly, so
cross-checks against iteration stay meaningful.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Tuple

from ._text import elem_str
from .ring import (
    Frozen,
    KPoly,
    RingElem,
    const_like,
    exact_div_int,
    kronecker_eval,
    one_like,
    require_int,
    require_same_mode,
    scale,
    zero_like,
)


class Order2Rec(Frozen):
    """The recurrence x(n+1) = a*x(n) + b*x(n-1) with initial values x0, x1.

    All four coefficients must live in one mode (all int or all KPoly).
    """

    _fields = ("a", "b", "x0", "x1")
    __slots__ = _fields

    def __init__(self, a: RingElem, b: RingElem, x0: RingElem, x1: RingElem):
        require_same_mode(a, b, x0, x1)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)


def require_valid_k(k: RingElem) -> None:
    """Reject a k that is neither a ``KPoly`` nor an int (a bool is no int
    here), and a numeric k < 1; symbolic k is always valid."""
    if isinstance(k, KPoly):
        return
    if type(k) is bool or not isinstance(k, int):
        raise TypeError(f"k must be an int or a KPoly, got {type(k).__name__}")
    if k < 1:
        raise ValueError(f"numeric k must be >= 1, got {elem_str(k)}")


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
    """Yield x0, x1, x2, ... forever with O(1) memory.

    The carrier is checked once: at ``KPoly`` the row plan of (a, b) is
    made once per stream, and each term is one fused step of
    :meth:`~kfiblike.ring.KPoly._dot_step`, the sum of the products of
    (a, b) with (x(n), x(n-1)), with no type check: one zero-padded row per
    nonzero coefficient of a and b, chained lazily into one tuple.
    """
    prev, cur = rec.x0, rec.x1
    yield prev
    yield cur
    if isinstance(cur, KPoly):
        step = KPoly._dot_step((rec.a, rec.b))
        while True:
            prev, cur = cur, step((cur, prev))
            yield cur
    while True:
        prev, cur = cur, rec.a * cur + rec.b * prev
        yield cur


def terms(rec: Order2Rec, count: int) -> List[RingElem]:
    """First ``count`` terms x0 .. x(count-1); count 0 and 1 truncate the initials."""
    require_int(count, "count")
    return list(islice(iter_terms(rec), count))


def term_iterative(rec: Order2Rec, n: int) -> RingElem:
    """x(n) by plain iteration, keeping only a rolling pair of values."""
    require_int(n, "index")
    return next(islice(iter_terms(rec), n, None))


def lucas_form(P: RingElem, Q: RingElem, c1: RingElem, c2: RingElem,
               n: int) -> RingElem:
    """c1*U(n+1) + c2*U(n) over U(P, Q), in O(log n) products; c1 at n = 0.

    One :func:`_doubling` pass to the pair at j = n >> 1, then one last
    step fused with the combination (:func:`_form_on_ints`), so U(n) and
    U(n+1) are never both built.  The mode of P, Q, c1 and c2 is checked
    once, here, before :func:`_lucas_form`.  Symbolic arguments run the int
    code as one :func:`~kfiblike.ring.kronecker_eval`, read back once, at
    the bound :func:`_lucas_form` proves by running the same int code at a
    majorant pair.
    """
    require_same_mode(P, Q, c1, c2)
    return _lucas_form(P, Q, c1, c2, n)


def _lucas_form(P: RingElem, Q: RingElem, c1: RingElem, c2: RingElem,
                n: int) -> RingElem:
    """:func:`lucas_form` past its mode check, for arguments already of one
    mode: an ``Order2Rec``'s fields and values built from them.

    At KPoly arguments the slot bound is :func:`_form_on_ints` at a majorant.
    With D = P^2 - 4Q and U' the U sequence of the int pair
    (2||P||, ||P||^2 - ||D||), whose discriminant is 4||D||, Lucas's formula
    (Amer. J. Math. 1, 1878)

        2^(m-1) U(m) = sum over odd j of C(m, j) P^(m-j) D^((j-1)/2)

    and the l1 norm being subadditive and submultiplicative give
    2^(m-1) ||U(m)|| <= U'(m) for m >= 1.  So ||c1*U(n+1) + c2*U(n)|| is at
    most (||c1|| U'(n+1) + 2||c2|| U'(n)) / 2^n, rounded up, whose numerator
    is the form on ints at (2||P||, ||P||^2 - ||D||, ||c1||, 2||c2||).  It
    sees the sign of Q through D, where the majorant (||P||, -||Q||) cannot.
    """
    require_int(n, "index")
    if n == 0:
        return c1
    if isinstance(P, KPoly):
        p = P.norm()
        majorant = _form_on_ints(2 * p, p * p - (P * P - Q.scale(4)).norm(),
                                 c1.norm(), 2 * c2.norm(), n)
        return kronecker_eval(lambda p, q, a, b: _form_on_ints(p, q, a, b, n),
                              (P, Q, c1, c2), -(-majorant >> n))
    return _form_on_ints(P, Q, c1, c2, n)


def _form_on_ints(P: int, Q: int, c1: int, c2: int, n: int) -> int:
    """c1*U(n+1) + c2*U(n) on ints, n >= 1: the pair (u, v) = (U(j), U(j+1))
    at j = n >> 1, then the last doubling step and the combination as one
    square and one product at full width (the plain step takes two squares
    and a product, its caller two products more):

        n = 2j:      v*(c1*v + 2*c2*u) - (c1*Q + c2*P)*u^2
        n = 2j + 1:  v*((c1*P + c2)*v - 2*c1*Q*u) - c2*Q*u^2
    """
    j = n >> 1
    u, v = _doubling(P, Q, 1, P, bin(j)[3:]) if j else (0, 1)
    uu = u * u
    if n & 1:
        return v * ((c1 * P + c2) * v - 2 * c1 * Q * u) - c2 * Q * uu
    return v * (c1 * v + 2 * c2 * u) - (c1 * Q + c2 * P) * uu


def _lucas_prefix(P: RingElem, Q: RingElem, count: int) -> List[RingElem]:
    """U(0) .. U(count - 1) of U(P, Q), P and Q of one mode, from the seeds
    0, 1, P: each step appends U(2j+1) and U(2j+2) by the identities of
    :func:`_doubling` from U(j) and U(j+1) in the list, so each value is made
    once, by three full products and two by P or Q per two."""
    us = [zero_like(P), one_like(P), P]
    for j in range(1, count >> 1):
        u, v = us[j], us[j + 1]
        qu = Q * u
        us += v * v - qu * u, v * (P * v - qu - qu)
    return us[:count]


def _doubling(P: RingElem, Q: RingElem, u: RingElem, v: RingElem,
              bits: str) -> Tuple[RingElem, RingElem]:
    """The doubling loop: from (u, v) = (U(j), U(j+1)), one step per bit of
    ``bits`` to (U(m), U(m+1)), where m is j with ``bits`` appended in binary:

        U(2j)   = U(j) * (2*U(j+1) - P*U(j))
        U(2j+1) = U(j+1)^2 - Q*U(j)^2
        U(2j+2) = U(j+1) * (P*U(j+1) - 2*Q*U(j))

    (Joye & Quisquater, "Efficient computation of full Lucas sequences",
    Electronics Letters, 1996.)  Only ``+ - *`` and no division, so the same
    code runs on int and KPoly.
    """
    for bit in bits:
        odd = v * v - Q * (u * u)
        if bit == "1":
            qu = Q * u
            u, v = odd, v * (P * v - qu - qu)
        else:
            u, v = u * (v + v - P * u), odd
    return u, v


def term_fast(rec: Order2Rec, n: int) -> RingElem:
    """x(n) = x0*U(n+1) + (x1 - a*x0)*U(n) over U(a, -b), in O(log n) products.

    Opt-in fast path, one :func:`_lucas_form` at n; b*U(n-1) = U(n+1) - a*U(n)
    keeps the combination free of U(-1) at n = 0.
    """
    return _lucas_form(rec.a, -rec.b, rec.x0, rec.x1 - rec.a * rec.x0, n)


def m_from_f(k: RingElem, n: int) -> RingElem:
    """M(n) reconstructed as 2*(F(n) + F(n-1)); defined for n >= 1."""
    require_valid_k(k)
    require_int(n, "n", 1, "the F-to-M identity needs n >= 1 (F(-1) is undefined)")
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
    require_int(n, "n", 1, "the alternating-sum identity needs n >= 1")
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
