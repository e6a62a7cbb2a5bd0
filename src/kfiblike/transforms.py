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
equality without trusting either side.  Each reads its transform terms from
:func:`transform_direct`, and the even-index lemma reads M(2n) from
:func:`~kfiblike.sequences.term_iterative`.  The audit calls none of them: it
checks the same identities over its own lists.

The direct sums have two kernels, and the caller's shape picks one.  A single
term, and each right-hand side of the difference lemmas, is one O(n) pass of
a private kernel, :func:`_weighted_sum`: it steps M's recurrence inline,
takes C(n,i) from the exact multiplicative rule, and applies k^(n-i) by
Horner's rule and k^i by stepping k^i M(i) in place of M(i).  It runs on
ints, each product by a power of k as one by a power of k's odd part and a
left shift: at symbolic k, as one ``ring.kronecker_eval`` at the bound its
docstring states, at a point 256**w whose odd part is 1.  A whole prefix comes
from :func:`iter_direct`, which yields term after term from Euler's
difference table of M (of k^i M(i) for the rising sum), one ring addition
per cell and no binomial coefficient.  The lemma functions' right-hand sides
stay on the multiplicative kernel, so a lemma checked against a prefix from
the difference table compares two algorithms rather than restating it.  The
audit does not run this kernel: its C05/C06 right-hand sides are the same
sums over its own prefix of M and one Pascal row per n, and their left sides
come from :func:`iter_direct`.  The module keeps no state between calls; a
caller that reuses values (the audit) keeps its own table.  Weight domain is
k >= 1 (or symbolic k), so the degenerate k = 0 branch some published
definitions carry is deliberately out of scope.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, List, Tuple

from .ring import KPoly, RingElem, const_like, kronecker_eval, one_like, scale, times_k_power
from .sequences import Order2Rec, modified_k_fib, require_valid_k, term_iterative


class TransformKind(Enum):
    """The four transforms and the exponent shape of their weights."""

    BINOMIAL = "binomial"        # weight 1
    K_BINOMIAL = "kbinomial"     # weight k^n
    RISING_K = "rising"          # weight k^i
    FALLING_K = "falling"        # weight k^(n-i)


#: Canonical ordering used everywhere a per-kind sweep or claim id is derived.
KIND_ORDER: Tuple[TransformKind, ...] = (
    TransformKind.BINOMIAL,
    TransformKind.K_BINOMIAL,
    TransformKind.RISING_K,
    TransformKind.FALLING_K,
)


# ---------------------------------------------------------------------------
# the two evaluation routes
# ---------------------------------------------------------------------------

def transform_direct(kind: TransformKind, k: RingElem, n: int) -> RingElem:
    """Term n of the transform, straight from the weighted-sum definition.

    One pass over i = 0..n that steps M alongside the sum; nothing is cached,
    so repeated calls cost the same and leave no state behind.
    """
    require_valid_k(k)
    if n < 0:
        raise ValueError("index must be >= 0")
    two = const_like(2, k)
    return _weighted_sum(kind, k, n, two, two)


def _weighted_sum(kind: TransformKind, k: RingElem, n: int,
                  x0: RingElem, x1: RingElem) -> RingElem:
    """sum_i C(n,i) * weight(n,i) * x(i), where x(i+1) = k x(i) + x(i-1).

    x runs M's recurrence inline from (x0, x1), never through ``Order2Rec``,
    so this route stays independent of :func:`transform_recurrence`.  C(n,i)
    follows the exact multiplicative rule, k^(n-i) is applied by Horner's
    rule, and k^n once at the end; for k^i, y(i) = k^i x(i) steps in place
    of x, as y(i+1) = k^2 (y(i) + y(i-1)).  The loop runs on ints, and each
    product by k, k^2 or k^n is a product by a power of k's odd part and a
    left shift (k = odd * 2^s, s = 0 at k = 0).  A symbolic sum is one
    :func:`~kfiblike.ring.kronecker_eval` at the bound the loop gives at the
    l1 norms of k, x0 and x1, as it only adds and multiplies, with
    C(n,i) >= 0; at k = ``K`` the point 256**w has odd part 1, so each of
    those products costs linear time.
    """
    if isinstance(k, KPoly):
        bound = _weighted_sum(kind, k.norm(), n, x0.norm(), x1.norm())
        return kronecker_eval(lambda k, x0, x1: _weighted_sum(kind, k, n, x0, x1),
                              (k, x0, x1), bound)
    horner = kind is TransformKind.FALLING_K
    rising = kind is TransformKind.RISING_K
    # k ^ (k - 1) has bit length s + 1 at k = odd * 2**s, and 1 at k = 0
    s = (k ^ (k - 1)).bit_length() - 1
    odd = k >> s
    odd_sq, s_sq = odd * odd, s + s
    acc = 0
    x, x_next = x0, (x1 * odd) << s if rising else x1
    c = 1
    for i in range(n + 1):
        term = x * c
        acc = ((acc * odd) << s) + term if horner else acc + term
        x, x_next = x_next, (((x_next + x) * odd_sq) << s_sq if rising
                             else ((x_next * odd) << s) + x)
        c = c * (n - i) // (i + 1)
    if kind is TransformKind.K_BINOMIAL:
        acc = (acc * odd**n) << (s * n)
    return acc


def iter_direct(kind: TransformKind, k: RingElem) -> Iterator[RingElem]:
    """Terms n = 0, 1, 2, ... of the transform, by the online difference table.

    Term n is (W^n x)(0) for one operator W and one sequence x: W = I + S
    over x = M for the plain and k-binomial sums, kI + S over M for the
    falling one, and I + S over y(i) = k^i M(i) for the rising one, since
    I + kS acting on M is I + S acting on y (S the shift x(i) -> x(i+1);
    Euler's table, Prodinger 1994, Spivey & Steil 2006).  ``row[j]`` holds
    (W^j x)(m-1-j); when x(m) arrives, each cell is rebuilt from the old cell
    before it and the new cell before it, with one ring addition (and,
    falling, one product by k), and the last cell is (W^m x)(0).  So a prefix
    of N terms costs about N^2/2 additions and no binomial coefficient, where
    :func:`transform_direct` repeats an O(n) pass for each n.  x steps M's
    recurrence inline, as there, and y steps as y(i+1) = k^2 (y(i) + y(i-1)).
    The k-binomial term is the plain one times k^m (``ring.times_k_power``).
    """
    require_valid_k(k)
    falling = kind is TransformKind.FALLING_K
    rising = kind is TransformKind.RISING_K
    kbinomial = kind is TransformKind.K_BINOMIAL
    ksq = k * k
    x = const_like(2, k)
    x_next = scale(k, 2) if rising else x
    row: List[RingElem] = []
    while True:
        cell = x
        if falling:
            for j, up in enumerate(row):
                row[j] = cell
                cell = k * up + cell
        else:
            for j, up in enumerate(row):
                row[j] = cell
                cell = up + cell
        row.append(cell)
        yield times_k_power(cell, k, len(row) - 1) if kbinomial else cell
        x, x_next = x_next, ksq * (x_next + x) if rising else k * x_next + x


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
    return Order2Rec(a=a, b=b, x0=two, x1=x1)


# ---------------------------------------------------------------------------
# lemma-level identities, each side computed independently
# ---------------------------------------------------------------------------

def _m1_m2(k: RingElem) -> Tuple[RingElem, RingElem]:
    """(M(1), M(2)) = (2, 2k + 2): the start of the shifted sums M(i+1)."""
    two = const_like(2, k)
    return two, scale(k, 2) + two


def binomial_diff_identity(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(b(n+1) - b(n),  sum_i C(n,i) * M(i+1))."""
    lhs = (transform_direct(TransformKind.BINOMIAL, k, n + 1)
           - transform_direct(TransformKind.BINOMIAL, k, n))
    return lhs, _weighted_sum(TransformKind.BINOMIAL, k, n, *_m1_m2(k))


def falling_diff_identity(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(f(n+1) - k*f(n),  sum_i C(n,i) * k^(n-i) * M(i+1))."""
    lhs = (transform_direct(TransformKind.FALLING_K, k, n + 1)
           - k * transform_direct(TransformKind.FALLING_K, k, n))
    return lhs, _weighted_sum(TransformKind.FALLING_K, k, n, *_m1_m2(k))


def rising_even_index(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(rising transform at n,  M(2n)): the rising sum walks the even indices.

    M(2n) comes from :func:`~kfiblike.sequences.term_iterative` over
    :func:`~kfiblike.sequences.modified_k_fib`.
    """
    return transform_direct(TransformKind.RISING_K, k, n), term_iterative(modified_k_fib(k), 2 * n)


def w_scaling(k: RingElem, n: int) -> Tuple[RingElem, RingElem]:
    """(k-binomial transform at n,  k^n * binomial transform at n)."""
    lhs = transform_direct(TransformKind.K_BINOMIAL, k, n)
    return lhs, times_k_power(transform_direct(TransformKind.BINOMIAL, k, n), k, n)
