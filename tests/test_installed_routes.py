"""Symbolic routes at depths no other test reaches, through the root exports.

Each check compares independent routes at ``K`` up to n = 240.  CI runs them,
with the rest of the suite, against the installed package, from outside the
checkout and with ``src`` off ``sys.path`` (``run_installed.py``).
"""

import pytest

from kfiblike import (
    KIND_ORDER,
    K,
    KPoly,
    Order2Rec,
    TransformKind,
    binet_closed,
    published_binet,
    term_fast,
    terms,
    transform_direct,
    transform_recurrence,
    w_scaling,
)
from kfiblike.closedform import _printed_coefficients
from kfiblike.transforms import iter_direct

DEPTH = 240


def test_k_binomial_sums_agree_with_the_prefix_to_n_240():
    """At K the k-binomial sums multiply by k^n as a coefficient shift:
    w_scaling's two sides (the first the direct sum) and the difference-table
    prefix agree with the recurrence at every n."""
    W = TransformKind.K_BINOMIAL
    prefix = terms(transform_recurrence(W, K), DEPTH + 1)
    direct = iter_direct(W, K)
    for n in range(DEPTH + 1):
        lhs, rhs = w_scaling(K, n)
        assert lhs == rhs == next(direct) == prefix[n], n


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_single_values_agree_with_the_prefix_up_to_n_240(kind):
    """Each symbolic single value is one Kronecker evaluation, its slot sized
    by a bound its caller states: each agrees with the prefix at n = 100 and
    at the top of the range, and the printed Binet form with its
    coefficients over the prefix of U(a, -b), iterated as a recurrence of
    its own."""
    rec = transform_recurrence(kind, K)
    prefix = terms(rec, DEPTH + 1)
    us = terms(Order2Rec(a=rec.a, b=rec.b, x0=KPoly(()), x1=KPoly((1,))), DEPTH + 1)
    c1, c2 = _printed_coefficients(kind, K)
    for n in (100, DEPTH - 1, DEPTH):
        assert binet_closed(rec, n) == term_fast(rec, n) == transform_direct(kind, K, n) \
            == prefix[n], n
        assert published_binet(kind, K, n) == c1 * us[n] + c2 * us[n - 1], n
