import random

import pytest
from interpreter import str_guard

from kfiblike import audit
from kfiblike.closedform import (
    _exact_coefficients,
    _printed_coefficients,
    binet_closed,
    binet_float,
    published_binet,
)
from kfiblike.ring import K, KPoly, ipow, one_like, zero_like
from kfiblike.sequences import Order2Rec, lucas_form, terms
from kfiblike.transforms import (
    KIND_ORDER,
    TransformKind,
    transform_direct,
    transform_recurrence,
)


def u(P, Q, n):
    """U(n) of U(P, Q), the Lucas form with (c1, c2) = (0, 1)."""
    return lucas_form(P, Q, zero_like(P), one_like(P), n)


def test_lucas_pair_basics():
    assert u(4, 2, 0) == 0
    assert u(4, 2, 1) == 1
    assert u(4, 2, 3) == 14  # 0, 1, 4, 14
    # U2 = P, symbolically as well
    P, Q = KPoly((2, 1)), K  # k+2, k
    assert u(P, Q, 2) == P


def test_lucas_determinant_identity():
    rng = random.Random(5)
    for _ in range(10):
        P, Q = rng.randint(-6, 6), rng.randint(-6, 6)
        us = [u(P, Q, n) for n in range(34)]
        for n in range(1, 33):
            assert us[n + 1] * us[n - 1] - us[n] ** 2 == -(Q ** (n - 1))
    P, Q = KPoly((2, 1)), K
    us = [u(P, Q, n) for n in range(12)]
    for n in range(1, 11):
        lhs = us[n + 1] * us[n - 1] - us[n] * us[n]
        assert lhs == -ipow(Q, n - 1)


def test_discriminants_positive_for_all_kinds():
    for kind in KIND_ORDER:
        for k in range(1, 11):
            rec = transform_recurrence(kind, k)
            P, Q = rec.a, -rec.b
            assert P * P - 4 * Q > 0


def test_binet_closed_examples():
    assert binet_closed(transform_recurrence(TransformKind.BINOMIAL, 2), 3) == 40
    assert binet_closed(transform_recurrence(TransformKind.FALLING_K, 2), 2) == 22
    for kind in KIND_ORDER:
        rec = transform_recurrence(kind, 3)
        assert binet_closed(rec, 0) == rec.x0


def test_binet_float_examples():
    v = binet_float(transform_recurrence(TransformKind.BINOMIAL, 1), 5)
    assert abs(v - 178) / 178 <= 1e-9
    v = binet_float(transform_recurrence(TransformKind.RISING_K, 2), 5)
    assert abs(v - 6726) / 6726 <= 1e-9
    v = binet_float(transform_recurrence(TransformKind.BINOMIAL, 4), 0)
    assert abs(v - 2) <= 1e-9


def test_binet_float_rejects_symbolic():
    with pytest.raises(ValueError):
        binet_float(transform_recurrence(TransformKind.BINOMIAL, K), 3)


def test_binet_float_rejects_nonpositive_discriminant():
    for a, b, disc in ((0, -1, -4),    # x(n+1) = -x(n-1): characteristic x^2 + 1
                       (2, -1, 0)):    # x(n+1) = 2x(n) - x(n-1): a double root at 1
        rec = Order2Rec(a=a, b=b, x0=1, x1=1)
        with pytest.raises(ValueError, match=f"^discriminant must be positive, got {disc}$"):
            binet_float(rec, 3)


def test_binet_float_errors_name_values_past_the_str_guard():
    n = 10**5000
    with str_guard(0):
        shown_n, disc = str(n), str(-4 * n)  # a = 0 and b = -n: disc = 4b
    with pytest.raises(OverflowError, match=f"^x\\({shown_n}\\) is beyond"):
        binet_float(transform_recurrence(TransformKind.BINOMIAL, 2), n)
    with pytest.raises(ValueError, match=f"^discriminant must be positive, got {disc}$"):
        binet_float(Order2Rec(a=0, b=-n, x0=1, x1=1), 3)


def test_binet_float_accepts_discriminant_one():
    # x(n+1) = x(n): characteristic x^2 - x, roots 1 and 0, the smallest
    # positive discriminant an int recurrence has
    rec = Order2Rec(a=1, b=0, x0=3, x1=3)
    assert binet_float(rec, 0) == binet_float(rec, 5) == 3.0


def test_published_binet_examples():
    assert published_binet(TransformKind.BINOMIAL, 2, 2) == 12


def test_forms_over_the_run_s_u_list_give_the_single_n_values():
    """The audit's printed and exact forms over its run's U list are
    published_binet (the wrong families included) and binet_closed at every
    n it holds: n <= 40 numeric, n <= 16 at K."""
    run = audit._Run(audit.AuditConfig(k_min=1, k_max=7, n_max=40))
    for kind in KIND_ORDER:
        for k in (1, 2, 7, K):
            rec = transform_recurrence(kind, k)
            us = run.u(kind, k)
            ns = range(len(us))
            assert len(us) == (17 if k is K else 41)
            printed = audit._binet_form(_printed_coefficients(kind, k), us)
            exact = audit._binet_form(_exact_coefficients(rec), us, rec.x0)
            assert [printed(n) for n in ns[1:]] == [published_binet(kind, k, n) for n in ns[1:]]
            assert [exact(n) for n in ns] == [binet_closed(rec, n) for n in ns]
            assert [exact(n) for n in ns] == terms(rec, len(us))


def test_published_binet_rejects_n_zero():
    with pytest.raises(ValueError):
        published_binet(TransformKind.BINOMIAL, 2, 0)


def test_published_binet_binomial_and_rising_match_truth():
    for kind in (TransformKind.BINOMIAL, TransformKind.RISING_K):
        for n in range(1, 11):
            assert published_binet(kind, K, n) == transform_direct(kind, K, n)
