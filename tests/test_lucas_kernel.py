"""The Lucas doubling kernel against independent plain iteration.

``term_fast`` and ``binet_closed`` both read one kernel, ``lucas_pair``, so
agreeing with each other proves little.  Every check here
compares them with ``terms`` (the ground-truth iteration) or with the
U-sequence loop written out below, at the bit patterns the doubling loop
branches on: around each power of two, where the loop gains a step.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kfiblike.closedform import binet_closed
from kfiblike.ring import K, ModeMismatchError, one_like, zero_like
from kfiblike.sequences import k_fib, lucas_pair, modified_k_fib, term_fast, terms
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence

FAMILIES = [kind.value for kind in KIND_ORDER] + ["modified", "kfib"]

BIT_EDGE_NS = sorted(
    {0, 1, 2} | {m for j in range(1, 13) for m in (2**j - 1, 2**j, 2**j + 1)}
)


def family_rec(name, k):
    if name == "modified":
        return modified_k_fib(k)
    if name == "kfib":
        return k_fib(k)
    return transform_recurrence(TransformKind(name), k)


def u_loop(P, Q, count):
    """U(0) .. U(count-1) by the defining recurrence, one step at a time."""
    us = [zero_like(P), one_like(P)]
    while len(us) < count:
        us.append(P * us[-1] - Q * us[-2])
    return us[:count]


def assert_routes_match(rec, ns):
    top = max(ns)
    seq = terms(rec, top + 1)
    P, Q = rec.a, -rec.b
    us = u_loop(P, Q, top + 2)
    for n in ns:
        assert term_fast(rec, n) == seq[n], ("term_fast", rec, n)
        assert binet_closed(rec, n) == seq[n], ("binet_closed", rec, n)
        assert lucas_pair(P, Q, n) == (us[n], us[n + 1]), ("lucas_pair", rec, n)


@pytest.mark.parametrize("k", [1, 2, 10])
@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_at_bit_edges_numeric(family, k):
    assert_routes_match(family_rec(family, k), BIT_EDGE_NS)


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_symbolic_prefix(family):
    assert_routes_match(family_rec(family, K), range(65))


@pytest.mark.parametrize("family", [kind.value for kind in KIND_ORDER])
def test_kernel_at_large_n(family):
    assert_routes_match(family_rec(family, 3), [4999, 5000])


def test_lucas_pair_rejects_mixed_modes_and_negative_index():
    # n = 1 runs no doubling step, so only the entry check can catch it
    for P, Q, n in ((K, 1, 3), (3, K, 1)):
        with pytest.raises(ModeMismatchError):
            lucas_pair(P, Q, n)
    with pytest.raises(ValueError):
        lucas_pair(3, 1, -1)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    k=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=0, max_value=300),
)
def test_kernel_matches_iteration_property(family, k, n):
    assert_routes_match(family_rec(family, k), [n])
