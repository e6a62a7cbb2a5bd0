"""The domain of k and of the transform kind across the public API, and
identities at random k.

Every public function that takes k accepts an int k >= 1 and the symbolic
``K``, refuses an int k < 1 with ``ValueError``, and refuses anything else
(a float, a bool, a string, None) with ``TypeError`` before any arithmetic.
Every public function that takes a kind refuses anything but a
``TransformKind`` (its name, None, an int) with ``TypeError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfiblike.closedform import published_binet
from kfiblike.genfunc import derived_gf, published_gf
from kfiblike.ring import K
from kfiblike.sequences import f_from_m, k_fib, m_from_f, modified_k_fib, terms
from kfiblike.transforms import (
    KIND_ORDER,
    TransformKind,
    binomial_diff_identity,
    falling_diff_identity,
    iter_direct,
    rising_even_index,
    transform_direct,
    transform_recurrence,
    w_scaling,
)

KIND = TransformKind.RISING_K


def _first_direct_terms(k):
    """Reads the first direct-sum term of each kind.  A kind that refuses k
    does not stop the others: the refusal is raised once all four refused
    alike."""
    refusals = []
    for kind in KIND_ORDER:
        try:
            next(iter_direct(kind, k))
        except (TypeError, ValueError) as refusal:
            refusals.append(refusal)
    if refusals:
        assert [repr(r) for r in refusals] == [repr(refusals[0])] * len(KIND_ORDER)
        raise refusals[0]


#: One call of each public function that takes k, at that k.
TAKES_K = {
    "modified_k_fib": modified_k_fib,
    "k_fib": k_fib,
    "m_from_f": lambda k: m_from_f(k, 3),
    "f_from_m": lambda k: f_from_m(k, 3),
    "transform_direct": lambda k: transform_direct(KIND, k, 3),
    "iter_direct": _first_direct_terms,
    "transform_recurrence": lambda k: transform_recurrence(KIND, k),
    "binomial_diff_identity": lambda k: binomial_diff_identity(k, 3),
    "falling_diff_identity": lambda k: falling_diff_identity(k, 3),
    "rising_even_index": lambda k: rising_even_index(k, 3),
    "w_scaling": lambda k: w_scaling(k, 3),
    "published_binet": lambda k: published_binet(KIND, k, 3),
    "published_gf": lambda k: published_gf(KIND, k),
    "derived_gf": lambda k: derived_gf(KIND, k),
}

#: One call of each public function that takes a kind, at that kind.
TAKES_KIND = {
    "transform_direct": lambda kind: transform_direct(kind, 2, 3),
    "iter_direct": lambda kind: next(iter_direct(kind, 2)),
    "transform_recurrence": lambda kind: transform_recurrence(kind, 2),
    "published_binet": lambda kind: published_binet(kind, 2, 3),
    "published_gf": lambda kind: published_gf(kind, 2),
    "derived_gf": lambda kind: derived_gf(kind, 2),
}

BOUNDARY = [(1.5, TypeError), (True, TypeError), ("x", TypeError), (None, TypeError),
            (0, ValueError), (-3, ValueError), (1, None), (K, None)]


@pytest.mark.parametrize("k, error", BOUNDARY, ids=[repr(k) for k, _ in BOUNDARY])
@pytest.mark.parametrize("name", sorted(TAKES_K))
def test_k_boundary(name, k, error):
    call = TAKES_K[name]
    if error is None:
        call(k)
    else:
        with pytest.raises(error, match="k must be"):
            call(k)


@pytest.mark.parametrize("kind", ["binomial", None, 0], ids=repr)
@pytest.mark.parametrize("name", sorted(TAKES_KIND))
def test_kind_boundary(name, kind):
    with pytest.raises(TypeError, match="kind must be"):
        TAKES_KIND[name](kind)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 10**4), n=st.integers(1, 80))
def test_identities_at_random_k(k, n):
    lhs, rhs = rising_even_index(k, n)
    assert lhs == rhs
    lhs, rhs = w_scaling(k, n)
    assert lhs == rhs
    assert m_from_f(k, n) == terms(modified_k_fib(k), n + 1)[n]
    assert f_from_m(k, n) == terms(k_fib(k), n + 1)[n]
