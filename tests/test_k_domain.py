"""The domain of k, of the transform kind and of indices across the public
API, and identities at random k.

Every public function that takes k accepts an int k >= 1 and the symbolic
``K``, refuses an int k < 1 with ``ValueError``, and refuses anything else
(a float, a bool, a string, None) with ``TypeError`` before any arithmetic.
Every public function that takes a kind refuses anything but a
``TransformKind`` (its name, None, an int) with ``TypeError``.
Every public function that takes an index, count or exponent n accepts an
int n at or above its least value (0, or 1 where the formula reads n - 1),
refuses a smaller int with ``ValueError``, and refuses anything else (a bool,
a float, even an integral one, a string, None) with ``TypeError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfiblike.closedform import binet_closed, binet_float, published_binet
from kfiblike.genfunc import derived_gf, gf_expand, published_gf
from kfiblike.ring import K, ipow
from kfiblike.sequences import (
    f_from_m,
    k_fib,
    lucas_form,
    m_from_f,
    modified_k_fib,
    term_fast,
    term_iterative,
    terms,
)
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

REC = transform_recurrence(TransformKind.BINOMIAL, 2)

#: One call of each public function that takes an index, count or exponent,
#: at that n, and the least n it accepts.
TAKES_N = {
    "terms": (lambda n: terms(REC, n), 0),
    "term_iterative": (lambda n: term_iterative(REC, n), 0),
    "term_fast": (lambda n: term_fast(REC, n), 0),
    "lucas_form": (lambda n: lucas_form(3, 1, 1, 0, n), 0),
    "transform_direct": (lambda n: transform_direct(KIND, 2, n), 0),
    "binet_closed": (lambda n: binet_closed(REC, n), 0),
    "binet_float": (lambda n: binet_float(REC, n), 0),
    "gf_expand": (lambda n: gf_expand(published_gf(KIND, 2), n), 0),
    "ipow": (lambda n: ipow(K, n), 0),
    "KPoly.shift": (lambda n: K.shift(n), 0),
    "m_from_f": (lambda n: m_from_f(2, n), 1),
    "f_from_m": (lambda n: f_from_m(2, n), 1),
    "published_binet": (lambda n: published_binet(KIND, 2, n), 1),
}

#: Each n with its error; an int n is taken above the function's least n.
INDEX_BOUNDARY = [(True, TypeError), (2.0, TypeError), (2.5, TypeError), ("3", TypeError),
                  (None, TypeError), (-1, ValueError), (0, None), (3, None)]

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


@pytest.mark.parametrize("n, error", INDEX_BOUNDARY, ids=[repr(n) for n, _ in INDEX_BOUNDARY])
@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_index_boundary(name, n, error):
    call, low = TAKES_N[name]
    if type(n) is int:
        n += low
    if error is None:
        call(n)
    elif error is TypeError:
        with pytest.raises(TypeError, match=r"must be int, got"):
            call(n)
    else:
        with pytest.raises(ValueError, match=f">= {low}"):
            call(n)


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
