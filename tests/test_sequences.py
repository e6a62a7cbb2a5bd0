import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfiblike.ring import K, KPoly, ModeMismatchError, zero_like
from kfiblike.sequences import (
    Order2Rec,
    _halved_alternating_sums,
    f_from_m,
    iter_terms,
    k_fib,
    m_from_f,
    modified_k_fib,
    term_fast,
    term_iterative,
    terms,
)


def test_modified_k1_prefix():
    assert terms(modified_k_fib(1), 7) == [2, 2, 4, 6, 10, 16, 26]


def test_modified_symbolic_terms():
    seq = terms(modified_k_fib(K), 6)
    assert seq[4] == KPoly((2, 4, 2, 2))      # 2k^3+2k^2+4k+2
    assert seq[5] == KPoly((2, 4, 6, 2, 2))   # 2k^4+2k^3+6k^2+4k+2


def test_kfib_classical_fibonacci():
    assert terms(k_fib(1), 7) == [0, 1, 1, 2, 3, 5, 8]


def test_kfib_k2_pell():
    assert terms(k_fib(2), 6) == [0, 1, 2, 5, 12, 29]


def test_kfib_symbolic_third_term():
    assert terms(k_fib(K), 4)[3] == KPoly((1, 0, 1))  # k^2+1


def test_terms_prefix_behaviour():
    rec = modified_k_fib(2)
    assert terms(rec, 6) == [2, 2, 6, 14, 34, 82]
    assert terms(rec, 0) == []
    assert terms(rec, 1) == [2]
    assert terms(rec, 2) == [2, 2]
    with pytest.raises(ValueError):
        terms(rec, -1)


def test_invalid_k_rejected():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            modified_k_fib(bad)
        with pytest.raises(ValueError):
            k_fib(bad)


def test_recurrence_resubstitution():
    rng = random.Random(41)
    for _ in range(5):
        k = rng.randint(1, 10)
        for rec in (modified_k_fib(k), k_fib(k)):
            seq = terms(rec, 64)
            for n in range(1, 63):
                assert seq[n + 1] == rec.a * seq[n] + rec.b * seq[n - 1]


def test_order2rec_rejects_mixed_modes():
    with pytest.raises(ModeMismatchError):
        Order2Rec(a=K, b=1, x0=2, x1=2)


def test_term_fast_matches_iteration_numeric():
    rng = random.Random(1009)
    k = rng.randint(1, 10)
    rec = modified_k_fib(k)
    seq = terms(rec, 2049)
    for n in range(2049):
        assert term_fast(rec, n) == seq[n]
    # spot values from the examples
    assert term_fast(modified_k_fib(1), 6) == 26
    assert term_fast(modified_k_fib(2), 0) == 2
    assert term_fast(k_fib(3), 8) == terms(k_fib(3), 9)[8]


def test_term_fast_matches_iteration_symbolic():
    rec = modified_k_fib(K)
    seq = terms(rec, 33)
    for n in range(33):
        assert term_fast(rec, n) == seq[n]


def test_term_iterative_matches_terms():
    rec = k_fib(4)
    seq = terms(rec, 50)
    for n in (0, 1, 2, 17, 49):
        assert term_iterative(rec, n) == seq[n]


def test_iter_terms_is_unbounded_prefix():
    it = iter_terms(modified_k_fib(3))
    assert [next(it) for _ in range(5)] == [2, 2, 8, 26, 86]


def test_m_from_f_examples():
    assert m_from_f(2, 3) == 14
    assert m_from_f(1, 1) == 2
    assert m_from_f(K, 2) == KPoly((2, 2))  # 2k+2


def test_f_from_m_examples():
    assert f_from_m(1, 2) == 1
    assert f_from_m(2, 1) == 1
    assert f_from_m(2, 4) == 12


def test_inter_sequence_identities_sweep():
    for k in range(1, 11):
        ms = terms(modified_k_fib(k), 65)
        fs = terms(k_fib(k), 65)
        for n in range(1, 65):
            assert m_from_f(k, n) == ms[n]
            assert f_from_m(k, n) == fs[n]


def test_inter_sequence_identities_symbolic():
    ms = terms(modified_k_fib(K), 17)
    fs = terms(k_fib(K), 17)
    for n in range(1, 17):
        assert m_from_f(K, n) == ms[n]
        assert f_from_m(K, n) == fs[n]


@settings(max_examples=120, deadline=None)
@given(k=st.one_of(st.integers(min_value=1, max_value=60), st.just(K)),
       count=st.integers(min_value=1, max_value=60))
def test_running_alternating_sums_match_the_definitional_sums_property(k, count):
    """The running kernel A(n) = M(n) - A(n-1), halved, against
    (1/2) sum_{i<n} (-1)^i M(n-i) summed term by term, and against F."""
    ms = terms(modified_k_fib(k), count)
    halves = list(_halved_alternating_sums(ms))
    assert len(halves) == count
    assert list(islice(_halved_alternating_sums(iter_terms(modified_k_fib(k))), count)) == halves
    fs = terms(k_fib(k), count)
    for n in range(count):
        acc = zero_like(k)
        for i in range(n):
            acc = acc + ms[n - i] if i % 2 == 0 else acc - ms[n - i]
        twice = halves[n] + halves[n]
        assert twice == acc, (k, n)
        assert halves[n] == fs[n], (k, n)


def test_identities_reject_n_zero():
    with pytest.raises(ValueError):
        m_from_f(2, 0)
    with pytest.raises(ValueError):
        f_from_m(2, 0)


def test_symbolic_numeric_consistency():
    sym = terms(modified_k_fib(K), 33)
    for k in range(1, 11):
        num = terms(modified_k_fib(k), 33)
        for n in range(33):
            assert sym[n].evaluate(k) == num[n]
