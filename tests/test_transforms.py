import math

import pytest

from kfiblike.ring import K, KPoly, ipow, mul, poly_eval
from kfiblike.sequences import terms
from kfiblike.transforms import (
    KIND_ORDER,
    Provenance,
    TransformKind,
    binomial_coeff,
    binomial_diff_identity,
    binomial_row,
    falling_diff_identity,
    m_prefix,
    multiplicative_row,
    pascal_row,
    rising_even_index,
    transform_direct,
    transform_recurrence,
    transform_seq,
    w_scaling,
)


def test_binomial_coeff_basics():
    assert binomial_coeff(4, 2) == 6
    for n in (0, 3, 17):
        assert binomial_coeff(n, 0) == 1
    assert binomial_coeff(3, 5) == 0
    assert binomial_coeff(3, -1) == 0


def test_pascal_and_multiplicative_rows_agree():
    for n in range(65):
        assert list(pascal_row(n)) == multiplicative_row(n)
        assert list(pascal_row(n)) == [math.comb(n, i) for i in range(n + 1)]


def test_binomial_row_large_n_falls_back():
    row = binomial_row(700)
    assert row[0] == 1 and row[700] == 1
    assert row[3] == math.comb(700, 3)


def test_direct_sum_examples():
    assert transform_direct(TransformKind.BINOMIAL, 2, 2) == 12
    assert transform_direct(TransformKind.RISING_K, 2, 4) == 1154
    assert transform_direct(TransformKind.K_BINOMIAL, 2, 2) == 48
    assert transform_direct(TransformKind.FALLING_K, 3, 2) == 38


def test_recurrence_prefixes():
    assert terms(transform_recurrence(TransformKind.BINOMIAL, 3), 6) == \
        [2, 4, 14, 58, 248, 1066]
    assert terms(transform_recurrence(TransformKind.FALLING_K, 5), 6) == \
        [2, 12, 82, 642, 5612, 52722]
    assert terms(transform_recurrence(TransformKind.K_BINOMIAL, 2), 6) == \
        [2, 8, 48, 320, 2176, 14848]


def test_recurrence_shapes_symbolic():
    rec = transform_recurrence(TransformKind.K_BINOMIAL, K)
    assert rec.a == KPoly((0, 2, 1))       # k(k+2)
    assert rec.b == KPoly((0, 0, 0, -1))   # -k^3
    assert rec.x0 == KPoly.constant(2)
    assert rec.x1 == KPoly((0, 4))         # 4k
    rec = transform_recurrence(TransformKind.FALLING_K, K)
    assert rec.a == KPoly((0, 3))          # 3k
    assert rec.b == KPoly((1, 0, -2))      # -(2k^2-1)


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_direct_equals_recurrence(kind):
    for k in range(1, 7):
        rec_vals = terms(transform_recurrence(kind, k), 41)
        for n in range(41):
            assert transform_direct(kind, k, n) == rec_vals[n]


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_direct_equals_recurrence_symbolic(kind):
    rec_vals = terms(transform_recurrence(kind, K), 13)
    for n in range(13):
        assert transform_direct(kind, K, n) == rec_vals[n]


def test_kinds_collapse_at_k1():
    expected = [2, 4, 10, 26, 68, 178]
    for kind in KIND_ORDER:
        assert [transform_direct(kind, 1, n) for n in range(6)] == expected


def test_binomial_diff_identity_examples():
    assert binomial_diff_identity(2, 1) == (8, 8)
    assert binomial_diff_identity(1, 0) == (2, 2)
    lhs, rhs = binomial_diff_identity(K, 2)
    assert lhs == rhs


def test_falling_diff_identity_examples():
    assert falling_diff_identity(2, 1) == (10, 10)
    assert falling_diff_identity(1, 1) == (6, 6)
    lhs, rhs = falling_diff_identity(K, 2)
    assert lhs == rhs


def test_rising_even_index_examples():
    assert rising_even_index(2, 1) == (6, 6)
    assert rising_even_index(1, 0) == (2, 2)
    assert rising_even_index(3, 2) == (86, 86)


def test_w_scaling_examples():
    assert w_scaling(2, 3) == (320, 320)
    assert w_scaling(3, 1) == (12, 12)
    for n in range(8):
        lhs, rhs = w_scaling(1, n)
        assert lhs == rhs


def test_identity_pairs_sweep():
    for k in list(range(1, 7)) + [K]:
        top = 24 if isinstance(k, int) else 10
        for n in range(top):
            for fn in (binomial_diff_identity, falling_diff_identity,
                       rising_even_index, w_scaling):
                lhs, rhs = fn(k, n)
                assert lhs == rhs, (fn.__name__, k, n)


def test_direct_sum_with_both_binomial_rows():
    # recompute the definitional sum with multiplicative-formula binomials
    for k in range(1, 6):
        for n in range(33):
            ms = m_prefix(k, n + 1)
            row = multiplicative_row(n)
            for kind, weight in (
                (TransformKind.BINOMIAL, lambda i: 1),
                (TransformKind.K_BINOMIAL, lambda i: k**n),
                (TransformKind.RISING_K, lambda i: k**i),
                (TransformKind.FALLING_K, lambda i: k ** (n - i)),
            ):
                alt = sum(row[i] * weight(i) * ms[i] for i in range(n + 1))
                assert alt == transform_direct(kind, k, n)


def test_m_prefix_cache_monotone():
    short = m_prefix(7, 4)
    longer = m_prefix(7, 9)
    assert longer[:4] == short
    assert m_prefix(7, 4) == short  # re-reading a shorter prefix is stable


def test_m_prefix_symbolic_matches_numeric():
    sym = m_prefix(K, 10)
    for k in range(1, 6):
        num = m_prefix(k, 10)
        assert [poly_eval(p, k) for p in sym] == num


def test_transform_seq_provenances_agree():
    for kind in KIND_ORDER:
        direct = transform_seq(kind, 4, 12, Provenance.DIRECT_SUM)
        closed = transform_seq(kind, 4, 12, Provenance.CLOSED_RECURRENCE)
        assert direct.terms == closed.terms
        assert direct.provenance is Provenance.DIRECT_SUM
        assert closed.provenance is Provenance.CLOSED_RECURRENCE


def test_invalid_arguments():
    with pytest.raises(ValueError):
        transform_direct(TransformKind.BINOMIAL, 0, 3)
    with pytest.raises(ValueError):
        transform_direct(TransformKind.BINOMIAL, 2, -1)
    with pytest.raises(ValueError):
        transform_recurrence(TransformKind.BINOMIAL, -2)
    with pytest.raises(ValueError):
        binomial_coeff(-1, 0)


def test_weight_rules_documented():
    assert TransformKind.BINOMIAL.weight_rule == "1"
    assert TransformKind.K_BINOMIAL.weight_rule == "k^n"
    assert TransformKind.RISING_K.weight_rule == "k^i"
    assert TransformKind.FALLING_K.weight_rule == "k^(n-i)"


def test_symbolic_weights_match_scaled_binomial():
    # w-scaling identity symbolically: w_n = k^n b_n as polynomials
    for n in range(9):
        w = transform_direct(TransformKind.K_BINOMIAL, K, n)
        b = transform_direct(TransformKind.BINOMIAL, K, n)
        assert w == mul(ipow(K, n), b)


def test_m_prefix_cache_is_bounded_under_a_k_sweep():
    from kfiblike import transforms
    from kfiblike.sequences import modified_k_fib

    limit = transforms.M_CACHE_K_LIMIT
    assert limit >= 11  # the default audit's k = 1..10 plus symbolic k
    for k in range(1, 2001):
        assert m_prefix(k, 20) == terms(modified_k_fib(k), 20)
        assert len(transforms._m_cache) <= limit
    # evicted and still-cached k both give the right prefix
    for k in (1, 2, 1000, 1999, 2000):
        assert m_prefix(k, 30) == terms(modified_k_fib(k), 30)
    assert m_prefix(K, 12) == terms(modified_k_fib(K), 12)
    assert len(transforms._m_cache) <= limit
