import math
import textwrap
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st
from interpreter import needs_str_guard, run_python, str_guard

from kfiblike import transforms
from kfiblike.closedform import binet_closed
from kfiblike.genfunc import derived_gf, gf_expand
from kfiblike.ring import K, KPoly, ipow
from kfiblike.sequences import k_fib, modified_k_fib, term_fast, terms
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


def test_direct_sum_examples():
    # the published W_2 list is wrong at n = 2, so no table holds this value
    assert transform_direct(TransformKind.K_BINOMIAL, 2, 2) == 48


def test_recurrence_prefixes():
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
def test_symbolic_routes_agree_at_depth(kind):
    """Every symbolic route agrees at n = 120, where a term has 120 to 240
    coefficients of about 160 bits.  The two prefixes whose terms are fused
    KPoly._dot_step steps agree to n = 120 and evaluate, at k = 1..10, to the
    int loops of ``terms`` and ``gf_expand``."""
    n = 120
    rec = transform_recurrence(kind, K)
    prefix = terms(rec, n + 1)
    assert gf_expand(derived_gf(kind, K), n + 1) == prefix
    assert list(islice(iter_direct(kind, K), n + 1)) == prefix
    x = prefix[n]
    assert transform_direct(kind, K, n) == x
    assert term_fast(rec, n) == x
    assert binet_closed(rec, n) == x
    for k in range(1, 11):
        values = [p.evaluate(k) for p in prefix]
        assert values == terms(transform_recurrence(kind, k), n + 1)
        assert values == gf_expand(derived_gf(kind, k), n + 1)


def test_binomial_diff_identity_examples():
    assert binomial_diff_identity(2, 1) == (8, 8)
    assert binomial_diff_identity(1, 0) == (2, 2)


def test_falling_diff_identity_examples():
    assert falling_diff_identity(2, 1) == (10, 10)
    assert falling_diff_identity(1, 1) == (6, 6)


def test_rising_even_index_examples():
    assert rising_even_index(2, 1) == (6, 6)
    assert rising_even_index(1, 0) == (2, 2)
    assert rising_even_index(3, 2) == (86, 86)


def test_w_scaling_examples():
    assert w_scaling(2, 3) == (320, 320)
    assert w_scaling(3, 1) == (12, 12)


def test_direct_sum_with_both_binomial_rows():
    # recompute the definitional sum with math.comb binomials and M from
    # plain iteration, independent of the kernel's own C(n,i) rule and M loop;
    # n = 299 and 300 mirror an odd and an even row, and 2**70 + 3 is wide
    cases = [(k, n) for k in range(1, 6) for n in range(33)]
    cases += [(k, n) for k in (2, 3, 2**70 + 3) for n in (299, 300)]
    for k, n in cases:
        ms = terms(modified_k_fib(k), n + 1)
        row = [math.comb(n, i) for i in range(n + 1)]
        for kind, weight in (
            (TransformKind.BINOMIAL, lambda i: 1),
            (TransformKind.K_BINOMIAL, lambda i: k**n),
            (TransformKind.RISING_K, lambda i: k**i),
            (TransformKind.FALLING_K, lambda i: k ** (n - i)),
        ):
            alt = sum(row[i] * weight(i) * ms[i] for i in range(n + 1))
            assert alt == transform_direct(kind, k, n), (kind, k, n)


@pytest.mark.parametrize("kind, n", [
    (TransformKind.BINOMIAL, 240),
    (TransformKind.K_BINOMIAL, 144),
    (TransformKind.RISING_K, 150),
    (TransformKind.FALLING_K, 200),
], ids=lambda x: getattr(x, "value", x))
def test_symbolic_direct_sum_bound_is_the_norm(kind, n):
    """The bound the symbolic direct sum reads back at, the int loop at the
    norms (k = 1, x0 = x1 = 2), is the l1 norm of the term itself: every
    coefficient is non-negative.  The n are the largest the ``symbolic``
    benchmark workload asks for."""
    assert transforms._weighted_sum(kind, 1, n, 2, 2) == transform_direct(kind, K, n).norm()


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_int_kernel_at_k_with_a_power_of_two_factor(kind):
    """The int loop of the direct sum writes each product by k = odd * 2^s
    as a product by odd and a left shift.  At odd 1, -1 and 3, s up to 344
    (the 43-byte slot's point is 2^344) and k = 0, it is the definitional sum
    with math.comb binomials and x from its own recurrence."""
    weight = {
        TransformKind.BINOMIAL: lambda k, n, i: 1,
        TransformKind.K_BINOMIAL: lambda k, n, i: k**n,
        TransformKind.RISING_K: lambda k, n, i: k**i,
        TransformKind.FALLING_K: lambda k, n, i: k ** (n - i),
    }[kind]
    ks = [odd << s for odd in (1, -1, 3) for s in (0, 1, 344)] + [0]
    for k in ks:
        for x0, x1 in ((2, 2), (2, 2 * k + 2)):
            xs = [x0, x1]
            while len(xs) < 41:
                xs.append(k * xs[-1] + xs[-2])
            for n in range(41):
                alt = sum(math.comb(n, i) * weight(k, n, i) * xs[i] for i in range(n + 1))
                assert transforms._weighted_sum(kind, k, n, x0, x1) == alt, (k, x0, x1, n)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        transform_direct(TransformKind.BINOMIAL, 0, 3)
    with pytest.raises(ValueError):
        transform_direct(TransformKind.BINOMIAL, 2, -1)
    with pytest.raises(ValueError):
        transform_recurrence(TransformKind.BINOMIAL, -2)


@needs_str_guard
def test_recurrences_of_a_k_past_the_str_guard_construct():
    k = 7**6000  # 5071 digits
    with str_guard(4300):
        assert modified_k_fib(k).a == k_fib(k).a == k
        for kind in TransformKind:
            assert terms(transform_recurrence(kind, k), 2)[0] == 2


def test_symbolic_weights_match_scaled_binomial():
    # w-scaling identity symbolically: w_n = k^n b_n as polynomials
    for n in range(9):
        w = transform_direct(TransformKind.K_BINOMIAL, K, n)
        b = transform_direct(TransformKind.BINOMIAL, K, n)
        assert w == ipow(K, n) * b


# Sizes every list and dict the module holds, sweeps k = 1..2000 through the
# direct sum and the four lemma functions, and sizes them again.  It runs in a
# fresh interpreter so that what earlier tests left behind cannot hide growth.
_K_SWEEP = textwrap.dedent("""
    from kfiblike import transforms as t

    def sizes():
        out = {}
        for name, value in vars(t).items():
            if name.startswith("__") or not isinstance(value, (list, dict)):
                continue
            items = value.values() if isinstance(value, dict) else value
            out[name] = len(value) + sum(
                len(x) for x in items if isinstance(x, (list, dict)))
        return out

    before = sizes()
    for k in range(1, 2001):
        n = k % 25
        for kind in t.KIND_ORDER:
            t.transform_direct(kind, k, n)
        for fn in (t.binomial_diff_identity, t.falling_diff_identity,
                   t.rising_even_index, t.w_scaling):
            lhs, rhs = fn(k, n)
            assert lhs == rhs, (fn.__name__, k, n)
    grown = {name: (before.get(name, 0), size)
             for name, size in sizes().items() if size > before.get(name, 0)}
    assert not grown, grown
""")


def test_k_sweep_leaves_no_module_state():
    proc = run_python("-c", _K_SWEEP, text=True)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KIND_ORDER),
    k=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=0, max_value=60),
)
def test_direct_sum_matches_recurrence_gf_and_symbolic_property(kind, k, n):
    value = transform_direct(kind, k, n)
    assert value == terms(transform_recurrence(kind, k), n + 1)[n]
    assert value == gf_expand(derived_gf(kind, k), n + 1)[n]
    if n <= 16:
        assert transform_direct(kind, K, n).evaluate(k) == value


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KIND_ORDER),
    k=st.integers(min_value=1, max_value=60),
    count=st.integers(min_value=0, max_value=70),
)
def test_direct_prefix_matches_each_term_and_the_recurrence_property(kind, k, count):
    prefix = list(islice(iter_direct(kind, k), count))
    assert prefix == [transform_direct(kind, k, n) for n in range(count)]
    assert prefix == terms(transform_recurrence(kind, k), count)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=10**4), count=st.integers(min_value=0, max_value=70))
def test_rising_direct_prefix_at_wide_k_property(k, count):
    """The rising table runs over y(i) = k^i M(i), whose terms are wider
    than M's: up to k = 10^4 it still gives each term and the recurrence."""
    prefix = list(islice(iter_direct(TransformKind.RISING_K, k), count))
    assert prefix == [transform_direct(TransformKind.RISING_K, k, n) for n in range(count)]
    assert prefix == terms(transform_recurrence(TransformKind.RISING_K, k), count)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KIND_ORDER), count=st.integers(min_value=0, max_value=14))
def test_symbolic_direct_prefix_matches_each_term_and_the_recurrence_property(kind, count):
    prefix = list(islice(iter_direct(kind, K), count))
    assert prefix == [transform_direct(kind, K, n) for n in range(count)]
    assert prefix == terms(transform_recurrence(kind, K), count)


def test_symbolic_k_binomial_shift_keeps_every_value():
    """At K the k-binomial prefix and the audit's k-binomial sums multiply by
    k^n as a coefficient shift; both equal the dense product they replace."""
    n = 40
    plain = list(islice(iter_direct(TransformKind.BINOMIAL, K), n + 1))
    scaled = list(islice(iter_direct(TransformKind.K_BINOMIAL, K), n + 1))
    assert scaled == [ipow(K, m) * p for m, p in enumerate(plain)]
    assert scaled == [p.shift(m) for m, p in enumerate(plain)]
    assert scaled == terms(transform_recurrence(TransformKind.K_BINOMIAL, K), n + 1)


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_symbolic_direct_sum_makes_no_kpoly_product(calls, kind):
    """At symbolic k the direct sum runs on ints at one point and is read
    back once: no KPoly product, where the ring ops would make O(n) of them."""
    expected = terms(transform_recurrence(kind, K), 61)[60]
    products = calls(KPoly, "__mul__")
    assert transform_direct(kind, K, 60) == expected
    assert not products


def test_w_scaling_at_K_makes_no_kpoly_product(calls):
    """At K, w_scaling multiplies the binomial term by k^n as a coefficient
    shift: no KPoly product, where the dense one is O(n^2)."""
    expected = terms(transform_recurrence(TransformKind.K_BINOMIAL, K), 121)[120]
    products = calls(KPoly, "__mul__")
    assert w_scaling(K, 120) == (expected, expected)
    assert not products


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KIND_ORDER),
    k=st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)),
               max_size=3).map(KPoly),
    n=st.integers(min_value=0, max_value=16),
)
def test_symbolic_direct_sum_and_lemmas_at_any_polynomial_k_property(kind, k, n):
    """The direct sum, evaluated at one point and read back, and the lemmas'
    right-hand sides agree with the difference table at any polynomial k,
    negative and wide coefficients included."""
    B, Fa = TransformKind.BINOMIAL, TransformKind.FALLING_K
    rows = {kd: list(islice(iter_direct(kd, k), n + 2)) for kd in (kind, B, Fa)}
    assert transform_direct(kind, k, n) == rows[kind][n]
    assert binomial_diff_identity(k, n)[1] == rows[B][n + 1] - rows[B][n]
    assert falling_diff_identity(k, n)[1] == rows[Fa][n + 1] - k * rows[Fa][n]
    lhs, rhs = w_scaling(k, n)
    assert lhs == rhs
