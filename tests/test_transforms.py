import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kfiblike.genfunc import derived_gf, gf_expand
from kfiblike import transforms
from kfiblike.ring import K, KPoly, ipow
from kfiblike.sequences import k_fib, modified_k_fib, terms
from kfiblike.transforms import (
    KIND_ORDER,
    TransformKind,
    binomial_diff_identity,
    falling_diff_identity,
    rising_even_index,
    transform_direct,
    transform_recurrence,
    w_scaling,
)


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


def test_lemmas_read_transform_terms_only_from_the_given_route(monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"transform_direct{args} read behind the given route")

    monkeypatch.setattr(transforms, "transform_direct", forbidden)
    calls = []

    def fake(kind, k, n):
        """A recording route whose every value names the call that produced it."""
        calls.append((kind, k, n))
        return 10**6 * (KIND_ORDER.index(kind) + 1) + 1000 * k + n

    B, W, R, Fa = (TransformKind.BINOMIAL, TransformKind.K_BINOMIAL,
                   TransformKind.RISING_K, TransformKind.FALLING_K)
    for k, n in ((1, 0), (3, 4), (5, 9)):
        for fn, want_calls, want_lhs in (
            (binomial_diff_identity, [(B, k, n + 1), (B, k, n)],
             fake(B, k, n + 1) - fake(B, k, n)),
            (falling_diff_identity, [(Fa, k, n + 1), (Fa, k, n)],
             fake(Fa, k, n + 1) - k * fake(Fa, k, n)),
            (rising_even_index, [(R, k, n)], fake(R, k, n)),
            (w_scaling, [(W, k, n), (B, k, n)], fake(W, k, n)),
        ):
            calls.clear()
            lhs, rhs = fn(k, n, direct=fake)
            assert calls == want_calls, fn.__name__
            assert lhs == want_lhs, fn.__name__
            if fn is w_scaling:
                assert rhs == k**n * fake(B, k, n)
            else:  # the other side never reads the route
                assert rhs == fn(k, n)[1], fn.__name__


def test_direct_sum_with_both_binomial_rows():
    # recompute the definitional sum with math.comb binomials and M from
    # plain iteration, independent of the kernel's own C(n,i) rule and M loop
    for k in range(1, 6):
        for n in range(33):
            ms = terms(modified_k_fib(k), n + 1)
            row = [math.comb(n, i) for i in range(n + 1)]
            for kind, weight in (
                (TransformKind.BINOMIAL, lambda i: 1),
                (TransformKind.K_BINOMIAL, lambda i: k**n),
                (TransformKind.RISING_K, lambda i: k**i),
                (TransformKind.FALLING_K, lambda i: k ** (n - i)),
            ):
                alt = sum(row[i] * weight(i) * ms[i] for i in range(n + 1))
                assert alt == transform_direct(kind, k, n)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        transform_direct(TransformKind.BINOMIAL, 0, 3)
    with pytest.raises(ValueError):
        transform_direct(TransformKind.BINOMIAL, 2, -1)
    with pytest.raises(ValueError):
        transform_recurrence(TransformKind.BINOMIAL, -2)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no str(int) guard before CPython 3.11")
def test_recurrences_of_a_k_past_the_str_guard_construct():
    k = 7**6000  # 5071 digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert modified_k_fib(k).a == k_fib(k).a == k
        for kind in TransformKind:
            assert terms(transform_recurrence(kind, k), 2)[0] == 2
    finally:
        sys.set_int_max_str_digits(old)


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
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _K_SWEEP],
                          capture_output=True, text=True, env=env)
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
