import decimal
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kfiblike import ring
from kfiblike.ring import (
    ExactDivisionError,
    K,
    KPoly,
    ModeMismatchError,
    const_like,
    elem_str,
    exact_div_int,
    ipow,
    require_same_mode,
    scale,
)

M3 = KPoly((2, 2))          # 2k+2
M4 = KPoly((2, 2, 2))       # 2k^2+2k+2
M5 = KPoly((2, 4, 2, 2))    # 2k^3+2k^2+4k+2
M6 = KPoly((2, 4, 6, 2, 2)) # 2k^4+2k^3+6k^2+4k+2


def test_add_ints():
    assert 2 + 2 == 4


def test_add_polys():
    # (2k+2) + (2k^2+2k+2) = 2k^2+4k+4
    assert M3 + M4 == KPoly((4, 4, 2))


def test_additive_identity():
    p = KPoly((3, 0, -7))
    assert p + KPoly() == p
    assert 5 + 0 == 5


def test_mul_ints():
    assert 3 * 4 == 12


def test_mul_monomial_shift():
    assert K * M3 == KPoly((0, 2, 2))  # k*(2k+2) = 2k^2+2k


def test_mul_difference_of_squares():
    assert KPoly((1, 1)) * KPoly((-1, 1)) == KPoly((-1, 0, 1))


def test_exact_div_ints():
    assert exact_div_int(4, 2) == 2


def test_exact_div_poly():
    assert exact_div_int(M3, 2) == KPoly((1, 1))


def test_exact_div_failure_names_coefficient():
    with pytest.raises(ExactDivisionError, match="coefficient 1 of k\\^0"):
        exact_div_int(KPoly((1, 2)), 2)
    with pytest.raises(ExactDivisionError):
        exact_div_int(7, 2)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div_int(4, 0)


def test_exact_div_negative_divisor():
    assert exact_div_int(KPoly((4, -6)), -2) == KPoly((-2, 3))


def test_evaluate_examples():
    assert M5.evaluate(3) == 86
    assert M5.evaluate(0) == 2
    assert M6.evaluate(1) == 16


def test_mode_mixing_rejected():
    for pair in ((2, M3), (M3, 2), (2, K, 3)):
        with pytest.raises(ModeMismatchError):
            require_same_mode(*pair)
    require_same_mode(2, 3)
    require_same_mode(M3, K)


def test_mode_mixing_rejected_by_operators():
    with pytest.raises(TypeError):
        2 + K  # noqa: B018
    with pytest.raises(TypeError):
        K * 2  # noqa: B018


def test_kpoly_rejects_non_int_coeffs():
    with pytest.raises(TypeError):
        KPoly((1.5, 2))


def _random_poly(rng):
    return KPoly(rng.randint(-9, 9) for _ in range(rng.randint(0, 6)))


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        x, y, z = (rng.randint(-50, 50) for _ in range(3))
        # associativity / commutativity / distributivity, both carriers
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        # identities
        assert a + KPoly() == a
        assert a * KPoly.constant(1) == a
        assert x * 1 == x


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        k = rng.randint(0, 10)
        assert (p + q).evaluate(k) == p.evaluate(k) + q.evaluate(k)
        assert (p - q).evaluate(k) == p.evaluate(k) - q.evaluate(k)
        assert (p * q).evaluate(k) == p.evaluate(k) * q.evaluate(k)


def test_canonical_form():
    assert KPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert KPoly((0, 0, 0)).coeffs == ()
    assert not KPoly(())
    # renormalising a canonical polynomial is the identity
    p = KPoly((1, 2, 3))
    assert KPoly(p.coeffs) == p


def test_degree_is_additive_for_nonzero_products():
    rng = random.Random(7)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        if not p or not q:
            continue
        assert (p * q).degree == p.degree + q.degree


def test_str_formats():
    assert str(M6) == "2k^4+2k^3+6k^2+4k+2"
    assert str(KPoly((-1, 0, 1))) == "k^2-1"
    assert str(KPoly()) == "0"
    assert str(K) == "k"
    assert str(KPoly((0, -1))) == "-k"
    assert str(KPoly.constant(1)) == "1"
    assert elem_str(-12) == "-12"


def test_scale_and_ipow():
    assert scale(M3, 3) == KPoly((6, 6))
    assert scale(7, -2) == -14
    assert ipow(K, 3) == KPoly((0, 0, 0, 1))
    assert ipow(2, 10) == 1024
    assert ipow(KPoly((1, 1)), 2) == KPoly((1, 2, 1))
    with pytest.raises(ValueError):
        ipow(K, -1)


def test_const_like():
    assert const_like(5, K) == KPoly.constant(5)
    assert const_like(5, 3) == 5


def test_kpoly_immutable_and_hashable():
    p = KPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(KPoly((1, 2)))
    assert p in {KPoly((1, 2))}


# coefficient lists as callers write them: any ints, trailing zeros included
_coeff_lists = st.tuples(
    st.lists(st.integers(min_value=-10**12, max_value=10**12), max_size=6),
    st.integers(min_value=0, max_value=3),
).map(lambda t: t[0] + [0] * t[1])


def _is_canonical(p):
    return not p.coeffs or p.coeffs[-1] != 0


@settings(max_examples=200, deadline=None)
@given(ca=_coeff_lists, cb=_coeff_lists, cc=_coeff_lists,
       x=st.integers(min_value=-30, max_value=30))
def test_kpoly_ring_laws_property(ca, cb, cc, x):
    a, b, c = KPoly(ca), KPoly(cb), KPoly(cc)
    zero, one = KPoly(), KPoly.constant(1)
    # canonical form: trailing zeros never survive, whatever built the value
    stripped = list(ca)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    assert a.coeffs == tuple(stripped)
    assert KPoly(ca + [0, 0]) == a and hash(KPoly(ca + [0])) == hash(a)
    for r in (a + b, a - b, a * b, -a, a - a):
        assert _is_canonical(r)
    # commutativity, associativity, distributivity
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    # identities and inverses
    assert a + zero == zero + a == a
    assert a * one == one * a == a
    assert a * zero == zero
    assert a - a == zero
    assert a - b == a + (-b)
    # evaluate is a ring homomorphism into the integers
    assert a.evaluate(x) == sum(coef * x**i for i, coef in enumerate(ca))
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a - b).evaluate(x) == a.evaluate(x) - b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (-a).evaluate(x) == -a.evaluate(x)
    assert one.evaluate(x) == 1 and zero.evaluate(x) == 0


def _schoolbook(a, b):
    """Reference product of two coefficient lists, untrimmed."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _assert_built_like_public(p, cs):
    """``p`` is exactly what the validating constructor makes of ``cs``."""
    q = KPoly(cs)
    assert p.coeffs == q.coeffs and p == q and hash(p) == hash(q)
    assert _is_canonical(p)


# coefficients of any width up to about 2**300, either sign
_WIDE_COEFFS = st.integers(0, 300).flatmap(lambda b: st.integers(-(1 << b), 1 << b))
_NONZERO_WIDE = _WIDE_COEFFS.filter(bool)
_operands = st.tuples(
    st.one_of(
        st.lists(_WIDE_COEFFS, max_size=15),                              # short
        st.lists(_NONZERO_WIDE, min_size=16, max_size=40),                # dense
        st.lists(st.one_of(st.just(0), st.just(0), st.just(0), _WIDE_COEFFS),
                 max_size=40),                                            # mostly zero
    ),
    st.integers(min_value=0, max_value=3),
).map(lambda t: t[0] + [0] * t[1])


@settings(max_examples=300, deadline=None)
@given(ca=_operands, cb=_operands)
def test_kpoly_arithmetic_matches_reference_property(ca, cb):
    a, b = KPoly(ca), KPoly(cb)
    _assert_built_like_public(a * b, _schoolbook(ca, cb))
    _assert_built_like_public(b * a, _schoolbook(ca, cb))
    width = max(len(ca), len(cb))
    pa, pb = ca + [0] * (width - len(ca)), cb + [0] * (width - len(cb))
    _assert_built_like_public(a + b, [x + y for x, y in zip(pa, pb)])
    _assert_built_like_public(a - b, [x - y for x, y in zip(pa, pb)])
    _assert_built_like_public(-a, [-x for x in ca])
    c = cb[0] if cb else 0
    _assert_built_like_public(a.scale(c), [x * c for x in ca])


def _dense(n, sign=1, start=1):
    return [sign * (start + i) * (-1) ** i for i in range(n)]


@pytest.mark.parametrize("na", (15, 16, 17))
@pytest.mark.parametrize("nb", (15, 16, 17))
def test_products_at_the_kronecker_threshold(monkeypatch, na, nb):
    calls = []
    real = ring._kronecker_mul
    monkeypatch.setattr(ring, "_kronecker_mul", lambda a, b: calls.append(1) or real(a, b))
    ca, cb = _dense(na, start=3), _dense(nb, sign=-1, start=10**20)
    _assert_built_like_public(KPoly(ca) * KPoly(cb), _schoolbook(ca, cb))
    assert len(calls) == (min(na, nb) >= ring._KRONECKER_MIN_TERMS)
    # zeros do not count: spread 16 nonzero terms out and hide one
    sparse = [0] * 40
    for i in range(0, 32, 2):
        sparse[i] = 2**70 + i
    _assert_built_like_public(KPoly(sparse) * KPoly(cb), _schoolbook(sparse, cb))
    sparse[0] = 0
    calls.clear()
    _assert_built_like_public(KPoly(sparse) * KPoly(cb), _schoolbook(sparse, cb))
    assert not calls


@pytest.mark.parametrize("m", (1, 2, 3, 8))
def test_products_around_a_slot_width(m):
    edges = [2**(8 * m - 1) - 1, 2**(8 * m - 1), 2**(8 * m)]
    values = edges + [-e for e in edges]
    for n in (16, 17, 24):
        for x in values:
            for y in values:
                same = [x] * n
                mixed = [x if i % 3 else y for i in range(n)]
                alternating = [x if i % 2 else -x for i in range(n)]
                for ca, cb in ((same, same), (same, mixed), (mixed, alternating),
                               (alternating, [y] * (n + 5)), (mixed, mixed)):
                    _assert_built_like_public(KPoly(ca) * KPoly(cb), _schoolbook(ca, cb))
    # 31 * 15 * (2**(8m-1) - 1) needs all but the top bit of its slot
    for x in values:
        for ca, cb in (([x] * 31, [15] * 31), ([x] * 31, [-15] * 31)):
            _assert_built_like_public(KPoly(ca) * KPoly(cb), _schoolbook(ca, cb))


def test_monomial_times_dense_in_both_orders():
    dense = _dense(30, start=2**64)
    for i in (0, 1, 7, 40):
        for c in (1, -1, 5, -(2**200)):
            mono = [0] * i + [c]
            want = [0] * i + [c * x for x in dense]
            _assert_built_like_public(KPoly(mono) * KPoly(dense), want)
            _assert_built_like_public(KPoly(dense) * KPoly(mono), want)
    _assert_built_like_public(KPoly(dense) * KPoly(), [])
    _assert_built_like_public(KPoly() * KPoly(dense), [])


def test_cancelling_results_are_canonical():
    a = KPoly([3, -1, 4, 1, 5, 9])
    for r in (a - a, a + (-a), (-a) + a, a.scale(0), a * KPoly()):
        assert r.coeffs == () and r.degree == -1 and not r
        _assert_built_like_public(r, [0, 0, 0])
    # leading terms cancel: the difference is trimmed to its last nonzero term
    b = KPoly([1, 2, 4, 0, 5, 9])
    for r in (a - b, a + (-b), (-b) + a):
        assert r.coeffs == (2, -3, 0, 1) and r.degree == 3
        _assert_built_like_public(r, [2, -3, 0, 1, 0, 0])
    assert (b - a).coeffs == (-2, 3, 0, -1)
    wide = KPoly([2**300, -(2**300), 2**300])
    assert (wide - wide.scale(1)).coeffs == ()
    assert (KPoly([1, 2**300]) - KPoly([0, 2**300])).coeffs == (1,)


@contextmanager
def str_guard_lifted():
    """Let the reference ``str(int)`` print any size (CPython 3.11+ guard)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# bit widths from 0 to about three times the str() threshold, either sign
WIDE_INTS = st.integers(0, 3 * ring._STR_MAX_BITS).flatmap(
    lambda b: st.integers(-(1 << b), 1 << b))


@settings(max_examples=150, deadline=None)
@given(WIDE_INTS)
def test_elem_str_equals_str_on_both_sides_of_the_threshold(x):
    with str_guard_lifted():
        assert elem_str(x) == str(x)


# the str() threshold, the leaf width and the first split widths above it
EDGE_BITS = (ring._STR_MAX_BITS, ring._STR_MAX_BITS + 1, ring._LEAF_BITS,
             2 * ring._LEAF_BITS, 4 * ring._LEAF_BITS, 16 * ring._LEAF_BITS,
             32 * ring._LEAF_BITS)


@pytest.mark.parametrize("b", EDGE_BITS)
def test_decimal_route_at_edge_widths(b):
    with str_guard_lifted():
        for m in (2**b - 1, 2**b, 2**b + 1):
            with decimal.localcontext(ring._EXACT_CONTEXT):
                assert str(ring._to_decimal(m)) == str(m)
            for x in (m, -m):
                assert elem_str(x) == str(x)
    assert elem_str(0) == "0"


def test_str_threshold_is_the_default_guard():
    # every int of at most _STR_MAX_BITS bits has at most 4300 digits
    with str_guard_lifted():
        assert len(str(2**ring._STR_MAX_BITS - 1)) == 4300
        assert len(str(2**(ring._STR_MAX_BITS + 1) - 1)) == 4301


def test_power_table_is_bounded_by_the_widest_value(monkeypatch):
    monkeypatch.setattr(ring, "_POW2", {})
    x = 3**90_000  # 142,650 bits
    elem_str(x)
    table = dict(ring._POW2)
    assert len(table) <= x.bit_length().bit_length()
    assert all(s & (s - 1) == 0 and ring._LEAF_BITS <= s < x.bit_length() for s in table)
    elem_str(x // 7**5000)
    elem_str(-x)
    assert ring._POW2 == table


SRC_DIR = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
from kfiblike.ring import elem_str
x = 7**20000
try:
    str(x)
except ValueError:
    pass
else:
    raise SystemExit("the default str(int) guard is not in force")
text, neg = elem_str(x), elem_str(-x)
sys.set_int_max_str_digits(0)
assert text == str(x) and neg == str(-x)
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no str(int) guard before CPython 3.11")
def test_elem_str_works_under_the_default_str_guard():
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


KPOLY_CHILD = """
import sys
from kfiblike.ring import KPoly, elem_str
c = 7**6000
p = KPoly((c, -c, 1, 0, c))
texts = str(p), elem_str(p), str(-p)
sys.set_int_max_str_digits(0)
m = str(c)
assert texts[0] == texts[1] == m + "k^4+k^2-" + m + "k+" + m, texts[0][:40]
assert texts[2] == "-" + m + "k^4-k^2+" + m + "k-" + m
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no str(int) guard before CPython 3.11")
def test_kpoly_str_works_under_the_default_str_guard():
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", KPOLY_CHILD], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
