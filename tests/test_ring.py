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
    poly_eval,
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


def test_poly_eval_examples():
    assert poly_eval(M5, 3) == 86
    assert poly_eval(M5, 0) == 2
    assert poly_eval(M6, 1) == 16


def test_poly_eval_rejects_non_poly():
    with pytest.raises(TypeError):
        poly_eval(3, 3)


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


def test_poly_eval_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        k = rng.randint(0, 10)
        assert poly_eval(p + q, k) == poly_eval(p, k) + poly_eval(q, k)
        assert poly_eval(p - q, k) == poly_eval(p, k) - poly_eval(q, k)
        assert poly_eval(p * q, k) == poly_eval(p, k) * poly_eval(q, k)


def test_canonical_form():
    assert KPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert KPoly((0, 0, 0)).coeffs == ()
    assert KPoly(()).is_zero
    # renormalising a canonical polynomial is the identity
    p = KPoly((1, 2, 3))
    assert KPoly(p.coeffs) == p


def test_degree_is_additive_for_nonzero_products():
    rng = random.Random(7)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        if p.is_zero or q.is_zero:
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
