import random

import pytest
from hypothesis import example, given, settings, strategies as st
from interpreter import STR_GUARDS, needs_str_guard, str_guard

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


def test_add_polys():
    # (2k+2) + (2k^2+2k+2) = 2k^2+4k+4
    assert M3 + M4 == KPoly((4, 4, 2))


def test_additive_identity():
    p = KPoly((3, 0, -7))
    assert p + KPoly() == p


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


@pytest.mark.parametrize("limit", STR_GUARDS)
def test_exact_div_failure_names_a_value_past_the_str_guard(limit):
    # the message is built with elem_str, so the str(int) guard cannot replace the error
    x = 10**5000 + 1
    with str_guard(0):
        digits = str(x)
    with str_guard(limit):
        for value in (x, KPoly((x, 1))):
            with pytest.raises(ExactDivisionError) as exc:
                exact_div_int(value, 2)
            assert digits in str(exc.value)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div_int(4, 0)
    with pytest.raises(TypeError, match="divisor must be int"):
        exact_div_int(K, 2.0)


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


def test_times_k_power_refuses_mixed_carriers_before_any_arithmetic(calls):
    powers = calls(ring, "ipow")
    for x, k in ((3, K), (3, KPoly((1, 1))), (KPoly((1, 1)), 3)):
        with pytest.raises(ModeMismatchError, match="cannot mix numeric"):
            ring.times_k_power(x, k, 2)
    assert powers == []
    p = KPoly((1, 2))
    assert ring.times_k_power(3, 2, 5) == 96
    assert ring.times_k_power(p, K, 2) == p.shift(2) == KPoly((0, 0, 1, 2))
    assert ring.times_k_power(p, KPoly((1, 1)), 2) == p * KPoly((1, 2, 1))


def test_mode_mixing_rejected_by_operators():
    with pytest.raises(TypeError):
        2 + K  # noqa: B018
    with pytest.raises(TypeError):
        K + 2  # noqa: B018
    with pytest.raises(TypeError):
        K - 2  # noqa: B018
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
        # associativity / commutativity / distributivity
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        # identities
        assert a + KPoly() == a
        assert a * KPoly.constant(1) == a


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
    with pytest.raises(TypeError, match="scale factor must be int"):
        K.scale(1.5)


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
# The same class from a fixed pool, for the two product properties below,
# where drawing each coefficient afresh took most of their time: widths of 1
# to 300 bits, around CPython's 30-bit digit and the 64-bit word, all ones,
# one bit and alternating bits, either sign, and 0; smallest first.
_WIDE_POOL = tuple(sorted(
    {sign * c for b in (1, 2, 7, 8, 29, 30, 31, 60, 63, 64, 65, 100, 200, 300)
     for c in ((1 << b) - 1, 1 << b, (1 << b) // 3) for sign in (1, -1)},
    key=lambda c: (abs(c), c < 0)))
_NONZERO_WIDE = st.sampled_from([c for c in _WIDE_POOL if c])


def _or_pool(common, share):
    """One of ``common`` with probability ``share``, else one of the pool, in
    a single draw: st.one_of takes one more draw per coefficient."""
    repeat = round(share / (1 - share) * len(_WIDE_POOL) / len(common))
    return st.sampled_from(common * repeat + _WIDE_POOL)


# mostly -1, 0 and 1, the first nonzero at any degree below 40
_unit_sparse = st.tuples(
    st.integers(min_value=0, max_value=39),
    st.lists(_or_pool((-1, 0, 0, 1), 3 / 4), max_size=40),
).map(lambda t: ([0] * t[0] + t[1])[:40])
_operands = st.tuples(
    st.one_of(
        st.lists(st.sampled_from(_WIDE_POOL), max_size=15),              # short
        st.lists(_NONZERO_WIDE, min_size=16, max_size=40),                # dense
        st.lists(_or_pool((0,), 3 / 4), max_size=40),                     # mostly zero
        _unit_sparse,
    ),
    st.integers(min_value=0, max_value=3),
).map(lambda t: t[0] + [0] * t[1])


# The product's row passes, for rows of ring._ROW_PASS_MIN_LEN or more: the
# first nonzero coefficient of the sparser operand, at any degree, places its
# row (the other operand itself for 1); each later one adds its row.
@example(ca=[0, 0, 1, 0, -1, 1, 5], cb=[3, -2, 0, 7, 1] * 4)
@example(ca=[0, -1, 0, -1], cb=[-4, 2**70, 9] * 6)
@example(ca=[0, 0, 0, 2**65, 1, -1], cb=[(-1) ** i * (2**40 + i) for i in range(24)])
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


# KPoly._dot_step: one to three pairs, each factor empty, shorter than
# ring._ROW_PASS_MIN_LEN or at least that long, with coefficients 0, +-1 and
# wide ones; the two factors of a pair of unrelated lengths.
_DOT_COEFFS = _or_pool((0, 1, -1, 2**200, -(2**200)), 1 / 2)
_dot_factors = st.one_of(
    st.just([]),
    st.lists(_DOT_COEFFS, min_size=1, max_size=ring._ROW_PASS_MIN_LEN - 1),
    st.lists(_DOT_COEFFS, min_size=ring._ROW_PASS_MIN_LEN, max_size=40),
)


def _dot_reference(pairs):
    want = [0] * max((len(a) + len(b) for a, b in pairs), default=0)
    for a, b in pairs:
        for i, c in enumerate(_schoolbook(a, b)):
            want[i] += c
    return want


@example(pairs=[([], [1, 2, 3])])
@example(pairs=[([0, 1], [5] * 20), ([0, -1], [5] * 20)])                 # all cancels
@example(pairs=[([1, 1], [1] * 16), ([0, -1], [0] * 15 + [1]), ([2**200], [-1])])
@example(pairs=[([-1, 0, 2**200], list(range(1, 18))), ([3, 1, -1], [1, -1])])
@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_dot_factors, _dot_factors), min_size=1, max_size=3))
def test_kpoly_dot_step_is_the_sum_of_its_products_property(pairs):
    xs = [KPoly(a) for a, _ in pairs]
    ys = [KPoly(b) for _, b in pairs]
    want = _dot_reference(pairs)
    products = KPoly()
    for x, y in zip(xs, ys):
        products = products + x * y
    for got in (KPoly._dot_step(xs)(ys), KPoly._dot_step(ys)(xs),
                KPoly._dot_step(iter(xs))(tuple(ys)), KPoly._dot_step(tuple(xs))(iter(ys))):
        _assert_built_like_public(got, want)
        assert got == products
    # one plan of the xs over several operand tuples in a row, as a stream
    # steps: all the ys, fewer ys than xs, a sum that cancels to KPoly()
    # (x1 * x0 - x0 * x1, or the zero operand), and all the ys again
    step = KPoly._dot_step(xs)
    cancel = [xs[1], -xs[0]] if len(xs) > 1 else [KPoly()]
    for operands, cs in ((ys, want), (ys[:-1], _dot_reference(pairs[:-1])),
                         (cancel, []), (ys, want)):
        _assert_built_like_public(step(operands), cs)


def test_kpoly_dot_step_pairs_like_zip():
    a, b = KPoly([1, 2]), KPoly([3, 0, 4])
    dot = KPoly._dot_step
    assert dot(())(()) == KPoly() and dot((a, b))(()) == KPoly()
    assert dot((a, b))((b,)) == a * b and dot((a,))((b, a)) == a * b
    # a chain longer than ring._CHAIN_MAX_LINKS is read into a tuple on the way
    n = 2 * ring._CHAIN_MAX_LINKS + 1
    assert dot([a] * n)([b] * n) == (a * b).scale(n)


@pytest.mark.parametrize("cs", ([], [1], [-1, 0, 2**200], _dense(20, start=2**64), [0, 0, 7]))
def test_shift_is_the_product_by_a_power_of_k(cs):
    p = KPoly(cs)
    for m in (0, 1, 2, 15, 16, 40):
        got = p.shift(m)
        assert got == p * ipow(K, m)
        _assert_built_like_public(got, [0] * m + cs)
    for m, error in ((-1, ValueError), (1.0, TypeError), (True, TypeError)):
        with pytest.raises(error):
            p.shift(m)


# Products once switched to a packed integer product at 16 nonzero terms.
# Around that old threshold they now stay on the row passes: the values match
# the schoolbook, and no product reads anything back from k = 256**w.
@pytest.mark.parametrize("na", (15, 16, 17))
@pytest.mark.parametrize("nb", (15, 16, 17))
def test_products_at_the_kronecker_threshold(calls, na, nb):
    reads = calls(KPoly, "from_kronecker")
    ca, cb = _dense(na, start=3), _dense(nb, sign=-1, start=10**20)
    _assert_built_like_public(KPoly(ca) * KPoly(cb), _schoolbook(ca, cb))
    _assert_built_like_public(KPoly(cb) * KPoly(ca), _schoolbook(ca, cb))
    # 16 nonzero terms spread out, then with one hidden
    sparse = [0] * 40
    for i in range(0, 32, 2):
        sparse[i] = 2**70 + i
    _assert_built_like_public(KPoly(sparse) * KPoly(cb), _schoolbook(sparse, cb))
    sparse[0] = 0
    _assert_built_like_public(KPoly(sparse) * KPoly(cb), _schoolbook(sparse, cb))
    assert not reads


@pytest.mark.parametrize("delta", (-1, 0, 1))
def test_products_around_the_row_pass_length(delta):
    cb = _dense(ring._ROW_PASS_MIN_LEN + delta, start=2**64)
    for ca in ([1], [-1], [0, 0, 3], [2, 1], [0, -1, 0, 1, -1], [1, 0, -2], [0] * 30 + [1]):
        _assert_built_like_public(KPoly(ca) * KPoly(cb), _schoolbook(ca, cb))
        _assert_built_like_public(KPoly(cb) * KPoly(ca), _schoolbook(ca, cb))


# Coefficients at the edges of an m-byte slot, as a Kronecker read-back
# would hold them, through the row passes and the short-row loop.
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
                # squares: one operand
                for ca in (same, mixed, alternating):
                    p = KPoly(ca)
                    _assert_built_like_public(p * p, _schoolbook(ca, ca))
    # long sums of products of edge values: the middle coefficients of these
    # products and squares each add 31 or 32 of them
    for x in values:
        for ca, cb in (([x] * 31, [15] * 31), ([x] * 31, [-15] * 31)):
            _assert_built_like_public(KPoly(ca) * KPoly(cb), _schoolbook(ca, cb))
        for ca in ([x] * 31, [x] * 32):
            p = KPoly(ca)
            _assert_built_like_public(p * p, _schoolbook(ca, ca))


@pytest.mark.parametrize("m", (1, 2, 3, 8))
def test_kronecker_read_back_at_the_slot_edges(m):
    inside, edge = 2**(8 * m - 1) - 1, 2**(8 * m - 1)
    assert ring.kronecker_width(inside) == m
    assert ring.kronecker_width(edge) == ring.kronecker_width(2**(8 * m) - 1) == m + 1
    values = [inside, edge, 2**(8 * m)]
    values += [-v for v in values]
    for x in values:
        for y in values + [0, 1, -1]:
            for cs in ([x], [y, x], [x, 0, 0, y], [x, y] * 5, [0, 0, x, -y, y, -x]):
                p = KPoly(cs)
                width = ring.kronecker_width(max(map(abs, cs)))
                assert KPoly.from_kronecker(p.evaluate(256**width), width) == p, (cs, width)
    # an m-byte slot holds -2**(8m-1) .. 2**(8m-1) - 1 and nothing past them
    for cs in ([inside, -edge], [-edge, -edge], [-edge, inside, -1]):
        p = KPoly(cs)
        assert KPoly.from_kronecker(p.evaluate(256**m), m) == p
    for cs in ([edge], [1, edge], [-edge - 1, 3]):
        p = KPoly(cs)
        assert KPoly.from_kronecker(p.evaluate(256**m), m) != p


@settings(max_examples=200, deadline=None)
@given(cs=st.lists(_WIDE_COEFFS, max_size=20), width=st.integers(1, 50))
def test_kronecker_read_back_inverts_the_value_at_256_to_the_width_property(cs, width):
    """Reading back the value at k = 256**w gives the polynomial whenever w
    holds its coefficients, and ipow, one int power read back, is repeated
    multiplication."""
    p = KPoly(cs)
    assert p.norm() == sum(map(abs, cs))
    fits = ring.kronecker_width(max(map(abs, cs), default=0))
    for w in (fits, fits + 1, max(fits, width)):
        assert KPoly.from_kronecker(p.evaluate(256**w), w) == p
    power = KPoly((1,))
    for e in range(4):
        assert ipow(p, e) == power
        power = power * p


@settings(max_examples=100, deadline=None)
@given(p=st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)),
                  max_size=5).map(KPoly),
       e=st.integers(0, 12))
def test_ipow_is_repeated_multiplication_at_signed_wide_coefficients_property(p, e):
    """ipow at a KPoly, one Kronecker evaluation, equals e products, with
    negative and 2**70-wide coefficients that cancel in the power."""
    power = KPoly((1,))
    for _ in range(e):
        power = power * p
    assert ipow(p, e) == power


def test_times_k_power_in_each_mode():
    p = KPoly((3, -1, 2**70))
    for k in (K, KPoly((1, 1)), KPoly((0, -2))):
        product = p
        for m in range(6):
            assert ring.times_k_power(p, k, m) == product
            product = product * k
    assert [ring.times_k_power(5, 3, m) for m in range(4)] == [5, 15, 45, 135]


@pytest.mark.parametrize("e, error", [(-1, ValueError), (1.5, TypeError), (2.0, TypeError),
                                      (True, TypeError), (None, TypeError)])
def test_a_bad_exponent_is_refused_in_each_mode_before_any_arithmetic(calls, e, error):
    evals = calls(ring, "kronecker_eval")
    p = KPoly((1, 2))
    for power in (lambda: ring.ipow(2, e), lambda: ring.ipow(p, e),
                  lambda: ring.times_k_power(6, 2, e), lambda: ring.times_k_power(p, K, e),
                  lambda: ring.times_k_power(p, KPoly((1, 1)), e)):
        with pytest.raises(error, match="(exponent|shift) must be"):
            power()
    assert evals == []


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


@needs_str_guard
@pytest.mark.parametrize("limit", STR_GUARDS)
def test_kpoly_str_works_under_the_str_guard(limit):
    c, d = 7**6000, 7**1000  # 5071 and 846 digits
    p = KPoly((c, -c, 1, 0, c, d))
    with str_guard(limit):
        with pytest.raises(ValueError):
            str(c)
        texts = str(p), elem_str(p), str(-p)
    with str_guard(0):
        m, n = str(c), str(d)
    assert texts[0] == texts[1] == n + "k^5+" + m + "k^4+k^2-" + m + "k+" + m
    assert texts[2] == "-" + n + "k^5-" + m + "k^4-k^2+" + m + "k-" + m
