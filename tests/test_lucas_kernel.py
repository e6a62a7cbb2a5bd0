"""The Lucas doubling kernel against independent plain iteration.

``term_fast``, ``binet_closed`` and the audit's lists of U all read the
same three doubling identities: ``lucas_form`` (behind ``term_fast`` and the
Binet forms) runs ``sequences._doubling`` over the bits of n >> 1 with a
fused last step, and ``sequences._lucas_prefix`` (behind the audit's lists)
appends U(2j+1) and U(2j+2) to a list that holds U(j) and U(j+1).  So
agreeing with each other proves little.  Every check here compares them
with ``terms`` (the ground-truth iteration) or with the U-sequence loop
written out below, at the bit patterns the doubling loop branches on:
around each power of two, where the loop gains a step.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from kfiblike import audit, closedform, ring, sequences
from kfiblike.audit import run_audit
from kfiblike.closedform import binet_closed, published_binet
from kfiblike.ring import K, KPoly, ModeMismatchError, one_like, zero_like
from kfiblike.sequences import (
    k_fib,
    lucas_form,
    modified_k_fib,
    term_fast,
    terms,
)
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence

FAMILIES = [kind.value for kind in KIND_ORDER] + ["modified", "kfib"]

BIT_EDGE_NS = sorted(
    {0, 1, 2} | {m for j in range(1, 13) for m in (2**j - 1, 2**j, 2**j + 1)}
)
LIST_LEN = 300  # the U lists are compared at m < 300, or up to the largest n


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


def stated_bound(P, Q, c1, c2, n):
    """lucas_form at KPoly arguments and n >= 1, and the one bound it states
    to kronecker_eval."""
    bounds, real = [], sequences.kronecker_eval

    def spy(fn, args, bound):
        bounds.append(bound)
        return real(fn, args, bound)

    sequences.kronecker_eval = spy
    try:
        value = lucas_form(P, Q, c1, c2, n)
    finally:
        sequences.kronecker_eval = real
    (bound,) = bounds
    return value, bound


def majorant_u(P, Q, count):
    """U'(0) .. U'(count-1), the U loop at the int pair (2||P||, ||P||^2 - ||D||),
    D = P^2 - 4Q, for which 2^(m-1) ||U(m)|| <= U'(m) at m >= 1."""
    p = P.norm()
    return u_loop(2 * p, p * p - (P * P - Q.scale(4)).norm(), count)


def pair_bound(P, Q, c1, c2, n):
    """A looser bound on the form, from the pair alone: (||c1|| + ||c2||)
    times the larger of U'(n) / 2^(n-1) and U'(n+1) / 2^n, each rounded up."""
    us = majorant_u(P, Q, n + 2)
    return (c1.norm() + c2.norm()) * max(-(-us[n] >> (n - 1)), -(-us[n + 1] >> n))


def assert_routes_match(rec, ns):
    top = max(ns)
    seq = terms(rec, top + 1)
    P, Q = rec.a, -rec.b
    us = u_loop(P, Q, top + 2)
    zero, one = zero_like(P), one_like(P)
    for n in ns:
        assert term_fast(rec, n) == seq[n], ("term_fast", rec, n)
        assert binet_closed(rec, n) == seq[n], ("binet_closed", rec, n)
        assert lucas_form(P, Q, zero, one, n) == us[n], ("U(n)", rec, n)
        assert lucas_form(P, Q, one, zero, n) == us[n + 1], ("U(n+1)", rec, n)
    reach = min(top + 1, LIST_LEN)
    listed = audit._lucas_list(rec, reach)
    assert listed == us[:reach], ("the audit's U list", rec)
    form = audit._binet_form(closedform._exact_coefficients(rec), listed, rec.x0)
    assert [form(n) for n in range(reach)] == seq[:reach], ("exact form over the U list", rec)


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


def test_lucas_form_rejects_mixed_modes_and_negative_index():
    # n = 0 returns c1 with no arithmetic, so only the entry check can catch it
    for args in ((K, 1, K, K), (3, K, 1, 0), (K, K, 2, K), (K, K, K, 2), (3, 1, K, 2)):
        with pytest.raises(ModeMismatchError, match="cannot mix numeric"):
            lucas_form(*args, 0)
    with pytest.raises(ValueError):
        lucas_form(3, 1, 2, 2, -1)


def test_record_taking_single_values_reject_a_negative_index():
    for rec in (modified_k_fib(2), transform_recurrence(TransformKind.FALLING_K, K)):
        for fn in (term_fast, binet_closed):
            with pytest.raises(ValueError, match="index must be >= 0"):
                fn(rec, -1)


def test_record_taking_single_values_check_no_mode(calls):
    """An Order2Rec's carrier is checked once, when it is built: term_fast,
    binet_closed and published_binet add no check of their own, while the
    public lucas_form still checks its own."""
    checks = calls(sequences, "require_same_mode")
    for k in (2, K):
        rec = transform_recurrence(TransformKind.BINOMIAL, k)
        checks.clear()
        term_fast(rec, 30)
        binet_closed(rec, 30)
        assert checks == []
        # published_binet builds its own record, and that is the one check
        published_binet(TransformKind.BINOMIAL, k, 30)
        assert [len(elems) for elems in checks] == [4]
        checks.clear()
        lucas_form(rec.a, -rec.b, rec.x0, rec.x1, 30)
        assert [len(elems) for elems in checks] == [4]


LUCAS_PAIRS = [(3, -1), (-2, 7), (0, 0), (KPoly((1, 2)), KPoly((0, -3)))]


def _rec_of(P, Q):
    """The record whose Binet forms run over U(P, Q)."""
    return sequences.Order2Rec(P, -Q, zero_like(P), one_like(P))


@pytest.mark.parametrize("P, Q", LUCAS_PAIRS)
def test_each_step_appends_the_pair_of_a_doubling_step(P, Q):
    """U(2j+1) and U(2j+2), the last two values of a list of 2j + 3, are the
    pair one doubling step with a 1 bit makes from (U(j), U(j+1)), at every j."""
    for j in range(1, 36):
        us = sequences._lucas_prefix(P, Q, 2 * j + 3)
        assert len(us) == 2 * j + 3
        assert tuple(us[-2:]) == sequences._doubling(P, Q, us[j], us[j + 1], "1"), j


@pytest.mark.parametrize("P, Q", LUCAS_PAIRS)
def test_the_audit_list_is_the_u_loop_at_every_count(P, Q):
    """Through the seeds and at odd and even lengths."""
    us = u_loop(P, Q, 71)
    rec = _rec_of(P, Q)
    for count in range(71):
        assert audit._lucas_list(rec, count) == us[:count], count


def test_each_u_value_is_made_once(calls):
    """A list of count values takes ceil((count - 3) / 2) steps, none below
    4, of five products each."""
    P, Q = KPoly((1, 2)), KPoly((0, -3))
    products = calls(KPoly, "__mul__")
    for count in range(71):
        products.clear()
        audit._lucas_list(_rec_of(P, Q), count)
        assert len(products) == 5 * max(-(-(count - 3) // 2), 0), count


def test_a_single_n_takes_one_doubling_step_per_bit_of_its_half(calls):
    """One step per bit of n >> 1 after the leading one, and the fused last
    step outside the loop."""
    doubling = calls(sequences, "_doubling")
    lucas_form(3, -1, 1, 0, 300)
    assert [len(bits) for *_, bits in doubling] == [7]


def test_the_audit_reads_its_binet_values_from_its_lists(monkeypatch, calls):
    """Every Binet claim of the audit reads one U list: no point starts a
    fresh O(log n) pass through the single-n lucas_form or its kernel, and
    no list takes a doubling step."""
    def forbidden(*args):
        raise AssertionError("the audit called a single-n Lucas pass")

    for module, name in ((sequences, "lucas_form"), (sequences, "_lucas_form"),
                         (closedform, "_lucas_form"), (sequences, "_doubling")):
        monkeypatch.setattr(module, name, forbidden)
    grown = calls(audit, "_lucas_prefix")
    report = run_audit(k_min=1, k_max=5, n_max=12)
    assert report.counts == {"PASS": 22, "FAIL": 0, "INFO-DISCREPANCY": 4}
    # U(0) .. U(12) of four kinds at k = 1..5 and K
    assert [count for *_, count in grown] == [13] * 24


def test_a_default_run_builds_one_u_list_per_kind_and_k(calls):
    """C08, C11-C14, C19-C22 and C26 share one U list per (kind, k): four
    kinds at k = 1..10, and four at symbolic k."""
    grown = calls(audit, "_lucas_prefix")
    assert run_audit().counts == {"PASS": 22, "FAIL": 0, "INFO-DISCREPANCY": 4}
    assert Counter("symbolic" if isinstance(P, KPoly) else "numeric"
                   for P, *_ in grown) == {"numeric": 40, "symbolic": 4}


@pytest.mark.parametrize("family", FAMILIES)
def test_symbolic_single_values_run_the_doubling_loop_on_ints(calls, family):
    """term_fast and binet_closed at symbolic k make no KPoly product inside
    the doubling loop: it runs on ints at one point, twice (the bound, then
    the value), and each result is read back once."""
    rec = family_rec(family, K)
    expected = terms(rec, 101)[100]
    doubling = calls(sequences, "_doubling")
    assert term_fast(rec, 100) == binet_closed(rec, 100) == expected
    assert [type(P) for P, *_ in doubling] == [int] * 4


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    k=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=0, max_value=300),
)
def test_kernel_matches_iteration_property(family, k, n):
    assert_routes_match(family_rec(family, k), [n])


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_lucas_slot_width_of_each_transform_recurrence_at_n_240(kind):
    """Each transform recurrence is U(3, 1) at k = 1 and its U has
    nonnegative coefficients, so the bound the form states at (c1, c2) =
    (0, 1) and (1, 0) is the exact l1 norm of U(240) and of U(241): a 42-byte
    slot, where the majorant (||P||, -||Q||) needs 52 bytes (58 for the
    falling kind)."""
    rec = transform_recurrence(kind, K)
    P, Q = rec.a, -rec.b
    us = u_loop(P, Q, 242)
    zero, one = zero_like(P), one_like(P)
    for (c1, c2), m in (((zero, one), 240), ((one, zero), 241)):
        value, bound = stated_bound(P, Q, c1, c2, 240)
        assert value == us[m]
        assert bound == us[m].norm()
        assert ring.kronecker_width(bound) == 42


# small or wide coefficients of either sign, degree at most 4, and the zero
# polynomial
_POLYS = st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)),
                  max_size=5).map(KPoly)


_SMALL = st.integers(-6, 6)


@example(P=3, Q=-1, c1=2, c2=0, n=0)
@example(P=3, Q=-1, c1=0, c2=5, n=1)
@example(P=-2, Q=-7, c1=1, c2=-1, n=2)
@example(P=0, Q=0, c1=4, c2=4, n=3)
@example(P=5, Q=-3, c1=-1, c2=2, n=255)
@example(P=5, Q=-3, c1=-1, c2=2, n=256)
@example(P=1, Q=9, c1=10**30, c2=-(10**30), n=299)
@example(P=1, Q=9, c1=10**30, c2=-(10**30), n=300)
@settings(max_examples=300, deadline=None)
@given(P=_SMALL, Q=_SMALL,
       c1=st.one_of(_SMALL, st.integers(-2**70, 2**70)),
       c2=st.one_of(_SMALL, st.integers(-2**70, 2**70)),
       n=st.integers(min_value=0, max_value=300))
def test_lucas_form_matches_the_pair_at_int_property(P, Q, c1, c2, n):
    """The fused last step, either parity, gives c1*U(n+1) + c2*U(n) of the
    pair read from the audit's U list, unfused, and of the plain U loop."""
    value = lucas_form(P, Q, c1, c2, n)
    u, u_next = sequences._lucas_prefix(P, Q, n + 2)[n:]
    assert value == c1 * u_next + c2 * u
    us = u_loop(P, Q, n + 2)
    assert value == c1 * us[n + 1] + c2 * us[n]


@example(P=KPoly((1,)), Q=KPoly((1000,)), n=1)       # Q needs more than its slot
@example(P=KPoly((1,)), Q=KPoly((0, 10**30)), n=2)
@example(P=KPoly(()), Q=KPoly((-5, 2**80)), n=9)
@example(P=KPoly((-(2**70), 1)), Q=KPoly(()), n=33)
@example(P=KPoly(()), Q=KPoly(()), n=5)
@settings(max_examples=150, deadline=None)
@given(P=_POLYS, Q=_POLYS, n=st.integers(min_value=0, max_value=64))
def test_symbolic_lucas_pair_matches_the_ring_ops_property(P, Q, n):
    """A symbolic pair, read as lucas_form at (c1, c2) = (0, 1) and (1, 0),
    is the pair the doubling loop makes on KPoly ring ops and the pair of the
    plain U loop.  The slot bound each states holds the l1 norm of its value,
    and is at most that value at the majorant (||P||, -||Q||)."""
    us = u_loop(P, Q, n + 2)
    zero, one = zero_like(P), one_like(P)
    pair = (lucas_form(P, Q, zero, one, n), lucas_form(P, Q, one, zero, n))
    assert pair == (us[n], us[n + 1])
    if n:
        assert pair == sequences._doubling(P, Q, one, P, bin(n)[3:])
        plain = u_loop(P.norm(), -Q.norm(), n + 2)
        for (c1, c2), m in (((zero, one), n), ((one, zero), n + 1)):
            value, bound = stated_bound(P, Q, c1, c2, n)
            assert value == us[m]
            assert us[m].norm() <= bound <= plain[m]


@example(P=KPoly((1,)), Q=KPoly((1000,)), c1=KPoly((1,)), c2=KPoly(()), n=1)
@example(P=KPoly(()), Q=KPoly(()), c1=KPoly((0, 3)), c2=KPoly((-2,)), n=6)
@example(P=KPoly((2, 1)), Q=KPoly((-1,)), c1=KPoly(()), c2=KPoly(()), n=64)
@example(P=KPoly((-(2**70), 1)), Q=KPoly((5,)), c1=KPoly((-1, 2**70)), c2=KPoly((3,)), n=33)
@settings(max_examples=150, deadline=None)
@given(P=_POLYS, Q=_POLYS, c1=_POLYS, c2=_POLYS, n=st.integers(min_value=0, max_value=64))
def test_symbolic_lucas_form_matches_the_pair_property(P, Q, c1, c2, n):
    """At KPoly the form, one Kronecker evaluation at the bound it states and
    one read-back, is the form over the pair of the plain U loop."""
    us = u_loop(P, Q, n + 2)
    assert lucas_form(P, Q, c1, c2, n) == c1 * us[n + 1] + c2 * us[n]


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_symbolic_single_values_are_read_back_once(calls, kind):
    """binet_closed, term_fast and published_binet at K each make one
    Kronecker evaluation and read one polynomial back."""
    rec = transform_recurrence(kind, K)
    expected = terms(rec, 101)[100]
    us = u_loop(rec.a, -rec.b, 101)
    c1, c2 = closedform._printed_coefficients(kind, K)
    printed = c1 * us[100] + c2 * us[99]
    reads = calls(KPoly, "from_kronecker")
    for name, value, want in (
            ("binet_closed", lambda: binet_closed(rec, 100), expected),
            ("term_fast", lambda: term_fast(rec, 100), expected),
            ("published_binet", lambda: published_binet(kind, K, 100), printed)):
        reads.clear()
        assert value() == want, name
        assert len(reads) == 1, name


def caller_pairs(kind, rec):
    """The (c1, c2) of binet_closed, published_binet and term_fast."""
    return (closedform._exact_coefficients(rec),
            closedform._printed_coefficients(kind, K),
            (rec.x0, rec.x1 - rec.a * rec.x0))


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_the_stated_form_bound_holds_the_value_at_n_240(kind):
    """Each caller's coefficient pair at n = 240: the bound lucas_form states
    to kronecker_eval is (||c1|| U'(241) + 2||c2|| U'(240)) / 2^240 rounded
    up, at least the l1 norm of the value read back, and at most the pair
    bound."""
    rec = transform_recurrence(kind, K)
    P, Q = rec.a, -rec.b
    us = u_loop(P, Q, 242)
    majorant = majorant_u(P, Q, 242)
    for c1, c2 in caller_pairs(kind, rec):
        value, bound = stated_bound(P, Q, c1, c2, 240)
        assert value == c1 * us[241] + c2 * us[240]
        assert bound == -(-(c1.norm() * majorant[241] + 2 * c2.norm() * majorant[240]) >> 240)
        assert value.norm() <= bound <= pair_bound(P, Q, c1, c2, 240)


@pytest.mark.parametrize("n", [1, 2, 30, 100, 240])
@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_the_stated_form_bound_is_rigorous_and_never_wider(kind, n):
    """At each caller's pair, the stated bound is at least the largest
    |coefficient| of the value read back and at most the pair bound."""
    rec = transform_recurrence(kind, K)
    P, Q = rec.a, -rec.b
    us = u_loop(P, Q, n + 2)
    for c1, c2 in caller_pairs(kind, rec):
        value, bound = stated_bound(P, Q, c1, c2, n)
        assert value == c1 * us[n + 1] + c2 * us[n]
        assert max(map(abs, value.coeffs), default=0) <= bound <= pair_bound(P, Q, c1, c2, n)


def test_symbolic_single_value_slot_widths_at_n_240(calls):
    """The Kronecker slot, in bytes, of term_fast, binet_closed and
    published_binet at K and n = 240."""
    evals = calls(sequences, "kronecker_eval")
    widths = {}
    for kind in KIND_ORDER:
        rec = transform_recurrence(kind, K)
        term_fast(rec, 240)
        binet_closed(rec, 240)
        published_binet(kind, K, 240)
        widths[kind.value] = [ring.kronecker_width(bound) for *_, bound in evals]
        evals.clear()
    assert widths == {"binomial": [42, 42, 42], "kbinomial": [42, 42, 42],
                      "rising": [43, 42, 42], "falling": [43, 42, 42]}
