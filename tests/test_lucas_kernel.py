"""The Lucas doubling kernel against independent plain iteration.

``term_fast``, ``binet_closed`` and the audit's lists of U all read one
doubling loop, ``sequences._doubling``: ``lucas_form`` (behind ``term_fast``
and the Binet forms) runs it over the bits of n >> 1 with a fused last step,
``lucas_sweep`` one step per m from the pair at m >> 1.  So agreeing with
each other proves little.  Every check here compares them with ``terms``
(the ground-truth iteration) or with the U-sequence loop written out below,
at the bit patterns the doubling loop branches on: around each power of
two, where the loop gains a step.
"""

from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from kfiblike import audit, closedform, ring, sequences
from kfiblike.audit import run_audit
from kfiblike.closedform import binet_closed, published_binet
from kfiblike.ring import K, KPoly, ModeMismatchError, one_like, zero_like
from kfiblike.sequences import (
    k_fib,
    lucas_form,
    lucas_sweep,
    modified_k_fib,
    term_fast,
    terms,
)
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence

FAMILIES = [kind.value for kind in KIND_ORDER] + ["modified", "kfib"]

BIT_EDGE_NS = sorted(
    {0, 1, 2} | {m for j in range(1, 13) for m in (2**j - 1, 2**j, 2**j + 1)}
)
SWEEP_LEN = 300  # the sweeps are compared at m < 300, or up to the largest n


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
    reach = min(top + 1, SWEEP_LEN)
    for m, pair in enumerate(islice(lucas_sweep(P, Q), reach)):
        assert pair == (us[m], us[m + 1]), ("lucas_sweep", rec, m)
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


def test_record_taking_single_values_check_no_mode(monkeypatch):
    """An Order2Rec's carrier is checked once, when it is built: term_fast,
    binet_closed and published_binet add no check of their own, while the
    public lucas_form and lucas_sweep still check theirs."""
    calls = []
    check = sequences.require_same_mode
    monkeypatch.setattr(sequences, "require_same_mode",
                        lambda *elems: calls.append(len(elems)) or check(*elems))
    for k in (2, K):
        rec = transform_recurrence(TransformKind.BINOMIAL, k)
        calls.clear()
        term_fast(rec, 30)
        binet_closed(rec, 30)
        assert calls == []
        # published_binet builds its own record, and that is the one check
        published_binet(TransformKind.BINOMIAL, k, 30)
        assert calls == [4]
        calls.clear()
        lucas_form(rec.a, -rec.b, rec.x0, rec.x1, 30)
        next(lucas_sweep(rec.a, -rec.b))
        assert calls == [4, 2]


def test_lucas_sweep_rejects_mixed_modes_at_the_first_read():
    # the first two pairs take no doubling step, so only the entry check can
    # catch it
    for P, Q in ((K, 1), (3, K)):
        sweep = lucas_sweep(P, Q)
        with pytest.raises(ModeMismatchError, match="cannot mix numeric"):
            next(sweep)


def _spy_on_the_doubling_loop(monkeypatch):
    """Replace the one doubling loop with a copy that records how many steps
    each call takes."""
    steps = []
    doubling = sequences._doubling

    def spy(P, Q, u, v, bits):
        steps.append(len(bits))
        return doubling(P, Q, u, v, bits)

    monkeypatch.setattr(sequences, "_doubling", spy)
    return steps


def test_a_sweep_takes_one_doubling_step_per_pair(monkeypatch):
    steps = _spy_on_the_doubling_loop(monkeypatch)
    for count in (0, 1, 2, 3, 4, 64, 65, 300):
        steps.clear()
        list(islice(lucas_sweep(3, -1), count))
        assert sum(steps) == max(count - 2, 0), count
        assert set(steps) <= {1}
    # a single n pays one step per bit of n >> 1 after the leading one, and
    # the fused last step outside the loop
    steps.clear()
    lucas_form(3, -1, 1, 0, 300)
    assert steps == [7]


@pytest.mark.parametrize("family", FAMILIES)
def test_symbolic_single_values_run_the_doubling_loop_on_ints(monkeypatch, family):
    """term_fast and binet_closed at symbolic k make no KPoly product inside
    the doubling loop: it runs on ints at one point, twice (the bound, then
    the value), and each result is read back once."""
    rec = family_rec(family, K)
    expected = terms(rec, 101)[100]
    seen = []
    doubling = sequences._doubling

    def spy(P, Q, u, v, bits):
        seen.append(type(P))
        return doubling(P, Q, u, v, bits)

    monkeypatch.setattr(sequences, "_doubling", spy)
    assert term_fast(rec, 100) == binet_closed(rec, 100) == expected
    assert seen == [int] * 4


def test_the_audit_reads_its_binet_values_from_the_sweeps(monkeypatch):
    """Every Binet claim of the audit walks a sweep: no point starts a fresh
    O(log n) pass through the single-n lucas_form or its kernel."""
    def forbidden(*args):
        raise AssertionError("the audit called a single-n Lucas pass")

    for module, name in ((sequences, "lucas_form"), (sequences, "_lucas_form"),
                         (closedform, "_lucas_form")):
        monkeypatch.setattr(module, name, forbidden)
    steps = _spy_on_the_doubling_loop(monkeypatch)
    report = run_audit(k_min=1, k_max=5, n_max=12)
    assert report.counts == {"PASS": 22, "FAIL": 0, "INFO-DISCREPANCY": 4}
    assert steps and set(steps) == {1}


def test_a_default_run_sweeps_each_kind_and_k_once(monkeypatch):
    """C11-C14, C19-C22 and C26 share one U list per (kind, k): four kinds at
    k = 1..10, and four at symbolic k."""
    calls = Counter()
    sweep = audit.lucas_sweep

    def spy(P, Q):
        calls["symbolic" if isinstance(P, KPoly) else "numeric"] += 1
        return sweep(P, Q)

    monkeypatch.setattr(audit, "lucas_sweep", spy)
    assert run_audit().counts == {"PASS": 22, "FAIL": 0, "INFO-DISCREPANCY": 4}
    assert calls == {"numeric": 40, "symbolic": 4}


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
    nonnegative coefficients, so the discriminant bound is the exact l1 norm
    of (U(240), U(241)): a 42-byte slot, where the majorant (||P||, -||Q||)
    needs 52 bytes (58 for the falling kind)."""
    rec = transform_recurrence(kind, K)
    P, Q = rec.a, -rec.b
    us = u_loop(P, Q, 242)
    zero, one = zero_like(P), one_like(P)
    assert lucas_form(P, Q, zero, one, 240) == us[240]
    assert lucas_form(P, Q, one, zero, 240) == us[241]
    bound = sequences._lucas_bound(P, Q, 240)
    assert bound == max(us[240].norm(), us[241].norm())
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
    pair lucas_sweep makes, unfused, and of the plain U loop."""
    value = lucas_form(P, Q, c1, c2, n)
    u, u_next = next(islice(lucas_sweep(P, Q), n, None))
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
    plain U loop.  Its slot bound holds the l1 norms of the pair, and is at
    most the pair at the majorant (||P||, -||Q||)."""
    us = u_loop(P, Q, n + 2)
    zero, one = zero_like(P), one_like(P)
    pair = (lucas_form(P, Q, zero, one, n), lucas_form(P, Q, one, zero, n))
    assert pair == (us[n], us[n + 1])
    if n:
        bits = bin(n)[3:]
        assert pair == sequences._doubling(P, Q, one, P, bits)
        bound = sequences._lucas_bound(P, Q, n)
        assert bound >= max(us[n].norm(), us[n + 1].norm())
        assert bound <= max(sequences._doubling(P.norm(), -Q.norm(), 1, P.norm(), bits))


@example(P=KPoly((1,)), Q=KPoly((1000,)), c1=KPoly((1,)), c2=KPoly(()), n=1)
@example(P=KPoly(()), Q=KPoly(()), c1=KPoly((0, 3)), c2=KPoly((-2,)), n=6)
@example(P=KPoly((2, 1)), Q=KPoly((-1,)), c1=KPoly(()), c2=KPoly(()), n=64)
@example(P=KPoly((-(2**70), 1)), Q=KPoly((5,)), c1=KPoly((-1, 2**70)), c2=KPoly((3,)), n=33)
@settings(max_examples=150, deadline=None)
@given(P=_POLYS, Q=_POLYS, c1=_POLYS, c2=_POLYS, n=st.integers(min_value=0, max_value=64))
def test_symbolic_lucas_form_matches_the_pair_property(P, Q, c1, c2, n):
    """At KPoly the form, one Kronecker evaluation at the bound
    (||c1|| + ||c2||) * _lucas_bound and one read-back, is the form over the
    pair of the plain U loop."""
    us = u_loop(P, Q, n + 2)
    assert lucas_form(P, Q, c1, c2, n) == c1 * us[n + 1] + c2 * us[n]


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_symbolic_single_values_are_read_back_once(monkeypatch, kind):
    """binet_closed, term_fast and published_binet at K each make one
    Kronecker evaluation and read one polynomial back."""
    rec = transform_recurrence(kind, K)
    expected = terms(rec, 101)[100]
    us = u_loop(rec.a, -rec.b, 101)
    c1, c2 = closedform._printed_coefficients(kind, K)
    printed = c1 * us[100] + c2 * us[99]
    reads = []
    from_kronecker = KPoly.from_kronecker

    def spy(value, width):
        reads.append(width)
        return from_kronecker(value, width)

    monkeypatch.setattr(KPoly, "from_kronecker", staticmethod(spy))
    for name, value, want in (
            ("binet_closed", lambda: binet_closed(rec, 100), expected),
            ("term_fast", lambda: term_fast(rec, 100), expected),
            ("published_binet", lambda: published_binet(kind, K, 100), printed)):
        reads.clear()
        assert value() == want, name
        assert len(reads) == 1, name


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_the_stated_form_bound_holds_the_value_at_n_240(monkeypatch, kind):
    """Each caller's coefficient pair at n = 240: the bound lucas_form states
    to kronecker_eval is at least the l1 norm of the value read back."""
    stated = []
    kronecker_eval = sequences.kronecker_eval

    def spy(fn, args, bound):
        stated.append(bound)
        return kronecker_eval(fn, args, bound)

    monkeypatch.setattr(sequences, "kronecker_eval", spy)
    rec = transform_recurrence(kind, K)
    P, Q = rec.a, -rec.b
    us = u_loop(P, Q, 242)
    pairs = (closedform._exact_coefficients(rec),
             closedform._printed_coefficients(kind, K),
             (rec.x0, rec.x1 - rec.a * rec.x0))
    for c1, c2 in pairs:
        stated.clear()
        value = lucas_form(P, Q, c1, c2, 240)
        assert value == c1 * us[241] + c2 * us[240]
        assert stated == [(c1.norm() + c2.norm()) * sequences._lucas_bound(P, Q, 240)]
        assert stated[0] >= value.norm()
