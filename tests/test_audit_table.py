"""The audit's per-run table of route values: shared, built once per run,
never masking a broken route and never carried into the next.  The faults
here pin full counterexamples, made by the fault makers of the route table
in ``audit_faults`` that ``test_audit_routes`` runs for every route."""

import math
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from audit_faults import moved, outcomes, with_checkers
from hypothesis import given, settings, strategies as st

from kfiblike import audit, closedform, genfunc, sequences, transforms
from kfiblike.audit import Counterexample, Verdict, run_audit
from kfiblike.closedform import binet_float
from kfiblike.ring import K, KPoly, elem_str
from kfiblike.sequences import iter_terms, k_fib, modified_k_fib, terms
from kfiblike.transforms import (
    KIND_ORDER,
    TransformKind,
    binomial_diff_identity,
    falling_diff_identity,
    iter_direct,
    transform_direct,
    transform_recurrence,
)

EXPECTED_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "expected"

# the single broken point of every fault below
BAD_KIND, BAD_K, BAD_N = TransformKind.RISING_K, 3, 5
RANGE = dict(k_min=1, k_max=5, n_max=12)


@pytest.fixture(scope="module")
def healthy():
    return outcomes(RANGE)


def _ce(expected, got):
    return (Counterexample(k=BAD_K, n=BAD_N, expected=str(expected), got=str(got)),)


def _direct_fault_footprint(kind):
    """Each claim that a direct sum of ``kind``, one too big at (BAD_K, BAD_N),
    changes, with its new verdict and counterexamples."""
    B, W = TransformKind.BINOMIAL, TransformKind.K_BINOMIAL
    FAIL, INFO = Verdict.FAIL, Verdict.INFO_DISCREPANCY
    truth = transform_direct(kind, BAD_K, BAD_N)
    vs_truth = _ce(truth + 1, truth)

    def difference_lemma(lhs):
        # C05/C06 at n = BAD_N - 1 read term BAD_N on their left side
        return FAIL, (Counterexample(k=BAD_K, n=BAD_N - 1, expected=str(lhs + 1),
                                     got=str(lhs)),)

    def fixture(label):
        return INFO, (Counterexample(k=BAD_K, n=BAD_N, expected=str(truth),
                                     got=str(truth + 1), label=label),)

    before = transform_direct(kind, BAD_K, BAD_N - 1)
    if kind is B:
        # the run's k-binomial sums are this table's times k^n
        w, bump = transform_direct(W, BAD_K, BAD_N), BAD_K**BAD_N
        return {
            "C01": (FAIL, vs_truth),                                # direct vs recurrence
            "C02": (FAIL, _ce(w + bump, w)),                        # k-binomial vs recurrence
            "C05": difference_lemma(truth - before),                # b(n+1) - b(n)
            "C08": (FAIL, _ce(w, w + bump)),                        # Lucas w(n) vs k^n b(n)
            # the published binomial Binet form and the printed B_3 are right,
            # so a broken direct sum shows as a disagreement with them
            "C11": (INFO, vs_truth),
            "C23": fixture("B_3"),
        }
    if kind is W:
        # W_3 is misprinted from n = 2 on, so C24 reports n = 2 as before
        return {"C02": (FAIL, vs_truth), "C08": (FAIL, _ce(truth, truth + 1))}
    if kind is TransformKind.RISING_K:
        m_2n = terms(modified_k_fib(BAD_K), 2 * BAD_N + 1)[2 * BAD_N]
        return {
            "C03": (FAIL, vs_truth),
            "C07": (FAIL, _ce(truth + 1, m_2n)),                    # rising even-index lemma
            "C13": (INFO, vs_truth),
        }
    return {
        "C04": (FAIL, vs_truth),
        "C06": difference_lemma(truth - BAD_K * before),            # f(n+1) - k f(n)
        "C23": fixture("F_3"),
    }


@pytest.mark.parametrize("bad_kind", KIND_ORDER, ids=lambda kd: kd.value)
def test_broken_direct_sum_fails_every_claim_that_reads_it(monkeypatch, healthy, bad_kind):
    """A direct sum one too big at (BAD_K, BAD_N), where the run makes it:
    in its difference table, or, for the k-binomial kind, which the run
    reads from the binomial table, in that term's product by k^n."""
    route = ("times_k_power" if bad_kind is TransformKind.K_BINOMIAL
             else f"iter_direct:{bad_kind.value}")
    changed = moved(monkeypatch, RANGE, healthy, route, BAD_K, BAD_N, 1)
    assert changed == _direct_fault_footprint(bad_kind)


def test_a_k_power_fault_fails_c02_and_c08(monkeypatch, healthy):
    """times_k_power three times too big for m >= 2, where the audit binds it:
    C08 reads w(n) from the Lucas form over the k-binomial U list, which
    shares neither the binomial table nor times_k_power with the k-binomial
    sums, so it fails at the first point, as C02 does; C24 reads the tripled
    sums against the printed W lists."""
    def tripled(power):   # its own fault maker: a multiplicative fault, at every k
        def broken(x, k, m):
            value = power(x, k, m)
            return value + value + value if m >= 2 else value

        return broken

    changed = moved(monkeypatch, RANGE, healthy, "times_k_power", make=tripled)
    W = TransformKind.K_BINOMIAL

    def table(k, n, printed):
        return Counterexample(k=k, n=n, expected=str(printed),
                              got=str(3 * transform_direct(W, k, n)), label=f"W_{k}")

    assert changed == {
        "C02": (Verdict.FAIL, (Counterexample(k=1, n=2, expected="30", got="10"),)),
        "C08": (Verdict.FAIL, (Counterexample(k=1, n=2, expected="10", got="30"),)),
        # W_3 is k times the true list at n = 2, so tripled it first differs at 3
        "C24": (Verdict.INFO_DISCREPANCY, (
            table(1, 2, 10), table(2, 2, 96), table(3, 3, 1566), table(4, 2, 1024),
            table(5, 2, 2250))),
    }


@pytest.mark.parametrize("m", [6, 7])   # U(m) at an even and at an odd m
def test_broken_u_list_shows_in_every_binet_claim_of_its_family(monkeypatch, healthy, m):
    """U(m) off by one in the run's rising k = 3 list: the printed form
    (C13), the exact form (C21) and the double-precision check (C26) each
    read it first as U(n) at n = m, where both forms have c1 = 2k + 2, so
    they read x(m) + x1 for x(m)."""
    rec = transform_recurrence(BAD_KIND, BAD_K)
    truth = terms(rec, m + 1)[m]
    wrong = truth + rec.x1
    changed = moved(monkeypatch, RANGE, healthy, f"run.u:{BAD_KIND.value}", BAD_K, m, 1)
    ce = (Counterexample(k=BAD_K, n=m, expected=str(truth), got=str(wrong)),)
    assert changed == {
        "C13": (Verdict.INFO_DISCREPANCY, ce),   # printed rising Binet form
        "C21": (Verdict.FAIL, ce),               # iteration vs exact Binet
        "C26": (Verdict.FAIL, (Counterexample(    # exact vs double-precision Binet
            k=BAD_K, n=m, expected=str(wrong), got=repr(binet_float(rec, m)),
            label=BAD_KIND.value),)),
    }


def _lemmas_off_by(k, n, delta):
    """C05's and C06's counterexamples at (k, n) when M(n+1) is off by delta:
    it enters both right sides with weight C(n,n) k^0 = 1."""
    symbolic = isinstance(k, KPoly)
    return {cid: (Verdict.FAIL, (Counterexample(
        k="k" if symbolic else k, n=n, expected=elem_str(lhs), got=elem_str(rhs + delta),
        label="symbolic" if symbolic else ""),)) for cid, (lhs, rhs) in (
            ("C05", binomial_diff_identity(k, n)), ("C06", falling_diff_identity(k, n)))}


def _m_fault_footprint(bad):
    """M(bad) at BAD_K off by 2 (so the alternating sums stay even): C05 and
    C06 read it as M(n+1) at n = bad - 1, C09 as M(n) and C10 in every
    alternating sum from n = bad on, and C07, which reads M(2n), only at an
    even index; the direct sums step M on their own and see nothing."""
    bad_rec = modified_k_fib(BAD_K)
    m_bad = terms(bad_rec, bad + 1)[bad]
    f_bad = terms(k_fib(BAD_K), bad + 1)[bad]
    footprint = {
        **_lemmas_off_by(BAD_K, bad - 1, 2),
        "C09": (Verdict.FAIL, (Counterexample(            # M from F
            k=BAD_K, n=bad, expected=str(m_bad + 2), got=str(m_bad)),)),
        "C10": (Verdict.FAIL, (Counterexample(            # F from M's alternating sums
            k=BAD_K, n=bad, expected=str(f_bad), got=str(f_bad + 1)),)),
    }
    if bad % 2 == 0:                                      # rising even-index lemma
        rising = transform_direct(TransformKind.RISING_K, BAD_K, bad // 2)
        footprint["C07"] = (Verdict.FAIL, (Counterexample(
            k=BAD_K, n=bad // 2, expected=str(rising), got=str(m_bad + 2)),))
    return footprint


def test_broken_m_prefix_fails_exactly_the_claims_that_read_it(monkeypatch, healthy):
    for bad, footprint in ((2 * BAD_N, {"C05", "C06", "C07", "C09", "C10"}),
                           (2 * BAD_N - 3, {"C05", "C06", "C09", "C10"})):
        assert bad <= RANGE["n_max"]
        changed = moved(monkeypatch, RANGE, healthy, "run.m", BAD_K, bad, 2)
        assert set(changed) == footprint
        assert changed == _m_fault_footprint(bad)


def test_broken_symbolic_m_prefix_fails_the_published_m_polys_too(monkeypatch, healthy):
    """Symbolic M(4) off by 2: the symbolic legs of C05, C06, C07, C09 and C10
    fail, and C25, which reads the same list, reports its printed M(k, 4) as
    wrong."""
    ms = terms(modified_k_fib(K), 5)
    f4 = terms(k_fib(K), 5)[4]
    rising = transform_direct(TransformKind.RISING_K, K, 2)
    two = KPoly((2,))
    bad_m4 = ms[4] + two

    def symbolic(n, expected, got):
        return (Counterexample(k="k", n=n, expected=elem_str(expected), got=elem_str(got),
                               label="symbolic"),)

    changed = moved(monkeypatch, RANGE, healthy, "run.m", K, 4, 2)
    assert changed == {
        **_lemmas_off_by(K, 3, two),
        "C07": (Verdict.FAIL, symbolic(2, rising, bad_m4)),
        "C09": (Verdict.FAIL, symbolic(4, bad_m4, ms[4])),
        "C10": (Verdict.FAIL, symbolic(4, f4, f4 + KPoly((1,)))),
        "C25": (Verdict.INFO_DISCREPANCY, (Counterexample(
            k="k", n=4, expected=elem_str(ms[4]), got=elem_str(bad_m4)),)),
    }


def test_route_values_are_built_per_kind_and_k_not_per_point(monkeypatch, calls):
    """The recurrences of the transforms, of M and of F, and C26's float
    forms, are built a number of times that does not grow with n_max, at
    most a few per (kind, k), and the audit reads M from its own prefix,
    never from term_iterative."""
    modules = (audit, closedform, genfunc, sequences, transforms)
    spies = {name: [calls(module, name) for module in modules if hasattr(module, name)]
             for name in ("transform_recurrence", "modified_k_fib", "k_fib", "_float_form")}

    def forbidden(*args):
        raise AssertionError("the audit called term_iterative")

    for module in (sequences, transforms):
        monkeypatch.setattr(module, "term_iterative", forbidden)

    per_n_max = {}
    for n_max in (12, 40):
        run_audit(k_min=1, k_max=5, n_max=n_max)
        per_n_max[n_max] = Counter({name: sum(map(len, seen)) for name, seen in spies.items()})
    built = per_n_max[12]
    assert all(built.values())
    assert per_n_max[40] == built + built     # the second run built as many again
    ks = 5 + 1  # k = 1..5 and the symbolic k
    # one run recurrence per (kind, k), which the published Binet forms read too
    assert built["transform_recurrence"] <= len(KIND_ORDER) * ks
    assert built["modified_k_fib"] <= ks
    assert built["k_fib"] <= ks               # F's prefix, shared by C09 and C10
    assert built["_float_form"] == len(KIND_ORDER) * 5  # one per record at k <= FLOAT_K_CAP


def test_each_direct_prefix_is_generated_once_per_run(monkeypatch, calls):
    direct_streams, direct_reads = Counter(), Counter()

    def counting_direct(kind, k):
        direct_streams[kind, k] += 1
        for n, value in enumerate(iter_direct(kind, k)):
            direct_reads[kind, k, n] += 1
            yield value

    monkeypatch.setattr(audit, "iter_direct", counting_direct)
    prefix_calls = calls(audit, "terms")
    run_audit(**RANGE)
    assert direct_streams and max(direct_streams.values()) == 1
    assert direct_reads and max(direct_reads.values()) == 1
    # each list is built at its full reach on first use: C05/C06 read
    # n_max + 1, and every table at a k goes that far; the k-binomial sums
    # are the binomial table's times k^n, so no k-binomial table is opened
    reach = Counter()
    for kind, k, n in direct_reads:
        reach[kind, k] = max(reach[kind, k], n)
    ks = (*range(RANGE["k_min"], RANGE["k_max"] + 1), K)  # sym_n is n_max here
    tables = [kind for kind in KIND_ORDER if kind is not TransformKind.K_BINOMIAL]
    assert reach == {(kind, k): RANGE["n_max"] + 1 for kind in tables for k in ks}
    # one recurrence prefix per (kind, k) and one of F per k; the four kinds'
    # recurrences are equal at k = 1, and each kind builds its own there
    expected = Counter(transform_recurrence(kind, k) for kind in KIND_ORDER for k in ks)
    expected.update(k_fib(k) for k in ks)
    assert Counter(rec for rec, _ in prefix_calls) == expected


def test_route_lists_are_not_keyed_by_recurrence_records(calls):
    """The run's caches key a prefix by (kind, k), or F's by k, so no row
    hashes a recurrence record: a Frozen hash builds a tuple per call."""
    hashes = calls(sequences.Order2Rec, "__hash__")
    report = run_audit(k_min=1, k_max=200, n_max=2, symbolic=False)
    assert report.counts["FAIL"] == 0
    assert not hashes


def test_each_route_list_is_built_at_its_full_reach():
    """A direct-sum list reaches one term past the sweep, and at least the
    longest printed table; a list of M reaches M(2 n_max), and at least
    M(5) for the printed polynomials.  A k the run does not sweep, which only
    a table fixture reads, gets the table's length."""
    n_max = RANGE["n_max"]
    run = audit._Run(audit.AuditConfig(**RANGE))
    for kind in KIND_ORDER:
        assert run.direct(kind, 4) == list(islice(iter_direct(kind, 4), n_max + 2))
        assert run.direct(kind, 4)[n_max + 1] == transform_direct(kind, 4, n_max + 1)
        assert run.direct(kind, 7) == list(islice(iter_direct(kind, 7), 6))
    assert run.m(3) == terms(modified_k_fib(3), 2 * n_max + 1)
    assert run.m(K) == terms(modified_k_fib(K), 2 * n_max + 1)

    short = audit._Run(audit.AuditConfig(n_max=2))
    assert short.direct(TransformKind.FALLING_K, 4) == list(
        islice(iter_direct(TransformKind.FALLING_K, 4), 6))
    assert len(short.m(K)) == 6
    assert len(audit._Run(audit.AuditConfig()).m(K)) == 33   # M(0) .. M(2 sym_n)


def test_no_stream_stays_open_after_a_claim(monkeypatch):
    """Every direct-sum or M stream the audit opens is read to its list's
    length and dropped before the claim that opened it returns."""
    opened, still_open = Counter(), set()

    def tracked(real):
        def stream(*args):
            token = object()
            opened[real.__name__] += 1
            still_open.add(token)
            try:
                yield from real(*args)
            finally:
                still_open.discard(token)

        return stream

    monkeypatch.setattr(audit, "iter_direct", tracked(iter_direct))
    monkeypatch.setattr(audit, "iter_terms", tracked(iter_terms))
    left_open = {}

    def wrapped(claim):
        def checker(run):
            try:
                return claim.checker(run)
            finally:
                left_open[claim.id] = len(still_open)

        return checker

    with_checkers(monkeypatch, wrapped)
    run_audit(**RANGE)
    assert opened["iter_direct"] and opened["iter_terms"]
    assert left_open == {claim.id: 0 for claim in audit.claim_registry()}


def test_table_does_not_leak_between_runs():
    first = run_audit(k_min=2, k_max=4, n_max=20)
    default = run_audit()
    assert default.to_text() == (EXPECTED_DIR / "audit_default.txt").read_text(encoding="utf-8")
    assert default.to_jsonl() == (EXPECTED_DIR / "audit_default.jsonl").read_text(
        encoding="utf-8")
    again = run_audit(k_min=2, k_max=4, n_max=20)
    assert again == first
    assert again.to_text() == first.to_text()
    assert again.to_jsonl() == first.to_jsonl()


def test_lemma_right_sides_stay_apart_from_the_direct_prefixes(monkeypatch):
    """C05/C06 take their left sides from the run's difference-table prefixes
    and their right sides from Pascal rows over the run's M (routes that
    ``test_audit_routes`` faults).  The multiplicative C(n,i) kernel that
    transform_direct and the library's lemma functions use is no audit
    route: a fault in it changes no claim, yet still breaks those functions."""
    healthy = run_audit(**RANGE)
    k, lemmas = 3, (binomial_diff_identity, falling_diff_identity)
    truths = [lemma(k, n) for lemma in lemmas for n in (2, 3)]
    weighted_sum = transforms._weighted_sum

    def off_by_one(kind, k, n, x0, x1):
        value = weighted_sum(kind, k, n, x0, x1)
        return value + 1 if n >= 3 else value

    monkeypatch.setattr(transforms, "_weighted_sum", off_by_one)
    assert run_audit(**RANGE) == healthy
    # transform_direct, the lemmas' default left-side route, runs the kernel
    # too: terms 3 and 4 are off by one, and so is each right side at n = 3
    (b2, b2r), (b3, b3r), (f2, f2r), (f3, f3r) = truths
    assert [lemma(k, n) for lemma in lemmas for n in (2, 3)] == [
        (b2 + 1, b2r), (b3, b3r + 1), (f2 + 1, f2r), (f3 + 1 - k, f3r + 1)]


# the ranges whose audit bytes a change to the audit's kernels must keep
REPORT_RANGES = (
    {}, dict(n_max=2), dict(n_max=5), dict(n_max=128), dict(k_min=6, k_max=10),
    dict(symbolic=False), dict(k_min=3, k_max=3, n_max=2), dict(k_min=2, k_max=4, n_max=20),
    dict(k_min=1, k_max=1, n_max=3),
)


@pytest.mark.parametrize("rng", REPORT_RANGES, ids=lambda rng: str(rng) if rng else "default")
def test_pascal_row_lemmas_report_as_the_multiplicative_kernel_did(monkeypatch, rng):
    """C05/C06 over Pascal rows and the run's M give the report bytes that the
    lemma functions give when their own kernel, ``transforms._weighted_sum``,
    runs the right sides."""
    def kernel_row(kind, lemma):
        falling = kind is TransformKind.FALLING_K

        def row(run, k):
            direct = run.direct(kind, k)
            return lambda n: (direct[n + 1] - (k * direct[n] if falling else direct[n]),
                              lemma(k, n)[1])

        return row

    report = run_audit(**rng)
    kernel = {"C05": audit._sweep(kernel_row(TransformKind.BINOMIAL, binomial_diff_identity)),
              "C06": audit._sweep(kernel_row(TransformKind.FALLING_K, falling_diff_identity))}
    with_checkers(monkeypatch, lambda claim: kernel.get(claim.id, claim.checker))
    multiplicative = run_audit(**rng)
    assert report.to_text() == multiplicative.to_text()
    assert report.to_jsonl() == multiplicative.to_jsonl()


def _assert_lemma_rows_match(k, n):
    """Both C05/C06 rows at k, read at 0..n, give the lemma functions' pairs."""
    numeric = not isinstance(k, KPoly)
    run = audit._Run(audit.AuditConfig(k_min=k if numeric else 1, k_max=k if numeric else 1,
                                       n_max=max(n, 2)))
    for kind, lemma in ((TransformKind.BINOMIAL, binomial_diff_identity),
                        (TransformKind.FALLING_K, falling_diff_identity)):
        pair = audit._difference_lemma(kind, run, k)
        assert [pair(i) for i in range(n + 1)] == [lemma(k, i) for i in range(n + 1)]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=1, max_value=10**4), n=st.integers(min_value=0, max_value=80))
def test_lemma_rows_equal_the_lemma_functions(k, n):
    _assert_lemma_rows_match(k, n)


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=0, max_value=16))
def test_symbolic_lemma_rows_equal_the_lemma_functions(n):
    _assert_lemma_rows_match(K, n)


def test_lemma_rows_equal_the_lemma_functions_at_n_256():
    _assert_lemma_rows_match(10, 256)


def test_the_run_holds_one_pascal_row_made_from_the_one_before(calls):
    """Row n is made from row n - 1, one step each; reading the same n again
    costs nothing, and a smaller n starts again from row 0."""
    steps = calls(audit, "_pascal_step")
    rows = audit._pascal_rows()
    for n, new_steps in ((3, 4), (3, 0), (4, 1), (7, 3), (1, 2), (1, 0), (0, 1)):
        steps.clear()
        assert rows(n) == [math.comb(n, i) for i in range(n + 1)]
        assert len(steps) == new_steps, n


def test_pascal_rows_built_do_not_grow_with_the_number_of_k(calls):
    """C05 and C06 share one row per sweep and n: each of their numeric
    (n <= 64) and symbolic (n <= 16) sweeps builds each row once, at k_max 1
    as at k_max 10."""
    steps = calls(audit, "_pascal_step")
    built = []
    for k_max in (1, 10):
        steps.clear()
        run_audit(k_max=k_max)
        built.append(len(steps))
    assert built == [2 * (65 + 17)] * 2


def test_jsonl_is_the_same_at_the_range_edges():
    """jsonl carries no config, so a range that reaches every counterexample
    gives the default bytes: n_max = 2 still reads fixtures up to n = 5,
    C05/C06 read n_max + 1 at every n_max, and no counterexample is symbolic,
    so the numeric rows alone give them too."""
    expected = (EXPECTED_DIR / "audit_default.jsonl").read_text(encoding="utf-8")
    assert run_audit(n_max=2).to_jsonl() == expected
    assert run_audit(n_max=128).to_jsonl() == expected
    assert run_audit(n_max=256).to_jsonl() == expected
    assert run_audit(symbolic=False).to_jsonl() == expected
