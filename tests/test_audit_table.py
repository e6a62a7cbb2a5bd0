"""The audit's per-run table of route values: shared, but never masking a
broken route and never carried from one run into the next."""

from collections import Counter
from itertools import islice
from pathlib import Path

from kfiblike import audit, closedform, genfunc, sequences, transforms
from kfiblike.audit import Counterexample, Verdict, run_audit
from kfiblike.ring import K
from kfiblike.sequences import iter_terms, k_fib, modified_k_fib, terms
from kfiblike.transforms import (
    KIND_ORDER,
    TransformKind,
    iter_direct,
    transform_direct,
    transform_recurrence,
)

EXPECTED_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "expected"

# the single broken point of every fault below
BAD_KIND, BAD_K, BAD_N = TransformKind.RISING_K, 3, 5
RANGE = dict(k_min=1, k_max=5, n_max=12)


def _outcomes(report):
    return {r.claim.id: (r.verdict, r.counterexamples) for r in report.results}


def _changed(broken, healthy):
    b, h = _outcomes(broken), _outcomes(healthy)
    return {cid: b[cid] for cid in b if b[cid] != h[cid]}


def _ce(expected, got):
    return (Counterexample(k=BAD_K, n=BAD_N, expected=str(expected), got=str(got)),)


def test_broken_direct_sum_fails_every_claim_that_reads_it(monkeypatch):
    healthy = run_audit(**RANGE)
    truth = transform_direct(BAD_KIND, BAD_K, BAD_N)
    m_2n = terms(modified_k_fib(BAD_K), 2 * BAD_N + 1)[2 * BAD_N]

    def broken(kind, k):
        for n, value in enumerate(iter_direct(kind, k)):
            yield value + 1 if (kind, k, n) == (BAD_KIND, BAD_K, BAD_N) else value

    monkeypatch.setattr(audit, "iter_direct", broken)
    changed = _changed(run_audit(**RANGE), healthy)
    assert changed == {
        "C03": (Verdict.FAIL, _ce(truth + 1, truth)),   # direct vs recurrence
        "C07": (Verdict.FAIL, _ce(truth + 1, m_2n)),    # rising even-index lemma
        # the published rising Binet form is right, so a broken direct sum
        # shows as a disagreement with it
        "C13": (Verdict.INFO_DISCREPANCY, _ce(truth + 1, truth)),
    }


def test_broken_recurrence_prefix_fails_every_claim_that_reads_it(monkeypatch):
    healthy = run_audit(**RANGE)
    bad_rec = transform_recurrence(BAD_KIND, BAD_K)
    truth = terms(bad_rec, BAD_N + 1)[BAD_N]

    def broken(rec, count):
        values = terms(rec, count)
        if rec == bad_rec and count > BAD_N:
            values[BAD_N] += 1
        return values

    monkeypatch.setattr(audit, "terms", broken)
    changed = _changed(run_audit(**RANGE), healthy)
    assert changed == {
        "C03": (Verdict.FAIL, _ce(truth, truth + 1)),   # direct vs recurrence
        "C21": (Verdict.FAIL, _ce(truth + 1, truth)),   # iteration vs exact Binet
    }


def test_broken_m_prefix_fails_exactly_the_claims_that_read_it(monkeypatch):
    """M(2 BAD_N) off by 2 (so the alternating sums stay even): C07 reads it as
    M(2n) at n = BAD_N, C09 as M(n) and C10 in every alternating sum from
    n = 2 BAD_N on; the direct sums step M on their own and see nothing."""
    healthy = run_audit(**RANGE)
    bad = 2 * BAD_N
    assert bad <= RANGE["n_max"]
    bad_rec = modified_k_fib(BAD_K)
    m_bad = terms(bad_rec, bad + 1)[bad]
    f_bad = terms(k_fib(BAD_K), bad + 1)[bad]
    rising = transform_direct(TransformKind.RISING_K, BAD_K, BAD_N)

    def broken(rec):
        for n, value in enumerate(iter_terms(rec)):
            yield value + 2 if rec == bad_rec and n == bad else value

    monkeypatch.setattr(audit, "iter_terms", broken)
    changed = _changed(run_audit(**RANGE), healthy)
    assert changed == {
        "C07": (Verdict.FAIL, _ce(rising, m_bad + 2)),   # rising even-index lemma
        "C09": (Verdict.FAIL, (Counterexample(            # M from F
            k=BAD_K, n=bad, expected=str(m_bad + 2), got=str(m_bad)),)),
        "C10": (Verdict.FAIL, (Counterexample(            # F from M's alternating sums
            k=BAD_K, n=bad, expected=str(f_bad), got=str(f_bad + 1)),)),
    }


def test_route_values_are_built_per_kind_and_k_not_per_point(monkeypatch):
    """The recurrences of the transforms, of M and of F are built a number
    of times that does not grow with n_max, at most a few per (kind, k), and
    the audit reads M from its own prefix, never from term_iterative."""
    built = Counter()

    def counting(name, real):
        def build(*args):
            built[name] += 1
            return real(*args)

        return build

    for name, real in (("transform_recurrence", transform_recurrence),
                       ("modified_k_fib", modified_k_fib), ("k_fib", k_fib)):
        for module in (audit, closedform, genfunc, sequences, transforms):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, real))

    def forbidden(*args):
        raise AssertionError("the audit called term_iterative")

    for module in (sequences, transforms):
        monkeypatch.setattr(module, "term_iterative", forbidden)

    per_n_max = {}
    for n_max in (12, 40):
        built.clear()
        run_audit(k_min=1, k_max=5, n_max=n_max)
        per_n_max[n_max] = dict(built)
    assert per_n_max[12] == per_n_max[40]
    ks = 5 + 1  # k = 1..5 and the symbolic k
    # one run recurrence, the published Binet form and the derived GF per (kind, k)
    assert built["transform_recurrence"] <= 3 * len(KIND_ORDER) * ks
    assert built["modified_k_fib"] <= ks + 1  # C25 builds its own symbolic M
    assert built["k_fib"] <= 2 * ks           # C09 and C10 each look up F's prefix


def test_each_direct_prefix_is_generated_once_per_run(monkeypatch):
    direct_streams, direct_reads, prefix_calls = Counter(), Counter(), Counter()

    def counting_direct(kind, k):
        direct_streams[kind, k] += 1
        for n, value in enumerate(iter_direct(kind, k)):
            direct_reads[kind, k, n] += 1
            yield value

    def counting_terms(rec, count):
        prefix_calls[rec] += 1
        return terms(rec, count)

    monkeypatch.setattr(audit, "iter_direct", counting_direct)
    monkeypatch.setattr(audit, "terms", counting_terms)
    run_audit(**RANGE)
    prefix_calls[modified_k_fib(K)] -= 1  # C25 reads its own six symbolic terms of M
    assert direct_streams and max(direct_streams.values()) == 1
    assert direct_reads and max(direct_reads.values()) == 1
    # a stream is read only as far as a claim looks: C05/C06 read n_max + 1
    reach = Counter()
    for kind, k, n in direct_reads:
        reach[kind, k] = max(reach[kind, k], n)
    assert reach[TransformKind.BINOMIAL, 2] == RANGE["n_max"] + 1
    assert reach[TransformKind.BINOMIAL, K] == RANGE["n_max"] + 1  # sym_n is n_max here
    assert reach[TransformKind.RISING_K, 2] == RANGE["n_max"]
    assert prefix_calls and max(prefix_calls.values()) == 1


def test_direct_prefix_reads_each_stream_in_order():
    run = audit._Run(audit.AuditConfig(**RANGE))
    kind = TransformKind.FALLING_K
    assert run.direct(kind, 4, 7) == transform_direct(kind, 4, 7)
    assert run.direct(kind, 4, 2) == transform_direct(kind, 4, 2)
    assert run.direct(kind, 4, 9) == transform_direct(kind, 4, 9)
    assert [run.direct(kind, 4, n) for n in range(10)] == list(islice(iter_direct(kind, 4), 10))


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
    """C05/C06 take their right sides from the multiplicative C(n,i) kernel and
    their left sides from the run's difference-table prefixes: a fault in the
    kernel fails the two lemmas and no claim that reads only the prefixes."""
    healthy = run_audit(**RANGE)
    weighted_sum = transforms._weighted_sum

    def off_by_one(kind, k, n, x0, x1):
        value = weighted_sum(kind, k, n, x0, x1)
        return value + 1 if n >= 3 else value

    monkeypatch.setattr(transforms, "_weighted_sum", off_by_one)
    broken = run_audit(**RANGE)
    assert set(_changed(broken, healthy)) == {"C05", "C06"}
    for cid in ("C05", "C06"):
        assert broken.result(cid).verdict is Verdict.FAIL
        assert broken.result(cid).counterexamples[0].n == 3
    for cid in ("C01", "C02", "C03", "C04"):
        assert broken.result(cid).verdict is Verdict.PASS


def test_jsonl_is_the_same_at_the_range_edges():
    """jsonl carries no config, so a range that reaches every counterexample
    gives the default bytes: n_max = 2 still reads fixtures up to n = 5, and
    C05/C06 read n_max + 1 at every n_max."""
    expected = (EXPECTED_DIR / "audit_default.jsonl").read_text(encoding="utf-8")
    assert run_audit(n_max=2).to_jsonl() == expected
    assert run_audit(n_max=128).to_jsonl() == expected
    assert run_audit(n_max=256).to_jsonl() == expected
