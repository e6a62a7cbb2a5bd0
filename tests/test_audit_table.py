"""The audit's per-run table of route values: shared, but never masking a
broken route and never carried from one run into the next."""

from collections import Counter
from pathlib import Path

from kfiblike import audit
from kfiblike.audit import Counterexample, Verdict, run_audit
from kfiblike.ring import K
from kfiblike.sequences import modified_k_fib, terms
from kfiblike.transforms import TransformKind, transform_direct, transform_recurrence

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

    def broken(kind, k, n):
        value = transform_direct(kind, k, n)
        return value + 1 if (kind, k, n) == (BAD_KIND, BAD_K, BAD_N) else value

    monkeypatch.setattr(audit, "transform_direct", broken)
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


def test_each_route_value_is_computed_once_per_run(monkeypatch):
    direct_calls, prefix_calls = Counter(), Counter()

    def counting_direct(kind, k, n):
        direct_calls[kind, k, n] += 1
        return transform_direct(kind, k, n)

    def counting_terms(rec, count):
        prefix_calls[rec] += 1
        return terms(rec, count)

    monkeypatch.setattr(audit, "transform_direct", counting_direct)
    monkeypatch.setattr(audit, "terms", counting_terms)
    run_audit(**RANGE)
    prefix_calls[modified_k_fib(K)] -= 1  # C25 reads its own six symbolic terms of M
    assert direct_calls and max(direct_calls.values()) == 1
    assert prefix_calls and max(prefix_calls.values()) == 1


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
