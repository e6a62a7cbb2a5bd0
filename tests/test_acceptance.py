"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here: table checks are exact, the float
Binet path is held to 1e-9 relative, and the runtime budgets are asserted
with a wall clock.
"""

import time
from pathlib import Path

from interpreter import run_python

from kfiblike import cli
from kfiblike.audit import TABLE_FIXTURES, Verdict, run_audit
from kfiblike.closedform import binet_closed, binet_float, published_binet
from kfiblike.genfunc import derived_gf, gf_equal, gf_expand, gf_from_rec, published_gf
from kfiblike.ring import K
from kfiblike.sequences import term_fast, term_iterative, terms
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
from kfiblike.sequences import f_from_m, k_fib, m_from_f, modified_k_fib


EXPECTED_AUDIT = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "audit_default.txt"


def _report(criterion: int, detail: str, started: float) -> None:
    print(f"[acceptance] criterion {criterion} PASS - {detail} "
          f"({time.perf_counter() - started:.2f}s)")


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    checked = 0
    for fx in TABLE_FIXTURES:
        if fx.label.startswith("W_") and fx.k != 1:
            continue  # the inconsistent W lists belong to criterion 2
        direct = [transform_direct(fx.kind, fx.k, n) for n in range(len(fx.values))]
        closed = terms(transform_recurrence(fx.kind, fx.k), len(fx.values))
        assert tuple(direct) == fx.values, fx.label
        assert tuple(closed) == fx.values, fx.label
        checked += 1
    assert checked == 16  # B_1..B_5, R_1..R_5, F_1..F_5, W_1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"table reproduction took {elapsed:.3f}s, budget 1s"
    _report(1, "published tables B/R/F and W_1 reproduced exactly", started)


def test_criterion_2_w_table_discrepancies():
    started = time.perf_counter()
    report = run_audit(k_min=1, k_max=5, n_max=32, symbolic=False)
    result = report.result("C24")
    assert result.verdict is Verdict.INFO_DISCREPANCY
    assert [(ce.label, ce.n, ce.expected, ce.got) for ce in result.counterexamples] == [
        ("W_2", 2, "96", "48"),
        ("W_3", 2, "378", "126"),
        ("W_4", 2, "1024", "256"),
        ("W_5", 2, "2250", "450"),
    ]
    # the computed side is confirmed by both independent routes
    for fx in TABLE_FIXTURES:
        if not fx.label.startswith("W_"):
            continue
        direct = [transform_direct(fx.kind, fx.k, n) for n in range(len(fx.values))]
        closed = terms(transform_recurrence(fx.kind, fx.k), len(fx.values))
        assert direct == closed, fx.label
    _report(2, "published W_2..W_5 lists flagged with exact first counterexamples",
            started)


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    for kind in KIND_ORDER:
        for k in range(1, 11):
            closed = terms(transform_recurrence(kind, k), 65)
            for n in range(65):
                assert transform_direct(kind, k, n) == closed[n], (kind, k, n)
        closed_sym = terms(transform_recurrence(kind, K), 17)
        for n in range(17):
            assert transform_direct(kind, K, n) == closed_sym[n], (kind, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s, budget 30s"
    _report(3, "direct sums equal closed recurrences (k 1..10, n 0..64, symbolic)",
            started)


def test_criterion_4_lemma_suite():
    started = time.perf_counter()
    pair_fns = (binomial_diff_identity, falling_diff_identity,
                rising_even_index, w_scaling)
    for k in range(1, 11):
        for n in range(65):
            for fn in pair_fns:
                lhs, rhs = fn(k, n)
                assert lhs == rhs, (fn.__name__, k, n)
        ms = terms(modified_k_fib(k), 65)
        fs = terms(k_fib(k), 65)
        for n in range(1, 65):
            assert m_from_f(k, n) == ms[n]
            assert f_from_m(k, n) == fs[n]
    for n in range(17):
        for fn in pair_fns:
            lhs, rhs = fn(K, n)
            assert lhs == rhs, (fn.__name__, "symbolic", n)
    ms = terms(modified_k_fib(K), 17)
    fs = terms(k_fib(K), 17)
    for n in range(1, 17):
        assert m_from_f(K, n) == ms[n]
        assert f_from_m(K, n) == fs[n]
    _report(4, "difference lemmas, even-index lemma, scaling and inverse identities "
               "hold exactly", started)


def test_criterion_5_binet_corrected_and_verbatim():
    started = time.perf_counter()
    # corrected closed form equals iteration everywhere
    for kind in KIND_ORDER:
        for k in range(1, 11):
            rec = transform_recurrence(kind, k)
            seq = terms(rec, 65)
            for n in range(65):
                assert binet_closed(rec, n) == seq[n], (kind, k, n)
        rec = transform_recurrence(kind, K)
        seq = terms(rec, 17)
        for n in range(17):
            assert binet_closed(rec, n) == seq[n], (kind, n)
    # printed binomial and rising forms match ground truth everywhere tested
    for kind in (TransformKind.BINOMIAL, TransformKind.RISING_K):
        for k in range(1, 11):
            for n in range(1, 65):
                assert published_binet(kind, k, n) == \
                    transform_direct(kind, k, n), (kind, k, n)

    def first_failure(kind):
        for n in range(1, 33):
            for k in range(1, 11):
                truth = transform_direct(kind, k, n)
                printed = published_binet(kind, k, n)
                if truth != printed:
                    return k, n, printed, truth
        raise AssertionError(f"{kind} printed Binet never failed")

    assert first_failure(TransformKind.K_BINOMIAL) == (2, 1, 4, 8)
    assert first_failure(TransformKind.FALLING_K) == (2, 2, 34, 22)
    _report(5, "exact Binet everywhere; printed W form first fails at (k=2, n=1), "
               "printed F form at (k=2, n=2)", started)


def test_criterion_6_generating_functions():
    started = time.perf_counter()
    for kind in KIND_ORDER:
        for k in range(1, 11):
            rec = transform_recurrence(kind, k)
            assert gf_expand(gf_from_rec(rec), 33) == terms(rec, 33), (kind, k)
        rec = transform_recurrence(kind, K)
        assert gf_expand(gf_from_rec(rec), 17) == terms(rec, 17), kind
    for kind in (TransformKind.K_BINOMIAL, TransformKind.RISING_K,
                 TransformKind.FALLING_K):
        assert gf_equal(published_gf(kind, K), derived_gf(kind, K)), kind
    # the printed binomial GF diverges at coefficient index 1 for every k >= 1
    for k in range(1, 11):
        printed = gf_expand(published_gf(TransformKind.BINOMIAL, k), 2)
        truth = gf_expand(derived_gf(TransformKind.BINOMIAL, k), 2)
        assert printed[0] == truth[0]
        assert printed[1] != truth[1], k
    assert gf_expand(published_gf(TransformKind.BINOMIAL, 1), 2)[1] == 2
    assert gf_expand(derived_gf(TransformKind.BINOMIAL, 1), 2)[1] == 4
    report = run_audit(k_min=1, k_max=5, n_max=16, symbolic=True)
    (ce,) = report.result("C15").counterexamples
    assert (ce.k, ce.n, ce.expected, ce.got) == (1, 1, "4", "2")
    _report(6, "GF round trips; printed W/R/F forms match; printed B form "
               "diverges at index 1 and is reported", started)


def test_criterion_7_float_binet_tolerance():
    started = time.perf_counter()
    for kind in KIND_ORDER:
        for k in range(1, 6):
            rec = transform_recurrence(kind, k)
            exact = terms(rec, 41)
            for n in range(41):
                rel = abs(binet_float(rec, n) - exact[n]) / exact[n]
                assert rel <= 1e-9, (kind, k, n, rel)
    _report(7, "double-precision Binet within 1e-9 relative (four kinds, "
               "k 1..5, n 0..40)", started)


def test_criterion_8_fast_path_and_bench(capsys):
    started = time.perf_counter()
    for k in (1, 2, 10):
        rec = modified_k_fib(k)
        for n in (0, 1, 2, 63, 64, 1000, 100000):
            assert term_fast(rec, n) == term_iterative(rec, n), (k, n)
    bench_start = time.perf_counter()
    code = cli.main(["bench", "--k", "2", "--n", "100000"])
    bench_elapsed = time.perf_counter() - bench_start
    out = capsys.readouterr().out
    assert code == 0
    assert "values agree across all strategies that ran" in out
    assert bench_elapsed < 10.0, f"bench took {bench_elapsed:.1f}s, budget 10s"
    _report(8, f"matrix fast path exact up to n=100000; bench ran in "
               f"{bench_elapsed:.2f}s with value equality", started)


def test_criterion_9_audit_determinism(monkeypatch):
    # the other run is the committed one, read only
    started = time.perf_counter()
    monkeypatch.delenv("KFIBLIKE_WIDTH", raising=False)
    monkeypatch.delenv("KFIBLIKE_COLOR", raising=False)
    run = run_python("-m", "kfiblike", "audit")
    assert run.returncode == 0
    assert run.stdout == EXPECTED_AUDIT.read_bytes()
    _report(9, "two audit runs with identical flags are byte-identical", started)
