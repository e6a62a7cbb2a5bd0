"""Each audit run owns its state: the config is a plain value, every checker of
one run receives that run's object, and C15-C18 sweep their generating-function
series, numeric and symbolic, like every other claim from C01 to C22.  A run
holds nothing once :func:`run_audit` returns."""

import dataclasses
import gc

from audit_faults import moved, outcomes, with_checkers

from kfiblike import audit
from kfiblike.audit import AuditConfig, Counterexample, Verdict, run_audit
from kfiblike.genfunc import RationalGF, xpoly
from kfiblike.ring import const_like
from kfiblike.transforms import TransformKind

RANGE = dict(k_min=1, k_max=5, n_max=12)


def test_every_checker_of_a_run_receives_that_run(monkeypatch):
    healthy = run_audit(**RANGE)
    received = []

    # the way a benchmark or tracer wraps checkers without knowing what they take
    def wrapped(claim):
        def checker(run):
            received.append(run)
            return claim.checker(run)

        return checker

    with_checkers(monkeypatch, wrapped)
    first = run_audit(**RANGE)
    first_runs = received.copy()
    received.clear()
    second = run_audit(**RANGE)

    for report in (first, second):
        assert report == healthy
        assert report.to_text() == healthy.to_text()
        assert report.to_jsonl() == healthy.to_jsonl()
    assert len(first_runs) == len(received) == len(healthy.results) == 26
    assert all(run is first_runs[0] for run in first_runs)
    assert all(run is received[0] for run in received)
    assert first_runs[0] is not received[0]
    # the checker argument is the run, which holds the report's config
    assert isinstance(first_runs[0], audit._Run)
    assert first_runs[0].cfg is first.config


def test_config_is_a_plain_value():
    assert [f.name for f in dataclasses.fields(AuditConfig)] == [
        "k_min", "k_max", "n_max", "symbolic"]
    assert run_audit().config == AuditConfig()


def test_symbolic_gf_leg_reports_the_first_differing_coefficient(monkeypatch):
    def bumped(printed):
        def broken(kind, k):
            gf = printed(kind, k)
            if kind is not TransformKind.RISING_K:
                return gf
            # (k-1)(k-2)(k-3)(k-4)(k-5) x: zero at every numeric k the run checks
            bump = const_like(1, k)
            for j in range(1, 6):
                bump = bump * (k - const_like(j, k))
            num = xpoly([gf.num.coeffs[0], gf.num.coeffs[1] + bump])
            return RationalGF(num=num, den=gf.den)

        return broken

    assert moved(monkeypatch, RANGE, outcomes(RANGE), "published_gf", make=bumped) == {
        "C17": (Verdict.INFO_DISCREPANCY, (Counterexample(
            k="k", n=1, expected="2k+2", got="k^5-15k^4+85k^3-225k^2+276k-118",
            label="symbolic"),)),
    }


def test_a_finished_run_leaves_nothing_for_the_collector():
    """The run's route lists are freed by reference counts alone when it
    returns: a run caught in a reference cycle would wait for the collector."""
    gc.collect()
    gc.disable()
    try:
        run_audit()
        assert gc.collect() == 0
    finally:
        gc.enable()
