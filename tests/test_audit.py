import hashlib
import json
import re

import pytest

from kfiblike import audit
from kfiblike.audit import (
    TABLE_FIXTURES,
    AuditConfig,
    ClaimClass,
    Verdict,
    claim_registry,
    run_audit,
)
from kfiblike.closedform import published_binet
from kfiblike.transforms import TransformKind, transform_direct

EXPECTED_INFO = {"C12", "C14", "C15", "C24"}


@pytest.fixture(scope="module")
def report():
    return run_audit(k_min=1, k_max=5, n_max=32, symbolic=True)


def test_registry_has_26_ordered_claims():
    claims = claim_registry()
    assert len(claims) == 26
    assert [c.id for c in claims] == [f"C{i:02d}" for i in range(1, 27)]


def test_claim_classes():
    classes = {c.id: c.claim_class for c in claim_registry()}
    for cid in ("C01", "C05", "C09", "C10", "C19", "C22", "C26"):
        assert classes[cid] is ClaimClass.IDENTITY
    for cid in ("C11", "C15", "C23", "C24", "C25"):
        assert classes[cid] is ClaimClass.PUBLISHED


def test_verdicts(report):
    for r in report.results:
        if r.claim.id in EXPECTED_INFO:
            assert r.verdict is Verdict.INFO_DISCREPANCY, r.claim.id
        else:
            assert r.verdict is Verdict.PASS, (r.claim.id, r.counterexamples)
    assert not report.has_implementation_failure
    assert report.counts == {"PASS": 22, "FAIL": 0, "INFO-DISCREPANCY": 4}
    # the report keeps the registry's id order, and knows no other id
    assert [r.claim.id for r in report.results] == [c.id for c in claim_registry()]
    with pytest.raises(KeyError):
        run_audit(n_max=2).result("C99")


# run_audit(k_min=6, k_max=10, symbolic=False) before NOT-CHECKED existed,
# when C26 reported PASS there after checking no point: sha256 of its bytes
_NO_FLOAT_K_TEXT_SHA256 = "5946debcbcc41ea608447589ff84ae582c6f3a1ecab48a53255def2c0681a8a3"
_NO_FLOAT_K_JSONL_SHA256 = "6893217ffbbfbb1b08163ed078bbd7aa171a022b8a3ea5496a7cef1725299a46"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_claim_with_no_point_in_range_is_not_checked(monkeypatch):
    forms, floats, real = [], [], audit._float_form

    def spy(rec):  # each float form built, and each float it computes
        forms.append(rec)
        at = real(rec)

        def counted(n):
            floats.append(n)
            return at(n)

        return counted

    monkeypatch.setattr(audit, "_float_form", spy)
    report = run_audit(k_min=audit.FLOAT_K_CAP + 1, k_max=10, symbolic=False)
    assert not forms and not floats
    c26 = report.result("C26")
    assert c26.verdict is Verdict.NOT_CHECKED and c26.counterexamples == ()
    assert report.counts == {"PASS": 21, "FAIL": 0, "INFO-DISCREPANCY": 4, "NOT-CHECKED": 1}
    assert not report.has_implementation_failure
    # the rest of the report is the one pinned above, byte for byte
    records = report.to_records()
    assert records[-1]["verdict"] == "NOT-CHECKED"
    records[-1]["verdict"] = "PASS"
    assert _sha256("".join(json.dumps(r) + "\n" for r in records)) == _NO_FLOAT_K_JSONL_SHA256
    note = ("note: NOT-CHECKED means the ranges hold no point the claim can check;\n"
            "it is neither a pass nor a failure.\n")
    text = report.to_text()
    assert text.endswith(note)
    before = (text[:-len(note)]
              .replace("C26  NOT-CHECKED        ", "C26  PASS               ")
              .replace("21 PASS, 0 FAIL, 4 INFO-DISCREPANCY, 1 NOT-CHECKED",
                       "22 PASS, 0 FAIL, 4 INFO-DISCREPANCY"))
    assert _sha256(before) == _NO_FLOAT_K_TEXT_SHA256
    # one point in range is enough for a verdict
    assert run_audit(k_min=audit.FLOAT_K_CAP, k_max=10,
                     symbolic=False).result("C26").verdict is Verdict.PASS
    assert forms and floats


def test_c12_counterexample(report):
    (ce,) = report.result("C12").counterexamples
    assert (ce.k, ce.n, ce.expected, ce.got) == (2, 1, "8", "4")


def test_c14_counterexample(report):
    (ce,) = report.result("C14").counterexamples
    assert (ce.k, ce.n, ce.expected, ce.got) == (2, 2, "22", "34")


def test_c15_counterexample(report):
    (ce,) = report.result("C15").counterexamples
    assert (ce.k, ce.n, ce.expected, ce.got) == (1, 1, "4", "2")


def test_c24_counterexamples(report):
    ces = report.result("C24").counterexamples
    assert [(ce.label, ce.k, ce.n, ce.expected, ce.got) for ce in ces] == [
        ("W_2", 2, 2, "96", "48"),
        ("W_3", 3, 2, "378", "126"),
        ("W_4", 4, 2, "1024", "256"),
        ("W_5", 5, 2, "2250", "450"),
    ]


def test_c23_passes_without_counterexamples(report):
    r = report.result("C23")
    assert r.verdict is Verdict.PASS
    assert r.counterexamples == ()


def test_counterexamples_replay(report):
    # a recorded counterexample must reproduce the inequality in isolation
    ce = report.result("C12").counterexamples[0]
    truth = transform_direct(TransformKind.K_BINOMIAL, ce.k, ce.n)
    printed = published_binet(TransformKind.K_BINOMIAL, ce.k, ce.n)
    assert str(truth) == ce.expected
    assert str(printed) == ce.got
    assert truth != printed


def test_reports_are_deterministic(report):
    again = run_audit(k_min=1, k_max=5, n_max=32, symbolic=True)
    assert again.to_text() == report.to_text()
    assert again.to_jsonl() == report.to_jsonl()


def test_identity_passes_are_monotone_under_range_extension():
    small = run_audit(k_min=1, k_max=3, n_max=16, symbolic=True)
    larger = run_audit(k_min=1, k_max=6, n_max=32, symbolic=True)
    always_true = [f"C{i:02d}" for i in list(range(1, 11)) + list(range(19, 23)) + [25]]
    for cid in always_true:
        assert small.result(cid).verdict is Verdict.PASS
        assert larger.result(cid).verdict is Verdict.PASS


def test_jsonl_records_shape(report):
    lines = report.to_jsonl().strip().split("\n")
    assert len(lines) == 26
    recs = [json.loads(line) for line in lines]
    assert [r["id"] for r in recs] == [f"C{i:02d}" for i in range(1, 27)]
    for r in recs:
        assert set(r) == {"id", "verdict", "class", "description", "citation",
                          "counterexamples"}
    c24 = next(r for r in recs if r["id"] == "C24")
    assert c24["verdict"] == "INFO-DISCREPANCY"
    assert c24["counterexamples"][0] == {
        "label": "W_2", "k": 2, "n": 2, "expected": "96", "got": "48",
    }


def test_text_report_mentions_discrepancy_class(report):
    text = report.to_text()
    assert "INFO-DISCREPANCY" in text
    assert "not an implementation failure" in text
    assert text.endswith("\n")


def test_text_report_color_toggle(report):
    plain = report.to_text(color=False)
    coloured = report.to_text(color=True)
    assert "\x1b[" not in plain
    assert "\x1b[32mPASS\x1b[0m" in coloured


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        run_audit(k_min=0, k_max=3, n_max=16)
    with pytest.raises(ValueError):
        run_audit(k_min=4, k_max=3, n_max=16)
    with pytest.raises(ValueError):
        run_audit(k_min=1, k_max=3, n_max=1)
    with pytest.raises(ValueError):
        AuditConfig(k_min=2, k_max=1)
    # a bool or a non-int is named, before any range or ceiling check
    for given, shown in ((dict(k_min=True), "k_min must be an int, got bool"),
                         (dict(k_max=10.5), "k_max must be an int, got float"),
                         (dict(n_max=64.0), "n_max must be an int, got float"),
                         (dict(n_max="64"), "n_max must be an int, got str"),
                         (dict(k_min=1.0, n_max=1), "k_min must be an int, got float"),
                         # any non-empty string is truthy: "off" would run the leg
                         (dict(symbolic="off"), "symbolic must be a bool, got str"),
                         (dict(symbolic=0, n_max=1), "symbolic must be a bool, got int")):
        with pytest.raises(TypeError, match=f"^{shown}$"):
            run_audit(**given)


def test_work_past_the_ceiling_is_refused(monkeypatch):
    monkeypatch.setattr(audit, "AUDIT_WORK_CEILING", 1500)
    AuditConfig(k_min=1, k_max=1, n_max=2)     # 1304: the setup of one k and two points
    AuditConfig(k_min=1, k_max=1, n_max=3)     # 1459
    for k_min, k_max, n_max, shown in ((1, 1, 4, "1.62e+3"), (1, 2, 2, "2.61e+3"),
                                       (1, 10, 11, "2.78e+4"), (3, 5, 19, "1.27e+4"),
                                       (1, 1001, 2, "1.31e+6")):
        with pytest.raises(ValueError) as exc:
            run_audit(k_min=k_min, k_max=k_max, n_max=n_max)
        assert str(exc.value) == (f"estimated work of {shown} ring operations "
                                  "is past the audit ceiling of 1.50e+3")


def test_shipped_ranges_are_under_the_work_ceiling():
    # only configs are built: no run starts at these ranges
    for n_max in (AuditConfig.n_max, 8, 128, 256):  # the default; 256 is the jsonl range edge
        AuditConfig(n_max=n_max)
    # an estimate too wide for a float is still named
    with pytest.raises(ValueError, match=r" 2\.01e\+15995 ring operations is past the audit"):
        AuditConfig(n_max=10**4000)


_WIDE_K = "1" + "0" * 800  # str(10**800), spelled so the ids build under any str(int) guard


@pytest.mark.parametrize("k_min, k_max, n_max, shown", [
    (1, 2_500_000, 2, "3.26e+9"),         # many k: a fixed cost per k
    (10**800, 10**800, 256, "5.45e+8"),   # one k, terms of about 4e5 digits
], ids=["1-2500000-2-3.26e+9", f"{_WIDE_K}-{_WIDE_K}-256-5.45e+8"])
def test_cost_per_k_and_term_width_count_towards_the_ceiling(k_min, k_max, n_max, shown):
    # n_max^2 * |ks| admitted both (1.0e7 and 6.6e4); only configs are built
    with pytest.raises(ValueError, match=f" {re.escape(shown)} ring operations is past"):
        AuditConfig(k_min=k_min, k_max=k_max, n_max=n_max)


def test_work_estimate_grows_with_each_bound():
    estimate = audit._work_estimate
    assert estimate(1, 10, 64) < estimate(1, 11, 64) < estimate(1, 11, 65)
    assert estimate(1, 10, 64) < estimate(2, 11, 64)    # same count of k, wider terms
    assert estimate(10**50, 10**50, 64) > 10 * estimate(1, 1, 64)  # 0.1 s vs 0.01 s


def test_table_fixtures_are_verbatim_transcriptions():
    by_label = {fx.label: fx for fx in TABLE_FIXTURES}
    assert len(TABLE_FIXTURES) == 20
    assert by_label["B_2"].values == (2, 4, 12, 40, 136, 464)
    assert by_label["B_2"].oeis_note == "A056236"
    assert by_label["W_2"].values == (2, 8, 96, 320, 1088, 3712)
    assert by_label["W_3"].values == (2, 12, 378, 1566, 6696, 28782)
    assert by_label["W_4"].values == (2, 16, 1024, 5120, 26624)
    assert by_label["W_5"].values == (2, 20, 2250, 13250, 81500)
    assert by_label["R_3"].values == (2, 8, 86, 938, 10232)
    assert by_label["F_5"].values == (2, 12, 82, 642, 5612, 52722)
    assert "A052995" in by_label["B_1"].oeis_note
