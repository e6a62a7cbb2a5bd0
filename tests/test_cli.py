import argparse
import decimal
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from interpreter import needs_str_guard, python_command, run_python, str_guard

from kfiblike import cli
from kfiblike.audit import AuditConfig, run_audit
from kfiblike.genfunc import derived_gf, gf_expand, gf_str
from kfiblike.ring import K, elem_str
from kfiblike.sequences import modified_k_fib, term_fast, terms
from kfiblike.transforms import TransformKind, transform_recurrence

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_modified_plain(capsys):
    code, out, _ = run_cli(capsys, ["gen", "modified", "--k", "2", "--count", "4"])
    assert code == 0
    assert out == "2,2,6,14\n"


def test_gen_bfile_format(capsys):
    code, out, _ = run_cli(
        capsys, ["gen", "modified", "--k", "1", "--count", "2", "--format", "bfile"]
    )
    assert code == 0
    assert out == "0 2\n1 2\n"


def test_gen_kfib(capsys):
    code, out, _ = run_cli(capsys, ["gen", "kfib", "--k", "1", "--count", "5"])
    assert code == 0
    assert out == "0,1,1,2,3\n"


def test_gen_fast_identical_output(capsys):
    _, slow, _ = run_cli(capsys, ["gen", "modified", "--k", "3", "--count", "20"])
    _, fast, _ = run_cli(
        capsys, ["gen", "modified", "--k", "3", "--count", "20", "--fast"]
    )
    assert slow == fast


def test_gen_rejects_bad_k():
    proc = run_python("-m", "kfiblike", "gen", "modified", "--k", "0", "--count", "3")
    assert proc.returncode == 2
    assert b"--k must be >= 1" in proc.stderr


def test_usage_error_exit_code():
    proc = run_python("-m", "kfiblike", "gen", "nosuchfamily", "--k", "1", "--count", "1")
    assert proc.returncode == 2


#: argv: the message of its range error
RANGE_ERRORS = {
    ("gen", "modified", "--k", "0", "--count", "3"): "--k must be >= 1, got 0",
    ("transform", "binomial", "--k", "2", "--count", "-1"): "--count must be >= 0, got -1",
    ("gf", "binomial"): "gf needs either --k or --symbolic",
    ("binet", "binomial", "--k", "2", "--n", "-1", "--exact"): "--n must be >= 0, got -1",
    ("audit", "--k-min", "5", "--k-max", "2"): "need 1 <= k_min <= k_max",
    ("bench", "--k", "2", "--n", "-5"): "--n must be >= 0, got -5",
    ("audit", "--n-max", "1"): "need n_max >= 2",
}


@pytest.mark.parametrize("argv", RANGE_ERRORS)
def test_range_errors_name_the_subcommand(argv):
    # as argparse's own errors do: "usage: kfiblike gen ..." / "kfiblike gen: error:"
    proc = run_python("-m", "kfiblike", *argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith(f"usage: kfiblike {argv[0]} [-h]")
    assert err.endswith(f"\nkfiblike {argv[0]}: error: {RANGE_ERRORS[argv]}\n")


def test_transform_tables(capsys):
    code, out, _ = run_cli(capsys, ["transform", "falling", "--k", "4", "--count", "6"])
    assert code == 0
    assert out == "2,10,58,386,2834,22042\n"
    code, out, _ = run_cli(capsys, ["transform", "binomial", "--k", "5", "--count", "6"])
    assert out == "2,4,18,106,652,4034\n"


def test_transform_methods_agree(capsys):
    _, direct, _ = run_cli(
        capsys,
        ["transform", "rising", "--k", "3", "--count", "8", "--method", "direct"],
    )
    _, rec, _ = run_cli(
        capsys,
        ["transform", "rising", "--k", "3", "--count", "8", "--method", "recurrence"],
    )
    assert direct == rec


def test_transform_verify(capsys):
    code, out, err = run_cli(
        capsys, ["transform", "kbinomial", "--k", "2", "--count", "3", "--verify"]
    )
    assert code == 0
    assert out == "2,8,48\n"
    assert "agree on 3 terms" in err
    # each difference table (the rising one over k^i M(i)) against its recurrence,
    # far past the audit's n = 65; the audit takes its k-binomial sums from the
    # binomial table, so this is the only end-to-end run of iter_direct(kbinomial) at int k
    for kind in TransformKind:
        code, _, err = run_cli(
            capsys, ["transform", kind.value, "--k", "7", "--count", "300", "--verify"])
        assert code == 0
        assert err == "verify: direct sum and closed recurrence agree on 300 terms\n"


def test_csv_and_jsonl_round_trip(capsys):
    _, out, _ = run_cli(
        capsys,
        ["transform", "binomial", "--k", "2", "--count", "4", "--format", "csv"],
    )
    lines = out.strip().split("\n")
    assert lines[0] == "n,value"
    assert [int(line.split(",")[1]) for line in lines[1:]] == [2, 4, 12, 40]
    _, out, _ = run_cli(
        capsys,
        ["transform", "binomial", "--k", "2", "--count", "4", "--format", "json-lines"],
    )
    recs = [json.loads(line) for line in out.strip().split("\n")]
    assert [int(r["value"]) for r in recs] == [2, 4, 12, 40]
    assert [r["index"] for r in recs] == [0, 1, 2, 3]


def test_bfile_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, ["gen", "modified", "--k", "2", "--count", "8", "--format", "bfile"]
    )
    parsed = []
    for line in out.splitlines():
        n_text, v_text = line.split(" ")
        parsed.append((int(n_text), int(v_text)))
    assert parsed == list(enumerate([2, 2, 6, 14, 34, 82, 198, 478]))


def test_gf_symbolic_rendering(capsys):
    code, out, _ = run_cli(capsys, ["gf", "rising", "--symbolic"])
    assert code == 0
    assert out == "(2 - (2k^2-2k+2)x) / (1 - (k^2+2)x + x^2)\n"


@pytest.mark.parametrize("kind", list(TransformKind))
def test_gf_symbolic_with_expansion(capsys, kind):
    gf = derived_gf(kind, K)
    expected = gf_str(gf) + "\n" + ",".join(elem_str(c) for c in gf_expand(gf, 4)) + "\n"
    code, out, _ = run_cli(capsys, ["gf", kind.value, "--symbolic", "--count", "4"])
    assert code == 0
    assert out == expected


def test_gf_numeric_with_expansion(capsys):
    code, out, _ = run_cli(capsys, ["gf", "binomial", "--k", "2", "--count", "6"])
    assert code == 0
    assert out == "(2 - 4x) / (1 - 4x + 2x^2)\n2,4,12,40,136,464\n"


@pytest.mark.parametrize("argv", [
    ["gf", "binomial", "--k", "2"],
    ["gf", "falling", "--symbolic"],
])
def test_gf_expansion_stops_when_the_reader_closes(monkeypatch, argv):
    """``gf --count`` streams its series: a sink that breaks after some
    coefficients stops the expansion there, however large the count."""
    made = []
    real_iter_gf = cli.iter_gf

    def counting(gf):
        for c in real_iter_gf(gf):
            made.append(c)
            yield c

    class ClosingSink:
        def __init__(self, limit):
            self.limit, self.chunks = limit, []

        def write(self, text):
            if len(self.chunks) == self.limit:
                raise BrokenPipeError(32, "Broken pipe")
            self.chunks.append(text)
            return len(text)

    sink = ClosingSink(limit=20)
    monkeypatch.setattr(cli, "iter_gf", counting)
    monkeypatch.setattr(sys, "stdout", sink)
    with pytest.raises(BrokenPipeError):
        cli.main([*argv, "--count", str(10**12)])
    written = sink.chunks[1::2]  # after the GF line: value, ",", value, ...
    kind = TransformKind(argv[1])
    k = K if "--symbolic" in argv else int(argv[3])
    assert written == [elem_str(c) for c in gf_expand(derived_gf(kind, k), 10)]
    assert len(made) == len(written) + 1  # the one whose separator met the closed pipe


def test_gf_requires_k_or_symbolic():
    proc = run_python("-m", "kfiblike", "gf", "binomial")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["gen", "modified", "--k", "2"],
    ["gen", "modified", "--k", "2", "--fast"],
    ["transform", "binomial", "--k", "2"],
    ["transform", "binomial", "--k", "2", "--method", "direct"],
    ["transform", "binomial", "--k", "2", "--verify"],
    ["gf", "binomial", "--k", "2"],
    ["gf", "binomial", "--symbolic"],
])
def test_count_past_maxsize_is_a_usage_error_before_any_term(capsys, monkeypatch, argv):
    def no_terms(*args):
        raise AssertionError("a term was computed")

    for name in ("iter_terms", "iter_direct", "term_fast", "terms", "transform_direct",
                 "iter_gf"):
        monkeypatch.setattr(cli, name, no_terms)
    count = str(sys.maxsize + 1)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--count", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--count must be <= {sys.maxsize}, got {count}" in captured.err


def test_gf_rejects_negative_count_before_output():
    proc = run_python("-m", "kfiblike", "gf", "binomial", "--k", "2", "--count", "-3")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"--count must be >= 0" in proc.stderr


def test_binet_exact(capsys):
    code, out, _ = run_cli(capsys, ["binet", "binomial", "--k", "2", "--n", "5", "--exact"])
    assert code == 0
    assert out == "464\n"
    assert run_cli(capsys, ["binet", "binomial", "--k", "2", "--n", "10", "--exact"]) == \
        (0, "215232\n", "")


def test_binet_float(capsys):
    code, out, _ = run_cli(capsys, ["binet", "rising", "--k", "2", "--n", "5"])
    assert code == 0
    assert abs(float(out) - 6726) / 6726 <= 1e-9


def test_binet_float_overflow_is_usage_error():
    proc = run_python("-m", "kfiblike", "binet", "rising", "--k", "2", "--n", "2000")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"double-precision range" in proc.stderr
    assert b"--exact" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_audit_defaults_are_the_config_defaults(monkeypatch, capsys):
    # the audit flags have no defaults of their own: run_audit gets only the
    # flags given, so its defaults, which are AuditConfig's, apply
    parser, _ = cli.build_parser()
    assert vars(parser.parse_args(["audit"])) == {"command": "audit", "format": "text"}
    calls = []
    monkeypatch.setattr("kfiblike.audit.run_audit",
                        lambda **given: calls.append(given) or run_audit(n_max=2))
    for argv in (["audit"], ["audit", "--k-min", "2", "--no-symbolic"],
                 ["audit", "--k-max", "3", "--n-max", "5", "--symbolic"]):
        run_cli(capsys, argv)
    assert calls == [{}, {"k_min": 2, "symbolic": False},
                     {"k_max": 3, "n_max": 5, "symbolic": True}]
    defaults = inspect.signature(run_audit).parameters
    assert AuditConfig(**{name: p.default for name, p in defaults.items()}) == AuditConfig()


@pytest.mark.parametrize("argv, shown", [
    (["--n-max", "100000000000"], "2.01e+39"),
    (["--k-max", "1000000000"], "2.72e+13"),
    (["--n-max", "2", "--k-max", "2500000"], "3.26e+9"),
    (["--k-min", str(10**800), "--k-max", str(10**800), "--n-max", "256"], "5.45e+8"),
])
def test_audit_past_the_work_ceiling_is_a_usage_error(capsys, argv, shown):
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kfiblike audit")
    assert f" {shown} ring operations is past the audit ceiling of 6.00e+7\n" in captured.err


def test_audit_exit_zero_and_formats(capsys):
    code, out, _ = run_cli(
        capsys, ["audit", "--k-max", "3", "--n-max", "16", "--format", "jsonl"]
    )
    assert code == 0
    recs = [json.loads(line) for line in out.strip().split("\n")]
    assert len(recs) == 26
    verdicts = {r["id"]: r["verdict"] for r in recs}
    assert verdicts["C01"] == "PASS"
    assert verdicts["C24"] == "INFO-DISCREPANCY"


def test_audit_text_uses_env_width_and_color(capsys, monkeypatch):
    monkeypatch.setenv("KFIBLIKE_WIDTH", "40")
    monkeypatch.setenv("KFIBLIKE_COLOR", "1")
    code, out, _ = run_cli(capsys, ["audit", "--k-max", "2", "--n-max", "8"])
    assert code == 0
    assert "=" * 40 in out
    assert "\x1b[32m" in out


def test_env_width_is_clamped(monkeypatch):
    # only the parsed width is checked: rendering at it is what the clamp prevents
    monkeypatch.setenv("KFIBLIKE_WIDTH", "1234567890123")
    assert cli._env_width() == cli.MAX_WIDTH == 1000
    monkeypatch.setenv("KFIBLIKE_WIDTH", "3")
    assert cli._env_width() == cli.MIN_WIDTH
    monkeypatch.setenv("KFIBLIKE_WIDTH", "wide")
    assert cli._env_width() == 80


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken_main(argv=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", broken_main)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kfiblike: internal error: RuntimeError: boom\n"


def test_value_error_inside_a_claim_exits_3(capsys, monkeypatch):
    """Only the range check is a usage error: a ValueError raised inside a
    claim is a fault, reported as one line with exit 3."""
    def broken(rec, n):
        raise ValueError("no float here")

    monkeypatch.setattr("kfiblike.audit.binet_float", broken)
    monkeypatch.setattr(sys, "argv", ["kfiblike", "audit", "--k-max", "2", "--n-max", "8"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kfiblike: internal error: ValueError: no float here\n"


LONG_RUN = ["gen", "modified", "--k", "2", "--count", "20000", "--format", "bfile"]


@pytest.mark.parametrize("argv", [
    LONG_RUN,
    ["binet", "binomial", "--k", "2", "--n", "5", "--exact"],  # one buffered line
])
def test_closed_stdout_exits_141_quietly(argv):
    command, env = python_command("-m", "kfiblike", *argv)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write, and the final flush, meets a closed pipe
    try:
        proc = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


def test_reader_closing_after_20_bytes_exits_141(tmp_path):
    command, env = python_command("-m", "kfiblike", *LONG_RUN)
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err,
                                env=env)
        try:
            head = proc.stdout.read(20)
        finally:
            proc.stdout.close()
        assert proc.wait(timeout=120) == 141
    assert head == b"0 2\n1 2\n2 6\n3 14\n4 3"
    assert (tmp_path / "stderr").read_bytes() == b""


def test_audit_byte_identical_runs(capsys):
    # a child process against this one, so the check still spans two processes
    args = ["audit", "--k-max", "4", "--n-max", "24"]
    child = run_python("-m", "kfiblike", *args)
    code, out, _ = run_cli(capsys, args)
    assert child.returncode == code == 0
    assert child.stdout == out.encode()


def test_bench_small(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--k", "2", "--n", "200", "--n", "400"])
    assert code == 0
    for name in ("iterative", "lucas-doubling", "decimal", "direct-sum"):
        assert name in out
    assert "values agree across all strategies that ran" in out


def test_bench_direct_cap(capsys):
    code, out, _ = run_cli(
        capsys, ["bench", "--k", "2", "--n", "300", "--direct-cap", "100"]
    )
    assert code == 0
    assert "skipped (n > direct cap 100)" in out


def test_bench_rejects_negative_direct_cap():
    proc = run_python("-m", "kfiblike", "bench", "--k", "2", "--n", "300", "--direct-cap", "-3")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"--direct-cap must be >= 0" in proc.stderr


def test_digit_count_at_powers_of_ten():
    # len(str(10**d - 1)) is d and len(str(10**d)) is d + 1; a minus sign adds one
    assert cli._digit_count(0) == len(str(0)) == 1
    p = 1
    for d in range(1, 5001):
        p *= 10
        assert cli._digit_count(p - 1) == cli._digit_count(1 - p) - 1 == d
        assert cli._digit_count(p) == cli._digit_count(-p) - 1 == d + 1


def test_bench_reports_mismatch_as_failure(capsys, monkeypatch):
    from kfiblike import cli as cli_mod

    monkeypatch.setattr(cli_mod, "term_fast", lambda rec, n: -1)
    code, out, _ = run_cli(capsys, ["bench", "--k", "2", "--n", "50"])
    assert code == 1
    assert "VALUE MISMATCH" in out


def test_bench_decimal_row_catches_one_wrong_digit(capsys, monkeypatch):
    from kfiblike import cli as cli_mod

    def one_digit_off(x):
        text = elem_str(x)
        mid = len(text) // 2
        return text[:mid] + str((int(text[mid]) + 1) % 10) + text[mid + 1:]

    monkeypatch.setattr(cli_mod, "elem_str", one_digit_off)
    code, out, _ = run_cli(capsys, ["bench", "--k", "2", "--n", "90"])
    assert code == 1
    equal = {line.split()[1]: line.split()[-1] for line in out.splitlines()
             if line.startswith("        90")}
    assert equal == {"iterative": "ref", "lucas-doubling": "yes", "decimal": "NO",
                     "direct-sum": "yes"}
    assert out.endswith("VALUE MISMATCH between strategies\n")


def test_bench_decimal_row_checks_length_against_the_value(capsys, monkeypatch):
    # a leading zero keeps the last 18 digits and both digit sums: only a
    # digit count taken from the value, not from the text, catches it
    from kfiblike import cli as cli_mod

    monkeypatch.setattr(cli_mod, "elem_str", lambda x: "0" + elem_str(x))
    code, out, _ = run_cli(capsys, ["bench", "--k", "2", "--n", "90"])
    assert code == 1
    rows = {line.split()[1]: line.split()[-2:] for line in out.splitlines()
            if line.startswith("        90")}
    assert rows["decimal"] == [rows["iterative"][0], "NO"]


def test_bench_counts_digits_once_per_n_when_all_rows_agree(capsys, calls):
    from kfiblike import cli as cli_mod

    counted = calls(cli_mod, "_digit_count")
    code, out, _ = run_cli(capsys, ["bench", "--k", "2", "--n", "0", "--n", "90",
                                    "--n", "3000", "--direct-cap", "100"])
    assert code == 0
    assert out.endswith("values agree across all strategies that ran\n")
    assert len(counted) == 3


def test_large_value_prints_full_decimal(capsys):
    # values beyond CPython's default int-to-str guard must still print
    code, out, _ = run_cli(capsys, ["binet", "rising", "--k", "10", "--n", "2200", "--exact"])
    assert code == 0
    value = out.strip()
    assert len(value) > 4300
    assert value.isdigit()


def test_huge_binet_exact_is_str_of_term_fast(capsys):
    code, out, _ = run_cli(capsys, ["binet", "binomial", "--k", "2", "--n", "200000", "--exact"])
    assert code == 0
    value = term_fast(transform_recurrence(TransformKind.BINOMIAL, 2), 200000)
    with str_guard(0):
        assert out == str(value) + "\n"


def test_binet_exact_with_n_too_wide_for_a_float_is_a_usage_error(capsys):
    n = 10**400
    with pytest.raises(SystemExit) as exc:
        cli.main(["binet", "binomial", "--k", "2", "--n", str(n), "--exact"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kfiblike binet")
    assert "has about inf digits, beyond the" in captured.err


def test_binet_ceiling_error_names_a_long_n_by_its_length(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["binet", "binomial", "--k", "2", "--n", str(10**400), "--exact"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x(<401-digit n>) has about" in captured.err
    assert max(len(line) for line in captured.err.splitlines()) < 200


@needs_str_guard
def test_main_leaves_the_str_guard_alone(capsys):
    with str_guard(5000):
        run_cli(capsys, ["gen", "modified", "--k", "2", "--count", "4"])
        run_cli(capsys, ["binet", "rising", "--k", "10", "--n", "2200", "--exact"])
        assert sys.get_int_max_str_digits() == 5000


@needs_str_guard
def test_k_past_the_str_guard_is_a_usage_error(capsys):
    with str_guard(4300), pytest.raises(SystemExit) as exc:
        cli.main(["gen", "modified", "--k", "7" * 5000, "--count", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kfiblike gen")
    assert "invalid int value" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", list(TransformKind))
def test_digits_estimate_tracks_the_length(kind):
    # n*log10 r1 leaves out log10 of the leading coefficient, which is within
    # about log10 k of zero for these families
    for k in (1, 2, 3, 10, 1000, 10**20):
        rec = transform_recurrence(kind, k)
        for n in (1, 2, 3, 5, 10, 50, 100, 200, 400):
            digits = len(elem_str(term_fast(rec, n)))
            assert abs(cli._digits_estimate(rec, n) - digits) <= len(str(k)) + 1


# _digits_estimate at n = 1, 1000, 10**6 for k = 1, 2, 10**50, 10**4000
DIGITS_ESTIMATES = {
    "binomial": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
                 (0.5332906831698523, 533.2906831698523, 533290.6831698522),
                 (50.0, 50000.0, 50000000.0), (4000.0, 4000000.0, 4000000000.0)],
    "kbinomial": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
                  (0.8343206788338335, 834.3206788338335, 834320.6788338335),
                  (100.0, 100000.0, 100000000.0), (8000.0, 8000000.0, 8000000000.0)],
    "rising": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
               (0.7655513706757269, 765.5513706757268, 765551.3706757269),
               (100.0, 100000.0, 100000000.0), (8000.0, 8000000.0, 8000000000.0)],
    "falling": [(0.4179752804999559, 417.97528049995594, 417975.28049995593),
                (0.6448533407686625, 644.8533407686625, 644853.3407686625),
                (50.30102999566398, 50301.02999566398, 50301029.99566398),
                (4000.3010299956636, 4000301.0299956636, 4000301029.9956636)],
}


@pytest.mark.parametrize("kind", list(TransformKind))
def test_digits_estimate_pinned(kind):
    for k, row in zip((1, 2, 10**50, 10**4000), DIGITS_ESTIMATES[kind.value]):
        rec = transform_recurrence(kind, k)
        got = tuple(cli._digits_estimate(rec, n) for n in (1, 1000, 10**6))
        assert got == pytest.approx(row, rel=1e-12)
        assert cli._digits_estimate(rec, 10**400) == math.inf


def test_binet_exact_refuses_a_term_past_the_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_EXACT_DIGITS_CEILING", 100)
    code, out, _ = run_cli(capsys, ["binet", "binomial", "--k", "2", "--n", "150", "--exact"])
    assert code == 0 and len(out.strip()) == 80
    with pytest.raises(SystemExit) as exc:
        cli.main(["binet", "binomial", "--k", "2", "--n", "200", "--exact"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kfiblike binet")
    assert "x(200) has about 107 digits, beyond the 100-digit ceiling of --exact" in captured.err


def test_rounding_in_a_stream_raises_before_printing(capsys, monkeypatch):
    narrow = cli._EXACT_CONTEXT.copy()
    narrow.prec = 50
    monkeypatch.setattr(cli, "_EXACT_CONTEXT", narrow)
    argv = ["gen", "modified", "--k", "10", "--count", "200"]
    # only the exact terms that fit in 50 digits reach stdout
    exact = [str(v) for v in terms(modified_k_fib(10), 200)]
    fitting = ",".join(v for v in exact if len(v) <= 50)
    assert len(fitting) < len(",".join(exact))
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        cli.main(argv)
    assert capsys.readouterr().out == fitting
    monkeypatch.setattr(sys, "argv", ["kfiblike", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == fitting
    assert captured.err.startswith("kfiblike: internal error: ")


def test_long_transform_stream_matches_int_route():
    proc = run_python("-m", "kfiblike", "transform", "falling", "--k", "3", "--count", "5000")
    assert proc.returncode == 0
    rec = transform_recurrence(TransformKind.FALLING_K, 3)
    assert proc.stdout == (",".join(str(v) for v in terms(rec, 5000)) + "\n").encode()


HUGE_K = 10**20


@pytest.mark.parametrize("argv, values", [
    (["gen", "modified"], terms(modified_k_fib(HUGE_K), 6)),
    (["transform", "kbinomial"], terms(transform_recurrence(TransformKind.K_BINOMIAL, HUGE_K), 6)),
    (["gf", "kbinomial"], gf_expand(derived_gf(TransformKind.K_BINOMIAL, HUGE_K), 6)),
])
def test_streams_exact_at_huge_k(capsys, argv, values):
    # every coefficient outgrows the default 28-digit decimal context
    _, out, _ = run_cli(capsys, [*argv, "--k", str(HUGE_K), "--count", "6"])
    assert out.split("\n")[-2] == ",".join(str(v) for v in values)


@pytest.mark.parametrize("argv, expected", [
    (["audit"], "audit_default.txt"),
    (["audit", "--format", "jsonl"], "audit_default.jsonl"),
])
def test_default_audit_matches_expected_bytes(monkeypatch, argv, expected):
    monkeypatch.delenv("KFIBLIKE_WIDTH", raising=False)
    monkeypatch.delenv("KFIBLIKE_COLOR", raising=False)
    proc = run_python("-m", "kfiblike", *argv)
    assert proc.returncode == 0
    assert proc.stdout == (REPO_ROOT / "perfbench" / "expected" / expected).read_bytes()


def test_bench_refuses_a_term_past_the_ceiling_before_any_kernel(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_EXACT_DIGITS_CEILING", 100)
    code, out, _ = run_cli(capsys, ["bench", "--k", "2", "--n", "150"])
    assert code == 0 and "       150  decimal" in out

    def kernel(*_args):
        raise AssertionError("a kernel ran")

    for name in ("term_iterative", "term_fast", "transform_direct", "elem_str"):
        monkeypatch.setattr(cli, name, kernel)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--k", "2", "--n", "150", "--n", "200"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kfiblike bench")
    assert "x(200) has about 107 digits, beyond the 100-digit ceiling of bench" in captured.err


def test_audit_with_a_claim_not_checked_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["audit", "--k-min", "6", "--no-symbolic"])
    assert code == 0
    assert "C26  NOT-CHECKED" in out
    assert "26 claims: 21 PASS, 0 FAIL, 4 INFO-DISCREPANCY, 1 NOT-CHECKED\n" in out


# main() reuses one parser tree per process; parsing must leave it as it was.

def _rows_without_timings(out):
    # the seconds column is the only one that differs between runs
    return [line[:27] + line[39:] for line in out.splitlines()]


def test_repeated_append_option_does_not_pile_up(capsys):
    argv = ["bench", "--k", "2", "--n", "5", "--n", "7"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert len(first.splitlines()) == 2 + 2 * 4 + 1
    assert _rows_without_timings(second) == _rows_without_timings(first)
    _, default, _ = run_cli(capsys, ["bench", "--k", "2", "--n", "9"])
    assert [line.split()[0] for line in default.splitlines()[2:-1]] == ["9"] * 4


def test_usage_error_then_a_valid_call(capsys):
    bad = ["gen", "modified", "--k", "0", "--count", "3"]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
        assert run_cli(capsys, ["gen", "modified", "--k", "2", "--count", "4"]) == (
            0, "2,2,6,14\n", "")
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: kfiblike gen [-h]")
    assert errors[0].endswith("kfiblike gen: error: --k must be >= 1, got 0\n")


_HELP_ARGVS = [["--help"]] + [[name, "--help"] for name in
                              ("gen", "transform", "gf", "binet", "audit", "bench")]


def _help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_help_is_the_same_on_the_first_and_a_later_call(capsys):
    cli.build_parser.cache_clear()
    first = [_help(capsys, argv) for argv in _HELP_ARGVS]
    run_cli(capsys, ["bench", "--k", "2", "--n", "5", "--n", "7"])
    run_cli(capsys, ["transform", "falling", "--k", "3", "--count", "4", "--format", "csv"])
    with pytest.raises(SystemExit):
        cli.main(["gf", "binomial"])
    capsys.readouterr()
    assert [_help(capsys, argv) for argv in _HELP_ARGVS] == first
    assert first[0].startswith("usage: kfiblike [-h]")
    for argv, text in zip(_HELP_ARGVS[1:], first[1:]):
        assert text.startswith(f"usage: kfiblike {argv[0]} [-h]")


def test_main_builds_the_parser_tree_once(capsys, calls):
    inits = calls(argparse.ArgumentParser, "__init__")
    for argv in (["gen", "modified", "--k", "2", "--count", "4"],
                 ["transform", "binomial", "--k", "2", "--count", "3"],
                 ["gf", "rising", "--symbolic"],
                 ["binet", "binomial", "--k", "2", "--n", "5", "--exact"],
                 ["gen", "kfib", "--k", "1", "--count", "5"]):
        run_cli(capsys, argv)
    with pytest.raises(SystemExit):
        cli.main(["gen", "modified", "--k", "0", "--count", "3"])
    # one tree in the first call, or none if an earlier call built it
    tree = ["kfiblike"] + [f"kfiblike {argv[0]}" for argv in _HELP_ARGVS[1:]]
    assert [parser.prog for parser, *_ in inits] in ([], tree)
