import argparse
import decimal
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from interpreter import needs_str_guard, python_command, run_python, str_guard

from kfiblike import _text, cli
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


def test_usage_error_exit_code():
    # the one child for a usage error: USAGE_ERRORS runs in process
    proc = run_python("-m", "kfiblike", "gen", "nosuchfamily", "--k", "1", "--count", "1")
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("usage: kfiblike gen [-h]")
    # only the prefix: 3.12 and 3.13 patch releases quote the choices differently
    assert err.splitlines()[-1].startswith(
        "kfiblike gen: error: argument family: invalid choice:")


_AUDIT_CEILING = "ring operations is past the audit ceiling of 6.00e+7"

#: argv: the whole message of its usage error
USAGE_ERRORS = {
    ("gen", "modified", "--k", "0", "--count", "3"): "--k must be >= 1, got 0",
    ("transform", "binomial", "--k", "2", "--count", "-1"): "--count must be >= 0, got -1",
    ("gf", "binomial"): "gf needs either --k or --symbolic",
    ("gf", "binomial", "--k", "2", "--symbolic"): "choose either --k or --symbolic, not both",
    ("binet", "binomial", "--k", "2", "--n", "-1", "--exact"): "--n must be >= 0, got -1",
    ("audit", "--k-min", "5", "--k-max", "2"): "need 1 <= k_min <= k_max",
    ("bench", "--k", "2", "--n", "-5"): "--n must be >= 0, got -5",
    ("audit", "--n-max", "1"): "need n_max >= 2",
    ("audit", "--n-max", "100000000000"): f"estimated work of 2.01e+39 {_AUDIT_CEILING}",
    ("audit", "--k-max", "1000000000"): f"estimated work of 2.72e+13 {_AUDIT_CEILING}",
    ("audit", "--n-max", "2", "--k-max", "2500000"):
        f"estimated work of 3.26e+9 {_AUDIT_CEILING}",
    ("audit", "--k-min", "1" + "0" * 800, "--k-max", "1" + "0" * 800, "--n-max", "256"):
        f"estimated work of 5.45e+8 {_AUDIT_CEILING}",
    ("gf", "binomial", "--k", "2", "--count", "-3"): "--count must be >= 0, got -3",
    ("binet", "rising", "--k", "2", "--n", "2000"):
        "x(2000) is beyond the double-precision range (max 1.798e+308); "
        "use --exact for the exact value",
    ("bench", "--k", "2", "--n", "300", "--direct-cap", "-3"):
        "--direct-cap must be >= 0, got -3",
    # a long n is named by its length, and too wide for a float
    ("binet", "binomial", "--k", "2", "--n", "1" + "0" * 400, "--exact"):
        "x(<401-digit n>) has about inf digits, beyond the 1e+07-digit ceiling of --exact",
}


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_range_errors_name_the_subcommand(capsys, argv):
    # as argparse's own errors do: "usage: kfiblike gen ..." / "kfiblike gen: error:";
    # the messages are those at CPython's default guard, which reads an 801-digit --k-min
    with str_guard(4300), pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: kfiblike {argv[0]} [-h]")
    assert captured.err.endswith(f"\nkfiblike {argv[0]}: error: {USAGE_ERRORS[argv]}\n")
    assert max(len(line) for line in captured.err.splitlines()) < 200


# the modified sequence at k = 3, and its rising transform
_M3 = ("2,2,8,26,86,284,938,3098,10232,33794,111614,368636,1217522,4021202,13281128,"
       "43864586,144874886,478489244,1580342618,5219517098\n")
_RISING3 = "2,8,86,938,10232,111614,1217522,13281128\n"
# the rising transform at k = 10**50 to 140 terms, and the modified sequence at
# k = 10**100 to 60: (sha256, length) of either route's stdout
_RISING_WIDE = ("fca0dbae8f3738bed7654ac8e39b7a9b856581254889e1f96586ed54343a8e76", 966330)
_M_WIDE = ("18b1de89948fc8b9a190cf5b65ab3df4614e66c926c86db2a8438d875fff67a8", 171220)

#: name: (argv, exit code, whole stdout, whole stderr); bench's seconds read <seconds>,
#: and a long stdout is its (sha256 hex digest, length)
OUTPUTS = {
    "gen_modified_plain": ("gen modified --k 2 --count 4", 0, "2,2,6,14\n", ""),
    "gen_bfile_format": ("gen modified --k 1 --count 2 --format bfile", 0, "0 2\n1 2\n", ""),
    "gen_kfib": ("gen kfib --k 1 --count 5", 0, "0,1,1,2,3\n", ""),
    "bfile_round_trip": ("gen modified --k 2 --count 8 --format bfile", 0,
                         "0 2\n1 2\n2 6\n3 14\n4 34\n5 82\n6 198\n7 478\n", ""),
    "gen_fast_identical_output-plain": ("gen modified --k 3 --count 20", 0, _M3, ""),
    "gen_fast_identical_output-fast": ("gen modified --k 3 --count 20 --fast", 0, _M3, ""),
    "transform_tables-falling": ("transform falling --k 4 --count 6", 0,
                                 "2,10,58,386,2834,22042\n", ""),
    "transform_tables-binomial": ("transform binomial --k 5 --count 6", 0,
                                  "2,4,18,106,652,4034\n", ""),
    "transform_methods_agree-direct": (
        "transform rising --k 3 --count 8 --method direct", 0, _RISING3, ""),
    "transform_methods_agree-recurrence": (
        "transform rising --k 3 --count 8 --method recurrence", 0, _RISING3, ""),
    "transform_verify": ("transform kbinomial --k 2 --count 3 --verify", 0, "2,8,48\n",
                         "verify: direct sum and closed recurrence agree on 3 terms\n"),
    "csv_and_jsonl_round_trip-csv": ("transform binomial --k 2 --count 4 --format csv", 0,
                                     "n,value\n0,2\n1,4\n2,12\n3,40\n", ""),
    "csv_and_jsonl_round_trip-jsonl": (
        "transform binomial --k 2 --count 4 --format json-lines", 0,
        '{"index": 0, "value": "2"}\n{"index": 1, "value": "4"}\n'
        '{"index": 2, "value": "12"}\n{"index": 3, "value": "40"}\n', ""),
    "gf_symbolic_rendering": ("gf rising --symbolic", 0,
                              "(2 - (2k^2-2k+2)x) / (1 - (k^2+2)x + x^2)\n", ""),
    "gf_numeric_with_expansion": ("gf binomial --k 2 --count 6", 0,
                                  "(2 - 4x) / (1 - 4x + 2x^2)\n2,4,12,40,136,464\n", ""),
    "binet_exact-5": ("binet binomial --k 2 --n 5 --exact", 0, "464\n", ""),
    "binet_exact-10": ("binet binomial --k 2 --n 10 --exact", 0, "215232\n", ""),
    "bench_small": ("bench --k 2 --n 200 --n 400", 0, """\
benchmark: binomial transform, k=2
         n  strategy            seconds    digits  equal
       200  iterative      <seconds>       107  ref
       200  lucas-doubling <seconds>       107  yes
       200  decimal        <seconds>       107  yes
       200  direct-sum     <seconds>       107  yes
       400  iterative      <seconds>       214  ref
       400  lucas-doubling <seconds>       214  yes
       400  decimal        <seconds>       214  yes
       400  direct-sum     <seconds>       214  yes
values agree across all strategies that ran
""", ""),
    "bench_direct_cap": ("bench --k 2 --n 300 --direct-cap 100", 0, """\
benchmark: binomial transform, k=2
         n  strategy            seconds    digits  equal
       300  iterative      <seconds>       160  ref
       300  lucas-doubling <seconds>       160  yes
       300  decimal        <seconds>       160  yes
       300  direct-sum     skipped (n > direct cap 100)
values agree across all strategies that ran
""", ""),
    # each symbolic series to degree 240, where the prefix kernel runs long rows
    "gf_symbolic_long-binomial": ("gf binomial --symbolic --count 241", 0, (
        "84f6789f2d4a9155e3b41da088b67bf3f8ee1397c0f12717413bfc6137022e22", 1622955), ""),
    "gf_symbolic_long-kbinomial": ("gf kbinomial --symbolic --count 241", 0, (
        "1264d3b406acf1167a727ce517099ed1468df7c419bd6d576c9de7a765af2a81", 1643038), ""),
    "gf_symbolic_long-rising": ("gf rising --symbolic --count 241", 0, (
        "78956d0108ffbdb614f9fb11df3fa69678dbdbe4ca52733d63fc4f68a9e386c3", 3069767), ""),
    "gf_symbolic_long-falling": ("gf falling --symbolic --count 241", 0, (
        "8d30ed714d5bbd25805cfd24ff1fd4308ce72d6a7b6daed1e6e99eec34135133", 1659012), ""),
    # values past the 4300-digit str(int) guard, through each route that prints them:
    # elem_str at one split (4419 digits), a padded top split (8034 and 14317) and 60257
    "binet_exact_wide-rising-2200": ("binet rising --k 10 --n 2200 --exact", 0, (
        "b1746d1a48568b16e25b76b3182296fca37fafaa76a9109913673976790f5fa8", 4420), ""),
    "binet_exact_wide-rising-4000": ("binet rising --k 10 --n 4000 --exact", 0, (
        "5de2a7431561b8631faf100d9aa2d4645ab04289386b1aa90bf92ff8bb8c5680", 8035), ""),
    "binet_exact_wide-kbinomial-7000": ("binet kbinomial --k 10 --n 7000 --exact", 0, (
        "4f9ba2d7049d4fca76598e09a3ca19e4c630f3e886f13b7f57702fac73b3df10", 14318), ""),
    "binet_exact_wide-rising-30000": ("binet rising --k 10 --n 30000 --exact", 0, (
        "47c8fe176bae14b6dc859dcb84d249e69f82a13dc25e3c10762e03c6ceaacc4e", 60258), ""),
    # terms up to 13851 digits: elem_str of each direct sum, and the Decimal stream
    "transform_wide-direct": (f"transform rising --k {10**50} --count 140 --method direct",
                              0, _RISING_WIDE, ""),
    "transform_wide-recurrence": (f"transform rising --k {10**50} --count 140", 0,
                                  _RISING_WIDE, ""),
    "gen_wide-plain": (f"gen modified --k {10**100} --count 60", 0, _M_WIDE, ""),
    "gen_wide-fast": (f"gen modified --k {10**100} --count 60 --fast", 0, _M_WIDE, ""),
    "gf_wide": (f"gf rising --k {10**50} --count 80", 0, (
        "427becf6914af787344616c04349841a10acadd154f7e29b212b8afefbc5e2c0", 312436), ""),
}

# the audit's report at each of test_audit_table.REPORT_RANGES, as flags, and at
# --n-max 256: flags: (text, jsonl).  The jsonl carries no config, so every n_max
# over the default k range gives the default records
_JSONL_DEFAULT = ("219d6364043e76c085229749f3ee158f6a0786b3ba6e36ca2b1f8ed27f8911d3", 6622)
_AUDIT_BYTES = {
    "": (("58f5df7d6d298c30d995f6dc785883a553abff9612540f0badd69298b404e7eb", 5180),
         _JSONL_DEFAULT),
    "--n-max 2": (("1ad261f867b85fa39f6e2767db2247474aca6a942efe29b871454137f4547dd0", 5178),
                  _JSONL_DEFAULT),
    "--n-max 5": (("ae52f67f4a0cbce4ed075991f156b06a338efa3d7f9ad1a17706bdd12fbea585", 5178),
                  _JSONL_DEFAULT),
    "--n-max 128": (("f181d49122d079b92cb6954ef12deab41f0cf4c82b548dd6d9c9d101d32c2073", 5181),
                    _JSONL_DEFAULT),
    "--k-min 6 --k-max 10": (
        ("f5feeb940a849fd883bab542e01162343566c49f96d88f16abef5b89a6a4f44c", 5305),
        ("65123dac2815ec4b1af787b7c0bd1095c3d2dadd7547bb7d9a08a5ee1fbd7870", 6633)),
    "--no-symbolic": (("279aee727c6430c04d5879abaf145d1bc5f2acdba2ffd01cff80729363f3d92e", 5171),
                      _JSONL_DEFAULT),
    "--k-min 3 --k-max 3 --n-max 2": (
        ("6d5e9b8f6399c19b5570ca3c0272541790a2fe07ffd1df52e5806c6f0a04ff3c", 5179),
        ("9603d5697e8484a47cc1c9fefcb3f1de9f6c4565b8620b6949196253004cdb03", 6624)),
    "--k-min 2 --k-max 4 --n-max 20": (
        ("fbe61c0b819632a24fb9622d5261671d3163f4b065edcd5408c6803c80d0c0e6", 5179),
        ("fecaa20c75df6b1535184d727a7955155c7376974b8adc406d98178dbc4a568e", 6622)),
    "--k-min 1 --k-max 1 --n-max 3": (
        ("063f398699cbd005a2f7d6d424e545efe296c84138ea410ca1a535015779a19a", 5214),
        ("c89483e037ae8cd310cf58cab2791c9ac6c7689ced79d833a230c6b64e9ba71d", 6657)),
    "--n-max 256": (("c9a13c033f6ef29d88330f6daa979d21f766013e89ba1584746c98575d789b27", 5181),
                    _JSONL_DEFAULT),
}
OUTPUTS.update({
    f"audit_{fmt}-{flags.replace('--', '').replace(' ', '-') or 'default'}":
        (f"audit {flags} {extra}", 0, out, "")
    for flags, pins in _AUDIT_BYTES.items()
    for fmt, extra, out in zip(("text", "jsonl"), ("", "--format jsonl"), pins)})


def _without_timings(out):
    # the seconds column is the only one that differs between runs; a skipped row has none
    return re.sub(r"(?m)^(.{27}) *\d+\.\d{6}", r"\1<seconds>", out)


@pytest.mark.parametrize("name", OUTPUTS)
def test_outputs_are_pinned_whole(capsys, monkeypatch, name):
    argv, code, out, err = OUTPUTS[name]
    # the audit text's width and color come from the environment
    monkeypatch.delenv("KFIBLIKE_WIDTH", raising=False)
    monkeypatch.delenv("KFIBLIKE_COLOR", raising=False)
    got_code, got_out, got_err = run_cli(capsys, argv.split())
    if isinstance(out, tuple):
        got_out = (hashlib.sha256(got_out.encode()).hexdigest(), len(got_out))
    else:
        got_out = _without_timings(got_out)
    assert (got_code, got_out, got_err) == (code, out, err)


def test_transform_verify(capsys):
    # each difference table (the rising one over k^i M(i)) against its recurrence,
    # far past the audit's n = 65; the audit takes its k-binomial sums from the
    # binomial table, so this is the only end-to-end run of iter_direct(kbinomial) at int k
    for kind in TransformKind:
        code, _, err = run_cli(
            capsys, ["transform", kind.value, "--k", "7", "--count", "300", "--verify"])
        assert code == 0
        assert err == "verify: direct sum and closed recurrence agree on 300 terms\n"


def test_transform_verify_reports_mismatch_as_failure(capsys, monkeypatch):
    """A direct sum one off at n = 4 is named with both values, on stderr
    alone, and the run exits 1."""
    real = cli.iter_direct

    def one_off(kind, k):
        return (v + (n == 4) for n, v in enumerate(real(kind, k)))

    monkeypatch.setattr(cli, "iter_direct", one_off)
    code, out, err = run_cli(
        capsys, ["transform", "falling", "--k", "3", "--count", "9", "--verify"])
    r = terms(transform_recurrence(TransformKind.FALLING_K, 3), 5)[4]
    assert (code, out) == (1, "")
    assert err == f"verify: MISMATCH at n=4: direct {r + 1}, recurrence {r}\n"


@pytest.mark.parametrize("kind", list(TransformKind))
def test_gf_symbolic_with_expansion(capsys, kind):
    gf = derived_gf(kind, K)
    expected = gf_str(gf) + "\n" + ",".join(elem_str(c) for c in gf_expand(gf, 4)) + "\n"
    code, out, _ = run_cli(capsys, ["gf", kind.value, "--symbolic", "--count", "4"])
    assert code == 0
    assert out == expected


def test_gf_requires_k_or_symbolic():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gf", "binomial"])
    assert exc.value.code == 2


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


def test_binet_float(capsys):
    code, out, _ = run_cli(capsys, ["binet", "rising", "--k", "2", "--n", "5"])
    assert code == 0
    assert abs(float(out) - 6726) / 6726 <= 1e-9


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


def test_interrupt_exits_130_without_a_traceback(capsys, monkeypatch):
    def interrupted_main(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "main", interrupted_main)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == cli.EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


def test_value_error_inside_a_claim_exits_3(capsys, monkeypatch):
    """Only the range check is a usage error: a ValueError raised inside a
    claim is a fault, reported as one line with exit 3."""
    def broken(rec):
        raise ValueError("no float here")

    monkeypatch.setattr("kfiblike.audit._float_form", broken)
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
    narrow = _text._EXACT_CONTEXT.copy()
    narrow.prec = 50
    monkeypatch.setattr(_text, "_EXACT_CONTEXT", narrow)
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


def test_long_transform_stream_matches_int_route(capsys):
    rec = transform_recurrence(TransformKind.FALLING_K, 3)
    with str_guard(0):  # the reference's own str() of a long term
        expected = ",".join(str(v) for v in terms(rec, 5000)) + "\n"
    assert run_cli(capsys, ["transform", "falling", "--k", "3", "--count", "5000"]) == \
        (0, expected, "")


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


def test_default_jsonl_audit_matches_expected_bytes(capsys):
    # the text report's bytes are acceptance criterion 9
    code, out, _ = run_cli(capsys, ["audit", "--format", "jsonl"])
    assert code == 0
    expected = REPO_ROOT / "perfbench" / "expected" / "audit_default.jsonl"
    assert out.encode() == expected.read_bytes()


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

def test_repeated_append_option_does_not_pile_up(capsys):
    argv = ["bench", "--k", "2", "--n", "5", "--n", "7"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert len(first.splitlines()) == 2 + 2 * 4 + 1
    assert _without_timings(second) == _without_timings(first)
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
