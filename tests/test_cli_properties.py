"""Properties of the CLI's printed output against the int routes of the library."""

import io
import json
from contextlib import redirect_stdout

import pytest
from interpreter import str_guard

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from kfiblike import cli  # noqa: E402
from kfiblike.genfunc import derived_gf, gf_expand  # noqa: E402
from kfiblike.sequences import k_fib, modified_k_fib, terms  # noqa: E402
from kfiblike.transforms import TransformKind, transform_recurrence  # noqa: E402

KINDS = [kind.value for kind in TransformKind]


def expected_text(values, fmt):
    """The stdout of a stream, written from ``str()`` of its int terms."""
    text = [str(v) for v in values]
    if fmt == "plain":
        return ",".join(text) + "\n"
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(text))
    if fmt == "json-lines":
        return "".join(json.dumps({"index": n, "value": v}) + "\n" for n, v in enumerate(text))
    assert fmt == "bfile"
    return "".join(f"{n} {v}\n" for n, v in enumerate(text))


def stream(seq, k):
    """The recurrence a ``gen`` or ``transform`` stream prints, and its argv head."""
    if seq in ("modified", "kfib"):
        return (modified_k_fib(k) if seq == "modified" else k_fib(k)), ["gen", seq]
    return transform_recurrence(TransformKind(seq), k), ["transform", seq]


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(seq=st.sampled_from(["modified", "kfib", *KINDS]), k=st.integers(1, 60),
       count=st.integers(0, 400), fmt=st.sampled_from(cli.FORMATS))
@example(seq="kfib", k=1, count=1, fmt="plain")
def test_streams_print_the_int_terms(seq, k, count, fmt):
    rec, argv = stream(seq, k)
    out = run_cli([*argv, "--k", str(k), "--count", str(count), "--format", fmt])
    # the kfib family's zero term must read "0", as str(0) does, never "-0"
    assert out == expected_text(terms(rec, count), fmt)


STREAM_CASES = [
    *[(seq, k, 40) for seq in ("modified", "kfib", *KINDS) for k in (1, 3, 10)],
    ("rising", 10, 2200),  # terms past 4300 digits: elem_str's Decimal conversion
]


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("seq, k, count", STREAM_CASES)
def test_every_format_matches_its_str_and_json_reference(seq, k, count, fmt):
    rec, argv = stream(seq, k)
    out = run_cli([*argv, "--k", str(k), "--count", str(count), "--format", fmt])
    values = terms(rec, count)
    with str_guard(0):  # the reference's own str() of a long term
        assert out == expected_text(values, fmt)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), k=st.integers(1, 60), count=st.integers(0, 400))
@example(kind="binomial", k=3, count=60)
@example(kind="kbinomial", k=3, count=60)
@example(kind="rising", k=3, count=60)
@example(kind="falling", k=3, count=60)
def test_gf_count_prints_the_int_expansion(kind, k, count):
    argv = [kind, "--k", str(k), "--count", str(count)]
    out = run_cli(["gf", *argv])
    series = gf_expand(derived_gf(TransformKind(kind), k), count)
    # the Decimal GF expansion prints the Decimal recurrence stream byte for byte
    assert out.split("\n", 1)[1] == expected_text(series, "plain") == run_cli(["transform", *argv])


# below CPython's default 4300-digit limit on str(int)
@given(x=st.integers() | st.integers(-10**4000, 10**4000))
def test_digit_count_matches_str(x):
    assert cli._digit_count(x) == len(str(x))
