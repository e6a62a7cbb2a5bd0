"""One benchmark pass in a fresh interpreter.

Reads ``{"requests": [...], "traced": bool, "reference": {...}}`` as JSON on
stdin, runs every request, then checks every result against an independent
route, and prints one JSON object on stdout.  The parent (``run.py``) starts
one worker per pass, so module caches start cold in every pass, as they do
for a command-line user.

Phase 1 runs the requests.  Right after each request's timed region its
outputs are reduced to a compact summary (report texts, SHA-256 digests of
values, or for a CLI run its exit code, stdout CRC-32 and length, and
stderr) and dropped, so neither peak memory nor later requests carry the
results of earlier ones.  Peak memory is read at the end of phase 1.  Phase 2
checks each summary against an independent route.  Once one pass has checked
a CLI request, the parent hands its summary to later passes as
``reference``, and they check that their output is byte-identical to it
instead of recomputing the independent route, whose decimal formatting would
cost as much as the request.

A traced pass records spans around the benchmark's own calls into each
library module (``ring``, ``sequences``, ``transforms``, ``closedform``,
``genfunc``, ``audit``, ``cli``); nothing inside the library is traced.  For
``audit`` both passes run the real ``run_audit`` with ``claim_registry``
swapped for one whose checkers are wrapped: in spans when traced, and in
both passes with a speed probe before each checker.

Every request is timed as raw seconds and as reference seconds: each timed
segment scaled by the speed probes on either side of it (``speed.py``).  The
audit's single long request is split into one segment per claim, so drifts
in the host's speed inside it are caught as well.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import io
import json
import os
import resource
import sys
import time
import zlib
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from itertools import chain
from typing import Dict, Iterable, List, Optional

import kfiblike.audit
from kfiblike import (
    K,
    KPoly,
    binet_closed,
    derived_gf,
    gf_expand,
    gf_from_rec,
    k_fib,
    modified_k_fib,
    run_audit,
    term_fast,
    terms,
    transform_direct,
    transform_recurrence,
)
from kfiblike import cli
from kfiblike.genfunc import gf_str
from kfiblike.ring import elem_str
from kfiblike.transforms import KIND_ORDER
from speed import SpeedClock, blend, factors

# The library's elem_str is plain str(), which CPython 3.11+ refuses beyond
# 4300 digits unless the limit is lifted; every bigterm value is longer.
# cli.main lifts it itself; the benchmark does the same for its direct calls.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

KIND = {kind.value: kind for kind in KIND_ORDER}
EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


class Tracer:
    """Spans (name, start, end, parent, request id) kept in memory for one pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, rid: int):
        return _Span(self, name, rid)


class _Span:
    __slots__ = ("tracer", "name", "rid", "index")

    def __init__(self, tracer, name, rid):
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter() - tr.t0, None, parent, self.rid])
        tr._stack.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter() - tr.t0
        tr._stack.pop()


class NullTracer:
    """The untraced pass: the same call shape, no recording."""

    _none = nullcontext()

    def span(self, name: str, rid: int):
        return self._none


@contextmanager
def claim_segments(tr, clock: SpeedClock, rid: int):
    """Swap the audit's claim registry for one whose checkers each start a new
    clock segment and, when traced, run in a span; ``run_audit`` is unchanged."""
    registry = kfiblike.audit.claim_registry

    def wrapped(claim):
        def checker(cfg):
            clock.split()
            with tr.span(f"audit.claim.{claim.id}", rid):
                return claim.checker(cfg)
        return dataclasses.replace(claim, checker=checker)

    kfiblike.audit.claim_registry = lambda: [wrapped(c) for c in registry()]
    try:
        yield
    finally:
        kfiblike.audit.claim_registry = registry


class CountingSink:
    """Discarding stdout for cli.main: counts characters and keeps a CRC-32."""

    def __init__(self):
        self.chars = 0
        self.crc = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        self.crc = zlib.crc32(text.encode(), self.crc)
        return len(text)

    def flush(self) -> None:
        pass


def digest(values: Iterable) -> str:
    """SHA-256 over a sequence of ints and KPolys, each coefficient length-prefixed."""
    h = hashlib.sha256()
    for v in values:
        coeffs = v.coeffs if isinstance(v, KPoly) else (v,)
        h.update(len(coeffs).to_bytes(8, "little"))
        for c in coeffs:
            b = c.to_bytes(c.bit_length() // 8 + 1, "little", signed=True)
            h.update(len(b).to_bytes(8, "little") + b)
    return h.hexdigest()


def _keep(req, outputs):
    """Outputs that are compact already, kept as they are."""
    return outputs


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _read_expected(name: str) -> str:
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def run_audit_request(req, tr, clock, counters):
    rid = req["id"]
    with claim_segments(tr, clock, rid):
        report = run_audit(n_max=req["n_max"], symbolic=req.get("symbolic", True))
    with tr.span("audit.render", rid):
        text, jsonl = report.to_text(), report.to_jsonl()
    for verdict, count in report.counts.items():
        key = {"PASS": "pass", "FAIL": "fail", "INFO-DISCREPANCY": "info"}[verdict]
        counters[f"audit.verdict.{key}"] = counters.get(f"audit.verdict.{key}", 0) + count
    return len(text) + len(jsonl), (text, jsonl)


def check_audit(req, kept, tr) -> Optional[str]:
    text, jsonl = kept
    golden_text = _read_expected("audit_default.txt")
    golden_jsonl = _read_expected("audit_default.jsonl")
    if req.get("corrupt"):
        golden_jsonl = golden_jsonl.replace("INFO-DISCREPANCY", "PASS", 1)
    # jsonl records carry no config, so every n_max, with the symbolic leg on or
    # off, must give the default's records: the same verdict for every claim and
    # the same minimal counterexamples.  The text differs only in its header.
    if jsonl != golden_jsonl:
        return "jsonl report differs from the pinned default report"
    if req["n_max"] == 64 and req.get("symbolic", True):
        if text != golden_text:
            return "text report differs from the pinned default report"
    elif text.splitlines()[2:] != golden_text.splitlines()[2:]:
        return "text report body differs from the pinned default report"
    return None


# ---------------------------------------------------------------------------
# bigterm
# ---------------------------------------------------------------------------

def run_binet_request(req, tr, clock, counters):
    rid = req["id"]
    rec = transform_recurrence(KIND[req["kind"]], req["k"])
    with tr.span("closedform.binet_closed", rid):
        value = binet_closed(rec, req["n"])
    with tr.span("ring.elem_str", rid):
        text = elem_str(value)
    counters["ring.elem_str_chars"] = counters.get("ring.elem_str_chars", 0) + len(text)
    return len(text), (value, text)


def summarise_binet(req, outputs):
    value, text = outputs
    return digest([value]), hashlib.sha256(text.encode()).hexdigest()


def check_binet(req, summary, tr) -> Optional[str]:
    value_digest, text_digest = summary
    rec = transform_recurrence(KIND[req["kind"]], req["k"])
    with tr.span("sequences.term_fast", req["id"]):
        expected = term_fast(rec, req["n"])
    if req.get("corrupt"):
        expected += 1
    if value_digest != digest([expected]):
        return "binet_closed differs from term_fast"
    if text_digest != hashlib.sha256(str(expected).encode()).hexdigest():
        return "decimal text differs from str() of the term_fast value"
    return None


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def run_cli_request(req, tr, clock, counters):
    sink, err = CountingSink(), io.StringIO()
    with redirect_stdout(sink), redirect_stderr(err):
        with tr.span("cli.main", req["id"]):
            try:
                code = cli.main(req["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    counters["cli.bytes_out"] = counters.get("cli.bytes_out", 0) + sink.chars
    return sink.chars, [code, sink.crc, sink.chars, err.getvalue()]


def _format_lines(values, fmt: str):
    if fmt == "plain":
        yield ",".join(str(v) for v in values) + "\n"
    elif fmt == "csv":
        yield "n,value\n"
        for n, v in enumerate(values):
            yield f"{n},{v}\n"
    elif fmt == "json-lines":
        for n, v in enumerate(values):
            yield json.dumps({"index": n, "value": str(v)}) + "\n"
    elif fmt == "bfile":
        for n, v in enumerate(values):
            yield f"{n} {v}\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _stream_expected(req, tr):
    """Independent values for the request, and the stdout text they must give."""
    variant, count, rid = req["variant"], req["count"], req["id"]
    if variant.startswith("gen"):
        rec = modified_k_fib(req["k"]) if req["seq"] == "modified" else k_fib(req["k"])
    else:
        rec = transform_recurrence(KIND[req["seq"]], req["k"])
    head: List[str] = []
    if variant in ("gen", "transform"):
        # iteration is checked against the generating-function expansion
        with tr.span("genfunc.gf_expand", rid):
            values = gf_expand(gf_from_rec(rec), count)
    else:
        # the fast path, the direct sum and the GF against plain iteration
        with tr.span("sequences.terms", rid):
            values = terms(rec, count)
        if variant == "gf":
            head = [gf_str(derived_gf(KIND[req["seq"]], req["k"])) + "\n"]
    return values, head


def check_cli(req, summary, tr) -> Optional[str]:
    code, crc, chars, err = summary
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    values, head = _stream_expected(req, tr)
    if req.get("corrupt"):
        values = list(values)
        values[-1] += 1
    want = CountingSink()
    for line in chain(head, _format_lines(values, req["format"])):
        want.write(line)
    if (crc, chars) != (want.crc, want.chars):
        return "stdout differs from the independently computed values"
    if req["variant"] == "transform-verify":
        want_err = f"verify: direct sum and closed recurrence agree on {req['count']} terms\n"
        if err != want_err:
            return f"unexpected stderr {err[:200]!r}"
    return None


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

def run_symbolic_request(req, tr, clock, counters):
    rid, kind, n = req["id"], KIND[req["kind"]], req["n"]
    rec = transform_recurrence(kind, K)
    with tr.span("sequences.terms", rid):
        prefix = terms(rec, n + 1)
    with tr.span("genfunc.gf_expand", rid):
        series = gf_expand(derived_gf(kind, K), n + 1)
    with tr.span("closedform.binet_closed", rid):
        binet = binet_closed(rec, n)
    with tr.span("sequences.term_fast", rid):
        fast = term_fast(rec, n)
    with tr.span("transforms.transform_direct", rid):
        direct = transform_direct(kind, K, n)
    with tr.span("ring.elem_str", rid):
        text = elem_str(prefix[n])
    counters["ring.elem_str_chars"] = counters.get("ring.elem_str_chars", 0) + len(text)
    counters["ring.kpoly_max_degree"] = max(counters.get("ring.kpoly_max_degree", 0),
                                            prefix[n].degree)
    return len(text), (prefix, series, binet, fast, direct)


def summarise_symbolic(req, outputs):
    prefix, series, binet, fast, direct = outputs
    return {"terms": digest(prefix), "gf_expand": digest(series),
            "term_n": digest([prefix[-1]]), "binet_closed": digest([binet]),
            "term_fast": digest([fast]), "transform_direct": digest([direct]),
            "at_k_eval": prefix[-1].evaluate(req["k_eval"])}


def check_symbolic(req, summary, tr) -> Optional[str]:
    n, k_eval = req["n"], req["k_eval"]
    if summary["terms"] != summary["gf_expand"]:
        return "terms and gf_expand prefixes differ"
    for name in ("binet_closed", "term_fast", "transform_direct"):
        if summary[name] != summary["term_n"]:
            return f"{name} differs from terms at n={n}"
    numeric = terms(transform_recurrence(KIND[req["kind"]], k_eval), n + 1)[n]
    if req.get("corrupt"):
        numeric += 1
    if summary["at_k_eval"] != numeric:
        return f"polynomial at k={k_eval} differs from the numeric recurrence"
    return None


# op: (run, timed; summarise, untimed, right after; check, in phase 2)
HANDLERS = {
    "audit": (run_audit_request, _keep, check_audit),
    "binet": (run_binet_request, summarise_binet, check_binet),
    "cli": (run_cli_request, _keep, check_cli),
    "symbolic": (run_symbolic_request, summarise_symbolic, check_symbolic),
}


def layer_times(spans: List[list], samples: List[tuple], shares: Dict[int, float]
                ) -> Dict[str, float]:
    """Self time per span name, in reference seconds: duration minus the time
    covered by its children, scaled by the probes on either side of the span
    with the request's ``digits_share``."""
    times = [t for t, _ in samples]

    def scale(start: float, end: float, rid: int) -> float:
        before = samples[max(0, bisect.bisect_right(times, start) - 1)][1]
        after = samples[min(len(samples) - 1, bisect.bisect_left(times, end))][1]
        return blend(1.0, *factors(before, after), shares.get(rid, 0.0))

    child = [0.0] * len(spans)
    for name, start, end, parent, rid in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, parent, rid) in enumerate(spans):
        self_s = (end - start) - child[i]
        out[name] = out.get(name, 0.0) + self_s * scale(start, end, rid)
    return out


def run_pass(requests: List[dict], traced: bool, reference: Dict[str, list]) -> dict:
    tr = Tracer() if traced else NullTracer()
    clock = SpeedClock()
    counters: Dict[str, int] = {}
    results, summaries = [], {}
    for req in requests:
        run, summarise, _ = HANDLERS[req["op"]]
        clock.start()
        try:
            with tr.span("bench.request", req["id"]):
                chars, outputs = run(req, tr, clock, counters)
            clock.stop()
            summaries[req["id"]] = summarise(req, outputs)
            del outputs
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            clock.stop()
            chars, error = 0, f"{type(exc).__name__}: {exc}"
        results.append({"id": req["id"], "s": clock.raw,
                        "ref_s": clock.reference(req.get("digits_share", 0.0)),
                        "ref_loop_s": clock.ref_loop, "ref_digits_s": clock.ref_digits,
                        "chars": chars, "error": error})
        if req["op"] == "cli" and error is None:
            results[-1]["digest"] = summaries[req["id"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for req, res in zip(requests, results):
        if res["error"] is not None:
            continue
        _, _, check = HANDLERS[req["op"]]
        ref = reference.get(str(req["id"]))
        if ref is not None:
            if res["digest"] != ref:
                res["error"] = "output differs from an earlier pass's checked output"
            continue
        if traced:  # the check routes' spans are scaled by probes around them
            clock.start()
        try:
            res["error"] = check(req, summaries.pop(req["id"]), tr)
        except Exception as exc:
            res["error"] = f"check raised {type(exc).__name__}: {exc}"
        if traced:
            clock.stop()
    out = {"wall_s": sum(r["s"] for r in results),
           "ref_wall_s": sum(r["ref_s"] for r in results),
           "peak_rss_mb": peak_rss_mb, "requests": results, "counters": counters}
    if traced:
        samples = [(t - tr.t0, p) for t, p in clock.samples]
        shares = {req["id"]: req.get("digits_share", 0.0) for req in requests}
        out["layers"] = layer_times(tr.spans, samples, shares)
        out["spans"] = tr.spans
        out["probes"] = samples
    return out


def main() -> int:
    job = json.load(sys.stdin)
    out = run_pass(job["requests"], job["traced"], job.get("reference") or {})
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
