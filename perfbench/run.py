#!/usr/bin/env python3
"""kfiblike benchmark runner.

    python3 perfbench/run.py --workload audit|bigterm|stream|symbolic \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every workload, both passes
    python3 perfbench/run.py --self-test

Run from a source checkout: the library is imported from ``src/``; nothing is
installed or built.  Each pass over the request list runs in a fresh
interpreter (``worker.py``), one at a time, so module caches start cold in
every pass, as for a command-line user.  A run makes a fixed number of passes
per workload (``PASSES_PER_30_S``, scaled by ``--seconds``).

``--trace 0`` reports the end-to-end metrics of untraced passes, each request
timed by its median pass in reference seconds: its time scaled by speed probes
taken right around it (``speed.py``), which takes out the shared host's
drifts in speed.  ``--trace 1`` alternates untraced and traced
passes (half as many of each) and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  Every request is checked against an
independent route outside its timed region; a failed request makes the run
exit 1.  The last line of stdout is the result as one JSON object; the full
run record (environment, request list, per-pass figures and, when traced, the
spans) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import factors, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Untraced passes in a --trace 0 run of --seconds 30, fixed per workload, so
# that every commit's latencies are the median of the same number of passes
# and a faster commit does not get more of them.  Set so that a 30-second run
# lasts about 30 s at the commit that introduced the benchmark, on a 2-vCPU
# host; --seconds scales them.
PASSES_PER_30_S = {"audit": 12, "bigterm": 9, "stream": 11, "symbolic": 12}
MIN_PASSES = 3
SETUP_PROBES = 1       # fresh interpreters timed up to `import kfiblike`, per round
MIN_SETUP_PROBES = 11  # topped up at the end of the run if fewer rounds ran
RUN_LIMIT_S = 170.0    # a run must end within 180 s whatever --seconds says
WORKLOAD_NAMES = ("audit", "bigterm", "stream", "symbolic")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ref_wall_s", "s"),
    ("ref_req_p50_ms", "ms"),
    ("ref_req_tail_ms", "ms"),
    ("ref_digits_per_s", "chars/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)

CLAIM_IDS = tuple(f"C{i:02d}" for i in range(1, 27))
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((f"audit.claim.{c}_s", "s") for c in CLAIM_IDS),
    ("audit.symbolic_leg_s", "s"),
    ("audit.render_s", "s"),
    ("audit.verdict.pass", "count"),
    ("audit.verdict.fail", "count"),
    ("audit.verdict.info", "count"),
    ("closedform.binet_closed_s", "s"),
    ("sequences.term_fast_s", "s"),
    ("sequences.terms_s", "s"),
    ("transforms.transform_direct_s", "s"),
    ("genfunc.gf_expand_s", "s"),
    ("ring.elem_str_s", "s"),
    ("ring.elem_str_chars", "count"),
    ("ring.kpoly_max_degree", "count"),
    ("cli.main_s", "s"),
    ("cli.bytes_out", "count"),
    ("trace.overhead_ratio", "ratio"),
)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _commit() -> str:
    """HEAD of the checkout's git metadata, read directly; 'unknown' without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kfiblike").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        # CPython 3.11's str(int) is quadratic and 3.12's is not, so stream and
        # bigterm figures do not carry across Python versions.
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256_16": _source_digest(),
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(probes: int) -> List[float]:
    """Reference seconds from starting an interpreter to `import kfiblike` done,
    scaled by speed probes taken in this process right before and after."""
    code = "import kfiblike, time; print(repr(time.monotonic()))"
    out = []
    for _ in range(probes):
        before = probe()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=60, check=True)
        seconds = float(proc.stdout.strip().splitlines()[-1]) - t0
        out.append(seconds * factors(before, probe())[0])
    return out


def run_worker(requests: List[dict], traced: bool, timeout: float,
               reference: Optional[dict] = None) -> dict:
    """One pass in a fresh interpreter; a crashed pass fails all its requests."""
    job = json.dumps({"requests": requests, "traced": traced, "reference": reference})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job,
                              capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                              timeout=max(timeout, 1.0))
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        error = f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {timeout:.0f} s"
    return {"crashed": True, "wall_s": None,
            "requests": [{"id": r["id"], "s": None, "chars": 0, "error": error}
                         for r in requests]}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 of ``count`` requests beyond it.

    Fixed by the request list, so the same percentile is compared across
    commits.  Under 11 requests: the max.
    """
    if count <= 10:
        return 100
    return math.floor(100 * (count - 10) / count)


def nearest_rank(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def request_latencies(passes: List[dict], key: str = "ref_s"
                      ) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Each request's median successful latency over the passes, and its output size.

    ``ref_s`` is the latency scaled to the speed probe's reference speed
    (``worker.SpeedClock``), which takes out the host's drifts in speed;
    the median over passes then takes out what bursts remain.
    """
    seen: Dict[int, List[float]] = {}
    chars: Dict[int, int] = {}
    for p in passes:
        for r in p["requests"]:
            if r["error"] is None:
                seen.setdefault(r["id"], []).append(r[key])
                chars[r["id"]] = r["chars"]
    return {rid: statistics.median(v) for rid, v in seen.items()}, chars


def end_to_end(passes: List[dict], setup: List[float], count: int, ok_frac: float) -> dict:
    latency, chars = request_latencies(passes)
    complete = len(latency) == count
    latencies = [s * 1e3 for s in latency.values()]
    wall = sum(latency.values()) if complete else None
    values = {
        "setup_s": _median(setup),
        "ref_wall_s": wall,
        "ref_req_p50_ms": nearest_rank(latencies, 50) if complete else None,
        "ref_req_tail_ms": nearest_rank(latencies, tail_percentile(count)) if complete else None,
        "ref_digits_per_s": sum(chars.values()) / wall if wall else None,
        "peak_rss_mb": _median(p.get("peak_rss_mb") for p in passes),
        "ok_frac": ok_frac,
    }
    return values


def _claims_total(p: dict) -> float:
    return sum(s for name, s in p["layers"].items() if name.startswith("audit.claim."))


def per_layer(untraced: List[dict], traced: List[dict], nosym: List[dict]) -> dict:
    """Layer times in reference seconds, each the median over the traced passes.

    ``nosym`` are traced passes of the audit with the symbolic leg off, each in
    its own fresh interpreter like the ``traced`` ones, so both legs start with
    cold module caches.
    """
    good = [p for p in traced if not p.get("crashed")]

    values: Dict[str, Optional[float]] = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] = _median(p["layers"].get(name[:-2], 0.0) for p in good)
        elif unit == "count":
            values[name] = _median(p["counters"].get(name, 0) for p in good)
    on = _median(_claims_total(p) for p in good)
    off = _median(_claims_total(p) for p in nosym if not p.get("crashed"))
    if not nosym:  # a workload without audit requests
        off = on
    values["audit.symbolic_leg_s"] = on - off if on is not None and off is not None else None
    base, with_trace = (sum(request_latencies(ps)[0].values()) for ps in (untraced, traced))
    values["trace.overhead_ratio"] = with_trace / base if base and with_trace else None
    return values


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _checked_digests(result: dict, reference: dict) -> dict:
    """Digests of requests this pass checked against the independent route."""
    return {str(r["id"]): r["digest"] for r in result["requests"]
            if r["error"] is None and "digest" in r and str(r["id"]) not in reference}


def rounds_for(workload: str, seconds: float, trace: int, small: bool) -> int:
    """Rounds of passes in a run: a fixed count, not a time budget."""
    if small:
        return 1
    passes = max(MIN_PASSES, round(PASSES_PER_30_S[workload] * seconds / 30))
    return max(1, passes // 2) if trace else passes


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 small: bool = False) -> dict:
    from workloads import WORKLOADS

    started = time.monotonic()
    requests = WORKLOADS[workload].requests(seed, small)
    # the audit's symbolic leg is timed as the difference to these requests
    nosym = [dict(r, symbolic=False) for r in requests if r["op"] == "audit"] if trace else []
    setup = measure_setup(SETUP_PROBES)
    rounds = rounds_for(workload, seconds, trace, small)
    untraced: List[dict] = []
    traced: List[dict] = []
    nosym_passes: List[dict] = []
    round_s: List[float] = []
    reference: dict = {}  # CLI output digests already checked against the independent route

    def left() -> float:
        return started + RUN_LIMIT_S - time.monotonic()

    while len(round_s) < rounds:
        if round_s and 2 * max(round_s) > left():
            break  # a much slower commit still ends in time, with fewer passes
        t = time.monotonic()
        untraced.append(run_worker(requests, False, left(), reference))
        reference.update(_checked_digests(untraced[-1], reference))
        if trace:
            traced.append(run_worker(requests, True, left(), reference))
        if nosym:
            nosym_passes.append(run_worker(nosym, True, left()))
        round_s.append(time.monotonic() - t)
        # probes between rounds sample the machine over the whole run
        setup += measure_setup(SETUP_PROBES)
    setup += measure_setup(MIN_SETUP_PROBES - len(setup))
    passes = untraced + traced + nosym_passes
    attempted = sum(len(p["requests"]) for p in passes)
    failures = [(r["id"], r["error"]) for p in passes for r in p["requests"]
                if r["error"] is not None]
    notes = {"tail_percentile": tail_percentile(len(requests)), "requests": len(requests),
             "untraced_passes": len(untraced), "traced_passes": len(traced),
             "symbolic_off_passes": len(nosym_passes), "rounds_planned": rounds,
             "attempted": attempted, "failed": len(failures),
             "failed_frac": len(failures) / attempted, "setup_probes": len(setup),
             "raw_wall_s": sum(request_latencies(untraced, "s")[0].values())}
    record = run_record(workload, seed, int(seconds), trace)
    record.update({"why": WORKLOADS[workload].why, "requests": requests,
                   "setup_probes_s": setup, "notes": notes})
    record["passes"] = [{k: v for k, v in p.items() if k != "spans"} for p in passes]
    if trace:
        metrics = per_layer(untraced, traced, nosym_passes)
        record["spans"] = [p.get("spans", []) for p in traced + nosym_passes]
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "request_id"]
    else:
        metrics = end_to_end(untraced, setup, len(requests), 1 - len(failures) / attempted)
    record["metrics"] = metrics
    return {"metrics": metrics, "notes": notes, "record": record, "failures": failures}


def _units(trace: int) -> Dict[str, str]:
    return dict(PER_LAYER if trace else END_TO_END)


def report(result: dict, trace: int, record_path: Optional[Path]) -> dict:
    notes, units = result["notes"], _units(trace)
    rec = result["record"]
    print(f"workload {rec['workload']} seed {rec['seed']} trace {trace}: "
          f"python {rec['python']}, nproc {rec['nproc']}, commit {rec['commit'][:12]}, "
          f"src {rec['source_sha256_16']}")
    print(f"passes {notes['untraced_passes']} untraced + {notes['traced_passes']} traced + "
          f"{notes['symbolic_off_passes']} traced with the audit's symbolic leg off "
          f"({notes['rounds_planned']} rounds planned), requests attempted "
          f"{notes['attempted']}, failed {notes['failed']} (failed_frac {notes['failed_frac']:.4g})")
    print(f"each request's latency is its median over {notes['untraced_passes']} untraced "
          f"passes, in reference seconds; unscaled, the request list took "
          f"{notes['raw_wall_s']:.6g} s; ref_req_tail_ms is p{notes['tail_percentile']} over the "
          f"{notes['requests']} latencies; setup_s is the median of "
          f"{notes['setup_probes']} probes")
    for rid, error in result["failures"][:10]:
        print(f"FAILED request {rid}: {error}")
    for name, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    if record_path is not None:
        print(f"run record: {record_path.relative_to(ROOT)}")
    missing = [name for name, value in result["metrics"].items() if value is None]
    correct = notes["failed"] == 0 and not missing
    return {
        "correct": correct,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items() if value is not None},
    }


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def self_test() -> int:
    from workloads import WORKLOADS

    problems: List[str] = []
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            res = run_workload(name, seed=1, seconds=0, trace=trace, small=True)
            if res["failures"]:
                problems.append(f"smoke {name} trace {trace}: {res['failures'][:3]}")
            missing = [m for m, v in res["metrics"].items() if v is None]
            if missing:
                problems.append(f"smoke {name} trace {trace}: no value for {missing}")
        # a deliberately corrupted expected value must trip the gate
        requests = workload.requests(1, True)
        requests[0]["corrupt"] = True
        out = run_worker(requests, False, 120)
        errors = [r["error"] for r in out["requests"]]
        if errors[0] is None or any(errors[1:]):
            problems.append(f"gate {name}: corrupted expected value gave {errors}")
        # so must a later pass whose output differs from the checked first pass
        reference = _checked_digests(run_worker(workload.requests(1, True), False, 120), {})
        if reference:
            rid = min(reference, key=int)
            reference[rid] = reference[rid][:1] + [reference[rid][1] ^ 1] + reference[rid][2:]
            out = run_worker(workload.requests(1, True), False, 120, reference)
            errors = {str(r["id"]): r["error"] for r in out["requests"]}
            if errors.pop(rid) is None or any(errors.values()):
                problems.append(f"gate {name}: a changed output digest was not caught")
        print(f"self-test {name}: smoke and gate checked")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for key, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"]) for m in spec[key]]
            if listed != list(declared):
                problems.append(f"BENCHMARK.json {key} differs from run.py")
        if [(w["name"], w["why"]) for w in spec["workloads"]] != \
                [(name, w.why) for name, w in WORKLOADS.items()]:
            problems.append("BENCHMARK.json workloads or their reasons differ from workloads.py")
    if WORKLOAD_NAMES != tuple(WORKLOADS):
        problems.append("run.py WORKLOAD_NAMES differ from workloads.py")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="smoke-run every workload and check the correctness gate trips")
    args = parser.parse_args(argv)
    if not (SRC / "kfiblike" / "__init__.py").is_file():
        print(f"error: no kfiblike sources under {SRC}; run from a kfiblike checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOAD_NAMES for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    correct = True
    for workload, trace in runs:
        result = run_workload(workload, args.seed, args.seconds, trace)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{workload}-seed{args.seed}-trace{trace}.json"
        path.write_text(json.dumps(result["record"], indent=1) + "\n")
        line = report(result, trace, path)
        print(json.dumps(line))
        correct = correct and line["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
