"""Request generators for the four benchmark workloads.

Each generator takes the workload seed and returns the request list for one
pass.  It uses its own ``random.Random``, so the same seed always gives the
same list, and the list is recorded in the run's results file.

The lists are stratified: every pass holds the same mix of request types and
size levels, and the seed draws the specifics inside each stratum (the k, the
sequence family or transform kind, the output format, a small size jitter and
the order).  Sizes are then scaled by each recurrence's digit growth, so a
request with a fast-growing k gets a smaller index or count.  Both keep the
total work of a pass close to the same from one seed to the next, which is
what lets wall time be compared across seeds.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, NamedTuple

from kfiblike import k_fib, modified_k_fib, transform_recurrence
from kfiblike.transforms import KIND_ORDER

KINDS = tuple(kind.value for kind in KIND_ORDER)
FAMILIES = ("modified", "kfib")
FORMATS = ("plain", "csv", "json-lines", "bfile")

# k is drawn per request from 1..10, from a band assigned by the stratum, so
# every size level sees small and large k alike.
K_LOW, K_HIGH = (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)
K_BANDS = ((1, 2), (3, 4, 5), (6, 7, 8), (9, 10))

# Only the default config: a larger n_max (the roadmap names 256, about 20 s)
# leaves too few passes in a run for the fastest one to be steady.
AUDIT_N_MAX = 64


def growth(rec) -> float:
    """Decimal digits gained per index: log10 of the dominant root of x^2 - a x - b."""
    a, b = rec.a, rec.b
    return math.log10((a + math.sqrt(a * a + 4 * b)) / 2)


def _kind_rec(kind: str, k: int):
    return transform_recurrence(dict(zip(KINDS, KIND_ORDER))[kind], k)


def _family_rec(family: str, k: int):
    return modified_k_fib(k) if family == "modified" else k_fib(k)


def _band_ks(rng: random.Random, count: int) -> List[int]:
    """``count`` k values, one from each of K_BANDS in turn, bands in random order."""
    bands = []
    while len(bands) < count:
        bands.extend(rng.sample(K_BANDS, len(K_BANDS)))
    return [rng.choice(band) for band in bands[:count]]


def _number(requests: List[dict]) -> List[dict]:
    for i, req in enumerate(requests):
        req["id"] = i
    return requests


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def audit_requests(seed: int, small: bool = False) -> List[dict]:
    """The default audit, as `kfiblike audit` runs it; the claim registry is fixed."""
    del seed  # the input is the fixed 26-claim registry
    return _number([{"op": "audit", "n_max": 8 if small else AUDIT_N_MAX}])


# ---------------------------------------------------------------------------
# bigterm
# ---------------------------------------------------------------------------

# The iterative exact Binet costs about n^2 * growth digit operations plus a
# fixed interpreter cost per index, worth about BIGTERM_STEP_WORK digits.  The
# top level takes n to about 3e4 at the slowest-growing k; each level below
# has a quarter of the work.  Every level holds each kind twice, once with a
# small k and once with a large one.
BIGTERM_TOP_WORK = 8e8
BIGTERM_STEP_WORK = 1.1e4
BIGTERM_LEVELS = 7


def _binet_index(work: float, g: float) -> int:
    """The n whose n^2 g + STEP n equals ``work``."""
    step = BIGTERM_STEP_WORK
    return max(2, round((math.sqrt(step * step + 4 * g * work) - step) / (2 * g)))


def bigterm_requests(seed: int, small: bool = False) -> List[dict]:
    rng = random.Random(f"bigterm:{seed}")
    top = 1e7 if small else BIGTERM_TOP_WORK
    levels = 2 if small else BIGTERM_LEVELS
    requests = []
    for level in range(levels):
        for kind in KINDS:
            for band in (K_LOW, K_HIGH):
                k = rng.choice(band)
                work = top / 4**level * rng.uniform(0.95, 1.05)
                n = _binet_index(work, growth(_kind_rec(kind, k)))
                requests.append({"op": "binet", "kind": kind, "k": k, "n": n})
    rng.shuffle(requests)
    return _number(requests)


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

class Variant(NamedTuple):
    name: str
    top_count: int   # count at the top level for a recurrence growing 1 digit/index
    exponent: float  # count scales as growth**-exponent


# Iteration and GF output cost is dominated by str(int), quadratic in digits,
# so work grows as count^3 * growth^2; the fast path's grows about as
# count^1.5 * growth^0.5; the direct sum costs count^2 interpreter steps
# whatever the k.  Each top-level request takes roughly 0.06 s on CPython 3.11.
STREAM_VARIANTS = (
    Variant("gen", 2050, 2 / 3),
    Variant("gen-fast", 490, 1 / 3),
    Variant("transform", 2050, 2 / 3),
    Variant("transform-direct", 140, 0.0),
    Variant("transform-verify", 140, 0.0),
    Variant("gf", 2050, 2 / 3),
)
STREAM_LEVELS = 5
STREAM_MIN_COUNT = 50
# The share of an iteration request (gen, transform, gf) to scale by the speed
# of decimal conversion rather than of the interpreter (``speed.py``): it grows
# with the count, as str() of ever longer values takes over from argparse and
# per-term formatting.  Fitted once on a shared 2-vCPU host, to the weight that
# best took the host's drifts out of these requests' times.
DIGITS_SHARE_MAX = 0.75
DIGITS_SHARE_FULL_COUNT = 1500


def digits_share(variant: str, count: int) -> float:
    if variant not in ("gen", "transform", "gf"):
        return 0.0
    return DIGITS_SHARE_MAX * min(1.0, count / DIGITS_SHARE_FULL_COUNT)


def _stream_argv(variant: str, seq: str, k: int, count: int, fmt: str) -> List[str]:
    cmd = variant.split("-")[0]
    argv = [cmd, seq, "--k", str(k), "--count", str(count)]
    if variant == "gen-fast":
        argv.append("--fast")
    elif variant == "transform-direct":
        argv += ["--method", "direct"]
    elif variant == "transform-verify":
        argv.append("--verify")
    if cmd != "gf":
        argv += ["--format", fmt]
    return argv


def stream_requests(seed: int, small: bool = False) -> List[dict]:
    rng = random.Random(f"stream:{seed}")
    levels = 2 if small else STREAM_LEVELS
    requests = []
    for variant in STREAM_VARIANTS:
        seqs = FAMILIES if variant.name.startswith("gen") else KINDS
        rec_of = _family_rec if variant.name.startswith("gen") else _kind_rec
        top = 60 if small else variant.top_count
        ratio = (top / STREAM_MIN_COUNT) ** (1 / (levels - 1)) if top > STREAM_MIN_COUNT else 1
        for level in range(levels):
            for seq, k in zip(seqs, _band_ks(rng, len(seqs))):
                base = top / ratio**level * rng.uniform(0.97, 1.03)
                count = max(2, round(base * growth(rec_of(seq, k)) ** -variant.exponent))
                fmt = rng.choice(FORMATS)
                requests.append({
                    "op": "cli", "variant": variant.name, "seq": seq, "k": k,
                    "count": count, "format": fmt if variant.name != "gf" else "plain",
                    "argv": _stream_argv(variant.name, seq, k, count, fmt),
                    "digits_share": digits_share(variant.name, count),
                })
    rng.shuffle(requests)
    return _number(requests)


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

# 30 .. 240: the grid keeps clear of powers of two, where term_fast's cost
# jumps (its square-and-multiply loop squares once past the top bit).
SYMBOLIC_NS = tuple(round(30 * 2 ** (j / 2)) for j in range(7))
# Time of a request relative to the binomial kind at the same n (CPython 3.11);
# a request costs about n^2.6 times this, so the costlier kinds get a smaller n
# and every size level holds four requests of about equal cost.
SYMBOLIC_KIND_COST = {"binomial": 1.0, "kbinomial": 3.8, "rising": 3.4, "falling": 1.6}


def symbolic_requests(seed: int, small: bool = False) -> List[dict]:
    rng = random.Random(f"symbolic:{seed}")
    ns = (8, 12) if small else SYMBOLIC_NS
    requests = []
    for base in ns:
        for kind in KINDS:
            scale = SYMBOLIC_KIND_COST[kind] ** (-1 / 2.6)
            n = max(2, round(base * scale * rng.uniform(0.98, 1.02)))
            requests.append({"op": "symbolic", "kind": kind, "n": n,
                             "k_eval": rng.randint(1, 10)})
    rng.shuffle(requests)
    return _number(requests)


class Workload(NamedTuple):
    why: str
    requests: Callable[[int, bool], List[dict]]


WORKLOADS: Dict[str, Workload] = {
    "audit": Workload(
        "the product's main command: many small-int ops through the ring wrappers "
        "and O(n^2) prefix re-evaluation, almost no big-int multiply or decimal work",
        audit_requests),
    "bigterm": Workload(
        "exact Binet terms up to n ~ 3e4: binet_closed is ~95% of the time today, "
        "decimal conversion of a few huge values is next",
        bigterm_requests),
    "stream": Workload(
        "CLI gen/transform/gf runs of 30..6k terms: str() of many mid-size values "
        "dominates big requests, argparse and per-term formatting small ones",
        stream_requests),
    "symbolic": Workload(
        "the audit's symbolic leg at n ~ 20..240 over KPoly: the pure-Python "
        "polynomial kernel that audit barely exercises",
        symbolic_requests),
}
