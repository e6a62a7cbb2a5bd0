"""Executable audit of the published claims about the four transforms.

Every published statement in scope -- recurrences, lemma identities, Binet
formulas, generating functions, numeric tables, symbolic prefixes -- is a row
of one declaration table, ``_DECLARATIONS``, from which :func:`claim_registry`
builds each :class:`Claim` with a deterministic checker.  A family row states
one statement for each of the four transforms (C01-C04, C11-C14, C15-C18,
C19-C22); each other claim is a row of its own.  Claims come in two classes:

* identity claims (C01-C10, C19-C22, C26): two routes the mathematics says
  must agree are computed independently and compared.  A mismatch would mean
  this library is broken, so it is reported as ``FAIL``.
* published-subject claims (C11-C18, C23-C25): material transcribed verbatim
  from the published source is compared against ground truth.  A mismatch
  indicts the source, not the code, and is reported as ``INFO-DISCREPANCY``
  so it can never be confused with an implementation failure.

A claim whose checker finds no point of the configured ranges to check (C26
at ``k_min > FLOAT_K_CAP``) is reported as ``NOT-CHECKED``: counted apart
from ``PASS``, and not a failure.

Table fixtures are transcribed exactly as printed, including the k-binomial
lists that disagree with their own definition: an auditor must not silently
correct its subject.  Counterexamples follow a smallest-n-then-smallest-k
policy so reruns always produce the same minimal repro, and report output is
byte-identical for identical parameters.

Each :func:`run_audit` call builds one private run that holds the config and
the route values claims share.  Each is built once, in full, on first use, and
held per (kind, k) or per k as a plain list that reaches as far as any
claim reads it:

* the direct sums of each kind and k, from the difference table of
  :func:`~kfiblike.transforms.iter_direct`: n <= n_max + 1, since C05/C06
  read one term past the sweep, and at least the longest printed table,
  n <= 5, which C23/C24 read at each fixture's own k (only that far at a
  fixture's k outside the run's k range, where no sweep reads);
* M at each k, from :func:`~kfiblike.sequences.iter_terms`: M(0) .. M(2 n_max),
  since C07 reads M(2n), and at least M(0) .. M(5), which C25 reads at
  symbolic k; C05, C06, C09 and C10 read it too;
* the transform recurrences, and the prefixes of those and of F, n <= n_max;
* U(0) .. U(n_max) of each transform recurrence's Lucas sequence U(a, -b),
  from :func:`~kfiblike.sequences.lucas_sweep`, one doubling step per value
  from the pair at half its index: every Binet claim reads it.

At symbolic k, sym_n takes the place of n_max.  Each list is read from its
stream in one go, and the stream is dropped then, so no generator stays open
from one claim to the next.  The run also holds one Pascal row, C(n, 0) ..
C(n, n), which C05 and C06 read: a sweep reads it at n = 0, 1, 2, ..., and
each row is made from the one before, once per sweep and n, whatever the
number of k; the whole triangle is never held.

A claim's row is a plain function ``row(run, k)``, or ``row(kind, run, k)``
for a family row, whose kind the registry binds.  A sweep calls it once per
k.  It fetches the lists and the recurrence of that (kind, k) it needs,
expands the generating-function series it compares, computes C10's running
alternating sums of M, one subtraction per n, and returns the function of n
that the point loop reads: list indexing plus the compared computation
itself.  C05 and C06 take their right-hand sums from the run's M
and Pascal row, and their left sides from the direct sums, so the two sides
share no route.  C07 compares the rising direct sums with M at even indices,
and C08 the k-binomial direct sums with k^n times the binomial ones.  The
Binet claims evaluate one form, c1 U(n) + c2 U(n-1), at each n from the run's
U list, through ``closedform``'s one evaluator, with the printed coefficients
(C11-C14) or the exact ones and x0 at n = 0 (C19-C22, C26).  The values of
C11-C18 (the published Binet forms and generating functions), C19-C22 and
C26 (the exact Binet form) are not shared: each claim computes its own from
the shared lists, and C15-C18 expand their own series.  C15-C18 compare the
printed series with the recurrence prefix, so a fault in
:func:`~kfiblike.genfunc.gf_expand` shows.  A claim still compares two
independent routes; a value shared between claims means a broken route shows
in every claim that reads it.  Claims C01-C22 are each one sweep over the
run, from the n_start their row declares.  C23-C25 compare each printed list
(the table fixtures, the polynomials M(k, 2) .. M(k, 5)) with the run's values
through one helper that reports its first differing entry.  The run and its
lists end with :func:`run_audit`; the config and the report are plain values.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from enum import Enum
from functools import cache, partial
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .closedform import _exact_coefficients, _printed_coefficients, binet_float
from .genfunc import gf_expand, published_gf
from .ring import K, KPoly, RingElem, elem_str, times_k_power, zero_like
from .sequences import (
    Order2Rec,
    _halved_alternating_sums,
    _m_from_f_terms,
    iter_terms,
    k_fib,
    lucas_sweep,
    modified_k_fib,
    terms,
)
from .transforms import KIND_ORDER, TransformKind, iter_direct, transform_recurrence

SYMBOLIC_N_CAP = 16  # polynomial degree growth keeps symbolic sweeps desk-scale
FLOAT_K_CAP = 5      # documented validity range of the double-precision path
FLOAT_N_CAP = 40

# AuditConfig refuses a run whose work estimate, in ring operations on narrow
# terms (about 0.6-0.9 us each on CPython 3.11), is past this.  Per k it
# counts a fixed setup of 1000 and, at each of the n_max points, 150 for its
# Binet values and series reads, n_max for the lemma sums and
# difference tables, n_max^2 * W / 10^6 for those sums' products with C(n, i),
# and (W / 42)^1.585 for Karatsuba products of full-width terms.  W = n_max *
# log10(k_max^2 + 2) is about the digit count of the widest compared term,
# since the rising transform grows like (k^2 + 2)^n.  The constants were fitted
# to runs of at most 1/100 of the ceiling.  Runs just under it, without the
# symbolic leg, took 36-46 s: n_max = 1160 at k = 1..10 38 s, n_max = 3162 at
# k = 1 46 s, n_max = 2 at k = 1..46000 36 s (and 381 MB), n_max = 108 at
# k = 10^800 45 s.  Two terms are upper bounds now, kept so that the admitted
# and refused ranges stay the same: the 150 was fitted while each Binet value
# took log2 n Lucas doubling steps of its own claim (now one step per (kind,
# k) and n, in one U list that all Binet claims read), and n_max^2 * W / 10^6
# while C05/C06 took each C(n, i) by a big-int division (now one addition in
# a Pascal row built once per n, not per k).  The default range (1.5e5) takes
# about 30-50 ms in process.
AUDIT_WORK_CEILING = 6 * 10**7
_KARATSUBA = Decimal("1.585")  # log2(3)
_WORK_CONTEXT = Context(prec=8, Emax=MAX_EMAX, Emin=MIN_EMIN)

_KIND_NAMES = {
    TransformKind.BINOMIAL: "binomial",
    TransformKind.K_BINOMIAL: "k-binomial",
    TransformKind.RISING_K: "rising k-binomial",
    TransformKind.FALLING_K: "falling k-binomial",
}


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INFO_DISCREPANCY = "INFO-DISCREPANCY"
    NOT_CHECKED = "NOT-CHECKED"


class ClaimClass(Enum):
    IDENTITY = "identity"          # mismatch means an implementation failure
    PUBLISHED = "published-subject"  # mismatch indicts the published source


@dataclass(frozen=True)
class AuditConfig:
    k_min: int = 1
    k_max: int = 10
    n_max: int = 64
    symbolic: bool = True

    def __post_init__(self):
        for name in ("k_min", "k_max", "n_max"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if type(self.symbolic) is not bool:
            raise TypeError(f"symbolic must be a bool, got {type(self.symbolic).__name__}")
        if not (1 <= self.k_min <= self.k_max):
            raise ValueError("need 1 <= k_min <= k_max")
        if self.n_max < 2:
            raise ValueError("need n_max >= 2")
        work = _work_estimate(self.k_min, self.k_max, self.n_max)
        if work > AUDIT_WORK_CEILING:
            raise ValueError(
                f"estimated work of {work:.3g} ring operations is past "
                f"the audit ceiling of {Decimal(AUDIT_WORK_CEILING):.3g}")

    @property
    def ks(self) -> range:
        return range(self.k_min, self.k_max + 1)

    @property
    def sym_n(self) -> int:
        return min(self.n_max, SYMBOLIC_N_CAP)


def _work_estimate(k_min: int, k_max: int, n_max: int) -> Decimal:
    """Ring operations a run over k_min..k_max and n <= n_max takes; see
    ``AUDIT_WORK_CEILING``.  Decimal, so that a range too wide for a float
    still gets a number."""
    with localcontext(_WORK_CONTEXT):
        n = Decimal(n_max)
        width = n * Decimal(k_max * k_max + 2).log10()
        per_k = 1000 + n * (150 + n + n * n * width / 10**6 + (width / 42) ** _KARATSUBA)
        return (k_max - k_min + 1) * per_k


class _Run:
    """One audit run: its config and the route values the module docstring
    lists, each built once, in full, on first use, as far as any claim reads
    it; ``count(k)`` is :func:`_count` of its config.  The builders close over
    the config, not the run, so the run is no reference cycle and its lists
    go with it.  A function of this module patched in before
    :func:`run_audit` is the one the run calls.
    """

    def __init__(self, cfg: AuditConfig):
        self.cfg = cfg
        self.count = count = lambda k: _count(cfg, k)
        self.direct = cache(lambda kind, k: list(islice(
            iter_direct(kind, k), max(count(k) + 1, _TABLE_LEN))))
        self.m = cache(lambda k: list(islice(
            iter_terms(modified_k_fib(k)), max(2 * count(k) - 1, _M_POLYS_LEN))))
        self.recurrence = recurrence = cache(transform_recurrence)
        self.prefix = cache(lambda kind, k: terms(recurrence(kind, k), count(k)))
        self.u = cache(lambda kind, k: _lucas_list(recurrence(kind, k), count(k)))
        self.f = cache(lambda k: terms(k_fib(k), count(k)))
        self.pascal = _pascal_rows()


def _count(cfg: AuditConfig, k: RingElem) -> int:
    """How many terms, n = 0 .. n_max (or sym_n), a sweep at k compares: none
    at a k past the run's range, which only a table fixture reads."""
    if isinstance(k, KPoly):
        return cfg.sym_n + 1
    return cfg.n_max + 1 if k in cfg.ks else 0


def _lucas_list(rec: Order2Rec, count: int) -> List[RingElem]:
    """U(0) .. U(count - 1) of U(a, -b), the Lucas sequence of ``rec``'s Binet
    forms, one doubling step each."""
    return [u for u, _ in islice(lucas_sweep(rec.a, -rec.b), count)]


def _pascal_rows() -> Callable[[int], List[int]]:
    """``row(n)``: the Pascal row C(n, 0) .. C(n, n).  Only the last row read
    is held; a larger n is made from it, one :func:`_pascal_step` per row,
    and a smaller n starts again from row 0, so a sweep that reads n = 0, 1,
    2, ... builds each row once, whatever its number of k."""
    row: List[int] = []

    def at(n: int) -> List[int]:
        nonlocal row
        if n < len(row) - 1:
            row = []
        while len(row) <= n:
            row = _pascal_step(row)
        return row

    return at


def _pascal_step(row: List[int]) -> List[int]:
    """The Pascal row after ``row``, one addition per entry; [1] after []."""
    return [1, *map(operator.add, row, row[1:]), 1] if row else [1]


@dataclass(frozen=True)
class Counterexample:
    """A minimal repro: rerunning the claim at (k, n) reproduces the inequality."""

    k: object          # int, or the string "k" for a symbolic counterexample
    n: int
    expected: str
    got: str
    label: str = ""    # fixture label or other context, e.g. "W_2"

    def as_record(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "k": self.k,
            "n": self.n,
            "expected": self.expected,
            "got": self.got,
        }


@dataclass(frozen=True)
class TableFixture:
    """A printed sequence prefix, transcribed verbatim from the published lists."""

    label: str
    kind: TransformKind
    k: int
    values: Tuple[int, ...]
    citation: str
    oeis_note: str = ""


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    citation: str
    claim_class: ClaimClass
    # the counterexamples found, or None when the ranges hold no point to check
    checker: Callable[[_Run], Optional[List[Counterexample]]] = field(compare=False)


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    verdict: Verdict
    counterexamples: Tuple[Counterexample, ...]

    def as_record(self) -> Dict[str, object]:
        return {
            "id": self.claim.id,
            "verdict": self.verdict.value,
            "class": self.claim.claim_class.value,
            "description": self.claim.description,
            "citation": self.claim.citation,
            "counterexamples": [ce.as_record() for ce in self.counterexamples],
        }


@dataclass(frozen=True)
class AuditReport:
    config: AuditConfig
    results: Tuple[ClaimResult, ...]

    @property
    def counts(self) -> Dict[str, int]:
        """Claims per verdict; ``NOT-CHECKED`` appears only when some claim has it."""
        out = {v.value: 0 for v in (Verdict.PASS, Verdict.FAIL, Verdict.INFO_DISCREPANCY)}
        for r in self.results:
            out[r.verdict.value] = out.get(r.verdict.value, 0) + 1
        return out

    @property
    def has_implementation_failure(self) -> bool:
        return any(r.verdict is Verdict.FAIL for r in self.results)

    def result(self, claim_id: str) -> ClaimResult:
        for r in self.results:
            if r.claim.id == claim_id:
                return r
        raise KeyError(claim_id)

    def to_records(self) -> List[Dict[str, object]]:
        return [r.as_record() for r in self.results]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(rec) + "\n" for rec in self.to_records())

    def to_text(self, width: int = 80, color: bool = False) -> str:
        def paint(verdict: Verdict) -> str:
            text = verdict.value
            if not color:
                return text
            code = {"PASS": "32", "FAIL": "31", "INFO-DISCREPANCY": "33",
                    "NOT-CHECKED": "36"}[text]
            return f"\x1b[{code}m{text}\x1b[0m"

        bar = "=" * max(width, 20)
        cfg = self.config
        lines = [
            "claim audit: modified k-Fibonacci-like transforms",
            f"ranges: k in [{cfg.k_min}, {cfg.k_max}], n <= {cfg.n_max}, "
            f"symbolic: {'on (n <= %d)' % cfg.sym_n if cfg.symbolic else 'off'}",
            bar,
        ]
        for r in self.results:
            lines.append(f"{r.claim.id}  {paint(r.verdict):<18} {r.claim.description}")
            lines.append(f"      source: {r.claim.citation}")
            for ce in r.counterexamples:
                where = f"[{ce.label}] " if ce.label else ""
                lines.append(
                    f"      counterexample {where}k={ce.k}, n={ce.n}: "
                    f"expected {ce.expected}, got {ce.got}"
                )
        counts = self.counts
        lines.append(bar)
        not_checked = counts.get("NOT-CHECKED", 0)
        lines.append(
            f"{len(self.results)} claims: {counts['PASS']} PASS, "
            f"{counts['FAIL']} FAIL, {counts['INFO-DISCREPANCY']} INFO-DISCREPANCY"
            + (f", {not_checked} NOT-CHECKED" if not_checked else "")
        )
        lines.append(
            "note: INFO-DISCREPANCY means a published value disagrees with independent"
        )
        lines.append(
            "computation; it is a finding about the source, not an implementation failure."
        )
        lines.append(
            "for published tables 'expected' is the printed value and 'got' the computed"
        )
        lines.append(
            "one; for published formulas 'expected' is the computed truth and 'got' the"
        )
        lines.append("formula's output.")
        if not_checked:
            lines.append(
                "note: NOT-CHECKED means the ranges hold no point the claim can check;"
            )
            lines.append("it is neither a pass nor a failure.")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table fixtures, transcribed verbatim (including the inconsistent W lists)
# ---------------------------------------------------------------------------

_OEIS_B1 = "A052995-{0} or A055819-{1}"

#: One row per letter: (letter, kind, the list's name in its citation, the
#: printed lists at k = 1..5, OEIS notes by k).
_PRINTED_LISTS = (
    ("B", TransformKind.BINOMIAL, "binomial-transform", (
        (2, 4, 10, 26, 68, 178), (2, 4, 12, 40, 136, 464), (2, 4, 14, 58, 248, 1066),
        (2, 4, 16, 80, 416, 2176), (2, 4, 18, 106, 652, 4034)),
     {1: _OEIS_B1, 2: "A056236"}),
    ("W", TransformKind.K_BINOMIAL, "k-binomial-transform", (
        (2, 4, 10, 26, 68, 178), (2, 8, 96, 320, 1088, 3712), (2, 12, 378, 1566, 6696, 28782),
        (2, 16, 1024, 5120, 26624), (2, 20, 2250, 13250, 81500)),
     {1: _OEIS_B1}),
    ("R", TransformKind.RISING_K, "rising-transform", (
        (2, 4, 10, 26, 68, 178), (2, 6, 34, 198, 1154, 6726), (2, 8, 86, 938, 10232),
        (2, 10, 178, 3194, 57314), (2, 12, 322, 8682, 234092)),
     {1: _OEIS_B1}),
    ("F", TransformKind.FALLING_K, "falling-transform", (
        (2, 4, 10, 26, 68, 178), (2, 6, 22, 90, 386, 1686), (2, 8, 38, 206, 1208, 7370),
        (2, 10, 58, 386, 2834, 22042), (2, 12, 82, 642, 5612, 52722)),
     {1: _OEIS_B1}),
)

TABLE_FIXTURES: Tuple[TableFixture, ...] = tuple(
    TableFixture(f"{letter}_{k}", kind, k, values, f"published {name} list {letter}_{k}",
                 notes.get(k, ""))
    for letter, kind, name, lists, notes in _PRINTED_LISTS
    for k, values in enumerate(lists, start=1)
)

#: Printed closed forms of M(k, 2) .. M(k, 5), ascending coefficients.
PUBLISHED_M_POLYS: Dict[int, Tuple[int, ...]] = {
    2: (2, 2),
    3: (2, 2, 2),
    4: (2, 4, 2, 2),
    5: (2, 4, 6, 2, 2),
}

_TABLE_LEN = max(len(fx.values) for fx in TABLE_FIXTURES)  # C23/C24 read this far
_M_POLYS_LEN = max(PUBLISHED_M_POLYS) + 1                    # C25 reads this far


# ---------------------------------------------------------------------------
# checker helpers
# ---------------------------------------------------------------------------

#: ``row(run, k)`` is one claim at one k: a function of n giving (expected, got),
#: called at ascending n, once each.
_Row = Callable[[_Run, RingElem], Callable[[int], Tuple[RingElem, RingElem]]]


def _sweep(row: _Row, n_start: int = 0) -> Callable[[_Run], List[Counterexample]]:
    """A checker: the first (expected, got) disagreement, smallest n then smallest k.

    ``row(run, k)`` is built once per k, reading the route values it shares
    from the run, so each point costs only its own comparison.  A row is read
    at n = n_start, n_start + 1, ... in that order, once each, and all k at
    one n before the next n, so the difference lemmas read one Pascal row
    per n from the run, made from the row before.  The numeric sweep runs
    first, the symbolic leg afterwards (capped for polynomial-degree
    growth).
    """
    def checker(run: _Run) -> List[Counterexample]:
        cfg = run.cfg
        pairs = [(k, row(run, k)) for k in cfg.ks]
        for n in range(n_start, cfg.n_max + 1):
            for k, pair in pairs:
                expected, got = pair(n)
                if expected != got:
                    return [Counterexample(k=k, n=n,
                                           expected=elem_str(expected), got=elem_str(got))]
        if cfg.symbolic:
            pair = row(run, K)
            for n in range(n_start, cfg.sym_n + 1):
                expected, got = pair(n)
                if expected != got:
                    return [Counterexample(k="k", n=n, expected=elem_str(expected),
                                           got=elem_str(got), label="symbolic")]
        return []

    return checker


def _direct_vs_recurrence(kind: TransformKind, run: _Run, k: RingElem):
    direct, rec = run.direct(kind, k), run.prefix(kind, k)
    return lambda n: (direct[n], rec[n])


def _difference_lemma(kind: TransformKind, run: _Run, k: RingElem):
    """C05's or C06's pair: b(n+1) - b(n) or f(n+1) - k f(n) from the run's
    direct sums, and the sum of C(n,i) M(i+1), weighted by k^(n-i) through
    Horner's rule for C06, over the run's M and its Pascal row at n."""
    falling = kind is TransformKind.FALLING_K
    direct, ms, zero, pascal = run.direct(kind, k), run.m(k), zero_like(k), run.pascal
    mul = KPoly.scale if isinstance(k, KPoly) else operator.mul

    def pair(n: int):
        products = map(mul, ms[1:n + 2], pascal(n))
        if not falling:
            return direct[n + 1] - direct[n], sum(products, zero)
        acc = zero
        for term in products:
            acc = acc * k + term
        return direct[n + 1] - k * direct[n], acc

    return pair


def _rising_even_index(run: _Run, k: RingElem):
    """C07's pair: the rising direct sum at n and M(2n) from the run's M."""
    rising, ms = run.direct(TransformKind.RISING_K, k), run.m(k)
    return lambda n: (rising[n], ms[2 * n])


def _k_scaling(run: _Run, k: RingElem):
    """C08's pair: the k-binomial direct sum at n and k^n times the binomial one."""
    scaled, plain = run.direct(TransformKind.K_BINOMIAL, k), run.direct(TransformKind.BINOMIAL, k)
    return lambda n: (scaled[n], times_k_power(plain[n], k, n))


def _m_from_f(run: _Run, k: RingElem):
    ms, fs = run.m(k), run.f(k)
    return lambda n: (ms[n], _m_from_f_terms(fs, n))


def _f_from_m(run: _Run, k: RingElem):
    fs = run.f(k)
    halves = list(_halved_alternating_sums(run.m(k)[:run.count(k)]))
    return lambda n: (fs[n], halves[n])


def _binet_form(coefficients: Tuple[RingElem, RingElem], us: List[RingElem],
                x0: Optional[RingElem] = None) -> Callable[[int], Optional[RingElem]]:
    """c1 U(n) + c2 U(n - 1) as a function of n, from U(n - 1) and U(n) in
    ``us``, the list of :func:`_lucas_list`, and ``x0`` at n = 0: the exact
    form with :func:`~kfiblike.closedform._exact_coefficients` and its x0,
    the printed one (read from n = 1) with ``_printed_coefficients``."""
    c1, c2 = coefficients
    return lambda n: c1 * us[n] + c2 * us[n - 1] if n else x0


def _published_binet(kind: TransformKind, run: _Run, k: RingElem):
    direct = run.direct(kind, k)
    printed = _binet_form(_printed_coefficients(kind, k), run.u(kind, k))
    return lambda n: (direct[n], printed(n))


def _published_gf(kind: TransformKind, run: _Run, k: RingElem):
    derived = run.prefix(kind, k)
    printed = gf_expand(published_gf(kind, k), run.count(k))
    return lambda n: (derived[n], printed[n])


def _exact_binet(kind: TransformKind, run: _Run, k: RingElem):
    values, rec = run.prefix(kind, k), run.recurrence(kind, k)
    closed = _binet_form(_exact_coefficients(rec), run.u(kind, k), rec.x0)
    return lambda n: (values[n], closed(n))


def _first_mismatch(k: object, label: str,
                    rows: Iterable[Tuple[int, RingElem, RingElem]]) -> List[Counterexample]:
    """The first (n, printed, computed) of ``rows`` whose two values differ,
    as a list of one counterexample at k as shown; [] when none does."""
    for n, printed, computed in rows:
        if printed != computed:
            return [Counterexample(k=k, n=n, expected=elem_str(printed),
                                   got=elem_str(computed), label=label)]
    return []


def _check_fixtures(letters: str, run: _Run) -> List[Counterexample]:
    """C23's or C24's check: each printed list whose letter is in ``letters``
    against the run's direct sums, one counterexample per list at most."""
    ces: List[Counterexample] = []
    for fx in TABLE_FIXTURES:
        if fx.label[0] in letters:
            direct = run.direct(fx.kind, fx.k)
            ces += _first_mismatch(fx.k, fx.label,
                                   ((n, printed, direct[n]) for n, printed in enumerate(fx.values)))
    return ces


def _check_published_m_polys(run: _Run) -> List[Counterexample]:
    ms = run.m(K)
    return _first_mismatch("k", "", ((n, KPoly(coeffs), ms[n])
                                     for n, coeffs in sorted(PUBLISHED_M_POLYS.items())))


def _check_float_binet(run: _Run) -> Optional[List[Counterexample]]:
    cfg = run.cfg
    tol = 1e-9
    n_stop = min(cfg.n_max, FLOAT_N_CAP)
    ks = range(cfg.k_min, min(cfg.k_max, FLOAT_K_CAP) + 1)
    if not ks:
        return None
    recs = [(k, [(kind, run.recurrence(kind, k)) for kind in KIND_ORDER]) for k in ks]
    rows = [(k, [(kind, rec, _binet_form(_exact_coefficients(rec), run.u(kind, k), rec.x0))
                 for kind, rec in row])
            for k, row in recs]
    for n in range(n_stop + 1):
        for k, row in rows:
            for kind, rec, closed in row:
                exact = closed(n)
                approx = binet_float(rec, n)
                if abs(approx - float(exact)) / float(exact) > tol:
                    return [Counterexample(k=k, n=n, expected=str(exact),
                                           got=repr(approx), label=kind.value)]
    return []


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

#: Every claim, in id order.  A family row declares one claim per kind in
#: ``KIND_ORDER``, with ids from its first on: (first id, class, description
#: template over the kind's name, ``row(kind, run, k)``, n_start, the four
#: citations); the registry binds each kind with ``partial``.  A stand-alone
#: row declares one claim: (id, class, description, row, n_start, citation).
#: A row with n_start is checked by :func:`_sweep` from that n on; one without
#: is a checker of the whole run.
_DECLARATIONS = (
    (1, ClaimClass.IDENTITY, "{} transform: direct sum equals closed recurrence",
     _direct_vs_recurrence, 0, (
         "published recurrence b(n+1) = (k+2) b(n) - k b(n-1), b0 = 2, b1 = 4",
         "published recurrence w(n+1) = k(k+2) w(n) - k^3 w(n-1), w0 = 2, w1 = 4k",
         "published recurrence r(n+1) = (k^2+2) r(n) - r(n-1), r0 = 2, r1 = 2k+2",
         "published recurrence f(n+1) = 3k f(n) - (2k^2-1) f(n-1), f0 = 2, f1 = 2k+2")),
    (5, ClaimClass.IDENTITY, "difference lemma for the binomial transform",
     partial(_difference_lemma, TransformKind.BINOMIAL), 0,
     "b(n+1) - b(n) = sum_i C(n,i) M(i+1)"),
    (6, ClaimClass.IDENTITY, "difference lemma for the falling k-binomial transform",
     partial(_difference_lemma, TransformKind.FALLING_K), 0,
     "f(n+1) - k f(n) = sum_i C(n,i) k^(n-i) M(i+1)"),
    (7, ClaimClass.IDENTITY, "rising k-binomial transform walks the even-index subsequence",
     _rising_even_index, 0, "sum_i C(n,i) k^i M(i) = M(2n)"),
    (8, ClaimClass.IDENTITY, "k-binomial transform is the k^n-scaled binomial transform",
     _k_scaling, 0, "w(n) = k^n b(n)"),
    (9, ClaimClass.IDENTITY, "M recovered from consecutive k-Fibonacci numbers",
     _m_from_f, 1, "M(n) = 2 (F(n) + F(n-1)) for n >= 1"),
    (10, ClaimClass.IDENTITY, "k-Fibonacci recovered from the alternating sum of M",
     _f_from_m, 1, "F(n) = (1/2) sum_{i=0..n-1} (-1)^i M(n-i)"),
    (11, ClaimClass.PUBLISHED, "published Binet formula, {} transform, vs ground truth",
     _published_binet, 1, (
         "published Binet form b(n) = 4 U(n) - 2k U(n-1), roots of x^2-(k+2)x+k",
         "published Binet form w(n) = 4 U(n) - 2k U(n-1), roots of x^2-k(k+2)x+k^3",
         "published Binet form r(n) = (2k+2) U(n) - 2 U(n-1), roots of x^2-(k^2+2)x+1",
         "published Binet form f(n) = (2k+2) U(n) - 2 U(n-1), roots of x^2-3kx+(2k^2-1)")),
    (15, ClaimClass.PUBLISHED,
     "published generating function, {} transform, vs the recurrence-derived one",
     _published_gf, 0, (
         "published generating function 2(1-2kx) / (1-(k+2)x+kx^2)",
         "published generating function 2(1-k^2 x) / (1-k(k+2)x+k^3 x^2)",
         "published generating function (2-(2k^2-2k+2)x) / (1-(k^2+2)x+x^2)",
         "published generating function (2+(2-4k)x) / (1-3kx+(2k^2-1)x^2)")),
    (19, ClaimClass.IDENTITY, "exact Lucas-sequence Binet equals iteration, {} transform",
     _exact_binet, 0,
     ("x(n) = x1 U(n) - Q x0 U(n-1) over the family's characteristic roots",) * 4),
    (23, ClaimClass.PUBLISHED, "published tables for the binomial, rising and falling transforms",
     partial(_check_fixtures, "BRF"), None, "printed lists B_1..B_5, R_1..R_5, F_1..F_5"),
    (24, ClaimClass.PUBLISHED, "published tables for the k-binomial transform",
     partial(_check_fixtures, "W"), None, "printed lists W_1..W_5"),
    (25, ClaimClass.PUBLISHED, "published closed forms of M(k,2)..M(k,5) as polynomials in k",
     _check_published_m_polys, None,
     "printed polynomials 2k+2, 2k^2+2k+2, 2k^3+2k^2+4k+2, 2k^4+2k^3+6k^2+4k+2"),
    (26, ClaimClass.IDENTITY, "double-precision Binet within 1e-9 relative of exact values",
     _check_float_binet, None, f"root-formula evaluation, k <= {FLOAT_K_CAP}, n <= {FLOAT_N_CAP}"),
)


def claim_registry() -> List[Claim]:
    """The fixed list of 26 claims, ordered by id, built from ``_DECLARATIONS``."""
    claims: List[Claim] = []
    for first, claim_class, text, row, n_start, cited in _DECLARATIONS:
        if isinstance(cited, str):
            entries = [(text, row, cited)]
        else:
            entries = [(text.format(_KIND_NAMES[kind]), partial(row, kind), citation)
                       for kind, citation in zip(KIND_ORDER, cited, strict=True)]
        for i, (description, check, citation) in enumerate(entries):
            claims.append(Claim(f"C{first + i:02d}", description, citation, claim_class,
                                check if n_start is None else _sweep(check, n_start)))
    return claims


def run_audit(
    k_min: int = AuditConfig.k_min,
    k_max: int = AuditConfig.k_max,
    n_max: int = AuditConfig.n_max,
    symbolic: bool = AuditConfig.symbolic,
) -> AuditReport:
    """Evaluate every claim over its configured subranges; deterministic output."""
    cfg = AuditConfig(k_min=k_min, k_max=k_max, n_max=n_max, symbolic=symbolic)
    run = _Run(cfg)
    results: List[ClaimResult] = []
    for claim in claim_registry():
        ces = claim.checker(run)
        if ces is None:
            verdict, ces = Verdict.NOT_CHECKED, []
        elif not ces:
            verdict = Verdict.PASS
        elif claim.claim_class is ClaimClass.IDENTITY:
            verdict = Verdict.FAIL
        else:
            verdict = Verdict.INFO_DISCREPANCY
        results.append(ClaimResult(claim=claim, verdict=verdict,
                                   counterexamples=tuple(ces)))
    results.sort(key=lambda r: r.claim.id)
    return AuditReport(config=cfg, results=tuple(results))
