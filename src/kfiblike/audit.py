"""Executable audit of the published claims about the four transforms.

Every published statement in scope -- recurrences, lemma identities, Binet
formulas, generating functions, numeric tables, symbolic prefixes -- is
encoded as a :class:`Claim` with a deterministic checker.  Claims come in two
classes:

* identity claims (C01-C10, C19-C22, C26): two routes the mathematics says
  must agree are computed independently and compared.  A mismatch would mean
  this library is broken, so it is reported as ``FAIL``.
* published-subject claims (C11-C18, C23-C25): material transcribed verbatim
  from the published source is compared against ground truth.  A mismatch
  indicts the source, not the code, and is reported as ``INFO-DISCREPANCY``
  so it can never be confused with an implementation failure.

Table fixtures are transcribed exactly as printed, including the k-binomial
lists that disagree with their own definition: an auditor must not silently
correct its subject.  Counterexamples follow a smallest-n-then-smallest-k
policy so reruns always produce the same minimal repro, and report output is
byte-identical for identical parameters.

Each :func:`run_audit` call builds one private run that holds the config and
the route values claims share, each computed on first use and held per
(kind, k) or per k, prefixes as plain lists: the direct sums of each kind and k, as one
prefix that the difference table of :func:`~kfiblike.transforms.iter_direct`
extends as far as a claim reads; one prefix of M per k, extended to 2 n_max
for C07's M(2n) and read by C09 and C10 as well; the transform recurrences and
the prefixes of those recurrences and of F.  A sweep builds each claim's row
once per k from these: it fetches the lists, the recurrence, the published
Binet form of that (kind, k) or the generating-function series it needs, and
C10's running alternating sums of M, one subtraction per n.  The point loop
is then list indexing plus the compared computation itself, such as a lemma
right-hand side, a Lucas doubling pass of ``binet_closed`` or of the
published Binet form.  The ``binet_closed`` values of C19-C22 and C26, the
published Binet values and C25's symbolic terms of M are not shared: each
claim computes its own.  A claim still compares two independent routes; a
value shared between claims means a broken route shows in every claim that
reads it.  The run and its lists end with :func:`run_audit`; the config and
the report are plain values.  Claims C01-C22 are each one sweep over the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import islice
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .closedform import _published_binet_form, binet_closed, binet_float
from .genfunc import derived_gf, gf_expand, published_gf
from .ring import K, KPoly, RingElem, elem_str
from .sequences import (
    _halved_alternating_sums,
    _m_from_f_terms,
    iter_terms,
    k_fib,
    modified_k_fib,
    terms,
)
from .transforms import (
    KIND_ORDER,
    DirectRoute,
    TransformKind,
    binomial_diff_identity,
    falling_diff_identity,
    iter_direct,
    rising_even_index,
    transform_recurrence,
    w_scaling,
)

SYMBOLIC_N_CAP = 16  # polynomial degree growth keeps symbolic sweeps desk-scale
FLOAT_K_CAP = 5      # documented validity range of the double-precision path
FLOAT_N_CAP = 40

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
        if not (1 <= self.k_min <= self.k_max):
            raise ValueError("need 1 <= k_min <= k_max")
        if self.n_max < 2:
            raise ValueError("need n_max >= 2")

    @property
    def ks(self) -> range:
        return range(self.k_min, self.k_max + 1)

    @property
    def sym_n(self) -> int:
        return min(self.n_max, SYMBOLIC_N_CAP)


class _Run:
    """One audit run: its config and its route values, each computed on first use.

    Each value is held per (kind, k), per k or per recurrence, prefixes as
    plain lists, which a claim's row fetches once per k and then indexes at
    each n:

    * ``direct_terms(kind, k, count)``: the definitional sums, one list
      extended from that pair's :func:`~kfiblike.transforms.iter_direct`
      stream as far as a claim reads, which may pass n_max: C05/C06 read
      n_max + 1, the table fixtures n <= 5 at their own k;
    * ``m_terms(k, count)``: M, one list extended from
      :func:`~kfiblike.sequences.iter_terms` as far as a claim reads: C07
      reads M(2n), so 2 n_max;
    * ``recurrence(kind, k)``: the transform recurrences;
    * ``prefix(rec)``: the prefix of a recurrence (a transform's, or F's),
      keyed by the recurrence, so the four transforms share one at k = 1.

    Prefixes run to n_max, or to sym_n for symbolic k (``count(k)`` terms).
    A function of this module patched in before :func:`run_audit` is the one
    the run calls.
    """

    def __init__(self, cfg: AuditConfig):
        self.cfg = cfg
        self._direct = cache(lambda kind, k: ([], iter_direct(kind, k)))
        self._m = cache(lambda k: ([], iter_terms(modified_k_fib(k))))
        self.recurrence = cache(transform_recurrence)
        self.prefix = cache(lambda rec: terms(rec, self.count(rec.a)))

    def count(self, k: RingElem) -> int:
        """How many terms, n = 0 .. n_max (or sym_n), a sweep at k compares."""
        return (self.cfg.sym_n if isinstance(k, KPoly) else self.cfg.n_max) + 1

    def direct_terms(self, kind: TransformKind, k: RingElem, count: int) -> List[RingElem]:
        """At least the first ``count`` terms of the (kind, k) transform, by the definitional sum."""
        return _extend(self._direct(kind, k), count)

    def direct(self, kind: TransformKind, k: RingElem, n: int) -> RingElem:
        """Term n of the (kind, k) transform, by the definitional sum."""
        return self.direct_terms(kind, k, n + 1)[n]

    def m_terms(self, k: RingElem, count: int) -> List[RingElem]:
        """At least the first ``count`` terms of M at k."""
        return _extend(self._m(k), count)


def _extend(prefix: Tuple[List[RingElem], Iterator[RingElem]], count: int) -> List[RingElem]:
    """The list of a (list, stream) pair, first extended from the stream to ``count`` values."""
    values, stream = prefix
    if count > len(values):
        values.extend(islice(stream, count - len(values)))
    return values


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
    checker: Callable[[_Run], List[Counterexample]] = field(compare=False)


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
        out = {v.value: 0 for v in Verdict}
        for r in self.results:
            out[r.verdict.value] += 1
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
            code = {"PASS": "32", "FAIL": "31", "INFO-DISCREPANCY": "33"}[text]
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
        lines.append(
            f"{len(self.results)} claims: {counts['PASS']} PASS, "
            f"{counts['FAIL']} FAIL, {counts['INFO-DISCREPANCY']} INFO-DISCREPANCY"
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
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table fixtures, transcribed verbatim (including the inconsistent W lists)
# ---------------------------------------------------------------------------

_OEIS_B1 = "A052995-{0} or A055819-{1}"

TABLE_FIXTURES: Tuple[TableFixture, ...] = (
    TableFixture("B_1", TransformKind.BINOMIAL, 1, (2, 4, 10, 26, 68, 178),
                 "published binomial-transform list B_1", _OEIS_B1),
    TableFixture("B_2", TransformKind.BINOMIAL, 2, (2, 4, 12, 40, 136, 464),
                 "published binomial-transform list B_2", "A056236"),
    TableFixture("B_3", TransformKind.BINOMIAL, 3, (2, 4, 14, 58, 248, 1066),
                 "published binomial-transform list B_3"),
    TableFixture("B_4", TransformKind.BINOMIAL, 4, (2, 4, 16, 80, 416, 2176),
                 "published binomial-transform list B_4"),
    TableFixture("B_5", TransformKind.BINOMIAL, 5, (2, 4, 18, 106, 652, 4034),
                 "published binomial-transform list B_5"),
    TableFixture("W_1", TransformKind.K_BINOMIAL, 1, (2, 4, 10, 26, 68, 178),
                 "published k-binomial-transform list W_1", _OEIS_B1),
    TableFixture("W_2", TransformKind.K_BINOMIAL, 2, (2, 8, 96, 320, 1088, 3712),
                 "published k-binomial-transform list W_2"),
    TableFixture("W_3", TransformKind.K_BINOMIAL, 3, (2, 12, 378, 1566, 6696, 28782),
                 "published k-binomial-transform list W_3"),
    TableFixture("W_4", TransformKind.K_BINOMIAL, 4, (2, 16, 1024, 5120, 26624),
                 "published k-binomial-transform list W_4"),
    TableFixture("W_5", TransformKind.K_BINOMIAL, 5, (2, 20, 2250, 13250, 81500),
                 "published k-binomial-transform list W_5"),
    TableFixture("R_1", TransformKind.RISING_K, 1, (2, 4, 10, 26, 68, 178),
                 "published rising-transform list R_1", _OEIS_B1),
    TableFixture("R_2", TransformKind.RISING_K, 2, (2, 6, 34, 198, 1154, 6726),
                 "published rising-transform list R_2"),
    TableFixture("R_3", TransformKind.RISING_K, 3, (2, 8, 86, 938, 10232),
                 "published rising-transform list R_3"),
    TableFixture("R_4", TransformKind.RISING_K, 4, (2, 10, 178, 3194, 57314),
                 "published rising-transform list R_4"),
    TableFixture("R_5", TransformKind.RISING_K, 5, (2, 12, 322, 8682, 234092),
                 "published rising-transform list R_5"),
    TableFixture("F_1", TransformKind.FALLING_K, 1, (2, 4, 10, 26, 68, 178),
                 "published falling-transform list F_1", _OEIS_B1),
    TableFixture("F_2", TransformKind.FALLING_K, 2, (2, 6, 22, 90, 386, 1686),
                 "published falling-transform list F_2"),
    TableFixture("F_3", TransformKind.FALLING_K, 3, (2, 8, 38, 206, 1208, 7370),
                 "published falling-transform list F_3"),
    TableFixture("F_4", TransformKind.FALLING_K, 4, (2, 10, 58, 386, 2834, 22042),
                 "published falling-transform list F_4"),
    TableFixture("F_5", TransformKind.FALLING_K, 5, (2, 12, 82, 642, 5612, 52722),
                 "published falling-transform list F_5"),
)

#: Printed closed forms of M(k, 2) .. M(k, 5), ascending coefficients.
PUBLISHED_M_POLYS: Dict[int, Tuple[int, ...]] = {
    2: (2, 2),
    3: (2, 2, 2),
    4: (2, 4, 2, 2),
    5: (2, 4, 6, 2, 2),
}


# ---------------------------------------------------------------------------
# checker helpers
# ---------------------------------------------------------------------------

#: ``row(run, k)`` is one claim at one k: a function of n giving (expected, got).
_Row = Callable[[_Run, RingElem], Callable[[int], Tuple[RingElem, RingElem]]]


def _sweep(row: _Row, n_start: int = 0) -> Callable[[_Run], List[Counterexample]]:
    """A checker: the first (expected, got) disagreement, smallest n then smallest k.

    ``row(run, k)`` is built once per k, reading the route values it shares
    from the run, so each point costs only its own comparison; the numeric
    sweep runs first, the symbolic leg afterwards (capped for
    polynomial-degree growth).
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


def _direct_vs_recurrence(kind: TransformKind) -> _Row:
    def row(run: _Run, k: RingElem):
        direct = run.direct_terms(kind, k, run.count(k))
        rec = run.prefix(run.recurrence(kind, k))
        return lambda n: (direct[n], rec[n])

    return row


def _direct_route(run: _Run, k: RingElem, reads: Sequence[TransformKind],
                  count: int) -> DirectRoute:
    """A lemma's ``direct=`` route at k: the run's lists of the kinds it reads."""
    rows = {kind: run.direct_terms(kind, k, count) for kind in reads}
    return lambda kind, _k, n: rows[kind][n]


def _identity_pair(lemma: Callable[..., Tuple[RingElem, RingElem]],
                   *reads: TransformKind, ahead: int = 0) -> _Row:
    """A lemma pair whose transform terms, of the kinds it ``reads`` up to
    ``ahead`` past the sweep's last n, come from the run's direct sums."""
    def row(run: _Run, k: RingElem):
        direct = _direct_route(run, k, reads, run.count(k) + ahead)
        return lambda n: lemma(k, n, direct=direct)

    return row


def _rising_even_index(run: _Run, k: RingElem):
    """C07's pair: M(2n) read from the run's prefix of M, extended to 2 n_max."""
    count = run.count(k)
    direct = _direct_route(run, k, (TransformKind.RISING_K,), count)
    ms = run.m_terms(k, 2 * count - 1)

    def m(_k: RingElem, i: int) -> RingElem:
        return ms[i]

    return lambda n: rising_even_index(k, n, direct=direct, m=m)


def _m_from_f(run: _Run, k: RingElem):
    ms, fs = run.m_terms(k, run.count(k)), run.prefix(k_fib(k))
    return lambda n: (ms[n], _m_from_f_terms(fs, n))


def _f_from_m(run: _Run, k: RingElem):
    fs = run.prefix(k_fib(k))
    halves = list(_halved_alternating_sums(run.m_terms(k, run.count(k))))
    return lambda n: (fs[n], halves[n])


def _published_binet(kind: TransformKind) -> _Row:
    def row(run: _Run, k: RingElem):
        direct = run.direct_terms(kind, k, run.count(k))
        printed = _published_binet_form(kind, k)
        return lambda n: (direct[n], printed(n))

    return row


def _published_gf(kind: TransformKind) -> _Row:
    def row(run: _Run, k: RingElem):
        count = run.count(k)
        derived = gf_expand(derived_gf(kind, k), count)
        printed = gf_expand(published_gf(kind, k), count)
        return lambda n: (derived[n], printed[n])

    return row


def _exact_binet(kind: TransformKind) -> _Row:
    def row(run: _Run, k: RingElem):
        rec = run.recurrence(kind, k)
        values = run.prefix(rec)
        return lambda n: (values[n], binet_closed(rec, n))

    return row


def _check_fixtures(labels_prefixes: Sequence[str]):
    def checker(run: _Run) -> List[Counterexample]:
        ces: List[Counterexample] = []
        for fx in TABLE_FIXTURES:
            if not any(fx.label.startswith(p) for p in labels_prefixes):
                continue
            for n, printed in enumerate(fx.values):
                computed = run.direct(fx.kind, fx.k, n)
                if printed != computed:
                    ces.append(Counterexample(k=fx.k, n=n, expected=str(printed),
                                              got=elem_str(computed), label=fx.label))
                    break
        return ces

    return checker


def _check_published_m_polys(run: _Run) -> List[Counterexample]:
    seq = terms(modified_k_fib(K), 6)
    ces: List[Counterexample] = []
    for n in sorted(PUBLISHED_M_POLYS):
        printed = KPoly(PUBLISHED_M_POLYS[n])
        if seq[n] != printed:
            ces.append(Counterexample(k="k", n=n, expected=str(printed),
                                      got=elem_str(seq[n])))
            break
    return ces


def _check_float_binet(run: _Run) -> List[Counterexample]:
    cfg = run.cfg
    tol = 1e-9
    n_stop = min(cfg.n_max, FLOAT_N_CAP)
    ks = range(cfg.k_min, min(cfg.k_max, FLOAT_K_CAP) + 1)
    recs = [(k, [(kind, run.recurrence(kind, k)) for kind in KIND_ORDER]) for k in ks]
    for n in range(n_stop + 1):
        for k, row in recs:
            for kind, rec in row:
                exact = binet_closed(rec, n)
                approx = binet_float(rec, n)
                if abs(approx - float(exact)) / float(exact) > tol:
                    return [Counterexample(k=k, n=n, expected=str(exact),
                                           got=repr(approx), label=kind.value)]
    return []


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def claim_registry() -> List[Claim]:
    """The fixed list of 26 claims, ordered by id."""
    claims: List[Claim] = []

    rec_citations = {
        TransformKind.BINOMIAL:
            "published recurrence b(n+1) = (k+2) b(n) - k b(n-1), b0 = 2, b1 = 4",
        TransformKind.K_BINOMIAL:
            "published recurrence w(n+1) = k(k+2) w(n) - k^3 w(n-1), w0 = 2, w1 = 4k",
        TransformKind.RISING_K:
            "published recurrence r(n+1) = (k^2+2) r(n) - r(n-1), r0 = 2, r1 = 2k+2",
        TransformKind.FALLING_K:
            "published recurrence f(n+1) = 3k f(n) - (2k^2-1) f(n-1), f0 = 2, f1 = 2k+2",
    }
    for i, kind in enumerate(KIND_ORDER):
        claims.append(Claim(
            id=f"C{i + 1:02d}",
            description=f"{_KIND_NAMES[kind]} transform: direct sum equals closed recurrence",
            citation=rec_citations[kind],
            claim_class=ClaimClass.IDENTITY,
            checker=_sweep(_direct_vs_recurrence(kind)),
        ))

    claims.append(Claim(
        id="C05",
        description="difference lemma for the binomial transform",
        citation="b(n+1) - b(n) = sum_i C(n,i) M(i+1)",
        claim_class=ClaimClass.IDENTITY,
        checker=_sweep(_identity_pair(binomial_diff_identity, TransformKind.BINOMIAL,
                                      ahead=1)),
    ))
    claims.append(Claim(
        id="C06",
        description="difference lemma for the falling k-binomial transform",
        citation="f(n+1) - k f(n) = sum_i C(n,i) k^(n-i) M(i+1)",
        claim_class=ClaimClass.IDENTITY,
        checker=_sweep(_identity_pair(falling_diff_identity, TransformKind.FALLING_K,
                                      ahead=1)),
    ))
    claims.append(Claim(
        id="C07",
        description="rising k-binomial transform walks the even-index subsequence",
        citation="sum_i C(n,i) k^i M(i) = M(2n)",
        claim_class=ClaimClass.IDENTITY,
        checker=_sweep(_rising_even_index),
    ))
    claims.append(Claim(
        id="C08",
        description="k-binomial transform is the k^n-scaled binomial transform",
        citation="w(n) = k^n b(n)",
        claim_class=ClaimClass.IDENTITY,
        checker=_sweep(_identity_pair(w_scaling, TransformKind.K_BINOMIAL,
                                      TransformKind.BINOMIAL)),
    ))
    claims.append(Claim(
        id="C09",
        description="M recovered from consecutive k-Fibonacci numbers",
        citation="M(n) = 2 (F(n) + F(n-1)) for n >= 1",
        claim_class=ClaimClass.IDENTITY,
        checker=_sweep(_m_from_f, n_start=1),
    ))
    claims.append(Claim(
        id="C10",
        description="k-Fibonacci recovered from the alternating sum of M",
        citation="F(n) = (1/2) sum_{i=0..n-1} (-1)^i M(n-i)",
        claim_class=ClaimClass.IDENTITY,
        checker=_sweep(_f_from_m, n_start=1),
    ))

    binet_citations = {
        TransformKind.BINOMIAL:
            "published Binet form b(n) = 4 U(n) - 2k U(n-1), roots of x^2-(k+2)x+k",
        TransformKind.K_BINOMIAL:
            "published Binet form w(n) = 4 U(n) - 2k U(n-1), roots of x^2-k(k+2)x+k^3",
        TransformKind.RISING_K:
            "published Binet form r(n) = (2k+2) U(n) - 2 U(n-1), roots of x^2-(k^2+2)x+1",
        TransformKind.FALLING_K:
            "published Binet form f(n) = (2k+2) U(n) - 2 U(n-1), roots of x^2-3kx+(2k^2-1)",
    }
    for i, kind in enumerate(KIND_ORDER):
        claims.append(Claim(
            id=f"C{i + 11:02d}",
            description=f"published Binet formula, {_KIND_NAMES[kind]} transform, vs ground truth",
            citation=binet_citations[kind],
            claim_class=ClaimClass.PUBLISHED,
            checker=_sweep(_published_binet(kind), n_start=1),
        ))

    gf_citations = {
        TransformKind.BINOMIAL:
            "published generating function 2(1-2kx) / (1-(k+2)x+kx^2)",
        TransformKind.K_BINOMIAL:
            "published generating function 2(1-k^2 x) / (1-k(k+2)x+k^3 x^2)",
        TransformKind.RISING_K:
            "published generating function (2-(2k^2-2k+2)x) / (1-(k^2+2)x+x^2)",
        TransformKind.FALLING_K:
            "published generating function (2+(2-4k)x) / (1-3kx+(2k^2-1)x^2)",
    }
    for i, kind in enumerate(KIND_ORDER):
        claims.append(Claim(
            id=f"C{i + 15:02d}",
            description=f"published generating function, {_KIND_NAMES[kind]} transform, "
                        "vs the recurrence-derived one",
            citation=gf_citations[kind],
            claim_class=ClaimClass.PUBLISHED,
            checker=_sweep(_published_gf(kind)),
        ))

    for i, kind in enumerate(KIND_ORDER):
        claims.append(Claim(
            id=f"C{i + 19:02d}",
            description=f"exact Lucas-sequence Binet equals iteration, "
                        f"{_KIND_NAMES[kind]} transform",
            citation="x(n) = x1 U(n) - Q x0 U(n-1) over the family's characteristic roots",
            claim_class=ClaimClass.IDENTITY,
            checker=_sweep(_exact_binet(kind)),
        ))

    claims.append(Claim(
        id="C23",
        description="published tables for the binomial, rising and falling transforms",
        citation="printed lists B_1..B_5, R_1..R_5, F_1..F_5",
        claim_class=ClaimClass.PUBLISHED,
        checker=_check_fixtures(("B_", "R_", "F_")),
    ))
    claims.append(Claim(
        id="C24",
        description="published tables for the k-binomial transform",
        citation="printed lists W_1..W_5",
        claim_class=ClaimClass.PUBLISHED,
        checker=_check_fixtures(("W_",)),
    ))
    claims.append(Claim(
        id="C25",
        description="published closed forms of M(k,2)..M(k,5) as polynomials in k",
        citation="printed polynomials 2k+2, 2k^2+2k+2, 2k^3+2k^2+4k+2, 2k^4+2k^3+6k^2+4k+2",
        claim_class=ClaimClass.PUBLISHED,
        checker=_check_published_m_polys,
    ))
    claims.append(Claim(
        id="C26",
        description="double-precision Binet within 1e-9 relative of exact values",
        citation=f"root-formula evaluation, k <= {FLOAT_K_CAP}, n <= {FLOAT_N_CAP}",
        claim_class=ClaimClass.IDENTITY,
        checker=_check_float_binet,
    ))

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
        if not ces:
            verdict = Verdict.PASS
        elif claim.claim_class is ClaimClass.IDENTITY:
            verdict = Verdict.FAIL
        else:
            verdict = Verdict.INFO_DISCREPANCY
        results.append(ClaimResult(claim=claim, verdict=verdict,
                                   counterexamples=tuple(ces)))
    results.sort(key=lambda r: r.claim.id)
    return AuditReport(config=cfg, results=tuple(results))
