"""Command-line front end.

Subcommands: ``gen`` (base sequences), ``transform`` (the four transform
families, by either route), ``gf`` (generating functions and expansions),
``binet`` (exact or floating closed forms), ``audit`` (run the claim
registry) and ``bench`` (compare evaluation strategies).

Exit status: 0 on success, 2 on usage errors, 1 on internal verification
failure (a ``--verify`` mismatch, a benchmark value mismatch, or an
implementation-class FAIL in the audit; published-source discrepancies do
not fail the process), 3 on an unexpected internal error (any other
exception, reported as one ``kfiblike: internal error: <Type>: <message>``
line on stderr), 141 when the reader of stdout closes it early (as in
``| head``), with nothing on stderr: 128 + SIGPIPE, what a shell reports for
a pipe writer killed by SIGPIPE.

Behaviour is controlled entirely by flags plus two environment variables:
``KFIBLIKE_WIDTH`` (report width, clamped to 20..1000) and ``KFIBLIKE_COLOR``
(colour toggle for the audit text report).  All big integers are printed as
plain decimal strings, in time subquadratic in their digits where CPython
3.11's ``str(int)`` is quadratic.  The numeric streams of ``gen``,
``transform --method recurrence`` and ``gf --k K --count N`` are computed in
exact ``decimal`` arithmetic, whose ``str()`` is linear; every other int goes
through :func:`~kfiblike.ring.elem_str`, which converts a wide int to an
exact ``Decimal`` by divide and conquer.  Both use ``ring``'s one exact
context: unbounded precision, any rounding trapped, so a rounded value
raises instead of being printed.  The CLI leaves CPython's ``str(int)`` guard
as it is, so on 3.11+ an integer argument past 4300 digits is argparse's
usage error.  A ``--count`` past ``sys.maxsize``, and a ``binet --exact`` or
``bench --n`` term estimated past ``_EXACT_DIGITS_CEILING`` digits, are too,
before any output.  A ``json-lines`` row, ``{"index": n, "value": "<term>"}``,
is written directly, not through ``json``: its bytes are what
``json.dumps`` gives, since a term's text is digits and ``-``, which JSON
never escapes.

Only ``audit`` loads :mod:`kfiblike.audit`, when it runs; every other
subcommand needs just the arithmetic modules and this one.

:func:`main` can be called any number of times in one process, with
``sys.stdout`` and ``sys.stderr`` read at each call.  Every call reuses the
one parser tree :func:`build_parser` builds on the first, so a caller that
runs many commands in process pays for argparse's setup once.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import math
import os
import sys
import time
from decimal import Decimal
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .closedform import binet_closed, binet_float
from .genfunc import gf_from_rec, gf_str, iter_gf
from .ring import _EXACT_CONTEXT, K, RingElem, elem_str
from .sequences import (
    Order2Rec,
    iter_terms,
    k_fib,
    modified_k_fib,
    term_fast,
    term_iterative,
    terms,
)
from .transforms import TransformKind, iter_direct, transform_direct, transform_recurrence

FORMATS = ("plain", "csv", "json-lines", "bfile")

_KIND_BY_NAME = {kind.value: kind for kind in TransformKind}

DEFAULT_DIRECT_CAP = 2000

# 128 + SIGPIPE: the status a shell reports for a pipe writer SIGPIPE killed.
EXIT_BROKEN_PIPE = 141

# Report width bounds: the audit text rules off sections with "=" * width.
MIN_WIDTH, MAX_WIDTH = 20, 1000

# ``binet --exact`` and ``bench --n`` refuse a term estimated longer than
# this many digits.
# Lucas doubling and decimal output grow faster than the digits: binomial
# k=2 at n=4e6 (2.1e6 digits) takes about 3.3 s on CPython 3.11, and each
# doubling of n multiplies that by about 3.
_EXACT_DIGITS_CEILING = 10**7

_LOG10_2 = math.log10(2)

# A printed term: an int or KPoly from the library, or a Decimal mirror of an int.
_Term = Union[RingElem, Decimal]


def _env_width() -> int:
    raw = os.environ.get("KFIBLIKE_WIDTH", "")
    try:
        return min(max(int(raw), MIN_WIDTH), MAX_WIDTH)
    except ValueError:
        return 80


def _env_color() -> bool:
    return os.environ.get("KFIBLIKE_COLOR", "").strip().lower() in ("1", "true", "yes", "on")


def _decimal_rec(rec: Order2Rec) -> Order2Rec:
    """``rec`` with ``Decimal`` coefficients, for printing its terms.

    Evaluate its terms inside ``decimal.localcontext(_EXACT_CONTEXT)``.
    """
    return Order2Rec(a=Decimal(rec.a), b=Decimal(rec.b), x0=Decimal(rec.x0),
                     x1=Decimal(rec.x1))


def _digits_estimate(rec: Order2Rec, n: int) -> float:
    """About ``len(str(x(n)))``: n*log10 r1, r1 the dominant characteristic root.

    r1 = (|a| + sqrt(a^2 + 4b)) / 2 is taken in ints scaled by 2**64, with
    ``isqrt``, so that it stays accurate for a k too large for a float; an
    n too large for a float gives infinity.
    """
    disc = rec.a * rec.a + 4 * rec.b
    r1_scaled = (abs(rec.a) << 64) + math.isqrt(disc << 128)
    try:
        return n * (math.log10(r1_scaled) - 65 * _LOG10_2)
    except OverflowError:
        return math.inf


def _digit_count(x: int) -> int:
    """``len(str(x))`` without the decimal conversion, quadratic on CPython 3.11.

    The bit length brackets log10 |x| in an interval 0.301 wide, so ``e``,
    floor(log10 |x|) estimated from its midpoint, is off by at most one
    either way; comparisons with 10**e and 10**(e+1) settle it.
    """
    m = abs(x) or 1  # "0" has one digit, as "1" does
    e = int((m.bit_length() - 0.5) * _LOG10_2)
    p = 10**e
    digits = e if m < p else e + 1 + (m >= 10 * p)
    return digits + (x < 0)


def _decimal_agrees(text: str, x: int, x_digits: int) -> bool:
    """Whether ``text`` agrees with ``x`` in length (``x_digits``, which is
    ``_digit_count(x)``), last 18 digits, digit sum mod 9 and alternating
    digit sum mod 11 (a digit at an odd place from the end weighs
    10**odd = -1), with no decimal conversion of ``x``.  One wrong digit moves
    the sums by 1 to 9 either way, which 11 never divides."""
    digits, m = text.lstrip("-"), abs(x)
    if len(text) != x_digits or int(digits[-18:]) != m % 10**18:
        return False
    even, odd = digits[::-2], digits[-2::-2]
    total = alternating = 0
    for d in range(1, 10):
        e, o = even.count(str(d)), odd.count(str(d))
        total, alternating = total + d * (e + o), alternating + d * (e - o)
    return total % 9 == m % 9 and alternating % 11 == m % 11


def _emit_terms(values: Iterable[_Term], fmt: str, out) -> None:
    """Stream indexed terms in the requested format; no full-list buffering."""
    if fmt == "plain":
        first = True
        for v in values:
            if not first:
                out.write(",")
            out.write(elem_str(v))
            first = False
        out.write("\n")
    elif fmt == "csv":
        out.write("n,value\n")
        for n, v in enumerate(values):
            out.write(f"{n},{elem_str(v)}\n")
    elif fmt == "json-lines":
        # what json.dumps writes: a term's text is digits and "-", never escaped
        for n, v in enumerate(values):
            out.write(f'{{"index": {n}, "value": "{elem_str(v)}"}}\n')
    elif fmt == "bfile":
        for n, v in enumerate(values):
            out.write(f"{n} {elem_str(v)}\n")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown format {fmt!r}")


def _check_k(parser: argparse.ArgumentParser, k: int) -> None:
    if k < 1:
        parser.error(f"--k must be >= 1, got {k}")


def _check_count(parser: argparse.ArgumentParser, count: int) -> None:
    if count < 0:
        parser.error(f"--count must be >= 0, got {count}")
    if count > sys.maxsize:  # islice's own limit on a stream's length
        parser.error(f"--count must be <= {sys.maxsize}, got {count}")


def _check_digits(parser: argparse.ArgumentParser, rec: Order2Rec, n: int,
                  what: str) -> None:
    """Refuse x(n) of ``rec`` if it is estimated past ``_EXACT_DIGITS_CEILING`` digits."""
    digits = _digits_estimate(rec, n)
    if digits > _EXACT_DIGITS_CEILING:
        # a long n is named by its length, so the usage line stays short
        shown = n if n < 10**20 else f"<{_digit_count(n)}-digit n>"
        parser.error(f"x({shown}) has about {digits:.3g} digits, beyond the "
                     f"{_EXACT_DIGITS_CEILING:.3g}-digit ceiling of {what}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_gen(args, parser, out) -> int:
    _check_k(parser, args.k)
    _check_count(parser, args.count)
    rec = modified_k_fib(args.k) if args.family == "modified" else k_fib(args.k)
    if args.fast:
        values: Iterable[_Term] = (term_fast(rec, n) for n in range(args.count))
    else:
        values = islice(iter_terms(_decimal_rec(rec)), args.count)
    with decimal.localcontext(_EXACT_CONTEXT):
        _emit_terms(values, args.format, out)
    return 0


def _cmd_transform(args, parser, out) -> int:
    _check_k(parser, args.k)
    _check_count(parser, args.count)
    kind = _KIND_BY_NAME[args.kind]
    if args.verify:
        direct = list(islice(iter_direct(kind, args.k), args.count))
        rec_vals = terms(transform_recurrence(kind, args.k), args.count)
        if direct != rec_vals:
            bad = next(n for n, (d, r) in enumerate(zip(direct, rec_vals)) if d != r)
            print(
                f"verify: MISMATCH at n={bad}: direct {elem_str(direct[bad])}, "
                f"recurrence {elem_str(rec_vals[bad])}",
                file=sys.stderr,
            )
            return 1
        _emit_terms(direct, args.format, out)
        print(
            f"verify: direct sum and closed recurrence agree on {args.count} terms",
            file=sys.stderr,
        )
        return 0
    if args.method == "direct":
        values: Iterable[_Term] = islice(iter_direct(kind, args.k), args.count)
    else:
        rec = _decimal_rec(transform_recurrence(kind, args.k))
        values = islice(iter_terms(rec), args.count)
    with decimal.localcontext(_EXACT_CONTEXT):
        _emit_terms(values, args.format, out)
    return 0


def _cmd_gf(args, parser, out) -> int:
    kind = _KIND_BY_NAME[args.kind]
    if args.symbolic:
        if args.k is not None:
            parser.error("choose either --k or --symbolic, not both")
        k: RingElem = K
    else:
        if args.k is None:
            parser.error("gf needs either --k or --symbolic")
        _check_k(parser, args.k)
        k = args.k
    if args.count is not None:
        _check_count(parser, args.count)
    # The printed GF and its expansion both come from this one recurrence.
    rec = transform_recurrence(kind, k)
    out.write(gf_str(gf_from_rec(rec)) + "\n")
    if args.count is not None:
        # A numeric k expands a Decimal copy; a symbolic one stays in KPoly.
        expand_rec = _decimal_rec(rec) if isinstance(k, int) else rec
        with decimal.localcontext(_EXACT_CONTEXT):
            _emit_terms(islice(iter_gf(gf_from_rec(expand_rec)), args.count), "plain", out)
    return 0


def _cmd_binet(args, parser, out) -> int:
    _check_k(parser, args.k)
    if args.n < 0:
        parser.error(f"--n must be >= 0, got {args.n}")
    rec = transform_recurrence(_KIND_BY_NAME[args.kind], args.k)
    if args.exact:
        _check_digits(parser, rec, args.n, "--exact")
        out.write(elem_str(binet_closed(rec, args.n)) + "\n")
        return 0
    try:
        value = binet_float(rec, args.n)
    except OverflowError as exc:
        parser.error(f"{exc}; use --exact for the exact value")
    out.write(repr(value) + "\n")
    return 0


def _cmd_audit(args, parser, out) -> int:
    from .audit import AuditConfig, run_audit

    # a flag not given is absent from args, and run_audit's default applies
    given = {name: getattr(args, name) for name in ("k_min", "k_max", "n_max", "symbolic")
             if hasattr(args, name)}
    # only a range error is a usage error: one raised inside a claim is a fault
    try:
        AuditConfig(**given)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_audit(**given)
    if args.format == "jsonl":
        out.write(report.to_jsonl())
    else:
        out.write(report.to_text(width=_env_width(), color=_env_color()))
    return 1 if report.has_implementation_failure else 0


def _time_call(fn, *fn_args) -> Tuple[float, RingElem]:
    t0 = time.perf_counter()
    value = fn(*fn_args)
    return time.perf_counter() - t0, value


def _cmd_bench(args, parser, out) -> int:
    _check_k(parser, args.k)
    ns = args.n if args.n else [1000, 10000, 100000]
    for n in ns:
        if n < 0:
            parser.error(f"--n must be >= 0, got {n}")
    if args.direct_cap < 0:
        parser.error(f"--direct-cap must be >= 0, got {args.direct_cap}")
    kind = _KIND_BY_NAME[args.kind]
    rec = transform_recurrence(kind, args.k)
    for n in ns:
        _check_digits(parser, rec, n, "bench")
    out.write(f"benchmark: {args.kind} transform, k={args.k}\n")
    out.write(f"{'n':>10}  {'strategy':<14} {'seconds':>12}  {'digits':>8}  equal\n")
    all_equal = True
    for n in sorted(ns):
        t_iter, v_iter = _time_call(term_iterative, rec, n)
        ref_digits = _digit_count(v_iter)
        rows = [("iterative", t_iter, ref_digits, "ref")]

        def check(value: int) -> Tuple[int, str]:
            """(digit count, equal column) of a value checked against v_iter."""
            if value == v_iter:
                return ref_digits, "yes"
            return _digit_count(value), "NO"

        t_fast, v_fast = _time_call(term_fast, rec, n)
        fast_digits, fast_equal = check(v_fast)
        rows.append(("lucas-doubling", t_fast, fast_digits, fast_equal))
        t_dec, text = _time_call(elem_str, v_fast)
        dec_equal = "yes" if _decimal_agrees(text, v_fast, fast_digits) else "NO"
        rows.append(("decimal", t_dec, fast_digits, dec_equal))
        if n <= args.direct_cap:
            t_dir, v_dir = _time_call(transform_direct, kind, args.k, n)
            rows.append(("direct-sum", t_dir, *check(v_dir)))
        else:
            rows.append(("direct-sum", None, None, ""))
        for name, secs, digits, equal in rows:
            if secs is None:
                out.write(
                    f"{n:>10}  {name:<14} "
                    f"{'skipped (n > direct cap %d)' % args.direct_cap}\n"
                )
                continue
            out.write(f"{n:>10}  {name:<14} {secs:>12.6f}  {digits:>8}  {equal}\n")
            if equal == "NO":
                all_equal = False
    if all_equal:
        out.write("values agree across all strategies that ran\n")
        return 0
    out.write("VALUE MISMATCH between strategies\n")
    return 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name.

    A handler reports range errors through its subcommand's parser, so they
    read ``kfiblike gen: error: ...`` as argparse's own errors there do.
    Built on the first call and shared by every later one: parsing leaves a
    parser as it was (an ``append`` option copies its default, each
    subcommand's ``prog`` is fixed here, help is formatted when printed).
    """
    parser = argparse.ArgumentParser(
        prog="kfiblike",
        description="modified k-Fibonacci-like sequence, its binomial-family "
                    "transforms, and the audit of the published claims about them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a base sequence")
    p.add_argument("family", choices=("modified", "kfib"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--fast", action="store_true",
                   help="compute each term on its own by Lucas doubling: an "
                        "independent per-index cross-check of plain iteration, "
                        "slower than it for a whole prefix, same output")
    p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("transform", help="generate one of the four transforms")
    p.add_argument("kind", choices=tuple(_KIND_BY_NAME))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--method", choices=("direct", "recurrence"), default="recurrence",
                   help="recurrence: iterate the closed recurrence (default); "
                        "direct: the definitional binomial sums, all from one "
                        "difference table, O(count^2) additions")
    p.add_argument("--verify", action="store_true",
                   help="compute both routes and fail (exit 1) if they disagree")
    p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("gf", help="print a generating function (and expansion)")
    p.add_argument("kind", choices=tuple(_KIND_BY_NAME))
    p.add_argument("--k", type=int)
    p.add_argument("--symbolic", action="store_true",
                   help="keep k as an indeterminate")
    p.add_argument("--count", type=int,
                   help="also print this many series coefficients")

    p = sub.add_parser("binet", help="closed-form value of a transform term")
    p.add_argument("kind", choices=tuple(_KIND_BY_NAME))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="exact Lucas-sequence value instead of double precision")

    p = sub.add_parser("audit", help="run the published-claim audit")
    # no defaults here: AuditConfig's apply, and building the parser does
    # not load the audit
    p.add_argument("--k-min", type=int, default=argparse.SUPPRESS)
    p.add_argument("--k-max", type=int, default=argparse.SUPPRESS)
    p.add_argument("--n-max", type=int, default=argparse.SUPPRESS)
    p.add_argument("--symbolic", action=argparse.BooleanOptionalAction,
                   default=argparse.SUPPRESS)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("bench", help="time iterative vs lucas-doubling vs direct-sum, "
                                     "and decimal output")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, action="append",
                   help="term index; repeatable (default: 1000, 10000, 100000)")
    p.add_argument("--kind", choices=tuple(_KIND_BY_NAME), default="binomial")
    p.add_argument("--direct-cap", type=int, default=DEFAULT_DIRECT_CAP,
                   help="largest n at which the definitional direct sum is timed")

    return parser, sub.choices


_HANDLERS = {
    "gen": _cmd_gen,
    "transform": _cmd_transform,
    "gf": _cmd_gf,
    "binet": _cmd_binet,
    "audit": _cmd_audit,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    return _HANDLERS[args.command](args, commands[args.command], sys.stdout)


def entry() -> None:
    try:
        code = main()
        # buffered output still unwritten must meet a closed pipe here, not
        # in the interpreter's exit flush
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. | head) closed the pipe; exit quietly,
        # with stdout on devnull so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except Exception as exc:
        print(f"kfiblike: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    entry()
