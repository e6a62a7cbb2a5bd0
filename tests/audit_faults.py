"""The one way a test faults an audit route: ``FAULTS`` and ``moved``; and the
one way it swaps the claims' checkers: ``with_checkers``.

A route is a name ``audit`` binds, patched before ``run_audit``, or ``run.``
and a builder of the run, with ``:`` and the kind of its list.  Its fault
maker ``make(real, k, n, delta)`` returns ``real`` with its value off by
delta at the point (k, n); ``moved`` runs the audit with it, or with a
test's own maker, patched in and returns each claim outcome that moved.
"""

from dataclasses import replace

from kfiblike import audit
from kfiblike.audit import run_audit
from kfiblike.genfunc import RationalGF, published_gf, xpoly
from kfiblike.ring import K, const_like
from kfiblike.sequences import k_fib, modified_k_fib, terms
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence

KINDS = [kind.value for kind in KIND_ORDER]


def _fault(hit, change):
    """A fault maker ``make(real, k, n, delta)``: ``real`` with its value
    changed by ``change(value, n, delta)`` wherever ``hit(k, n, *args)``."""
    return lambda real, k, n, delta: lambda *args: (
        change(real(*args), n, delta) if hit(k, n, *args) else real(*args))


def _of(*kind):
    """Hits (kind, k) or (k,): by kind, as k = 1 gives four kinds one record."""
    return lambda k, n, *args: args == (*kind, k)


def _offset(x, n, delta):
    return x + const_like(delta, x)


def _bumped(xs, n, delta):
    """``xs`` with entry n off by delta: a list or a tuple as such, else lazily."""
    out = (_offset(x, n, delta) if i == n else x for i, x in enumerate(xs))
    return type(xs)(out) if isinstance(xs, (list, tuple)) else out


def _records(k):
    return [transform_recurrence(kind, k) for kind in KIND_ORDER]


#: route: its fault maker; the printed inputs are data, not functions
FAULTS = {
    **{f"iter_direct:{kind}": _fault(_of(TransformKind(kind)), _bumped)
       for kind in KINDS if kind != "kbinomial"},
    **{f"run.{attr}:{kind.value}": _fault(_of(kind), _bumped)
       for attr in ("prefix", "u") for kind in KIND_ORDER},
    **{f"run.{attr}": _fault(_of(), _bumped) for attr in ("m", "f")},
    "run.pascal": _fault(lambda k, n, m: m == n, _bumped),  # one row per n serves every k
    "times_k_power": _fault(lambda k, n, x, kk, m: (kk, m) == (k, n), _offset),
    "_halved_alternating_sums": _fault(
        lambda k, n, ms: ms[:3] == terms(modified_k_fib(k), 3), _bumped),
    "_m_from_f_terms": _fault(lambda k, n, fs, m: (fs[:3], m) == (terms(k_fib(k), 3), n), _offset),
    "gf_expand": _fault(
        lambda k, n, gf, count: gf in [published_gf(kind, k) for kind in KIND_ORDER], _bumped),
    "published_gf": _fault(  # the numerator's constant: the series off from n = 0 on
        lambda k, n, kind, kk: kk == k,
        lambda gf, n, d: RationalGF(xpoly(_bumped(gf.num.coeffs, 0, d)), gf.den)),
    "_printed_coefficients": _fault(
        lambda k, n, kind, kk: kk == k, lambda pair, n, d: _bumped(pair, 0, d)),
    "_exact_coefficients": _fault(
        lambda k, n, rec: rec in _records(k), lambda pair, n, d: _bumped(pair, 0, d)),
    # (U(2), U(3)) = (a, a^2 + b) tells the k of a U list apart, at n_max >= 3;
    # the form is off at n
    "_binet_form": _fault(
        lambda k, n, pair, us, *x0: tuple(us[2:4]) in [
            (rec.a, rec.a * rec.a + rec.b) for rec in _records(k)],
        lambda form, n, d: lambda m: _offset(form(m), n, d) if m == n else form(m)),
    "_float_form": _fault(  # the form of a record is off at n
        lambda k, n, rec: rec in _records(k),
        lambda form, n, d: lambda m: form(m) * (1 + d * 1e-6) if m == n else form(m)),
    "TABLE_FIXTURES": lambda fixtures, k, n, d: tuple(
        replace(fx, values=_bumped(fx.values, n, d)) if fx.k == k else fx for fx in fixtures),
    "PUBLISHED_M_POLYS": lambda polys, k, n, d: {  # printed at K only
        m: _bumped(cs, 0, d) if (m, k) == (n, K) else cs for m, cs in polys.items()},
}


def with_checkers(monkeypatch, make):
    """Patch ``audit.claim_registry`` so that each claim's checker is ``make(claim)``."""
    registry = audit.claim_registry
    monkeypatch.setattr(audit, "claim_registry",
                        lambda: [replace(claim, checker=make(claim)) for claim in registry()])


def outcomes(rng):
    """Each claim's verdict and counterexamples in a run over ``rng``."""
    return {r.claim.id: (r.verdict, r.counterexamples) for r in run_audit(**rng).results}


def moved(monkeypatch, rng, healthy, route, *point, make=None):
    """Each claim outcome of a run over ``rng`` that differs from ``healthy``
    with ``route`` replaced by ``make(real, *point)``: by default the route's
    own fault maker, off by delta at (k, n) for a point (k, n, delta)."""
    name, make = route.partition(":")[0], make or FAULTS[route]
    with monkeypatch.context() as mp:
        if name.startswith("run."):
            init, attr = audit._Run.__init__, name[len("run."):]

            def faulty(run, cfg):
                init(run, cfg)
                setattr(run, attr, make(getattr(run, attr), *point))

            mp.setattr(audit._Run, "__init__", faulty)
        else:
            mp.setattr(audit, name, make(getattr(audit, name), *point))
        faulted = outcomes(rng)
    return {cid: out for cid, out in faulted.items() if out != healthy[cid]}
