"""The routes each audit claim reads, proved by faulting each in turn.

``ROUTES`` names the routes of each claim's sides, the first giving a
counterexample's ``expected`` and the second its ``got``.  A route is a name
``audit`` binds, patched before ``run_audit``, or ``run.`` and a builder of
the run, with ``:`` and the kind of its list.  Off by a delta at one point
(k, n), a route must move exactly the claims that declare it, on their
declared side (mutation testing: DeMillo, Lipton & Sayward, "Hints on test
data selection", 1978).
"""

from dataclasses import replace

import pytest

from kfiblike import audit
from kfiblike.audit import run_audit
from kfiblike.closedform import binet_float
from kfiblike.genfunc import RationalGF, published_gf, xpoly
from kfiblike.ring import K, const_like
from kfiblike.sequences import k_fib, modified_k_fib, terms
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence

RANGE = dict(k_min=1, k_max=3, n_max=6)
# an odd and an even n (C07 reads only M(2n)) at k = 1, where C12, C14, C15
# and C24 still agree or meet their first counterexample, at k = 3 and at K
POINTS = ((1, 1), (1, 2), (3, 5), (3, 6), (K, 2), (K, 3))
KINDS = [kind.value for kind in KIND_ORDER]
# C19-C22 and C26 compare two evaluations of one recurrence, so both sides
# read its record by design and a fault in it moves both alike: this shared
# subject is exempt from the rule that no route serves both sides of a claim.
SUBJECT = "recurrence"
BINET, PRINTED = {"_exact_coefficients", "_binet_form"}, {"_printed_coefficients", "_binet_form"}
# the direct sums: the Euler table of each kind, the binomial one times k^n
DIRECT = {kind: {f"iter_direct:{kind}"} for kind in KINDS}
DIRECT["kbinomial"] = {"iter_direct:binomial", "times_k_power"}

#: claim: (the routes of its ``expected`` side, the routes of its ``got`` side)
ROUTES = {
    **{f"C{1 + i:02d}": (DIRECT[kind], {f"run.prefix:{kind}"}) for i, kind in enumerate(KINDS)},
    "C05": (DIRECT["binomial"], {"run.m", "run.pascal"}),
    "C06": (DIRECT["falling"], {"run.m", "run.pascal"}),
    "C07": (DIRECT["rising"], {"run.m"}),
    "C08": ({"run.u:kbinomial", *BINET}, DIRECT["kbinomial"]),
    "C09": ({"run.m"}, {"run.f", "_m_from_f_terms"}),
    "C10": ({"run.f"}, {"run.m", "_halved_alternating_sums"}),
    **{f"C{11 + i}": (DIRECT[kind], {f"run.u:{kind}", *PRINTED}) for i, kind in enumerate(KINDS)},
    **{f"C{15 + i}": ({f"run.prefix:{kind}"}, {"published_gf", "gf_expand"})
       for i, kind in enumerate(KINDS)},
    **{f"C{19 + i}": ({f"run.prefix:{kind}", SUBJECT}, {f"run.u:{kind}", *BINET, SUBJECT})
       for i, kind in enumerate(KINDS)},
    "C23": ({"TABLE_FIXTURES"}, DIRECT["binomial"] | DIRECT["rising"] | DIRECT["falling"]),
    "C24": ({"TABLE_FIXTURES"}, DIRECT["kbinomial"]),
    "C25": ({"PUBLISHED_M_POLYS"}, {"run.m"}),
    "C26": ({*(f"run.u:{kind}" for kind in KINDS), *BINET, SUBJECT}, {"binet_float", SUBJECT}),
}


def readers(route):
    return {cid for cid, sides in ROUTES.items() if any(route in side for side in sides)}


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
    # U(2) = a tells the k of a U list apart in RANGE; the form is off at n
    "_binet_form": _fault(
        lambda k, n, pair, us, *x0: us[2] in [rec.a for rec in _records(k)],
        lambda form, n, d: lambda m: _offset(form(m), n, d) if m == n else form(m)),
    "binet_float": _fault(
        lambda k, n, rec, m: m == n and rec in _records(k), lambda x, n, d: x * (1 + d * 1e-6)),
    "TABLE_FIXTURES": lambda fixtures, k, n, d: tuple(
        replace(fx, values=_bumped(fx.values, n, d)) if fx.k == k else fx for fx in fixtures),
    "PUBLISHED_M_POLYS": lambda polys, k, n, d: {  # printed at K only
        m: _bumped(cs, 0, d) if (m, k) == (n, K) else cs for m, cs in polys.items()},
}


def _outcomes():
    return {r.claim.id: (r.verdict, r.counterexamples) for r in run_audit(**RANGE).results}


@pytest.fixture(scope="module")
def healthy():
    return _outcomes()


def _moved(monkeypatch, healthy, route, k, n, delta=4):
    """Each claim outcome that ``route`` off by delta at (k, n) moves.  Not
    +2: C15's printed series is 2 short at k = 1, n = 1, and +2 would cancel."""
    name, make = route.partition(":")[0], FAULTS[route]
    with monkeypatch.context() as mp:
        if name.startswith("run."):
            init, attr = audit._Run.__init__, name[len("run."):]

            def faulty(run, cfg):
                init(run, cfg)
                setattr(run, attr, make(getattr(run, attr), k, n, delta))

            mp.setattr(audit._Run, "__init__", faulty)
        else:
            mp.setattr(audit, name, make(getattr(audit, name), k, n, delta))
        faulted = _outcomes()
    return {cid: out for cid, out in faulted.items() if out != healthy[cid]}


def _moved_at_points(monkeypatch, healthy, route):
    moved = {point: _moved(monkeypatch, healthy, route, *point) for point in POINTS}
    for point, claims in moved.items():
        assert set(claims) <= readers(route), point
    return moved


@pytest.mark.parametrize("route", sorted(FAULTS))
def test_a_fault_in_a_route_moves_exactly_its_readers_on_their_side(monkeypatch, healthy, route):
    """Over the points, the claims a fault moves are the route's readers.  At
    the point that moves the most, a second delta changes each moved claim's
    field of the declared side (``expected`` for the first, ``got`` for the
    second) in some counterexample, and no other field in any."""
    moved = _moved_at_points(monkeypatch, healthy, route)
    assert set().union(*moved.values()) == readers(route)
    k, n = max(POINTS, key=lambda point: len(moved[point]))
    at_4, at_6 = moved[k, n], _moved(monkeypatch, healthy, route, k, n, delta=6)
    assert set(at_6) == set(at_4)
    for cid in at_4:
        field = "expected" if route in ROUTES[cid][0] else "got"
        pairs = list(zip(at_4[cid][1], at_6[cid][1], strict=True))
        assert all(replace(a, **{field: ""}) == replace(b, **{field: ""}) for a, b in pairs), cid
        assert any(getattr(a, field) != getattr(b, field) for a, b in pairs), cid
    if route == "binet_float":  # C26 names the kind and prints the float's repr
        (ce,) = at_4["C26"][1]
        rec = transform_recurrence(TransformKind(ce.label), ce.k)
        assert ce.got == repr(binet_float(rec, ce.n) * (1 + 4e-6))


def test_each_claim_has_two_sides_and_each_route_one_side_and_one_fault():
    assert list(ROUTES) == [claim.id for claim in audit.claim_registry()]
    for cid, (expected, got) in ROUTES.items():
        assert expected and got and expected & got <= {SUBJECT}, cid
    assert set().union(*(side for sides in ROUTES.values() for side in sides)) == {
        *FAULTS, SUBJECT}


def _pre_mend_k_scaling(run, k):
    """C08's row as it was: the k-binomial direct sums against the binomial
    table times k^n, which are the same route."""
    scaled, table = run.direct(TransformKind.K_BINOMIAL, k), run.direct(TransformKind.BINOMIAL, k)
    return lambda n: (scaled[n], audit.times_k_power(table[n], k, n))


def test_a_row_with_one_route_on_both_sides_fails_the_route_check(monkeypatch, healthy):
    """Negative control: with C08's row back in that shape, a fault in the
    binomial table leaves C08, one of its declared readers, unmoved."""
    monkeypatch.setattr(audit, "_DECLARATIONS", tuple(
        (*row[:3], _pre_mend_k_scaling, *row[4:]) if row[0] == 8 else row
        for row in audit._DECLARATIONS))
    moved = _moved_at_points(monkeypatch, healthy, "iter_direct:binomial")
    assert readers("iter_direct:binomial") - set().union(*moved.values()) == {"C08"}
