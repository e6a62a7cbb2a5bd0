"""The routes each audit claim reads, proved by faulting each in turn.

``ROUTES`` names the routes of each claim's sides, the first giving a
counterexample's ``expected`` and the second its ``got``; ``audit_faults``
holds a fault maker for each route, the one that the pinned fault tests of
``test_audit_table`` use too.  Off by a delta at one point (k, n), a route
must move exactly the claims that declare it, on their declared side
(mutation testing: DeMillo, Lipton & Sayward, "Hints on test data
selection", 1978).
"""

from dataclasses import replace

import pytest
from audit_faults import FAULTS, KINDS, moved, outcomes

from kfiblike import audit
from kfiblike.closedform import _exact_coefficients, binet_float
from kfiblike.ring import K
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence

RANGE = dict(k_min=1, k_max=3, n_max=6)
# an odd and an even n (C07 reads only M(2n)) at k = 1, where C12, C14, C15
# and C24 still agree or meet their first counterexample, at k = 3 and at K
POINTS = ((1, 1), (1, 2), (3, 5), (3, 6), (K, 2), (K, 3))
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


@pytest.fixture(scope="module")
def healthy():
    return outcomes(RANGE)


def _moved_at_points(monkeypatch, healthy, route):
    # off by 4, not 2: C15's printed series is 2 short at k = 1, n = 1
    by_point = {point: moved(monkeypatch, RANGE, healthy, route, *point, 4) for point in POINTS}
    for point, claims in by_point.items():
        assert set(claims) <= readers(route), point
    return by_point


@pytest.mark.parametrize("route", sorted(FAULTS))
def test_a_fault_in_a_route_moves_exactly_its_readers_on_their_side(monkeypatch, healthy, route):
    """Over the points, the claims a fault moves are the route's readers.  At
    the point that moves the most, a second delta changes each moved claim's
    field of the declared side (``expected`` for the first, ``got`` for the
    second) in some counterexample, and no other field in any."""
    at_points = _moved_at_points(monkeypatch, healthy, route)
    assert set().union(*at_points.values()) == readers(route)
    k, n = max(POINTS, key=lambda point: len(at_points[point]))
    at_4, at_6 = at_points[k, n], moved(monkeypatch, RANGE, healthy, route, k, n, 6)
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


def test_the_binet_form_fault_hits_the_u_lists_of_its_k_alone():
    """A U list's U(2) = a alone is shared across k (the binomial a at k = 4 is
    the rising one at k = 2), so the fault maker tells a list's k by U(2) and
    U(3); at k = 1 the four records are one."""
    n, binet_form = 5, audit._binet_form
    for k_bad in range(1, 6):
        faulty = FAULTS["_binet_form"](binet_form, k_bad, n, 1)
        for k in range(1, 6):
            for kind in KIND_ORDER:
                rec = transform_recurrence(kind, k)
                args = _exact_coefficients(rec), audit._lucas_list(rec, n + 1), rec.x0
                assert (faulty(*args)(n) != binet_form(*args)(n)) == (k == k_bad), (k_bad, k, kind)


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
    at_points = _moved_at_points(monkeypatch, healthy, "iter_direct:binomial")
    assert readers("iter_direct:binomial") - set().union(*at_points.values()) == {"C08"}
