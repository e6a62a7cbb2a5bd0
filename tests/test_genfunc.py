import os
import subprocess
import sys
from pathlib import Path

import pytest

from kfiblike.genfunc import (
    RationalGF,
    XPoly,
    derived_gf,
    gf_equal,
    gf_expand,
    gf_from_rec,
    gf_str,
    published_gf,
    xpoly,
    xpoly_str,
)
from kfiblike.ring import K, KPoly
from kfiblike.sequences import terms
from kfiblike.transforms import KIND_ORDER, TransformKind, transform_recurrence


def test_gf_from_rec_symbolic_shapes():
    gf = derived_gf(TransformKind.BINOMIAL, K)
    assert gf.num.coeffs == (KPoly.constant(2), KPoly((0, -2)))      # 2 - 2kx
    assert gf.den.coeffs == (KPoly.constant(1), KPoly((-2, -1)), K)  # 1-(k+2)x+kx^2
    gf = derived_gf(TransformKind.RISING_K, K)
    assert gf.num.coeffs == (KPoly.constant(2), KPoly((-2, 2, -2)))  # 2-(2k^2-2k+2)x
    gf = derived_gf(TransformKind.FALLING_K, K)
    assert gf.num.coeffs == (KPoly.constant(2), KPoly((2, -4)))      # 2+(2-4k)x


def test_gf_expand_examples():
    assert gf_expand(derived_gf(TransformKind.BINOMIAL, 2), 6) == \
        [2, 4, 12, 40, 136, 464]
    geometric = RationalGF(num=xpoly([1]), den=xpoly([1, -1]))
    assert gf_expand(geometric, 4) == [1, 1, 1, 1]
    assert gf_expand(derived_gf(TransformKind.K_BINOMIAL, 3), 4) == \
        [2, 12, 126, 1566]


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda kk: kk.value)
def test_round_trip_recurrence_to_series(kind):
    for k in range(1, 11):
        rec = transform_recurrence(kind, k)
        assert gf_expand(gf_from_rec(rec), 33) == terms(rec, 33)
    rec = transform_recurrence(kind, K)
    assert gf_expand(gf_from_rec(rec), 13) == terms(rec, 13)


def test_published_binomial_gf_diverges_at_index_one():
    assert gf_expand(published_gf(TransformKind.BINOMIAL, 1), 4) == [2, 2, 4, 10]
    for k in range(1, 11):
        printed = gf_expand(published_gf(TransformKind.BINOMIAL, k), 2)
        truth = gf_expand(derived_gf(TransformKind.BINOMIAL, k), 2)
        assert printed[0] == truth[0]
        assert printed[1] != truth[1]
    assert not gf_equal(published_gf(TransformKind.BINOMIAL, K),
                        derived_gf(TransformKind.BINOMIAL, K))


def test_published_gfs_match_derivations_for_other_kinds():
    for kind in (TransformKind.K_BINOMIAL, TransformKind.RISING_K,
                 TransformKind.FALLING_K):
        assert gf_equal(published_gf(kind, K), derived_gf(kind, K))
        for k in range(1, 11):
            assert gf_equal(published_gf(kind, k), derived_gf(kind, k))


def test_published_rising_gf_expansion():
    assert gf_expand(published_gf(TransformKind.RISING_K, 2), 4) == [2, 6, 34, 198]


def test_gf_equal_is_cross_multiplied():
    g = derived_gf(TransformKind.BINOMIAL, 3)
    doubled = RationalGF(
        num=xpoly([c * 2 for c in g.num.coeffs]),
        den=g.den,
    )
    assert not gf_equal(g, doubled)
    # same series written with a scaled (still unit-constant) denominator
    shifted = RationalGF(
        num=g.num * xpoly([1, 1]),
        den=g.den * xpoly([1, 1]),
    )
    assert gf_equal(g, shifted)


def test_denominator_must_have_unit_constant_term():
    with pytest.raises(ValueError):
        RationalGF(num=xpoly([1]), den=xpoly([2, 1]))
    with pytest.raises(ValueError):
        RationalGF(num=xpoly([1]), den=xpoly([]))


def test_xpoly_canonicalisation():
    assert xpoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert xpoly([]).coeffs == ()
    with pytest.raises(ValueError):
        XPoly((1, 0))  # direct construction must already be canonical


def test_xpoly_arithmetic():
    p = xpoly([1, 2])
    q = xpoly([3, -2])
    assert (p * q).coeffs == (3, 4, -4)
    assert xpoly([0]).degree == -1
    assert p.coefficient(0) == 1
    assert p.coefficient(5) == 0


def test_gf_text_rendering():
    assert gf_str(derived_gf(TransformKind.RISING_K, K)) == \
        "(2 - (2k^2-2k+2)x) / (1 - (k^2+2)x + x^2)"
    assert gf_str(derived_gf(TransformKind.BINOMIAL, 2)) == \
        "(2 - 4x) / (1 - 4x + 2x^2)"
    assert gf_str(derived_gf(TransformKind.BINOMIAL, K)) == \
        "(2 - 2kx) / (1 - (k+2)x + kx^2)"
    assert gf_str(derived_gf(TransformKind.K_BINOMIAL, K)) == \
        "(2 - 2k^2x) / (1 - (k^2+2k)x + k^3x^2)"
    assert xpoly_str(xpoly([])) == "0"
    assert xpoly_str(xpoly([1, 1])) == "1 + x"


SRC_DIR = Path(__file__).resolve().parents[1] / "src"

GF_CHILD = """
import sys
from kfiblike.genfunc import derived_gf, gf_str
from kfiblike.transforms import TransformKind
k = 7**4000  # 3381 digits; k**3 has 10,141
try:
    str(k**3)
except ValueError:
    pass
else:
    raise SystemExit("the default str(int) guard is not in force")
text = gf_str(derived_gf(TransformKind.K_BINOMIAL, k))
sys.set_int_max_str_digits(0)
want = f"(2 - {2 * k**2}x) / (1 - {k**2 + 2 * k}x + {k**3}x^2)"
assert text == want, text[:40]
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no str(int) guard before CPython 3.11")
def test_gf_str_works_under_the_default_str_guard():
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", GF_CHILD], capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_expand_count_validation():
    gf = derived_gf(TransformKind.BINOMIAL, 2)
    assert gf_expand(gf, 0) == []
    with pytest.raises(ValueError):
        gf_expand(gf, -1)
