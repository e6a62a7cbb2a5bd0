#!/usr/bin/env python3
"""Closed forms three ways: exact Lucas-sequence Binet, double-precision
Binet, and the published coefficient pairs evaluated verbatim.

The exact form x(n) = x1*U(n) - Q*x0*U(n-1) is fixed by the recurrence's own
initial conditions, so it can never disagree with iteration.  The published
coefficient pairs, on the other hand, satisfy the initial conditions only for
the binomial and rising families; this script shows exactly where the
k-binomial and falling pairs break.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kfiblike import (  # noqa: E402
    KIND_ORDER,
    TransformKind,
    binet_closed,
    binet_float,
    published_binet,
    terms,
    transform_direct,
    transform_recurrence,
)

print("=" * 72)
print("CHARACTERISTIC DATA (symbolic)")
print("=" * 72)
from kfiblike import K  # noqa: E402
from kfiblike.sequences import lucas_form  # noqa: E402

for kind in KIND_ORDER:
    rec = transform_recurrence(kind, K)
    P, Q = rec.a, -rec.b
    print(f"  {kind.value:<10} x^2 - ({P})x + ({Q}),  discriminant {P * P - Q.scale(4)}")
print()

print("Lucas sequence U(P,Q) realises the root quotient (r1^n - r2^n)/(r1 - r2)")
print("without ever leaving exact integers, e.g. U(P=4, Q=2):",
      [lucas_form(4, 2, 0, 1, n) for n in range(7)])
print()

print("=" * 72)
print("EXACT vs FLOATING BINET  (binomial transform, k=2)")
print("=" * 72)
rec = transform_recurrence(TransformKind.BINOMIAL, 2)
seq = terms(rec, 13)
print(f"  {'n':>3} {'iteration':>12} {'exact Binet':>12} {'float Binet':>18}")
for n in range(13):
    exact = binet_closed(rec, n)
    approx = binet_float(rec, n)
    assert exact == seq[n]
    print(f"  {n:>3} {seq[n]:>12} {exact:>12} {approx:>18.6f}")
print()

print("=" * 72)
print("PUBLISHED BINET COEFFICIENT PAIRS, EVALUATED VERBATIM")
print("=" * 72)
print("pairs as printed: (4, -2k) for binomial/k-binomial, (2k+2, -2) for")
print("rising/falling, each over that family's own roots.")
print()
for kind in KIND_ORDER:
    bad = None
    for n in range(1, 17):
        for k in range(1, 9):
            truth = transform_direct(kind, k, n)
            printed = published_binet(kind, k, n)
            if truth != printed:
                bad = (k, n, truth, printed)
                break
        if bad:
            break
    if bad is None:
        print(f"  {kind.value:<10} matches ground truth everywhere tested")
    else:
        k, n, truth, printed = bad
        print(f"  {kind.value:<10} FIRST MISMATCH at k={k}, n={n}: "
              f"formula gives {printed}, true value is {truth}")
print()
print("The mismatching pairs fail their own initial conditions: the k-binomial")
print("family needs w(1) = 4k (the printed pair yields 4), and the falling")
print("family needs the U(n-1) coefficient -2(2k^2-1) rather than -2.")
