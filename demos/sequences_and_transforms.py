#!/usr/bin/env python3
"""Tour of the base sequences and the four binomial-family transforms.

Walks through the modified k-Fibonacci-like sequence M and the k-Fibonacci
sequence F, the identities linking them, and then builds each transform two
independent ways (definitional weighted sum vs closed recurrence) to show
they always agree.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kfiblike import (  # noqa: E402
    KIND_ORDER,
    K,
    f_from_m,
    k_fib,
    m_from_f,
    modified_k_fib,
    terms,
    transform_direct,
    transform_recurrence,
)

print("=" * 72)
print("BASE SEQUENCES")
print("=" * 72)
for k in (1, 2, 3):
    print(f"  M(k={k}):", terms(modified_k_fib(k), 9))
    print(f"  F(k={k}):", terms(k_fib(k), 9))
print()
print("  symbolic M prefix:", [str(p) for p in terms(modified_k_fib(K), 6)])
print("  symbolic F prefix:", [str(p) for p in terms(k_fib(K), 6)])
print()

print("Identities between the two families (checked here for k=2, n=1..8):")
ms = terms(modified_k_fib(2), 9)
fs = terms(k_fib(2), 9)
for n in range(1, 9):
    assert m_from_f(2, n) == ms[n]
    assert f_from_m(2, n) == fs[n]
print("  M(n) = 2*(F(n) + F(n-1))          OK")
print("  F(n) = (1/2) * alt-sum of M(n-i)  OK")
print()

print("=" * 72)
print("THE FOUR TRANSFORMS, TWO ROUTES EACH")
print("=" * 72)
print("weights: binomial 1, k-binomial k^n, rising k^i, falling k^(n-i)")
print()
for kind in KIND_ORDER:
    print(f"--- {kind.value} transform ---")
    for k in (1, 2, 3, 4, 5):
        direct = [transform_direct(kind, k, n) for n in range(6)]
        closed = terms(transform_recurrence(kind, k), 6)
        marker = "==" if direct == closed else "!!"
        print(f"  k={k}: {direct}  (direct {marker} recurrence)")
        assert direct == closed
    print()

print("At k=1 every weight collapses to 1, so all four transforms coincide:")
for kind in KIND_ORDER:
    print(f"  {kind.value:<10}", [transform_direct(kind, 1, n) for n in range(6)])
