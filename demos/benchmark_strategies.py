#!/usr/bin/env python3
"""Compare the three evaluation strategies on one transform term.

iterative        plain recurrence iteration, O(n) ring operations
lucas-doubling   Lucas doubling over (U(n), U(n+1)), O(log n) products
direct-sum       the definitional weighted binomial sum, O(n) fat products

The direct sum is definitionally correct but hopeless at large n (its
binomial factors alone have tens of thousands of digits), which is exactly
why the closed recurrences matter.  Values are cross-checked for equality at
every size where a strategy runs.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kfiblike import (  # noqa: E402
    TransformKind,
    term_fast,
    term_iterative,
    transform_direct,
    transform_recurrence,
)

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

K_VALUE = 2
DIRECT_CAP = 2000
rec = transform_recurrence(TransformKind.BINOMIAL, K_VALUE)

print(f"binomial transform, k={K_VALUE}")
print(f"{'n':>9}  {'iterative':>12}  {'lucas-doubling':>14}  {'direct-sum':>12}")
for n in (100, 1000, 10000, 100000):
    t0 = time.perf_counter()
    v_iter = term_iterative(rec, n)
    t_iter = time.perf_counter() - t0

    t0 = time.perf_counter()
    v_fast = term_fast(rec, n)
    t_fast = time.perf_counter() - t0
    assert v_fast == v_iter

    if n <= DIRECT_CAP:
        t0 = time.perf_counter()
        v_dir = transform_direct(TransformKind.BINOMIAL, K_VALUE, n)
        t_dir = time.perf_counter() - t0
        assert v_dir == v_iter
        direct_cell = f"{t_dir:>10.4f}s"
    else:
        direct_cell = "   skipped"
    print(f"{n:>9}  {t_iter:>11.4f}s  {t_fast:>13.4f}s  {direct_cell:>12}"
          f"   ({len(str(v_iter))} digits)")

print()
print("all strategies that ran agree exactly at every size")
