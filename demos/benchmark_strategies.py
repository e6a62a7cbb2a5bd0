#!/usr/bin/env python3
"""Compare the evaluation strategies on one transform term.

Runs ``kfiblike bench --k 2`` on the binomial transform at n = 100, 1000,
10000 and 100000, one row per strategy:

iterative        plain recurrence iteration, O(n) ring operations
lucas-doubling   Lucas doubling over (U(n), U(n+1)), O(log n) products
decimal          decimal text of the Lucas-doubling value, checked against
                 its digit count
direct-sum       the definitional weighted binomial sum by Clenshaw's
                 backward recurrence: at k = 2, O(n) shifts and additions of
                 terms as wide as the result, no product by a binomial
                 coefficient

The direct sum is definitionally correct but quadratic in n: each of its n
steps adds terms as wide as the result (and its binomial coefficients alone
reach tens of thousands of digits at n = 100000), which is why the closed
recurrences matter; ``bench`` times it only up to its direct cap
(n <= 2000).  Values are cross-checked for equality at every size
where a strategy runs, and the script exits with the command's status: 1 on
a mismatch.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kfiblike import cli  # noqa: E402

sys.exit(cli.main(["bench", "--k", "2", "--n", "100", "--n", "1000", "--n", "10000",
                   "--n", "100000"]))
