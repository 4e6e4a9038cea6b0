"""Exact integer combinatorics: extended binomial coefficients and identities.

All values are Python ints (arbitrary precision); nothing here ever
touches floating point, so results are exact at any operand size.
"""
from __future__ import annotations

from math import factorial


def ext_binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) extended to every integer n.

    Evaluates the falling-factorial polynomial n(n-1)...(n-k+1)/k!
    exactly, which gives:

    * k < 0        -> 0
    * k = 0        -> 1 for every n
    * 0 <= n < k   -> 0
    * n >= k >= 0  -> the ordinary binomial coefficient
    * n < 0, k > 0 -> (-1)^k * C(-n+k-1, k)

    The negative-n reflection above is a consequence, not the code path.
    """
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= n - j
    # k! divides any product of k consecutive integers, so this is exact.
    return num // factorial(k)


def hockey_stick_sum(m: int, n: int) -> int:
    """1 + sum_{j=1..n} C(m+j-1, j), which telescopes to C(m+n, n).

    Valid for every integer m, including m <= 0; n must be >= 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 1
    for j in range(1, n + 1):
        total += ext_binomial(m + j - 1, j)
    return total


def gould_convolution(chi1: int, chi2: int, k: int) -> int:
    """sum_{l=0..k} C(k-l-chi1, k-l) * C(l-1-chi2, l).

    The Vandermonde-style convolution that collapses a two-part
    decomposition into the single coefficient C(k-chi1-chi2, k).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    total = 0
    for l in range(k + 1):
        total += ext_binomial(k - l - chi1, k - l) * ext_binomial(l - 1 - chi2, l)
    return total

