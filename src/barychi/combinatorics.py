"""Exact integer combinatorics: the binomial coefficient extended to every integer n.

All values are Python ints (arbitrary precision); nothing here ever
touches floating point, so results are exact at any operand size.
"""
from __future__ import annotations

from math import comb


def ext_binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) extended to every integer n.

    The value of the falling-factorial polynomial n(n-1)...(n-k+1)/k!:

    * k < 0        -> 0
    * k = 0        -> 1 for every n
    * 0 <= n < k   -> 0
    * n >= k >= 0  -> the ordinary binomial coefficient
    * n < 0, k > 0 -> (-1)^k * C(-n+k-1, k)

    ``math.comb`` evaluates the n >= 0 cases, using C(n, k) = C(n, n-k) to
    keep the work at min(k, n-k) steps; negative n goes through the
    reflection in the last line.
    """
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    value = comb(k - n - 1, k)
    return -value if k % 2 else value
