"""The Chen-Lin generating series, expanded at one scale.

The generating series

    g(x) = (1 + x + x^2 + ...)^(r - chi_c) * prod_j (1 - x^{w_j})

is expanded exactly, truncated at a bound, and its coefficient window
(0, rho] read off: chi_c of the weighted barycenter space is minus the
window sum, and the degree d_rho is one plus it.  This is the series
route, independent of the subset-sum formulas in ``engine``.

One scale serves the whole expansion: ``chen_lin_series`` stores every
exponent as an integer over the LCD of the bound, rho and the weights, so
each factor 1 - x^{w_j} is an integer shift of the terms and the cut and
the window end are integer comparisons.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from itertools import repeat
from math import floor, gcd, lcm
from operator import floordiv

from .engine import ChiResult
from .model import ValidatedInstance, _exact


class SparseSeries:
    """Finitely supported sum of c_e * x^e with exponents e >= 0, at one scale.

    The term c * x^(k/scale) is the entry k -> c of an int-keyed dict, with
    ``scale`` the one ``chen_lin_series`` picks.  Zero coefficients are
    never stored.  Two series are equal when their ``terms()`` are, so the
    scale they are stored at does not matter.
    """

    __slots__ = ("scale", "_terms")

    def __init__(self, scale: int, terms: dict[int, int]):
        self.scale = scale
        self._terms = terms

    def terms(self) -> list[tuple[Fraction, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return [(Fraction(k, self.scale), c) for k, c in sorted(self._terms.items())]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self.terms() == other.terms()

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{e}" for e, c in self.terms()) or "0"
        return f"SparseSeries({body})"


def truncation_bound(rho: Fraction, bound: Fraction | None) -> Fraction:
    """The exponent the series is cut at: ``bound``, exact like rho, but never below rho."""
    return max(rho, rho if bound is None else _exact(bound, "bound"))


def chen_lin_series(instance: ValidatedInstance, bound: Fraction | None = None) -> SparseSeries:
    """Expand g(x) truncated at ``truncation_bound(rho, bound)``.

    The series is stored at the LCD of the bound, rho and the weights, so
    the cut ``top``, the window end and every factor's exponent ``step``
    are integers.  Each factor 1 - x^w is one pass over the terms: the
    term at k is subtracted from the term at k + step while k + step <= top.
    The truncated product is the same in any order, so the factors go in
    the order that keeps the passes short: by ascending denominator, and
    heaviest first within one denominator.  After a set of factors every
    exponent lies on the grid of the LCD of their denominators, so a coarse
    grid bounds the support while it can; a heavier factor reaches fewer
    terms under the cut.  (Heaviest first alone doubles the time when every
    subset fits: weights k/(k+1) then put the large, coprime denominators
    first.)  The geometric power (1 + x + ...)^m, m = r - chi_c, comes first:
    its coefficient of x^n is C(m+n-1, n) for every integer m (for negative
    m, the polynomial (1-x)^(-m)), each from the previous one by the exact
    ratio (m+n-1) / n.  The constant term of the product is exactly 1 (checked).
    """
    bound = truncation_bound(instance.rho, bound)
    scale = lcm(
        bound.denominator, instance.rho.denominator, *(w.denominator for w in instance.weights)
    )
    top = bound.numerator * (scale // bound.denominator)
    m = instance.r - instance.chi_c
    terms = {0: 1}
    coeff = 1
    for n in range(1, floor(bound) + 1):
        coeff = coeff * (m + n - 1) // n
        if not coeff:
            break  # m <= 0: the polynomial has ended, every later term is 0
        terms[n * scale] = coeff
    # Sorted as int pairs (denominator, -step): the order above.
    for _, step in sorted((w.denominator, -w.numerator * (scale // w.denominator))
                          for w in instance.weights):
        step = -step
        cap = top - step
        # The snapshot holds the terms before this factor: each key is the
        # source of one subtraction and the target of at most one.
        for k, c in list(terms.items()):
            if k <= cap:
                k += step
                c = terms.get(k, 0) - c
                if c:
                    terms[k] = c
                else:
                    del terms[k]  # the subtracted c is nonzero, so k was there
    if terms.get(0) != 1:
        raise ArithmeticError(f"constant term of g is {terms.get(0, 0)}, not 1")
    return SparseSeries(scale, terms)


def window_columns(g: SparseSeries,
                   rho: Fraction) -> tuple[int, Iterator[int], Iterator[int], list[int]]:
    """g's terms above exponent 0, in increasing order: how many lie in the
    window (0, rho], ties at rho included, and the columns of numerators and
    denominators (iterators, read once; one gcd per term puts each exponent
    in lowest terms) and of coefficients.  None of the four refers to g, so
    g can be freed while they are read."""
    scale, terms = g.scale, g._terms
    keys = sorted(terms)
    del keys[:bisect_right(keys, 0)]
    gcds = list(map(gcd, keys, repeat(scale)))
    inside = bisect_right(keys, rho.numerator * scale // rho.denominator)
    return (inside, map(floordiv, keys, gcds), map(floordiv, repeat(scale), gcds),
            list(map(terms.__getitem__, keys)))


def chi_c_series(instance: ValidatedInstance, *, breakdown: bool = False) -> ChiResult:
    """chi_c via the coefficient window (0, rho] of g, the exponents in
    (0, rho] with ties at rho included: minus the sum of the window's
    coefficients.

    The window ends at rho and the cut is never below it, so g is expanded
    at rho, its factors by ascending denominator and heaviest first within
    one (see ``chen_lin_series``: a heavy factor reaches few terms under the
    cut).  Cut at rho, every term of g but the constant 1 lies in the
    window, so chi_c is 1 minus the sum of all of g's coefficients, read in
    one sum with no window test, and the breakdown rows are the terms past
    the constant, each exponent keyed as ``window_columns`` gives it, an
    int pair ``(numerator, denominator)`` in lowest terms.  Agrees exactly
    with the direct method.
    """
    g = chen_lin_series(instance)
    rows = ()
    if breakdown:
        _, numerators, denominators, coefficients = window_columns(g, instance.rho)
        rows = tuple(zip(zip(numerators, denominators), coefficients))
    return ChiResult(1 - sum(g._terms.values()), rows)
