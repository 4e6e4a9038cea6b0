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

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, repeat
from math import floor, gcd, lcm
from operator import floordiv

from .engine import METHOD_SERIES, ChiResult
from .model import ValidatedInstance


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

    def reduced_terms(self) -> list[tuple[int, int, int]]:
        """(numerator, denominator, coefficient) triples in increasing
        exponent order, each exponent in lowest terms: the values of
        ``terms()`` as integers (see ``reduced_columns``)."""
        return list(zip(*reduced_columns(self, 0)[1:]))

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self.terms() == other.terms()

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{e}" for e, c in self.terms()) or "0"
        return f"SparseSeries({body})"


def expand_geometric_power(m: int, bound: Fraction | int, scale: int = 1) -> SparseSeries:
    """(1 + x + x^2 + ...)^m truncated to integer exponents <= bound, stored
    at ``scale``.

    Coefficient of x^n is C(m+n-1, n), valid for every integer m; for
    negative m this is the polynomial (1-x)^(-m).  Each coefficient comes
    from the previous one by the exact ratio
    C(m+n-1, n) = C(m+n-2, n-1) * (m+n-1) / n.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    terms = {0: 1}
    coeff = 1
    for n in range(1, floor(bound) + 1):
        coeff = coeff * (m + n - 1) // n
        if not coeff:
            break  # m <= 0: the polynomial has ended, every later term is 0
        terms[n * scale] = coeff
    return SparseSeries(scale, terms)


def truncation_bound(rho: Fraction, bound: Fraction | None) -> Fraction:
    """The exponent the series is cut at: ``bound``, but never below rho."""
    return rho if bound is None or bound < rho else bound


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
    first.)  The constant term of the product is exactly 1 (checked).
    """
    bound = truncation_bound(instance.rho, bound)
    scale = lcm(
        bound.denominator, instance.rho.denominator, *(w.denominator for w in instance.weights)
    )
    top = bound.numerator * (scale // bound.denominator)
    g = expand_geometric_power(instance.r - instance.chi_c, bound, scale)
    terms = g._terms
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
    return g


def reduced_columns(
    g: SparseSeries, start: int
) -> tuple[list[int], Iterator[int], Iterator[int], list[int]]:
    """g's int keys in ascending order, and the numerators, denominators and
    coefficients of the terms from the ``start``-th key on, each exponent in
    lowest terms: one gcd per term, no ``Fraction`` and no per-term tuple.
    The numerators and denominators are iterators, read once; none of the
    four refers to g, so g can be freed while they are read."""
    scale, terms = g.scale, g._terms
    keys = sorted(terms)
    gcds = list(map(gcd, islice(keys, start, None), repeat(scale)))
    return (keys, map(floordiv, islice(keys, start, None), gcds),
            map(floordiv, repeat(scale), gcds),
            list(map(terms.__getitem__, islice(keys, start, None))))


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
    the constant, each exponent keyed as ``reduced_columns`` gives it, an
    int pair ``(numerator, denominator)`` in lowest terms.  Agrees exactly
    with the direct method.
    """
    g = chen_lin_series(instance)
    rows = ()
    if breakdown:
        _, numerators, denominators, coefficients = reduced_columns(g, 1)
        rows = tuple(zip(zip(numerators, denominators), coefficients))
    return ChiResult(1 - sum(g._terms.values()), METHOD_SERIES, rows)
