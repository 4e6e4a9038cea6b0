"""Sparse formal series with rational exponents and the Chen-Lin expansion.

The generating series

    g(x) = (1 + x + x^2 + ...)^(r - chi_c) * prod_j (1 - x^{w_j})

is expanded exactly, truncated at a bound, and its coefficient window
(0, rho] read off: chi_c of the weighted barycenter space is minus the
window sum, and the degree d_rho is one plus it.  This is the series
route, independent of the subset-sum formulas in ``engine``.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Iterable, Mapping

from .combinatorics import ext_binomial
from .engine import METHOD_SERIES, ChiResult
from .model import ValidatedInstance


class SparseSeries:
    """Finitely supported sum of c_e * x^e with exponents e >= 0.

    Exponents are exact rationals compared by value (so 1/2 + 1/2 merges
    with the integer exponent 1); zero coefficients are never stored.
    Instances are immutable once built.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Fraction | int, int] | Iterable[tuple[Fraction | int, int]] = ()):
        data: dict[Fraction, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponent, coeff in items:
            e = Fraction(exponent)
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            c = data.get(e, 0) + coeff
            if c:
                data[e] = c
            elif e in data:
                del data[e]
        self._terms = data

    def coefficient(self, exponent: Fraction | int) -> int:
        return self._terms.get(Fraction(exponent), 0)

    def terms(self) -> list[tuple[Fraction, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{e}" for e, c in self.terms()) or "0"
        return f"SparseSeries({body})"


def expand_geometric_power(m: int, bound: Fraction | int) -> SparseSeries:
    """(1 + x + x^2 + ...)^m truncated to integer exponents <= bound.

    Coefficient of x^n is C(m+n-1, n), valid for every integer m; for
    negative m this is the polynomial (1-x)^(-m).
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    top = floor(bound)
    return SparseSeries(
        (Fraction(n), ext_binomial(m + n - 1, n)) for n in range(top + 1)
    )


def multiply_truncated(a: SparseSeries, b: SparseSeries, bound: Fraction | int) -> SparseSeries:
    """Exact Cauchy product of two series, discarding exponents > bound."""
    bound = Fraction(bound)
    b_terms = b.terms()
    acc: dict[Fraction, int] = {}
    for ea, ca in a.terms():
        if ea > bound:
            break
        for eb, cb in b_terms:
            e = ea + eb
            if e > bound:
                break
            acc[e] = acc.get(e, 0) + ca * cb
    return SparseSeries(acc)


def truncation_bound(rho: Fraction, bound: Fraction | None) -> Fraction:
    """The exponent the series is cut at: ``bound``, but never below rho."""
    return rho if bound is None or bound < rho else bound


def chen_lin_series(instance: ValidatedInstance, bound: Fraction | None = None) -> SparseSeries:
    """Expand g(x) truncated at ``truncation_bound(rho, bound)``.

    The constant term of the product is exactly 1 (checked).
    """
    bound = truncation_bound(instance.rho, bound)
    g = expand_geometric_power(-instance.chi_c + instance.r, bound)
    for w in instance.weights:
        factor = SparseSeries([(Fraction(0), 1), (Fraction(w), -1)])
        g = multiply_truncated(g, factor, bound)
    if g.coefficient(0) != 1:
        raise ArithmeticError(f"constant term of g is {g.coefficient(0)}, not 1")
    return g


def chi_c_series(instance: ValidatedInstance, bound: Fraction | None = None) -> ChiResult:
    """chi_c via the coefficient window of g: minus the sum of coefficients
    at exponents in (0, rho], ties at rho included.

    The breakdown lists the window's (exponent, coefficient) pairs in
    increasing exponent order.  Agrees exactly with the direct method.
    """
    g = chen_lin_series(instance, bound)
    window = tuple((e, c) for e, c in g.terms() if 0 < e <= instance.rho)
    total = sum(c for _, c in window)
    return ChiResult(-total, METHOD_SERIES, window)
