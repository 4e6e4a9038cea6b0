"""Sparse formal series with rational exponents and the Chen-Lin expansion.

The generating series

    g(x) = (1 + x + x^2 + ...)^(r - chi_c) * prod_j (1 - x^{w_j})

is expanded exactly, truncated at a bound, and its coefficient window
(0, rho] read off: chi_c of the weighted barycenter space is minus the
window sum, and the degree d_rho is one plus it.  This is the series
route, independent of the subset-sum formulas in ``engine``.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import floor, lcm

from .engine import METHOD_SERIES, ChiResult
from .model import ValidatedInstance


class SparseSeries:
    """Finitely supported sum of c_e * x^e with exponents e >= 0.

    Exponents are exact rationals stored as integers over one common
    denominator ``scale``: the term c * x^(k/scale) is the entry k -> c of
    an int-keyed dict, so merging and truncating exponents is integer
    work.  The constructor takes the LCD of the exponents it is given;
    ``chen_lin_series`` takes the LCD of the bound, rho and the weights.  Exponents compare by value
    (1/2 + 1/2 merges with the integer exponent 1, and series stored at
    different scales are equal when their terms are); zero coefficients
    are never stored.  Instances are immutable once built.
    """

    __slots__ = ("scale", "_terms")

    def __init__(self, terms: Mapping[Fraction | int, int] | Iterable[tuple[Fraction | int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = [(Fraction(exponent), coeff) for exponent, coeff in items]
        scale = lcm(*(e.denominator for e, _ in pairs))
        data: dict[int, int] = {}
        for e, coeff in pairs:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            key = e.numerator * (scale // e.denominator)
            data[key] = data.get(key, 0) + coeff
        self.scale = scale
        self._terms = {k: c for k, c in data.items() if c}

    @classmethod
    def _scaled(cls, scale: int, terms: dict[int, int]) -> SparseSeries:
        """The series sum_k c_k * x^(k/scale), from nonzero int-keyed terms."""
        series = cls.__new__(cls)
        series.scale = scale
        series._terms = terms
        return series

    def _keyed_at(self, scale: int) -> dict[int, int]:
        """The terms keyed by exponent * ``scale``, a multiple of ``self.scale``."""
        factor = scale // self.scale
        if factor == 1:
            return self._terms
        return {k * factor: c for k, c in self._terms.items()}

    def coefficient(self, exponent: Fraction | int) -> int:
        key = Fraction(exponent) * self.scale
        return self._terms.get(key.numerator, 0) if key.denominator == 1 else 0

    def terms(self) -> list[tuple[Fraction, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return [(Fraction(k, self.scale), c) for k, c in sorted(self._terms.items())]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseSeries):
            return NotImplemented
        scale = lcm(self.scale, other.scale)
        return self._keyed_at(scale) == other._keyed_at(scale)

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
    return SparseSeries._scaled(scale, terms)


def multiply_truncated(a: SparseSeries, b: SparseSeries, bound: Fraction | int) -> SparseSeries:
    """Exact Cauchy product of two series, discarding exponents > bound.

    When the shorter factor has constant term 1 (every factor 1 - x^w of g
    does), the product starts as a copy of the longer one, and only the
    shorter one's other terms are multiplied out.
    """
    scale = lcm(a.scale, b.scale)
    top = floor(Fraction(bound) * scale)
    short, long = sorted((a._keyed_at(scale), b._keyed_at(scale)), key=len)
    if short.get(0) == 1:
        acc = dict(long) if max(long) <= top else {k: c for k, c in long.items() if k <= top}
        outer = [(ks, cs) for ks, cs in short.items() if ks]
    else:
        acc = {}
        outer = short.items()
    for ks, cs in outer:
        cap = top - ks
        for kl, cl in long.items():
            if kl <= cap:
                k = ks + kl
                c = acc.get(k, 0) + cs * cl
                if c:
                    acc[k] = c
                else:
                    del acc[k]  # cs * cl is nonzero, so k was already there
    return SparseSeries._scaled(scale, acc)


def truncation_bound(rho: Fraction, bound: Fraction | None) -> Fraction:
    """The exponent the series is cut at: ``bound``, but never below rho."""
    return rho if bound is None or bound < rho else bound


def chen_lin_series(instance: ValidatedInstance, bound: Fraction | None = None) -> SparseSeries:
    """Expand g(x) truncated at ``truncation_bound(rho, bound)``.

    The series is stored at the LCD of the bound, rho and the weights, so
    the truncation point, the window end and every factor's exponent are
    integers.  The constant term of the product is exactly 1 (checked).
    """
    bound = truncation_bound(instance.rho, bound)
    scale = lcm(
        bound.denominator, instance.rho.denominator, *(w.denominator for w in instance.weights)
    )
    g = expand_geometric_power(instance.r - instance.chi_c, bound, scale)
    for w in instance.weights:
        factor = SparseSeries._scaled(scale, {0: 1, w.numerator * (scale // w.denominator): -1})
        g = multiply_truncated(g, factor, bound)
    if g.coefficient(0) != 1:
        raise ArithmeticError(f"constant term of g is {g.coefficient(0)}, not 1")
    return g


def window_keys(g: SparseSeries, rho: Fraction) -> list[int]:
    """The int keys of g's coefficient window: exponents in (0, rho], ties
    at rho included, in no particular order."""
    top = floor(rho * g.scale)
    return [k for k in g._terms if 0 < k <= top]


def chi_c_window(g: SparseSeries, rho: Fraction, *, breakdown: bool = False) -> ChiResult:
    """chi_c read off the coefficient window of g: minus the sum of
    coefficients at exponents in (0, rho] (see ``window_keys``).

    With ``breakdown`` the result lists the window's (exponent,
    coefficient) pairs in increasing exponent order.
    """
    keys = window_keys(g, rho)
    rows = ()
    if breakdown:
        rows = tuple((Fraction(k, g.scale), g._terms[k]) for k in sorted(keys))
    return ChiResult(-sum(g._terms[k] for k in keys), METHOD_SERIES, rows)


def chi_c_series(
    instance: ValidatedInstance, bound: Fraction | None = None, *, breakdown: bool = False
) -> ChiResult:
    """chi_c via the coefficient window (0, rho] of g (see ``chi_c_window``).

    Agrees exactly with the direct method.
    """
    return chi_c_window(chen_lin_series(instance, bound), instance.rho, breakdown=breakdown)
