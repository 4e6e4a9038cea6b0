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
the window end are integer comparisons.  A short cut keeps the terms in
one int-keyed dict; a cut of ``COLUMNS_FROM`` or more whole levels, each
with a term of the geometric power, keeps them as residue columns, one list
per exponent class modulo 1, so that a factor moves a whole column by
slices.  ``chen_lin_series`` (what the ``series`` command and a breakdown
print) expands every factor; ``chi_c_series`` without a breakdown needs
only the window's sum, and counts the terms of the last two factors
instead of expanding them.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import floor, gcd, lcm
from operator import floordiv, sub

from .engine import ChiResult
from .model import ValidatedInstance, _exact

# The floor of the cut from which g is expanded as residue columns.  Measured
# in process for r = 2 to 14 (CPython 3.11), with and without the window
# read: below a floor of 12 the dict was faster in every case, by up to 10x
# at r = 14 and floor 4, where each column holds a few terms; from 24 the
# columns were, by up to 2x; in between it depends on r.
COLUMNS_FROM = 20


class SparseSeries:
    """Finitely supported sum of c_e * x^e with exponents e >= 0, at one scale.

    The term c * x^(k/scale) is the entry k -> c of an int-keyed dict, with
    ``scale`` the one ``chen_lin_series`` picks.  Zero coefficients are
    never stored.  Two series are equal when their ``terms()`` are, so the
    scale they are stored at does not matter, nor whether a series is
    stored as this dict or as residue columns.
    """

    __slots__ = ("scale", "_terms")

    def __init__(self, scale: int, terms: dict[int, int]):
        self.scale = scale
        self._terms = terms

    def terms(self) -> list[tuple[Fraction, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        keys, coefficients = self._sorted_terms()
        return [(Fraction(k, self.scale), c) for k, c in zip(keys, coefficients)]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return self.terms() == other.terms()

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{e}" for e, c in self.terms()) or "0"
        return f"SparseSeries({body})"

    def _sorted_terms(self) -> tuple[list[int], list[int]]:
        """The int keys of the nonzero terms in increasing order, and their coefficients."""
        terms = self._terms
        keys = sorted(terms)
        return keys, list(map(terms.__getitem__, keys))

    def _coefficients(self) -> Iterable[int]:
        return self._terms.values()

    def _constant(self) -> int:
        return self._terms.get(0, 0)

    def _sum_through(self, cap: int) -> int:
        """The sum of the coefficients at the keys k <= cap."""
        return sum([c for k, c in self._terms.items() if k <= cap])


class _ColumnSeries(SparseSeries):
    """A series stored as residue columns: the coefficient of
    x^((n * scale + s) / scale) is ``columns[s][n]`` for 0 <= s < scale,
    and 0 past the end of a column or for a residue with none.  Zeros are
    stored inside a column, and every reader skips them."""

    __slots__ = ("_columns",)

    def __init__(self, scale: int, columns: dict[int, list[int]]):
        self.scale = scale
        self._columns = columns

    def __len__(self) -> int:
        return sum(len(column) - column.count(0) for column in self._columns.values())

    def _sorted_terms(self) -> tuple[list[int], list[int]]:
        # The columns laid side by side in residue order, as rows of one
        # flat list: row n holds the keys n * scale + s, so the rows read one
        # after another are in key order.
        columns, scale = self._columns, self.scale
        residues = sorted(columns)
        width = len(residues)
        size = max(map(len, columns.values())) * width
        cells, keys = [0] * size, [0] * size
        for j, s in enumerate(residues):
            column = columns[s]
            cells[j:len(column) * width:width] = column
            keys[j::width] = range(s, s + size // width * scale, scale)
        return list(compress(keys, cells)), list(filter(None, cells))

    def _coefficients(self) -> Iterable[int]:
        return chain.from_iterable(self._columns.values())

    def _constant(self) -> int:
        return self._columns[0][0]

    def _sum_through(self, cap: int) -> int:
        # Column s holds the keys s, s + scale, ...: those <= cap are its first
        # (cap - s) // scale + 1 entries.  A residue past cap has none, and
        # its slice end would be negative, which counts from the column's end.
        scale = self.scale
        return sum([sum(column[:(cap - s) // scale + 1])
                    for s, column in self._columns.items() if s <= cap])


def truncation_bound(rho: Fraction, bound: Fraction | None) -> Fraction:
    """The exponent the series is cut at: ``bound``, exact like rho, but never below rho."""
    return max(rho, rho if bound is None else _exact(bound, "bound"))


def chen_lin_series(instance: ValidatedInstance, bound: Fraction | None = None) -> SparseSeries:
    """Expand g(x) truncated at ``truncation_bound(rho, bound)``.

    ``_factors`` sets the scale, the geometric power and the factors'
    order, and ``_expand`` multiplies out every factor, in a dict or as
    residue columns.
    """
    bound = truncation_bound(instance.rho, bound)
    return _expand(*_factors(instance, bound))


def _expand(scale: int, top: int, powers: list[int], steps: list[int]) -> SparseSeries:
    """The geometric power ``powers`` times 1 - x^step for each of ``steps``
    in turn, cut at ``top``: as residue columns (``_expand_columns``) when the
    cut's floor reaches ``COLUMNS_FROM`` and the power reaches the cut too,
    else term by term in a dict (``_expand_terms``).  The two give the same
    terms.  The constant term is exactly 1 (checked)."""
    # A column is stored densely from level 0 to its last term, so it costs
    # as many levels as the cut has.  Columns are used only where the power
    # has a term at every level under the cut anyway: one that ends early
    # (m <= 0) leaves g a few terms under a cut that may lie any distance out.
    levels = top // scale
    dense = len(powers) > levels
    expand = _expand_columns if dense and levels >= COLUMNS_FROM else _expand_terms
    g = expand(scale, top, powers, steps)
    if g._constant() != 1:
        raise ArithmeticError(f"constant term of g is {g._constant()}, not 1")
    return g


def _factors(instance: ValidatedInstance, bound: Fraction) -> tuple[int, int, list[int], list[int]]:
    """The scale, the cut ``top`` at that scale, the coefficients of the
    geometric power at x^0, x^1, ... and each factor's exponent ``step``, in
    the order the factors are applied.

    The scale is the LCD of the bound, rho and the weights, so the cut, the
    window end and every factor's step are integers.  The truncated
    product is the same in any order, so the factors go in the order that
    keeps the passes short: by ascending denominator, and heaviest first
    within one denominator.  After a set of factors every exponent lies on
    the grid of the LCD of their denominators, so a coarse grid bounds the
    support while it can; a heavier factor reaches fewer terms under the
    cut.  (Heaviest first alone doubles the time when every subset fits:
    weights k/(k+1) then put the large, coprime denominators first.)  The
    geometric power (1 + x + ...)^m, m = r - chi_c, comes first: its
    coefficient of x^n is C(m+n-1, n) for every integer m (for negative m,
    the polynomial (1-x)^(-m)), each from the previous one by the exact
    ratio (m+n-1) / n; the list ends where the polynomial does.
    """
    scale = lcm(
        bound.denominator, instance.rho.denominator, *(w.denominator for w in instance.weights)
    )
    top = bound.numerator * (scale // bound.denominator)
    m = instance.r - instance.chi_c
    powers = [1]
    coeff = 1
    for n in range(1, floor(bound) + 1):
        coeff = coeff * (m + n - 1) // n
        if not coeff:
            break  # m <= 0: the polynomial has ended, every later term is 0
        powers.append(coeff)
    # Sorted as int pairs (denominator, -step): the order above.
    steps = [-step for _, step in sorted((w.denominator, -w.numerator * (scale // w.denominator))
                                         for w in instance.weights)]
    return scale, top, powers, steps


def _expand_terms(scale: int, top: int, powers: list[int], steps: list[int]) -> SparseSeries:
    """g term by term: each factor 1 - x^w is one pass over the dict, the
    term at k subtracted from the term at k + step while k + step <= top."""
    terms = dict(zip(count(0, scale), powers))
    for step in steps:
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
    return SparseSeries(scale, terms)


def _expand_columns(scale: int, top: int, powers: list[int], steps: list[int]) -> SparseSeries:
    """g as residue columns, starting from ``powers`` itself at residue 0.

    A step of ``shift`` whole levels and ``rest`` more moves the column at
    residue s to residue s + rest, ``shift`` places on, or one place more
    when s + rest carries past the scale.  The target keeps the entries at
    or under ``top``, and is subtracted from in one slice.  Every source
    slice is taken before any target is written, so a factor reads only
    the terms from before it.
    """
    columns = {0: powers}
    for step in steps:
        shift, rest = divmod(step, scale)
        moves = []
        for s, column in columns.items():
            t, at = s + rest, shift
            if t >= scale:
                t, at = t - scale, at + 1
            n = (top - t) // scale - at + 1
            if n > 0:
                moves.append((t, at, column[:n]))
        for t, at, source in moves:
            target = columns.setdefault(t, [])
            end = at + len(source)
            if len(target) < end:
                target.extend(repeat(0, end - len(target)))
            target[at:end] = map(sub, target[at:end], source)
    return _ColumnSeries(scale, columns)


def window_columns(g: SparseSeries,
                   rho: Fraction) -> tuple[int, Iterator[int], Iterator[int], list[int]]:
    """g's terms above exponent 0, in increasing order: how many lie in the
    window (0, rho], ties at rho included, and the columns of numerators and
    denominators (iterators, read once; one gcd per term puts each exponent
    in lowest terms) and of coefficients.  None of the four refers to g, so
    g can be freed while they are read."""
    scale = g.scale
    keys, coefficients = g._sorted_terms()
    constant = bisect_right(keys, 0)
    del keys[:constant], coefficients[:constant]
    gcds = list(map(gcd, keys, repeat(scale)))
    inside = bisect_right(keys, rho.numerator * scale // rho.denominator)
    return inside, map(floordiv, keys, gcds), map(floordiv, repeat(scale), gcds), coefficients


def chi_c_series(instance: ValidatedInstance, *, breakdown: bool = False) -> ChiResult:
    """chi_c via the coefficient window (0, rho] of g, the exponents in
    (0, rho] with ties at rho included: minus the sum of the window's
    coefficients.

    The window ends at rho and the cut is never below it, so g is expanded
    at rho, its factors by ascending denominator and heaviest first within
    one (see ``_factors``: a heavy factor reaches few terms under the
    cut).  Cut at rho, every term of g but the constant 1 lies in the
    window, so chi_c is 1 minus the sum of all of g's coefficients.  With
    ``breakdown`` g is expanded whole, and the rows are its terms past the
    constant, each exponent keyed as ``window_columns`` gives it, an int
    pair ``(numerator, denominator)`` in lowest terms.  Without it the last
    two factors, 1 - x^a and 1 - x^b, are counted, not expanded: g = g'' *
    (1 - x^a) * (1 - x^b) for the product g'' of the others, so the sum of
    g's coefficients under the cut is the sum of those of g'' less its sums
    up to rho - a and up to rho - b, plus its sum up to rho - a - b.  Below
    r = 2 a missing factor is taken with its exponent past the cut, where
    it is 1.
    Agrees exactly with the direct method.
    """
    if breakdown:
        g = chen_lin_series(instance)
        _, numerators, denominators, coefficients = window_columns(g, instance.rho)
        rows = tuple(zip(zip(numerators, denominators), coefficients))
        return ChiResult(1 - sum(g._coefficients()), rows)
    scale, top, powers, steps = _factors(instance, instance.rho)
    a, b = [top + 1, top + 1, *steps][-2:]
    g = _expand(scale, top, powers, steps[:-2])
    total = (sum(g._coefficients()) - g._sum_through(top - a) - g._sum_through(top - b)
             + g._sum_through(top - a - b))
    return ChiResult(1 - total)
