"""Delta polynomials of lattice simplices and their residue groups.

The delta polynomial collects group elements by height: coefficient i counts
elements whose coordinate sum is i.  Its value at t = 1 is the group order,
which equals the normalized volume of the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .errors import BudgetExceeded, DimensionTooSmall, NotGorenstein
from .residues import ResidueGroup, group_of_simplex
from .simplex import LatticeSimplex, count_points

# ehrhart_check point budget; enough for every volume<=8, dim<=6 simplex
DEFAULT_POINT_BUDGET = 10_000_000


@dataclass(frozen=True)
class DeltaPolynomial:
    """Coefficient vector (delta_0, ..., delta_d); trailing zeros are kept."""

    coeffs: tuple[int, ...]

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    @property
    def volume(self) -> int:
        return sum(self.coeffs)

    def __str__(self) -> str:
        return delta_text(self)


def delta_of(group: ResidueGroup) -> DeltaPolynomial:
    """Height distribution of the group, as a polynomial of length ambient."""
    coeffs = [0] * group.ambient
    for h in group.heights():
        coeffs[h] += 1
    return DeltaPolynomial(tuple(coeffs))


def _stripped(p: DeltaPolynomial) -> tuple[int, ...]:
    cs = list(p.coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def is_gorenstein(p: DeltaPolynomial) -> bool:
    """True when the coefficients are palindromic after dropping trailing zeros."""
    cs = _stripped(p)
    return bool(cs) and cs == cs[::-1]


def gorenstein_index(p: DeltaPolynomial, d: int | None = None) -> int:
    """Index r = d + 1 - s where s is the last nonzero degree.

    d defaults to the length-implied dimension (one less than the number of
    stored coefficients).
    """
    if not is_gorenstein(p):
        raise NotGorenstein(f"not palindromic: {p.coeffs}")
    if d is None:
        d = p.degree_bound
    s = len(_stripped(p)) - 1
    return d + 1 - s


def target(v: int, k: int, d: int) -> DeltaPolynomial:
    """The length-(d+1) polynomial 1 + t^(k+1) + ... + t^((v-1)(k+1))."""
    top = (v - 1) * (k + 1)
    if d < top:
        raise DimensionTooSmall(f"need d >= {top} for v={v}, k={k}, got d={d}")
    coeffs = [0] * (d + 1)
    for j in range(v):
        coeffs[j * (k + 1)] = 1
    return DeltaPolynomial(tuple(coeffs))


def delta_text(p: DeltaPolynomial) -> str:
    terms = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            factor = "" if c == 1 else str(c)
            power = "t" if i == 1 else f"t^{i}"
            terms.append(factor + power)
    return " + ".join(terms) if terms else "0"


def series_from_counts(counts: list[int], d: int) -> list[int]:
    """Numerator coefficients of the Ehrhart series from counts L(0..2d+1).

    c_m = sum_j (-1)^j C(d+1, j) L(m - j).  For a d-simplex the results
    beyond degree d must vanish; returning all 2d+2 values lets callers
    verify that.
    """
    out = []
    for m in range(len(counts)):
        c = 0
        for j in range(min(m, d + 1) + 1):
            c += (-1) ** j * comb(d + 1, j) * counts[m - j]
        out.append(c)
    return out


def ehrhart_check(s: LatticeSimplex, budget: int | None = DEFAULT_POINT_BUDGET) -> bool:
    """Compare the group-derived delta against direct lattice point counts.

    Counts dilates 0..2d+1, extracts the series numerator, and matches it
    against delta_of(group_of_simplex(s)) padded with zeros.  Raises
    BudgetExceeded before counting if the estimated total point work
    exceeds the budget.
    """
    d = s.dim
    top = 2 * d + 1
    if budget is not None:
        est = sum(s.volume() * n**d for n in range(top + 1)) // factorial(d) + top + 1
        if est > budget:
            raise BudgetExceeded(
                f"estimated {est} points exceeds budget {budget}", used=est
            )
    counts = [count_points(s, n) for n in range(top + 1)]
    series = series_from_counts(counts, d)
    expect = list(delta_of(group_of_simplex(s)).coeffs) + [0] * (d + 1)
    return series == expect
