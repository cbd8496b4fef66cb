"""Residue vectors mod 1 and the finite subgroups of (Q/Z)^n they form.

A lattice simplex with vertices v_0..v_d determines the group of vectors
(λ_0..λ_d) over Q/Z with Σ λ_i (v_i, 1) integral; its order is the
normalized volume, and the coordinate-sum statistics of its elements encode
the delta polynomial.  A group of exponent N is stored as integer rows in
[0, N), row r standing for r/N; Fractions in [0, 1) appear only at the
boundary, as generators and as the `elements` view.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

from .errors import NonIntegralHeight
from .exactla import snf

__all__ = [
    "ResidueGroup",
    "normalize",
    "height",
    "from_generators",
    "trivial",
    "group_of_simplex",
    "direct_sum",
    "pyramid_coordinates",
    "canonical_form",
    "group_to_json",
    "group_from_json",
]

_ZERO = Fraction(0)

# largest group from_generators closes; larger input is rejected as bad
_MAX_ORDER = 100_000


def normalize(vec):
    """Canonical representative in [0,1) per coordinate."""
    return tuple(Fraction(x) % 1 for x in vec)


def height(vec):
    """Sum of the canonical representatives; integral for group elements."""
    return sum(vec, start=_ZERO)


class ResidueGroup:
    """Finite subgroup of (Q/Z)^ambient: the normalized Fraction generators,
    the exponent N (the lcm of their denominators) and the elements times N,
    sorted, as integer rows."""

    __slots__ = ("ambient", "generators", "exponent", "rows")

    def __init__(self, ambient, generators, exponent, rows):
        self.ambient = ambient
        self.generators = generators
        self.exponent = exponent
        self.rows = rows

    @property
    def order(self):
        return len(self.rows)

    @property
    def elements(self):
        """The rows as tuples of Fractions in [0, 1), in the same order."""
        n = self.exponent
        return tuple(tuple(Fraction(a, n) for a in r) for r in self.rows)

    def heights(self):
        """Height of each row, rounded down where it is not integral."""
        n = self.exponent
        return [sum(r) // n for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, ResidueGroup)
                and self.ambient == other.ambient
                and self.exponent == other.exponent
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.exponent, self.rows))

    def __repr__(self):
        return f"ResidueGroup(ambient={self.ambient}, order={self.order})"


def from_generators(gens, strict=True):
    """Close a generator list under addition mod 1.

    With strict on, every element must have an integer height; groups coming
    from simplices always do, and classification paths rely on it.  Raises
    ValueError once the closure passes _MAX_ORDER elements, checked after
    each round of the breadth-first closure.
    """
    gens = [normalize(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator; use trivial() instead")
    n = len(gens[0])
    if n < 1 or any(len(g) != n for g in gens):
        raise ValueError("generators must share a common positive length")
    den = lcm(*(x.denominator for g in gens for x in g))
    steps = [tuple(x.numerator * (den // x.denominator) for x in g)
             for g in gens]
    zero = (0,) * n
    elems = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for x in frontier:
            for g in steps:
                y = tuple((a + b) % den for a, b in zip(x, g))
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
        if len(elems) > _MAX_ORDER:
            raise ValueError(
                f"generators close to more than {_MAX_ORDER} elements")
    rows = tuple(sorted(elems))
    if strict:
        for r in rows:
            if sum(r) % den:
                e = tuple(Fraction(a, den) for a in r)
                raise NonIntegralHeight(f"element {e} has height {height(e)}")
    return ResidueGroup(n, tuple(gens), den, rows)


def trivial(ambient):
    """The zero subgroup of (Q/Z)^ambient."""
    if ambient < 1:
        raise ValueError("ambient must be positive")
    return ResidueGroup(ambient, (), 1, ((0,) * ambient,))


def group_of_simplex(s):
    """Group of residue vectors λ with λ @ homogenized(s) integral.

    Solved through the Smith form s = u m v: μ s must be integral for
    μ = λ u^{-1}, so the rows of u divided by the diagonal generate all
    solutions mod 1.
    """
    m = s.homogenized()
    sm, u, _ = snf(m)
    n = len(sm)
    gens = []
    for i in range(n):
        d = sm[i][i]
        if d > 1:
            gens.append(tuple(Fraction(u[i][j], d) % 1 for j in range(n)))
    if not gens:
        return trivial(n)
    return from_generators(gens, strict=True)


def direct_sum(a, b):
    """All concatenations of elements; ambient adds and order multiplies."""
    gens = [g + (_ZERO,) * b.ambient for g in a.generators]
    gens += [(_ZERO,) * a.ambient + g for g in b.generators]
    if not gens:
        return trivial(a.ambient + b.ambient)
    return from_generators(gens, strict=False)


def pyramid_coordinates(g):
    """Coordinates that vanish on the whole group; nonempty iff the simplex
    is a lattice pyramid."""
    return tuple(i for i in range(g.ambient)
                 if all(r[i] == 0 for r in g.rows))


def canonical_form(g):
    """Byte-comparable key equal for two groups exactly when one is a
    coordinate permutation of the other.

    Searches for the coordinate order minimizing the sequence of row-sorted
    prefix tables. Each position tries every distinct remaining column, and
    all partial assignments achieving the minimum are kept, so the result is
    the true minimum over all coordinate orders: the full sorted element
    table under the best order, a complete invariant.  Entries print as the
    Fractions the rows stand for.
    """
    elems = g.rows
    m, n = len(elems), g.ambient
    text = {a: str(Fraction(a, g.exponent)) for a in set().union(*elems)}
    base = Counter(tuple(e[i] for e in elems) for i in range(n))
    states = [(((),) * m, base)]
    table = None
    for _ in range(n):
        best_key = None
        best = {}
        for rows, rem in states:
            for col in list(rem):
                new_rows = tuple(rows[e] + (col[e],) for e in range(m))
                cand = tuple(sorted(new_rows))
                if best_key is None or cand < best_key:
                    best_key = cand
                    best = {}
                if cand == best_key and new_rows not in best:
                    rem2 = rem.copy()
                    rem2[col] -= 1
                    if not rem2[col]:
                        del rem2[col]
                    best[new_rows] = rem2
        states = list(best.items())
        table = best_key
    return "|".join(",".join(text[x] for x in row) for row in table)


def group_to_json(g):
    return {"ambient": g.ambient,
            "generators": [[str(x) for x in gen] for gen in g.generators]}


def group_from_json(obj):
    if not isinstance(obj, dict) or "generators" not in obj:
        raise ValueError("group JSON needs a 'generators' field")
    rows = obj["generators"]
    if not isinstance(rows, list) or not all(
            isinstance(row, list)
            and all(isinstance(x, (int, float, str)) for x in row)
            for row in rows):
        raise ValueError("'generators' must be a list of lists of fractions")
    ambient = obj.get("ambient", 0)
    if not isinstance(ambient, int):
        raise ValueError(f"'ambient' must be an integer, got {ambient!r}")
    gens = [[Fraction(x) for x in gen] for gen in rows]
    if not gens:
        return trivial(ambient)
    g = from_generators(gens)
    if "ambient" in obj and ambient != g.ambient:
        raise ValueError("declared ambient does not match generators")
    return g
