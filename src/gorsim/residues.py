"""Residue vectors mod 1 and the finite subgroups of (Q/Z)^n they form.

A lattice simplex with vertices v_0..v_d determines the group of vectors
(λ_0..λ_d) over Q/Z with Σ λ_i (v_i, 1) integral; its order is the
normalized volume, and the coordinate-sum statistics of its elements encode
the delta polynomial. Vectors are tuples of Fractions in [0, 1).
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
    "order_of",
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


def order_of(vec):
    """Least positive multiple sending the vector to zero mod 1."""
    out = 1
    for x in vec:
        out = lcm(out, Fraction(x).denominator)
    return out


class ResidueGroup:
    """Finite subgroup of (Q/Z)^ambient with a sorted element table."""

    __slots__ = ("ambient", "generators", "elements")

    def __init__(self, ambient, generators, elements):
        self.ambient = ambient
        self.generators = generators
        self.elements = elements

    @property
    def order(self):
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, ResidueGroup)
                and self.ambient == other.ambient
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ambient, self.elements))

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
    zero = (_ZERO,) * n
    elems = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % 1 for a, b in zip(x, g))
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
        if len(elems) > _MAX_ORDER:
            raise ValueError(
                f"generators close to more than {_MAX_ORDER} elements")
    if strict:
        for e in elems:
            h = height(e)
            if h.denominator != 1:
                raise NonIntegralHeight(f"element {e} has height {h}")
    return ResidueGroup(n, tuple(gens), tuple(sorted(elems)))


def trivial(ambient):
    """The zero subgroup of (Q/Z)^ambient."""
    if ambient < 1:
        raise ValueError("ambient must be positive")
    return ResidueGroup(ambient, (), ((_ZERO,) * ambient,))


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
    elems = tuple(sorted(x + y for x in a.elements for y in b.elements))
    pad_a = (_ZERO,) * a.ambient
    pad_b = (_ZERO,) * b.ambient
    gens = tuple(g + pad_b for g in a.generators)
    gens += tuple(pad_a + g for g in b.generators)
    return ResidueGroup(a.ambient + b.ambient, gens, elems)


def pyramid_coordinates(g):
    """Coordinates that vanish on the whole group; nonempty iff the simplex
    is a lattice pyramid."""
    return tuple(i for i in range(g.ambient)
                 if all(e[i] == 0 for e in g.elements))


def canonical_form(g):
    """Byte-comparable key equal for two groups exactly when one is a
    coordinate permutation of the other.

    Searches for the coordinate order minimizing the sequence of row-sorted
    prefix tables. Each position tries every distinct remaining column, and
    all partial assignments achieving the minimum are kept, so the result is
    the true minimum over all coordinate orders: the full sorted element
    table under the best order, a complete invariant.

    The search runs on the elements scaled by N, the lcm of their
    denominators.  Scaling keeps the order, so the minimum and its text are
    those of the Fraction table, at integer comparison cost.
    """
    elems = g.elements
    m, n = len(elems), g.ambient
    scale = lcm(*{x.denominator for e in elems for x in e})
    scaled = [tuple(x.numerator * (scale // x.denominator) for x in e)
              for e in elems]
    text = {a: str(Fraction(a, scale)) for a in set().union(*scaled)}
    base = Counter(tuple(e[i] for e in scaled) for i in range(n))
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
