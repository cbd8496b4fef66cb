"""Lattice simplices: constructors, volume, and exact dilate point counts."""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import DegenerateSimplex
from .exactla import det, hnf

__all__ = [
    "LatticeSimplex",
    "from_vertices",
    "family_A",
    "family_BC",
    "pyramid",
    "count_points",
    "simplex_to_json",
    "simplex_from_json",
]


@dataclass(frozen=True)
class LatticeSimplex:
    """Full-dimensional lattice simplex given by its d+1 integer vertices."""

    vertices: tuple

    @property
    def dim(self):
        return len(self.vertices) - 1

    def homogenized(self):
        """Rows (v_i, 1); |det| is the normalized volume."""
        return [list(v) + [1] for v in self.vertices]

    def volume(self):
        return abs(det(self.homogenized()))


def _integers(values):
    """The values as ints; ValueError for any value that is not integral."""
    out = []
    for x in values:
        out.append(int(x))
        if out[-1] != x:
            raise ValueError(f"{x!r} is not an integer")
    return out


def from_vertices(points):
    """Build a simplex from d+1 points in Z^d, validating full dimension."""
    verts = tuple(tuple(_integers(p)) for p in points)
    if not verts:
        raise ValueError("no vertices given")
    d = len(verts[0])
    if d < 1 or len(verts) != d + 1 or any(len(v) != d for v in verts):
        raise ValueError("need d+1 vertices of length d with d >= 1")
    s = LatticeSimplex(verts)
    if det(s.homogenized()) == 0:
        raise DegenerateSimplex("vertices do not span")
    return s


def family_A(a):
    """Simplex conv{0, e_1, .., e_{d-1}, (a_d - a_1, .., a_d - a_{d-1}, a_d)}."""
    a = _integers(a)
    d = len(a)
    if d < 1:
        raise ValueError("empty parameter sequence")
    rows = [[int(i == j) for j in range(d)] for i in range(d - 1)]
    rows.append([a[-1] - x for x in a[:-1]] + [a[-1]])
    return from_vertices([(0,) * d] + rows)


def family_BC(b, c):
    """Two-block simplex with row s from b and row d from c.

    b has length s, c has length d, 1 <= s < d. Rows besides s and d are
    standard basis vectors; row s carries (b_s - b_1, .., b_s - b_{s-1}, b_s)
    in its first s columns and row d carries (c_d - c_1, .., c_d - c_{d-1}, c_d).
    """
    b = _integers(b)
    c = _integers(c)
    s, d = len(b), len(c)
    if not 1 <= s < d:
        raise ValueError("need 1 <= len(b) < len(c)")
    rows = []
    for i in range(1, d + 1):
        if i == s:
            rows.append([b[-1] - x for x in b[:-1]] + [b[-1]] + [0] * (d - s))
        elif i == d:
            rows.append([c[-1] - x for x in c[:-1]] + [c[-1]])
        else:
            rows.append([int(i == j) for j in range(1, d + 1)])
    return from_vertices([(0,) * d] + rows)


def pyramid(s):
    """Lattice pyramid: lift every vertex by a zero coordinate, add a unit apex."""
    d = s.dim
    verts = [v + (0,) for v in s.vertices]
    verts.append((0,) * d + (1,))
    return from_vertices(verts)


def _lower_edge_form(s):
    """Edge matrix times a unimodular matrix, lower triangular, positive diagonal.

    Row i is the image of vertex i+1 relative to vertex 0; the transform is a
    lattice automorphism, so dilate point counts are unchanged.
    """
    v0 = s.vertices[0]
    d = s.dim
    e = [[vi[j] - v0[j] for j in range(d)] for vi in s.vertices[1:]]
    # hnf triangularizes by row operations; conjugating by the reversal
    # permutation and transposing turns that into the column-operation form.
    rev = [[e[d - 1 - j][d - 1 - i] for j in range(d)] for i in range(d)]
    h, _ = hnf(rev)
    return [[h[d - 1 - j][d - 1 - i] for j in range(d)] for i in range(d)]


def count_points(s, n):
    """Exact |nP ∩ Z^d| by exhaustive enumeration.

    After the lower-triangular reduction each coordinate, taken last to
    first, ranges over an exactly computed integer interval given the outer
    choices, so the walk visits precisely the lattice points of the dilate.
    All arithmetic is integer/Fraction.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("dilation factor must be a nonnegative integer")
    if n == 0:
        return 1
    t = _lower_edge_form(s)
    d = s.dim

    def level(j, budget, shift):
        lo = ceil(shift[j])
        hi = floor(shift[j] + budget * t[j][j])
        if j == 0:
            return hi - lo + 1 if hi >= lo else 0
        total = 0
        row = t[j]
        for x in range(lo, hi + 1):
            mu = (x - shift[j]) / Fraction(row[j])
            total += level(j - 1, budget - mu,
                           tuple(shift[i] + mu * row[i] for i in range(j)))
        return total

    return level(d - 1, Fraction(n), (Fraction(0),) * d)


def simplex_to_json(s):
    return {"dim": s.dim, "vertices": [list(v) for v in s.vertices]}


def simplex_from_json(obj):
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError("simplex JSON needs a 'vertices' field")
    rows = obj["vertices"]
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(x, int) for x in row)
            for row in rows):
        raise ValueError("'vertices' must be a list of lists of integers")
    s = from_vertices(rows)
    if "dim" in obj and obj["dim"] != s.dim:
        raise ValueError("declared dim does not match vertices")
    return s
