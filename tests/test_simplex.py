"""Tests for lattice simplices and exact dilate point counts.

The counting oracle scans the full coordinate bounding box and tests each
candidate with barycentric coordinates solved over Fractions; it shares no
code with the production enumeration.
"""

import random
from fractions import Fraction

import pytest

from gorsim.errors import DegenerateSimplex
from gorsim.simplex import (
    LatticeSimplex,
    count_points,
    family_A,
    family_BC,
    from_vertices,
    pyramid,
    simplex_from_json,
    simplex_to_json,
)


def solve_fraction(a, b):
    """Solve a x = b over Fractions; a is invertible square."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def brute_count(s, n):
    verts = s.vertices
    d = len(verts[0])
    if n == 0:
        return 1
    a = [[verts[i][r] for i in range(d + 1)] for r in range(d)]
    a.append([1] * (d + 1))
    lows = [n * min(v[r] for v in verts) for r in range(d)]
    highs = [n * max(v[r] for v in verts) for r in range(d)]

    def scan(prefix):
        r = len(prefix)
        if r == d:
            lam = solve_fraction(a, list(prefix) + [n])
            return all(x >= 0 for x in lam)
        return sum(scan(prefix + (z,)) for z in range(lows[r], highs[r] + 1))

    return scan(())


SEGMENT2 = from_vertices([(0,), (2,)])
UNIT_TRIANGLE = from_vertices([(0, 0), (1, 0), (0, 1)])


def test_from_vertices_validation():
    with pytest.raises(ValueError):
        from_vertices([(0, 0), (1, 0)])  # two points in dimension 2
    with pytest.raises(DegenerateSimplex):
        from_vertices([(0, 0), (1, 0), (2, 0)])


def test_non_integral_input_is_rejected():
    with pytest.raises(ValueError):
        from_vertices([[0], [2.7]])
    with pytest.raises(ValueError):
        family_A([1, 2.5])
    with pytest.raises(ValueError):
        family_BC([1, Fraction(3, 2)], [1, 1, 1])
    with pytest.raises(ValueError):
        family_BC([1], [1, 0.5])
    # integral values of any numeric type still pass
    assert from_vertices([[0], [2.0]]).vertices == ((0,), (2,))
    assert family_A([1, Fraction(4, 2)]) == family_A([1, 2])
    assert family_BC([1.0], [1, 1]) == family_BC([1], [1, 1])


def test_volume_examples():
    assert SEGMENT2.volume() == 2
    assert UNIT_TRIANGLE.volume() == 1
    assert from_vertices([(0, 0), (2, 0), (0, 3)]).volume() == 6


def test_family_A_vertices_and_volume():
    s = family_A([1, 1, 4])
    assert s.vertices == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 3, 4))
    assert s.volume() == 4
    s2 = family_A([1, 2, 2, 4])
    assert s2.vertices[-1] == (3, 2, 2, 4)
    assert s2.volume() == 4


def test_family_A_rejects_zero_last_entry():
    with pytest.raises(DegenerateSimplex):
        family_A([1, 1, 0])


def test_family_BC_vertices_and_volume():
    s = family_BC([1, 2], [2, 2, 1, 1, 2])
    assert s.vertices == (
        (0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (1, 2, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 1, 1, 2),
    )
    assert s.volume() == 4
    assert family_BC([1], [1, 1]).vertices == ((0, 0), (1, 0), (0, 1))
    # b_s * c_d in general
    assert family_BC([1, 2], [3, 3, 1, 1, 1, 1, 3]).volume() == 6


def test_family_BC_validates_block_length():
    with pytest.raises(ValueError):
        family_BC([1, 2], [1, 2])  # needs s < d


def test_pyramid():
    p = pyramid(SEGMENT2)
    assert p.vertices == ((0, 0), (2, 0), (0, 1))
    assert p.volume() == SEGMENT2.volume()
    pp = pyramid(p)
    assert pp.dim == 3 and pp.volume() == 2


def test_count_points_segment():
    assert [count_points(SEGMENT2, n) for n in range(4)] == [1, 3, 5, 7]


def test_count_points_unit_triangle():
    assert count_points(UNIT_TRIANGLE, 2) == 6
    assert [count_points(UNIT_TRIANGLE, n) for n in range(4)] == [1, 3, 6, 10]


def test_count_points_family_A_114():
    # (1,1,1) = (e1 + e2 + (3,3,4)) / 4 lies inside, so n=1 holds 5 points
    s = family_A([1, 1, 4])
    assert count_points(s, 1) == 5
    assert brute_count(s, 1) == 5


def test_count_points_matches_brute_oracle():
    rng = random.Random(2024)
    cases = [SEGMENT2, UNIT_TRIANGLE, family_A([1, 1, 4]), family_BC([1], [1, 1])]
    for s in cases:
        for n in range(4):
            assert count_points(s, n) == brute_count(s, n), (s, n)
    for _ in range(12):
        d = rng.randint(1, 3)
        while True:
            pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 1)]
            try:
                s = from_vertices(pts)
                break
            except DegenerateSimplex:
                continue
        for n in range(3):
            assert count_points(s, n) == brute_count(s, n), (s, n)


def test_count_points_translation_and_unimodular_invariance():
    rng = random.Random(31)
    s = family_A([1, 1, 4])
    base = [count_points(s, n) for n in range(4)]
    for _ in range(5):
        # random unimodular map: a few integer shear row operations
        u = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            for t in range(3):
                u[i][t] += q * u[j][t]
        shift = [rng.randint(-3, 3) for _ in range(3)]
        moved = from_vertices([
            tuple(sum(u[r][t] * v[t] for t in range(3)) + shift[r] for r in range(3))
            for v in s.vertices
        ])
        assert [count_points(moved, n) for n in range(4)] == base


def test_count_points_pyramid_partial_sums():
    # dilates of a pyramid slice into dilates of the base
    s = UNIT_TRIANGLE
    p = pyramid(s)
    for n in range(5):
        assert count_points(p, n) == sum(count_points(s, m) for m in range(n + 1))


def test_json_round_trip():
    s = family_BC([1, 2], [2, 2, 1, 1, 2])
    obj = simplex_to_json(s)
    assert obj == {"dim": 5, "vertices": [list(v) for v in s.vertices]}
    assert simplex_from_json(obj) == s
