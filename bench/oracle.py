"""Independent computations the benchmark checks gorsim's outputs against.

Nothing here imports gorsim.  Group elements are tuples of integers modulo a
common denominator n (the element x/n per coordinate), closed by plain
breadth-first addition; determinants use Gaussian elimination over
Fractions rather than gorsim's Bareiss code.  Every checker returns a list of
problems, empty when the output is right, so a wrong answer is counted as a
failed operation instead of stopping the run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm


def divisor_chains(v: int) -> list[tuple[int, ...]]:
    """Chains 1 < v_1 | v_2 | ... | v_t = v with every step proper."""
    chains = [(v,)]
    for d in range(2, v):
        if v % d == 0:
            chains.extend(c + (v,) for c in divisor_chains(d))
    return chains


def chain_layout(chain, k: int) -> list[Fraction]:
    """The chain's generator: block i holds 1/v_i, with the paper's lengths.

    Block i < t has (v/v_{i-1} - v/v_{i+1})(k+1) coordinates (v_0 = 1) and
    the last block has (v/v_{t-1})(k+1), where v = v_t.
    """
    ext = (1,) + tuple(chain)
    v, t = ext[-1], len(chain)
    out = []
    for i in range(1, t + 1):
        nxt = v // ext[i + 1] if i < t else 0
        out += [Fraction(1, ext[i])] * ((v // ext[i - 1] - nxt) * (k + 1))
    return out


def target_coeffs(v: int, k: int, dim: int) -> list[int]:
    """Coefficients of 1 + t^(k+1) + ... + t^((v-1)(k+1)), padded to dim + 1.

    The list is longer than dim + 1 when dim is too small for the target.
    """
    coeffs = [0] * max(dim + 1, (v - 1) * (k + 1) + 1)
    for j in range(v):
        coeffs[j * (k + 1)] = 1
    return coeffs


def to_residues(rows) -> tuple[list[tuple[int, ...]], int]:
    """Rows of fractions (or "a/b" strings) as integer tuples mod their lcm."""
    fracs = [[Fraction(x) for x in row] for row in rows]
    n = lcm(*(x.denominator for row in fracs for x in row))
    return [tuple(int(x * n) % n for x in row) for row in fracs], n


def close(gens, n: int) -> set[tuple[int, ...]]:
    """The subgroup of (Z/n)^m generated by gens, by breadth-first addition."""
    zero = (0,) * len(gens[0])
    elems = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % n for a, b in zip(x, g))
                if y not in elems:
                    elems.add(y)
                    fresh.append(y)
        frontier = fresh
    return elems


def height_problems(elems, n: int, v: int, k: int) -> list[str]:
    """Order v and heights exactly 0, k+1, ..., (v-1)(k+1), each once."""
    if len(elems) != v:
        return [f"order {len(elems)} != {v}"]
    sums = sorted(sum(e) for e in elems)
    if any(s % n for s in sums):
        return ["an element has a non-integral height"]
    heights = [s // n for s in sums]
    if heights != [j * (k + 1) for j in range(v)]:
        return [f"heights {heights} are not the steps of k+1={k + 1}"]
    return []


def det(matrix) -> int:
    """Exact determinant of a square integer matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(out)


def homogenized(vertices) -> list[list[int]]:
    return [list(p) + [1] for p in vertices]


def scaled_inverse(matrix) -> tuple[list[list[int]], int]:
    """(m, N) with m = N * matrix^-1 integral and N = |det matrix| > 0."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    big = abs(det(matrix))
    return [[int(x * big) for x in row[n:]] for row in a], big


def simplex_group(vertices) -> tuple[set[tuple[int, ...]], int]:
    """Residues λ mod 1 with λ (v_i, 1) integral: the rows of H^-1 generate them."""
    inv, n = scaled_inverse(homogenized(vertices))
    return close([tuple(x % n for x in row) for row in inv], n), n


def brute_force_count(vertices, dilate: int) -> int:
    """Lattice points of the dilate, tested one by one over its bounding box.

    x lies in nP exactly when (x, n) H^-1 >= 0, H the homogenized vertices.
    """
    inv, _ = scaled_inverse(homogenized(vertices))
    d = len(vertices) - 1
    ranges = [range(dilate * min(p[j] for p in vertices),
                    dilate * max(p[j] for p in vertices) + 1) for j in range(d)]
    cols = list(zip(*inv))
    count = 0
    for x in product(*ranges):
        point = x + (dilate,)
        if all(sum(a * b for a, b in zip(point, col)) >= 0 for col in cols):
            count += 1
    return count


def class_problems(row, v: int, k: int) -> tuple[list[str], set, int]:
    """Check one printed class; returns (problems, elements, modulus)."""
    gens, n = to_residues(row["generators"])
    dim = row["dim"]
    problems = []
    if any(len(g) != dim + 1 for g in gens):
        problems.append(f"generators do not have dim + 1 = {dim + 1} coordinates")
        return problems, set(), n
    elems = close(gens, n)
    problems += height_problems(elems, n, v, k)
    if row["delta"] != target_coeffs(v, k, dim):
        problems.append(f"delta {row['delta']} is not the target")
    low, high = v * (k + 1) - 1, 4 * (v - 1) * (k + 1) - 2
    if not low <= dim <= high:
        problems.append(f"dimension {dim} outside [{low}, {high}]")
    return problems, elems, n


def holds_chain(elems, n: int, layout) -> bool:
    """True when the group is a coordinate permutation of the chain's group.

    The chain generator has order v, the group's order, so the group equals
    the permuted chain group exactly when one element is a permutation of
    that generator.
    """
    if not elems or len(next(iter(elems))) != len(layout):
        return False
    want = sorted(int(x * n) % n if (x * n).denominator == 1 else -1
                  for x in layout)
    if -1 in want:
        return False
    return any(sorted(e) == want for e in elems)
