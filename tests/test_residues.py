"""Tests for residue vectors and the finite groups attached to simplices.

The canonical-form oracle minimizes the row-sorted element table over every
coordinate permutation outright; it is exponential but fine at ambient <= 6.
A second reference, `fraction_canonical_form`, runs the prefix-table search
directly on the Fraction elements; the library's search over the integer
rows must return the same string.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from gorsim.arith import divisors
from gorsim.catalog import chain_generator
from gorsim import residues
from gorsim.errors import NonIntegralHeight
from gorsim.residues import (
    ResidueGroup,
    canonical_form,
    direct_sum,
    from_generators,
    group_from_json,
    group_of_simplex,
    group_to_json,
    height,
    normalize,
    pyramid_coordinates,
    trivial,
)
from gorsim.simplex import family_A, from_vertices, pyramid

F = Fraction


def vec(*xs):
    return tuple(F(x) for x in xs)


def brute_table(g):
    best = None
    for perm in itertools.permutations(range(g.ambient)):
        table = tuple(sorted(tuple(e[i] for i in perm) for e in g.elements))
        if best is None or table < best:
            best = table
    return best


def fraction_canonical_form(g):
    """Prefix-table minimization over the Fraction elements themselves."""
    elems = g.elements
    m, n = len(elems), g.ambient
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
    return "|".join(",".join(str(x) for x in row) for row in table)


def chains_to(v):
    out = [(v,)]
    for n in divisors(v):
        if 1 < n < v:
            out.extend(ch + (v,) for ch in chains_to(n))
    return out


def random_small_group(rng):
    while True:
        n = rng.randint(2, 5)
        gen = [F(rng.randint(0, 3), rng.choice([1, 2, 4])) % 1 for _ in range(n)]
        g = from_generators([gen], strict=False)
        if g.order > 1:
            return g


def test_normalize_and_height():
    assert normalize([F(3, 2), F(-1, 4)]) == vec("1/2", "3/4")
    assert height(vec("1/2", "1/2")) == 1
    assert isinstance(height(vec("1/2", "1/2")), F)
    assert height(vec("1/2", "1/4")) == F(3, 4)


def test_from_generators_closure():
    g = from_generators([vec("1/2", 0, "1/2"), vec(0, "1/2", "1/2")], strict=False)
    assert g.order == 4
    assert vec("1/2", "1/2", 0) in set(g.elements)
    assert g.elements[0] == vec(0, 0, 0)


def test_rows_are_the_elements_over_the_exponent():
    g = from_generators([vec("1/4", "3/4", "1/2")], strict=False)
    assert g.exponent == 4
    assert g.rows == ((0, 0, 0), (1, 3, 2), (2, 2, 0), (3, 1, 2))
    assert g.elements == tuple(tuple(F(a, 4) for a in r) for r in g.rows)
    assert g.heights() == [0, 1, 1, 1]


def test_exponent_is_taken_from_reduced_generators():
    g = from_generators([vec("2/4", "2/4")])
    assert g == from_generators([vec("1/2", "1/2")])
    assert g.exponent == 2
    assert g.generators == (vec("1/2", "1/2"),)
    assert trivial(2).exponent == 1


def test_heights_match_the_fraction_heights():
    for v in range(2, 13):
        for k in (0, 1):
            for ch in chains_to(v):
                g = from_generators([chain_generator(ch, k)])
                assert g.heights() == [int(height(e)) for e in g.elements]


def test_from_generators_strict_rejects_fractional_height():
    with pytest.raises(NonIntegralHeight):
        from_generators([vec("1/2", 0)])
    # the message names the least offending element
    with pytest.raises(NonIntegralHeight, match=r"^element \(Fraction\(0, 1\), "
                       r"Fraction\(1, 3\)\) has height 1/3$"):
        from_generators([vec("1/2", "1/3")])
    # the violation may appear only in a generated element
    g = from_generators([vec("1/2", "1/2")])
    assert g.order == 2


def test_from_generators_caps_the_closure(monkeypatch):
    monkeypatch.setattr(residues, "_MAX_ORDER", 12)
    assert from_generators([vec("1/12", "11/12")]).order == 12
    with pytest.raises(ValueError, match="more than 12 elements"):
        from_generators([vec("1/13", "12/13")])
    with pytest.raises(ValueError, match="more than 12 elements"):
        from_generators([vec("1/4", "3/4", 0), vec(0, "1/4", "3/4")])


def test_trivial():
    t = trivial(3)
    assert t.ambient == 3 and t.order == 1
    assert t.elements == (vec(0, 0, 0),)


def test_group_of_simplex_segment():
    g = group_of_simplex(from_vertices([(0,), (2,)]))
    assert g.elements == (vec(0, 0), vec("1/2", "1/2"))


def test_group_of_simplex_family_A_114():
    g = group_of_simplex(family_A([1, 1, 4]))
    expected = from_generators([vec("1/4", "1/4", "1/4", "1/4")])
    assert canonical_form(g) == canonical_form(expected)


def test_group_order_equals_volume():
    rng = random.Random(88)
    for _ in range(15):
        d = rng.randint(1, 3)
        while True:
            pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1)]
            try:
                s = from_vertices(pts)
                break
            except Exception:
                continue
        g = group_of_simplex(s)
        assert g.order == s.volume()
        for e in g.elements:
            assert height(e).denominator == 1


def test_unimodular_simplex_gives_trivial_group():
    g = group_of_simplex(from_vertices([(0, 0), (1, 0), (0, 1)]))
    assert g.order == 1 and g.ambient == 3


def test_direct_sum():
    g1 = from_generators([vec("1/2", "1/2")])
    g2 = from_generators([vec("1/2", "1/2", "1/2", "1/2")])
    g = direct_sum(g1, g2)
    assert g.ambient == 6 and g.order == 4
    assert vec("1/2", "1/2", 0, 0, 0, 0) in set(g.elements)
    assert vec("1/2", "1/2", "1/2", "1/2", "1/2", "1/2") in set(g.elements)
    # coprime exponents 2 and 3 give exponent 6
    g3 = from_generators([vec("1/3", "1/3", "1/3")])
    g = direct_sum(g1, g3)
    assert (g1.exponent, g3.exponent, g.exponent) == (2, 3, 6)
    assert g == from_generators([vec("1/2", "1/2", 0, 0, 0),
                                 vec(0, 0, "1/3", "1/3", "1/3")])
    assert g.order == 6
    assert direct_sum(trivial(1), trivial(2)) == trivial(3)


def test_pyramid_coordinates():
    s = from_vertices([(0,), (2,)])
    g = group_of_simplex(pyramid(s))
    assert pyramid_coordinates(g) == (2,)
    assert pyramid_coordinates(group_of_simplex(s)) == ()
    g2 = direct_sum(from_generators([vec("1/2", "1/2")]), trivial(1))
    assert pyramid_coordinates(g2) == (2,)


def test_canonical_form_permutation_invariance():
    rng = random.Random(404)
    for _ in range(20):
        g = random_small_group(rng)
        perm = list(range(g.ambient))
        rng.shuffle(perm)
        permuted = from_generators(
            [tuple(gen[i] for i in perm) for gen in g.generators], strict=False)
        assert canonical_form(g) == canonical_form(permuted)
        assert brute_table(g) == brute_table(permuted)


def test_canonical_form_matches_brute_oracle_on_pairs():
    rng = random.Random(808)
    groups = [random_small_group(rng) for _ in range(12)]
    for a, b in itertools.combinations(groups, 2):
        if a.ambient != b.ambient:
            continue
        same_brute = brute_table(a) == brute_table(b)
        same_key = canonical_form(a) == canonical_form(b)
        assert same_brute == same_key, (a.generators, b.generators)


def test_canonical_form_distinguishes_block_splits():
    a = from_generators([vec("1/2", "1/2", 0, 0, 0, 0),
                         vec(0, 0, "1/2", "1/2", "1/2", "1/2")])
    b = from_generators([vec("1/2", "1/2", "1/2", 0, 0, 0),
                         vec(0, 0, 0, "1/2", "1/2", "1/2")], strict=False)
    assert a.order == b.order == 4
    assert canonical_form(a) != canonical_form(b)
    assert brute_table(a) != brute_table(b)


def test_canonical_form_matches_fraction_reference():
    rng = random.Random(505)
    groups = [random_small_group(rng) for _ in range(30)]
    # denominators 2 and 3 together: the scale is 6, not either one
    groups.append(from_generators([vec("1/2", "1/2", "1/3", "1/3", "1/3")]))
    groups.append(from_generators([vec("1/2", "1/2", 0, 0, 0),
                                   vec(0, 0, "1/3", "1/3", "1/3")]))
    groups.append(trivial(3))
    for v in range(2, 13):
        for k in (0, 1):
            groups.extend(from_generators([chain_generator(ch, k)])
                          for ch in chains_to(v))
    for g in groups:
        assert canonical_form(g) == fraction_canonical_form(g), g.generators


def test_canonical_form_text_of_mixed_denominators():
    g = from_generators([vec("1/2", "1/2", "1/3", "1/3", "1/3")])
    assert g.order == 6
    key = canonical_form(g)
    assert key.startswith("0,0,0,0,0|")
    assert "1/2" in key and "2/3" in key and "/6" not in key


def test_group_json_round_trip():
    g = from_generators([vec("1/2", "1/2", "1/2", "1/4", "1/4")])
    obj = group_to_json(g)
    assert obj == {"ambient": 5,
                   "generators": [["1/2", "1/2", "1/2", "1/4", "1/4"]]}
    back = group_from_json(obj)
    assert back == g


def test_group_equality_is_by_elements():
    g1 = from_generators([vec("1/4", "1/4", "1/4", "1/4")])
    g2 = from_generators([vec("3/4", "3/4", "3/4", "3/4")])
    assert g1 == g2
    assert hash(g1) == hash(g2)
