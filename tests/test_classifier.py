"""Tests for the exhaustive class search over height profiles."""

from fractions import Fraction
from itertools import permutations
from operator import itemgetter

import pytest

from gorsim import classifier
from gorsim.catalog import construct_group, expected_classes
from gorsim.classifier import (
    AbstractGroup,
    groups_of_order,
    search,
    subadditive_bijections,
    verify_bounds,
)
from gorsim.delta import delta_of, target
from gorsim.errors import (
    BoundViolation,
    BudgetExceeded,
    InvalidParams,
    SearchInvariantError,
)
from gorsim.residues import canonical_form, from_generators, group_to_json

F = Fraction


def brute_bijections(group):
    """All bijective slot assignments with s(a+b) <= s(a) + s(b), by brute filter."""
    facs = group.invariant_factors
    elems = [a for a in group.elements() if any(a)]
    out = []
    for perm in permutations(range(1, len(elems) + 1)):
        s = dict(zip(elems, perm))
        ok = True
        for a in elems:
            for b in elems:
                c = tuple((x + y) % n for x, y, n in zip(a, b, facs))
                if any(c) and s[c] > s[a] + s[b]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(s[a] for a in elems))
    return sorted(out)


def profile_dedupe_search(v, k):
    """The search before orderly generation, kept as a reference.

    Every bijection, every solution, one profile per Aut-min key, and the
    last group kept per canonical form.
    """
    found = {}
    for group in groups_of_order(v):
        elems = classifier._nonzero_elements(group)
        solver = classifier._PairSolver(group, elems)
        getters = [itemgetter(*p)
                   for p in classifier._aut_character_perms(group, elems)]
        seen = set()
        for s in subadditive_bijections(group, budget=10**9):
            for counts in solver.solutions(s, k, [0], float("inf")):
                key = min(get(counts) for get in getters)
                if key not in seen:
                    seen.add(key)
                    g = classifier._group_from_profile(group, elems, counts)
                    found[canonical_form(g)] = g
    return [g for _, g in
            sorted(found.items(), key=lambda kv: (kv[1].ambient, kv[0]))]


def canon_set(groups):
    return {canonical_form(g) for g in groups}


def test_groups_of_order():
    assert [g.invariant_factors for g in groups_of_order(4)] == [(4,), (2, 2)]
    assert [g.invariant_factors for g in groups_of_order(12)] == [(12,), (2, 6)]
    assert [g.invariant_factors for g in groups_of_order(8)] == [
        (8,), (2, 4), (2, 2, 2)]
    assert [g.invariant_factors for g in groups_of_order(6)] == [(6,)]
    assert [g.invariant_factors for g in groups_of_order(36)] == [
        (36,), (3, 12), (2, 18), (6, 6)]


def test_abstract_group_basics():
    a = AbstractGroup((2, 6))
    assert a.order == 12
    assert len(list(a.elements())) == 12
    assert a.character((1, 3), (1, 1)) == 0
    assert a.character((1, 0), (1, 5)) == F(1, 2)
    b = AbstractGroup((6,))
    assert b.character((1,), (4,)) == F(2, 3)


def test_bijections_match_brute_force():
    for facs in [(4,), (2, 2), (6,), (8,), (2, 2, 2)]:
        a = AbstractGroup(facs)
        assert sorted(subadditive_bijections(a)) == brute_bijections(a), facs


def test_bijections_known_counts():
    assert len(subadditive_bijections(AbstractGroup((4,)))) == 4
    assert len(subadditive_bijections(AbstractGroup((2, 2)))) == 6


def test_search_volume_2():
    assert search(2, 0) == [from_generators([(F(1, 2), F(1, 2))])]
    [g] = search(2, 1)
    assert g == from_generators([(F(1, 2),) * 4])


def test_search_smallest_volumes():
    # at v = 2 the single nonzero character makes each profile key a scalar
    for v in (2, 3):
        for k in (0, 1):
            [g] = search(v, k)
            assert g == from_generators([(F(1, v),) * (v * (k + 1))])
            assert canonical_form(g) == "|".join(
                ",".join([str(F(j, v))] * (v * (k + 1))) for j in range(v))


def test_search_prime_volumes():
    for v in (3, 5, 7):
        got = search(v, 0)
        assert len(got) == 1
        assert canon_set(got) == canon_set(
            [construct_group(s) for s in expected_classes(v, 0)])


def test_search_volume_4():
    got = search(4, 0)
    assert len(got) == 3
    assert sorted(g.ambient - 1 for g in got) == [3, 4, 5]
    assert canon_set(got) == canon_set(
        [construct_group(s) for s in expected_classes(4, 0)])
    assert verify_bounds(got, 4, 0)


def test_search_volume_4_k1():
    got = search(4, 1)
    assert len(got) == 3
    assert sorted(g.ambient - 1 for g in got) == [7, 9, 11]
    assert canon_set(got) == canon_set(
        [construct_group(s) for s in expected_classes(4, 1)])


def test_search_volume_6():
    got = search(6, 0)
    assert len(got) == 5
    assert sorted(g.ambient - 1 for g in got) == [5, 6, 7, 7, 8]
    assert canon_set(got) == canon_set(
        [construct_group(s) for s in expected_classes(6, 0)])
    assert verify_bounds(got, 6, 0)


def test_search_results_are_valid_and_deterministic():
    got = search(6, 0)
    for g in got:
        assert g.order == 6
        assert delta_of(g) == target(6, 0, g.ambient - 1)
    assert got == search(6, 0)


def test_search_budget():
    with pytest.raises(BudgetExceeded) as e:
        search(6, 0, budget=5)
    assert isinstance(e.value.partial, list)
    for bad in (0, -5):
        with pytest.raises(InvalidParams):
            search(6, 0, budget=bad)


def test_search_budget_counts_symmetry_work():
    # at v = 8 everything but the Aut listings (the orderly tree with its
    # orbit checks, the solvers' set-up at 7**3 nodes each and 8 * ambient
    # per class) uses 3,781 nodes; listing Aut of (2,2,2) is charged
    # 8 * 8**3 = 4,096 nodes, so only the Aut listing can exhaust this budget
    with pytest.raises(BudgetExceeded) as e:
        search(8, 0, budget=4_000)
    assert isinstance(e.value.partial, list)
    assert e.value.used > 4_000


def test_search_charges_the_aut_listing_before_listing(monkeypatch):
    # (2,2,2,2,2) has 32**5 tuples of candidate generator images, each
    # mapping 32 elements, far past the default budget
    def unreachable(group, elems):
        raise AssertionError("Aut listed past its budget")

    monkeypatch.setattr(classifier, "groups_of_order",
                        lambda v: [AbstractGroup((2,) * 5)])
    monkeypatch.setattr(classifier, "_aut_character_perms", unreachable)
    with pytest.raises(BudgetExceeded) as e:
        search(32, 0)
    assert e.value.partial == []
    assert e.value.used == 32 ** 6


def test_search_charges_the_solver_set_up_before_building_it(monkeypatch):
    # the solver's elimination is cubic in v - 1; at v = 150 it takes
    # seconds, so a small budget must stop the search before it starts
    def unreachable(group, elems):
        raise AssertionError("solver built past its budget")

    monkeypatch.setattr(classifier, "_PairSolver", unreachable)
    with pytest.raises(BudgetExceeded) as e:
        search(150, 0, budget=1_000)
    assert e.value.partial == []
    # Z/150 lists Aut for 150 * 150 nodes, then charges 149**3
    with pytest.raises(BudgetExceeded) as e:
        search(150, 0, budget=100_000)
    assert e.value.used == 150 * 150 + 149 ** 3


@pytest.mark.parametrize("v", range(2, 16))
def test_search_matches_profile_dedupe(v):
    for k in (0, 1):
        assert ([group_to_json(g) for g in search(v, k)]
                == [group_to_json(g) for g in profile_dedupe_search(v, k)])


@pytest.mark.parametrize("facs", [(2, 2), (6,), (2, 4), (2, 2, 2), (3, 3)])
def test_orderly_dfs_keeps_the_least_bijection_of_each_orbit(facs):
    group = AbstractGroup(facs)
    elems = classifier._nonzero_elements(group)
    m = len(elems)
    add = classifier._addition_table(group, elems)
    perms = classifier._aut_character_perms(group, elems)

    def least(s):
        # elements listed by slot, least over the orbit
        by_slot = sorted(range(m), key=s.__getitem__)
        return min(tuple(p[i] for i in by_slot) for p in perms)

    every = subadditive_bijections(group)
    orbits = {least(s) for s in every}
    got = list(classifier._bijection_dfs(add, m, [0], 10**9, perms))
    assert len(got) == len(orbits)
    assert {tuple(sorted(range(m), key=s.__getitem__)) for s in got} == orbits


def test_search_elementary_groups_of_order_16_and_27():
    # the four other groups of order 16 give 48 classes and (2,2,2,2) one;
    # the other groups of order 27 give 10 and (3,3,3) one
    assert len(search(16, 0)) == 49
    assert len(search(27, 0)) == 11


def test_search_rejects_repeated_class(monkeypatch):
    # a DFS that yields each bijection twice breaks the orderly argument
    real = classifier._bijection_dfs

    def twice(*args):
        for s in real(*args):
            yield s
            yield s

    monkeypatch.setattr(classifier, "_bijection_dfs", twice)
    with pytest.raises(SearchInvariantError, match="repeats a class"):
        search(4, 0)


@pytest.mark.parametrize("facs,order", [
    ((2, 4), 8),
    ((2, 2, 2), 168),
    ((3, 3), 48),
    ((12,), 4),
])
def test_aut_perms_are_the_automorphisms(facs, order):
    group = AbstractGroup(facs)
    elems = classifier._nonzero_elements(group)
    add = classifier._addition_table(group, elems)
    perms = classifier._aut_character_perms(group, elems)
    assert len(perms) == len(set(perms)) == order
    for p in perms:
        assert sorted(p) == list(range(len(elems)))
        for i, row in enumerate(add):
            for j, x in enumerate(row):
                assert add[p[i]][p[j]] == (p[x] if x >= 0 else -1)


def test_pair_solver_spans_every_small_group():
    # the constructor raises unless the pair shifts span the kernel of the
    # height system; it is the only multiplicity solver
    groups = [g for v in range(2, 25) for g in groups_of_order(v)]
    assert len(groups) == 36
    for g in groups:
        classifier._PairSolver(g, classifier._nonzero_elements(g))


def test_search_rejects_rank_shortfall(monkeypatch):
    real = classifier._rref_with_ops

    def drop_last_pivot(matrix):
        rref, ops, pivots = real(matrix)
        return rref, ops, pivots[:-1]

    monkeypatch.setattr(classifier, "_rref_with_ops", drop_last_pivot)
    with pytest.raises(SearchInvariantError, match=r"\(4,\)"):
        search(4, 0)


def test_verify_bounds_rejects_bad_sets():
    got = search(4, 0)
    minimal = from_generators([(F(1, 4),) * 4])
    with pytest.raises(BoundViolation):
        verify_bounds([g for g in got if g.ambient > 4], 4, 0)
    with pytest.raises(BoundViolation):
        verify_bounds(got + [minimal], 4, 0)
    too_big = from_generators([(F(1, 4),) * 40])
    with pytest.raises(BoundViolation):
        verify_bounds(got + [too_big], 4, 0)


def test_search_volume_25():
    # rank-deficient height systems for both groups of order 25; the
    # inverse-pair solver keeps this tractable
    got = search(25, 0)
    assert len(got) == 3
    assert sorted(g.ambient - 1 for g in got) == [24, 28, 29]
    assert canon_set(got) == canon_set(
        [construct_group(s) for s in expected_classes(25, 0)])
    assert verify_bounds(got, 25, 0)
