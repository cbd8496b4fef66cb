"""Tests for the family catalog: groups, vertex forms, expected class lists."""

from fractions import Fraction

import pytest

from gorsim.catalog import (
    FamilySpec,
    chain_generator,
    construct_group,
    construct_simplex,
    expected_classes,
    spec_from_json,
    spec_to_json,
)
from gorsim.delta import delta_of, target
from gorsim.errors import (
    InvalidChain,
    InvalidParams,
    NoVertexForm,
    UnsupportedVolume,
)
from gorsim.residues import canonical_form, from_generators, group_of_simplex
from gorsim.simplex import family_A, family_BC

F = Fraction


def vec(*xs):
    return tuple(F(x) for x in xs)


def spec(family, **params):
    return FamilySpec(family, params)


def test_prime_group():
    g = construct_group(spec("prime", p=3, k=0))
    assert g == from_generators([vec("1/3", "1/3", "1/3")])
    assert delta_of(g).coeffs == (1, 1, 1)


def test_divisor_group_explicit():
    g = construct_group(spec("divisor", v=4, u=2, k=0))
    assert g == from_generators([vec("1/2", "1/2", "1/2", "1/4", "1/4")])
    g2 = construct_group(spec("divisor", v=6, u=2, k=0))
    assert g2 == from_generators(
        [vec("1/3", "1/3", "1/3", "1/3", "1/3", "1/6", "1/6")]
    )


def test_p2_case_groups_explicit():
    g1 = construct_group(spec("p2-case1", p=2, k=0))
    assert g1 == from_generators([vec("1/4", "1/4", "1/4", "1/4")])
    g2 = construct_group(spec("p2-case2", p=2, k=0))
    assert g2 == from_generators([vec("1/2", "1/2", "1/2", "1/4", "1/4")])
    g3 = construct_group(spec("p2-case3", p=2, k=0))
    assert g3 == from_generators(
        [vec("1/2", "1/2", 0, 0, 0, 0), vec(0, 0, "1/2", "1/2", "1/2", "1/2")]
    )


def test_group_delta_matches_target():
    cases = [
        spec("prime", p=2, k=1),
        spec("prime", p=5, k=0),
        spec("divisor", v=6, u=3, k=0),
        spec("divisor", v=8, u=4, k=1),
        spec("divisor", v=12, u=6, k=0),
        spec("p2-case1", p=3, k=0),
        spec("p2-case2", p=3, k=1),
        spec("p2-case3", p=3, k=0),
        spec("pq-case1", p=2, q=3, k=0),
        spec("pq-case2", p=2, q=3, k=1),
        spec("pq-case3", p=2, q=3, k=0),
        spec("pq-case4", p=2, q=5, k=0),
        spec("pq-case5", p=3, q=5, k=0),
        spec("chain", chain=(2, 4, 8), k=0),
        spec("chain", chain=(2, 6), k=1),
        spec("chain", chain=(3, 9), k=0),
    ]
    for sp in cases:
        g = construct_group(sp)
        v = g.order
        d = g.ambient - 1
        assert delta_of(g) == target(v, sp.params["k"], d), sp


def test_expected_classes_dims():
    def dims(v, k):
        return [construct_group(s).ambient - 1 for s in expected_classes(v, k)]

    assert dims(4, 0) == [3, 4, 5]
    assert dims(6, 0) == [5, 7, 8, 6, 7]
    assert dims(9, 1) == [17, 21, 23]
    assert dims(7, 0) == [6]
    assert len(expected_classes(25, 0)) == 3
    assert len(expected_classes(15, 1)) == 5


def test_expected_classes_unsupported():
    with pytest.raises(UnsupportedVolume):
        expected_classes(12, 0)
    with pytest.raises(UnsupportedVolume):
        expected_classes(1, 0)


def test_join_group():
    j = spec(
        "join",
        first=spec("prime", p=2, k=0),
        second=spec("prime", p=3, k=1),
    )
    g = construct_group(j)
    assert g.ambient == 8
    assert g.order == 6
    assert delta_of(g) == target(6, 0, 7)


def test_join_incompatible():
    with pytest.raises(InvalidParams):
        construct_group(
            spec(
                "join",
                first=spec("prime", p=2, k=0),
                second=spec("prime", p=3, k=0),
            )
        )


def test_invalid_params():
    for bad in [
        spec("prime", p=4, k=0),
        spec("prime", p=2, k=-1),
        spec("divisor", v=6, u=4, k=0),
        spec("divisor", v=6, u=6, k=0),
        spec("p2-case2", p=6, k=0),
        spec("pq-case1", p=3, q=3, k=0),
        spec("pq-case4", p=2, q=4, k=0),
        spec("nonsense", p=2, k=0),
    ]:
        with pytest.raises(InvalidParams):
            construct_group(bad)


def test_chain_generator_values():
    assert chain_generator((2, 4), 0) == vec("1/2", "1/2", "1/2", "1/4", "1/4")
    assert chain_generator((2, 4, 8), 0) == vec(*["1/2"] * 6, *["1/4"] * 3,
                                                *["1/8"] * 2)
    assert chain_generator((5,), 0) == vec(*["1/5"] * 5)
    assert chain_generator((2,), 1) == vec("1/2", "1/2", "1/2", "1/2")


def test_join_families_are_joins_of_primes():
    def join(a, b, k):
        return construct_group(spec("join", first=spec("prime", p=a, k=k),
                                    second=spec("prime", p=b, k=a * (k + 1) - 1)))

    for k in (0, 1, 2):
        for p in (2, 3, 5):
            assert construct_group(spec("p2-case3", p=p, k=k)) == join(p, p, k)
        for p, q in ((2, 3), (2, 5), (3, 5)):
            assert construct_group(spec("pq-case2", p=p, q=q, k=k)) == join(p, q, k)
            assert construct_group(spec("pq-case3", p=p, q=q, k=k)) == join(q, p, k)


def test_chain_invalid():
    for bad in [(4, 2), (2, 5), (1, 2), (), (2, 2), 4]:
        with pytest.raises(InvalidChain):
            chain_generator(bad, 0)
    with pytest.raises(InvalidChain):
        chain_generator((2, 4), -1)


def test_vertex_forms_explicit():
    assert construct_simplex(spec("prime", p=2, k=0)) == family_A([2])
    assert construct_simplex(spec("p2-case1", p=2, k=0)) == family_A([1, 1, 4])
    assert construct_simplex(spec("p2-case2", p=2, k=0)) == family_A([1, 2, 2, 4])
    assert construct_simplex(spec("p2-case3", p=2, k=0)) == family_BC(
        [1, 2], [2, 2, 1, 1, 2]
    )
    assert construct_simplex(spec("pq-case1", p=2, q=3, k=0)) == family_A(
        [1, 1, 1, 1, 6]
    )
    assert construct_simplex(spec("pq-case2", p=2, q=3, k=0)) == family_BC(
        [1, 2], [3, 3, 1, 1, 1, 1, 3]
    )
    assert construct_simplex(spec("pq-case3", p=2, q=3, k=0)) == family_BC(
        [1, 1, 3], [2, 2, 2, 1, 1, 1, 1, 2]
    )
    assert construct_simplex(spec("pq-case4", p=2, q=3, k=0)) == family_A(
        [1, 2, 2, 2, 2, 6]
    )
    assert construct_simplex(spec("pq-case5", p=2, q=3, k=0)) == family_A(
        [1, 1, 3, 3, 3, 3, 6]
    )


def test_vertex_form_round_trip_small():
    for sp in expected_classes(4, 0) + expected_classes(6, 0):
        s = construct_simplex(sp)
        g = construct_group(sp)
        assert s.volume() == g.order
        assert canonical_form(group_of_simplex(s)) == canonical_form(g), sp


def test_no_vertex_form():
    for sp in [
        spec("divisor", v=6, u=2, k=0),
        spec("chain", chain=(2, 4), k=0),
        spec("join", first=spec("prime", p=2, k=0),
             second=spec("prime", p=3, k=1)),
    ]:
        with pytest.raises(NoVertexForm):
            construct_simplex(sp)


def test_spec_json_round_trip():
    specs = [
        spec("prime", p=3, k=1),
        spec("divisor", v=8, u=2, k=0),
        spec("pq-case4", p=2, q=5, k=1),
        spec("chain", chain=(2, 4), k=0),
        spec("join", first=spec("prime", p=2, k=0),
             second=spec("prime", p=3, k=1)),
    ]
    for sp in specs:
        obj = spec_to_json(sp)
        back = spec_from_json(obj)
        assert back == sp
        assert construct_group(back) == construct_group(sp)
