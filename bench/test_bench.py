"""Tests of the benchmark's own checkers and span arithmetic.

Run from the repository root with `python3 -m pytest bench`.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent


def _row(generators, delta):
    return {"dim": len(generators[0]) - 1, "generators": generators,
            "delta": delta, "matched_family": None}


# the three classes of v = 4, k = 0: p2-case1, p2-case2, p2-case3
V4_CLASSES = [
    _row([["1/4"] * 4], [1, 1, 1, 1]),
    _row([["1/2"] * 3 + ["1/4"] * 2], [1, 1, 1, 1, 0]),
    _row([["1/2"] * 2 + ["0"] * 4, ["0"] * 2 + ["1/2"] * 4], [1, 1, 1, 1, 0, 0]),
]


def _classify_text(classes, match=True):
    return json.dumps({"v": 4, "k": 0, "classes": classes, "match": match}) + "\n"


def test_chain_count():
    assert len(oracle.divisor_chains(12)) == 8
    assert sum(len(oracle.divisor_chains(v)) for v in range(2, 25)) * 2 == 174


@pytest.mark.parametrize("chain", [(12,), (2, 6, 12), (3, 6, 12), (2, 4, 8, 24)])
@pytest.mark.parametrize("k", [0, 1])
def test_lengthened_chain_block_is_rejected(chain, k):
    layout = oracle.chain_layout(chain, k)
    gens, n = oracle.to_residues([layout])
    assert oracle.height_problems(oracle.close(gens, n), n, chain[-1], k) == []
    for value in sorted(set(layout)):
        for extra in (1, k + 1):
            longer = layout + [value] * extra
            gens, n = oracle.to_residues([longer])
            elems = oracle.close(gens, n)
            assert oracle.height_problems(elems, n, chain[-1], k), (value, extra)
            out = (None, oracle.target_coeffs(chain[-1], k, len(longer) - 1), chain[-1])
            assert workloads.chain_problems(chain, k, tuple(longer), out)


class _Simplex:
    def __init__(self, vertices):
        self.vertices = vertices

    def volume(self):
        return abs(oracle.det(oracle.homogenized(self.vertices)))


def test_brute_force_count_of_a_triangle():
    tri = [[0, 0], [1, 0], [0, 1]]
    assert [oracle.brute_force_count(tri, n) for n in (1, 2, 3)] == [3, 6, 10]
    assert oracle.brute_force_count([[0, 0], [2, 0], [0, 2]], 1) == 6


def test_off_by_one_point_count_is_rejected():
    s = _Simplex([[0, 0, 0], [2, 1, 0], [0, 1, 1], [1, 0, 2]])
    volume = s.volume()
    right = oracle.brute_force_count
    assert workloads.ehrhart_problems(
        ("random", s, volume), True, lambda t, n: right(t.vertices, n)) == []
    for off in (1, -1):
        problems = workloads.ehrhart_problems(
            ("random", s, volume), True, lambda t, n: right(t.vertices, n) + off)
        assert len(problems) == 2
    assert workloads.ehrhart_problems(
        ("random", s, volume), False, lambda t, n: right(t.vertices, n))


def test_determinant():
    assert oracle.det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert oracle.det([[0, 1], [1, 0]]) == -1
    assert oracle.det([[1, 2], [2, 4]]) == 0
    inv, n = oracle.scaled_inverse([[2, 0], [0, 3]])
    assert n == 6 and inv == [[3, 0], [0, 2]]


def test_simplex_group_heights():
    # conv{0, 2e1, 2e2}: the group of order 4 has delta 1 + 3t, not a target
    elems, n = oracle.simplex_group([[0, 0], [2, 0], [0, 2]])
    assert len(elems) == 4
    assert sorted(sum(e) // n for e in elems) == [0, 1, 1, 1]
    assert oracle.height_problems(elems, n, 4, 0)


def test_correct_class_is_accepted():
    for row in V4_CLASSES:
        problems, elems, n = oracle.class_problems(row, 4, 0)
        assert problems == [] and len(elems) == 4
    assert workloads.classify_problems(4, 0, 0, _classify_text(V4_CLASSES)) == []


def test_wrong_classes_are_rejected():
    bad_delta = dict(V4_CLASSES[1], delta=[1, 2, 1, 0, 0])
    assert oracle.class_problems(bad_delta, 4, 0)[0]
    # heights 0, 1, 1, 2: right order, wrong distribution
    assert oracle.class_problems(_row([["1/2", "1/2", "0", "0"], ["0", "0", "1/2", "1/2"]],
                                      [1, 1, 1, 1]), 4, 0)[0]
    # below the dimension window
    assert oracle.class_problems(_row([["1/3"] * 3], [1, 1, 1]), 3, 1)[0]
    missing_chain = V4_CLASSES[:1] + V4_CLASSES[2:]
    assert workloads.classify_problems(4, 0, 0, _classify_text(missing_chain))
    assert workloads.classify_problems(4, 0, 0, _classify_text(V4_CLASSES, "unknown"))
    assert workloads.classify_problems(4, 0, 1, _classify_text(V4_CLASSES))


def test_holds_chain_needs_a_permuted_generator():
    row = V4_CLASSES[1]
    _, elems, n = oracle.class_problems(row, 4, 0)
    assert oracle.holds_chain(elems, n, oracle.chain_layout((2, 4), 0))
    assert not oracle.holds_chain(elems, n, oracle.chain_layout((4,), 0))
    assert oracle.chain_layout((2, 4), 0) == [Fraction(1, 2)] * 3 + [Fraction(1, 4)] * 2


def _tree(*rows):
    return [spans.Span(*row) for row in rows]


def test_self_time_on_a_synthetic_span_tree():
    tree = _tree(
        ("classifier.search", 0.0, 10.0, -1),
        ("residues.canonical_form", 1.0, 4.0, 0),
        ("exactla.snf", 2.0, 3.0, 1),
        ("delta.delta_of", 5.0, 6.5, 0),
        ("classifier.search", 7.0, 9.0, 0),  # nested call of the same name
    )
    assert spans.self_times(tree) == [3.5, 2.0, 1.0, 1.5, 2.0]
    assert spans.totals(tree)["classifier.search"] == 10.0
    m = spans.layer_metrics(tree, {"classifier.classes": 6, "classifier.bijections": 4})
    assert m["classifier.search_s"] == 10.0
    assert m["classifier.search_self_s"] == 5.5
    assert m["residues.canonical_form_calls"] == 1
    assert m["exactla.snf_s"] == 1.0
    assert m["classifier.classes_per_bijection"] == 1.5


def test_self_time_clips_overlapping_children():
    tree = _tree(("cli.main", 0.0, 4.0, -1),
                 ("classifier.search", 1.0, 3.0, 0),
                 ("residues.canonical_form", 2.0, 5.0, 0))
    assert spans.self_times(tree)[0] == 1.0


def test_tracer_records_nested_calls_and_restores_bindings():
    sys.path.insert(0, str(HERE.parent / "src"))
    import gorsim.delta
    import gorsim.simplex

    original = gorsim.simplex.count_points
    tracer = spans.Tracer()
    tracer.install()
    try:
        s = gorsim.simplex.from_vertices([[0, 0], [2, 0], [0, 2]])
        assert gorsim.delta.ehrhart_check(s)
    finally:
        tracer.uninstall()
    assert gorsim.simplex.count_points is original
    assert gorsim.delta.count_points is original
    names = [sp.name for sp in tracer.spans]
    assert names.count("simplex.count_points") == 6
    top = names.index("delta.ehrhart_check")
    assert all(sp.parent >= top for sp in tracer.spans[top + 1:])
    m = spans.layer_metrics(tracer.spans, tracer.counts)
    assert m["simplex.points"] == sum(
        oracle.brute_force_count([[0, 0], [2, 0], [0, 2]], n) for n in range(6))


def test_benchmark_json_lists_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in doc["per_layer"]}
    emitted = set(spans.layer_metrics([], {})) | {"trace.overhead_s"}
    assert names == emitted
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "wall_s", "max_op_s", "peak_rss_mb"]
