"""Acceptance checks: one callable per criterion, shared by tests and the CLI.

Each criterion is exact; the stated limits are wall-clock ceilings, generous
on purpose.  Classifier searches are cached at module level because four
criteria look at the same class lists.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .arith import divisors
from .catalog import (
    chain_generator,
    construct_group,
    construct_simplex,
    expected_classes,
)
from .classifier import search, verify_bounds
from .counting import count_M, ordered_bell
from .delta import delta_of, ehrhart_check, gorenstein_index, is_gorenstein, target
from .errors import (
    CriterionFailed,
    DegenerateSimplex,
    DimensionTooSmall,
    NonIntegralHeight,
    UnsupportedVolume,
)
from .residues import (
    canonical_form,
    direct_sum,
    from_generators,
    group_of_simplex,
    height,
    trivial,
)
from .simplex import from_vertices

__all__ = ["CheckResult", "CRITERIA", "run_criterion", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    num: int
    name: str
    ok: bool
    detail: str
    elapsed: float
    limit: float


_searches: dict = {}


def _classes(v, k):
    if (v, k) not in _searches:
        _searches[(v, k)] = search(v, k)
    return _searches[(v, k)]


def _require(ok, detail):
    """Fail the criterion with detail unless ok; unlike assert, -O keeps it."""
    if not ok:
        raise CriterionFailed(detail)


def _canon_set(groups):
    return {canonical_form(g) for g in groups}


def _expected_canon(v, k):
    return _canon_set(construct_group(s) for s in expected_classes(v, k))


def _crit_p2_classification():
    p = 2
    for k in (0, 1):
        got = _classes(4, k)
        _require(len(got) == 3, f"v=4 k={k}: {len(got)} classes")
        dims = sorted(g.ambient - 1 for g in got)
        want = sorted([p * p * (k + 1) - 1,
                       (p * p + p - 1) * (k + 1) - 1,
                       p * (p + 1) * (k + 1) - 1])
        _require(dims == want, f"v=4 k={k}: dims {dims} != {want}")
        _require(_canon_set(got) == _expected_canon(4, k),
                 f"v=4 k={k}: classes differ from the catalog")
    return "v=4, k in {0,1}: 3 classes each, canonical match"


def _crit_pq_classification():
    got = _classes(6, 0)
    _require(len(got) == 5, f"v=6: {len(got)} classes")
    dims = sorted(g.ambient - 1 for g in got)
    _require(dims == [5, 6, 7, 7, 8], f"v=6 dims {dims}")
    _require(_canon_set(got) == _expected_canon(6, 0),
             "v=6: classes differ from the catalog")
    got = _classes(9, 0)
    _require(len(got) == 3, f"v=9: {len(got)} classes")
    _require(_canon_set(got) == _expected_canon(9, 0),
             "v=9: classes differ from the catalog")
    return "v=6: 5 classes; v=9: 3 classes; canonical match"


def _vertex_form_specs():
    out = []
    for k in (0, 1):
        for p in (2, 3, 5):
            out += expected_classes(p, k) + expected_classes(p * p, k)
        for v in (6, 10, 15):
            out += expected_classes(v, k)
    return out


def _crit_vertex_round_trip():
    specs = _vertex_form_specs()
    for sp in specs:
        s = construct_simplex(sp)
        g = construct_group(sp)
        _require(canonical_form(group_of_simplex(s)) == canonical_form(g),
                 str(sp))
    return f"{len(specs)} vertex forms rebuild their residue groups"


def _catalog_simplices(max_vol, max_dim):
    out = []
    for v in range(2, max_vol + 1):
        for k in (0, 1, 2):
            try:
                specs = expected_classes(v, k)
            except UnsupportedVolume:
                continue
            for sp in specs:
                s = construct_simplex(sp)
                if s.dim <= max_dim:
                    out.append(s)
    return out


def _crit_ehrhart_oracle():
    sims = _catalog_simplices(8, 6)
    for s in sims:
        _require(ehrhart_check(s), f"catalog simplex {s.vertices}")
    rng = random.Random(93)
    done = 0
    while done < 50:
        d = rng.randint(1, 4)
        pts = [[rng.randint(-2, 3) for _ in range(d)] for _ in range(d + 1)]
        try:
            s = from_vertices(pts)
        except DegenerateSimplex:
            continue
        if s.volume() > 6:
            continue
        _require(ehrhart_check(s), f"random simplex {pts}")
        done += 1
    return f"{len(sims)} catalog + 50 random simplices pass the series check"


def _crit_dimension_bounds():
    cases = [(4, 0), (4, 1), (6, 0), (9, 0)]
    for v, k in cases:
        verify_bounds(_classes(v, k), v, k)
    return f"bounds and unique minimum hold on {len(cases)} class lists"


def _chain_group_valid(lengths, values, v, k):
    gen = tuple(x for ln, val in zip(lengths, values) for x in [val] * ln)
    if not gen:
        return False
    try:
        g = from_generators([gen])
    except NonIntegralHeight:
        return False
    if g.order != v:
        return False
    try:
        want = target(v, k, g.ambient - 1)
    except DimensionTooSmall:
        return False
    return delta_of(g) == want


def _crit_chain_biconditional():
    chains = []
    for vt in range(2, 13):
        chains.append((vt,))
        for v1 in divisors(vt):
            if 1 < v1 < vt:
                chains.append((v1, vt))
                for v0 in divisors(v1):
                    if 1 < v0 < v1:
                        chains.append((v0, v1, vt))
    tested = perturbed = 0
    for chain in chains:
        v = chain[-1]
        for k in (0, 1):
            gen = chain_generator(chain, k)
            values = [Fraction(1, c) for c in chain]
            lengths = [gen.count(x) for x in values]
            _require(_chain_group_valid(lengths, values, v, k),
                     f"{chain} k={k}")
            tested += 1
            for i in range(len(lengths)):
                for step in (k + 1, -(k + 1)):
                    if lengths[i] + step < 0:
                        continue
                    bent = list(lengths)
                    bent[i] += step
                    _require(not _chain_group_valid(bent, values, v, k),
                             f"{chain} k={k} block {i} step {step}")
                    perturbed += 1
    return f"{tested} chain layouts valid, {perturbed} perturbations all fail"


def _crit_counting():
    for p in (2, 3):
        for ell in range(1, 11):
            _require(count_M(p**ell) == 2 ** (ell - 1), f"M({p}^{ell})")
    v = 1
    for t, want in ((1, 1), (2, 3), (3, 13), (4, 75)):
        v *= (2, 3, 5, 7)[t - 1]
        _require(count_M(v) == want == ordered_bell(t), f"M({v})")
    for v in range(2, 1001):
        _require(count_M(v) == sum(count_M(n) for n in divisors(v) if n != v),
                 f"recursion fails at M({v})")
    for a, b in ((12, 18), (8, 27), (36, 100)):
        _require(count_M(a) == count_M(b), f"count differs on {a}, {b}")
    return "closed forms, recursion to 1000, exponent invariance"


def _crit_delta_properties():
    cases = [(4, 0), (4, 1), (6, 0), (9, 0)]
    rng = random.Random(418)
    checked = 0
    for v, k in cases:
        for g in _classes(v, k):
            p = delta_of(g)
            where = f"v={v} k={k} dim {g.ambient - 1}"
            _require(p.coeffs[0] == 1, f"{where}: constant term")
            _require(sum(p.coeffs) == p.volume == g.order == v,
                     f"{where}: volume")
            perm = list(range(g.ambient))
            rng.shuffle(perm)
            for new in (perm, list(reversed(range(g.ambient)))):
                shuffled = from_generators(
                    [tuple(gen[i] for i in new) for gen in g.generators])
                _require(delta_of(shuffled).coeffs == p.coeffs,
                         f"{where}: permuted coordinates")
            pyr = direct_sum(g, trivial(1))
            _require(delta_of(pyr).coeffs == p.coeffs + (0,),
                     f"{where}: pyramid delta")
            _require(is_gorenstein(delta_of(pyr)) == is_gorenstein(p),
                     f"{where}: pyramid Gorenstein flag")
            core = p.coeffs[: (v - 1) * (k + 1) + 1]
            _require(all(x == 0 for x in p.coeffs[len(core):]),
                     f"{where}: degree")
            _require(core == core[::-1], f"{where}: palindrome")
            _require(is_gorenstein(p), f"{where}: Gorenstein")
            _require(gorenstein_index(p) == g.ambient - (v - 1) * (k + 1),
                     f"{where}: Gorenstein index")
            for e in g.elements:
                ht = height(e)
                _require(ht == int(ht) >= 0, f"{where}: height {ht}")
            hts = sorted(int(height(e)) for e in g.elements if any(e))
            _require(hts == [(k + 1) * j for j in range(1, v)],
                     f"{where}: heights {hts}")
            checked += 1
    bad = from_generators([(Fraction(1, 5),) * 3 + (Fraction(2, 5),)])
    _require(not is_gorenstein(delta_of(bad)), "non-Gorenstein control")
    return f"{checked} classes satisfy the full property list"


CRITERIA = (
    (1, "classification-p2", _crit_p2_classification, 10.0),
    (2, "classification-pq", _crit_pq_classification, 660.0),
    (3, "vertex-round-trip", _crit_vertex_round_trip, 60.0),
    (4, "ehrhart-oracle", _crit_ehrhart_oracle, 120.0),
    (5, "dimension-bounds", _crit_dimension_bounds, 10.0),
    (6, "chain-biconditional", _crit_chain_biconditional, 30.0),
    (7, "chain-counting", _crit_counting, 5.0),
    (8, "delta-properties", _crit_delta_properties, 30.0),
)


def run_criterion(num: int) -> CheckResult:
    if not 1 <= num <= len(CRITERIA):
        raise ValueError(f"no criterion {num}")
    _, name, fn, limit = CRITERIA[num - 1]
    start = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except Exception as e:  # noqa: BLE001 - any failure is a FAIL line
        detail = " ".join(str(e).split()) or type(e).__name__
        ok = False
    elapsed = time.perf_counter() - start
    if ok and elapsed > limit:
        ok = False
        detail = f"passed but took {elapsed:.1f}s (limit {limit:.0f}s)"
    return CheckResult(num, name, ok, detail, elapsed, limit)


def run_suite() -> list[CheckResult]:
    return [run_criterion(num) for num, _, _, _ in CRITERIA]
