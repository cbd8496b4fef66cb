"""The three workloads: inputs built from a seed, the operations, their checks.

Each build_* function takes a namespace of gorsim modules and a seeded
random.Random and returns a Plan.  Operations look gorsim functions up
through their modules at call time, so the tracer's wrappers take effect
when installed.
A check receives the first round's outputs (None where an operation raised)
and returns {operation index: [problems]}; it compares only against the
computations in oracle.py and against properties the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import oracle

# (v, k) pairs: the ROADMAP's volumes, the paper's volumes, and beyond it
CLASSIFY_CASES = (
    (8, 0), (8, 1), (12, 0), (12, 1),
    (9, 0), (9, 1), (15, 0), (15, 1), (25, 0), (25, 1),
    (18, 0), (20, 0), (20, 1),
)

# Class counts beyond the paper, from gorsim's own search; README.md gives
# the command that regenerates them.  The paper gives 3 for p^2, 5 for pq.
RECORDED_COUNTS = {8: 11, 12: 27, 18: 27, 20: 27}

# random simplices for the ehrhart workload: (dimension, normalized volume);
# fixing both keeps the counting work alike from one seed to the next
RANDOM_SHAPES = ((3, 6), (4, 6), (5, 4))
RANDOM_PER_SHAPE = 6

CANON_MAX_V = 24


@dataclass
class Plan:
    ops: list  # (label, zero-argument callable)
    check: Callable[[list], dict]
    probe: Callable[[], None] | None = None  # traced rounds only, untimed


def paper_count(v: int) -> int | None:
    """The paper's class count: 3 when v = p^2, 5 when v = pq, else None."""
    primes = []
    n, p = v, 2
    while n > 1:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1
    if len(primes) != 2:
        return None
    return 3 if primes[0] == primes[1] else 5


def classify_problems(v: int, k: int, rc: int, text: str) -> list[str]:
    """Every check on one `gorsim classify --v v --k k` run."""
    if rc != 0:
        return [f"exit code {rc}"]
    out = json.loads(text.strip().splitlines()[-1])
    if (out["v"], out["k"]) != (v, k):
        return [f"echoed v={out['v']} k={out['k']}"]
    problems = []
    classes = []
    for i, row in enumerate(out["classes"]):
        bad, elems, n = oracle.class_problems(row, v, k)
        problems += [f"class {i}: {p}" for p in bad]
        classes.append((elems, n))
    want = paper_count(v)
    if want is not None:
        if out["match"] is not True:
            problems.append(f"match is {out['match']!r} on a volume the paper classifies")
    else:
        want = RECORDED_COUNTS.get(v)
    if want is not None and len(classes) != want:
        problems.append(f"{len(classes)} classes, expected {want}")
    hits = set()
    for chain in oracle.divisor_chains(v):
        layout = oracle.chain_layout(chain, k)
        at = [i for i, (elems, n) in enumerate(classes)
              if oracle.holds_chain(elems, n, layout)]
        if not at:
            problems.append(f"chain {chain} has no class")
        hits.update(at[:1])
    if len(hits) != len(oracle.divisor_chains(v)):
        problems.append("two chains share one class")
    return problems


def build_classify(m, rng) -> Plan:
    cases = list(CLASSIFY_CASES)
    rng.shuffle(cases)

    def op(v, k):
        argv = ["classify", "--v", str(v), "--k", str(k)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = m.cli.main(argv)
            return rc, buf.getvalue()
        return run

    def check(outputs):
        return {i: classify_problems(v, k, *out)
                for i, ((v, k), out) in enumerate(zip(cases, outputs))
                if out is not None}

    def probe():
        for v, _ in cases:
            for group in m.classifier.groups_of_order(v):
                m.classifier.subadditive_bijections(group)

    return Plan([(f"classify v={v} k={k}", op(v, k)) for v, k in cases],
                check, probe)


def catalog_specs(FamilySpec) -> list:
    """The catalog specs that criterion 4 of `gorsim verify` builds."""
    specs = []
    for p in (2, 3, 5, 7):
        for k in (0, 1, 2):
            specs.append(FamilySpec("prime", {"p": p, "k": k}))
            for case in ("p2-case1", "p2-case2", "p2-case3"):
                specs.append(FamilySpec(case, {"p": p, "k": k}))
            for q in (3, 5):
                if p < q:
                    for case in ("pq-case1", "pq-case2", "pq-case3",
                                 "pq-case4", "pq-case5"):
                        specs.append(FamilySpec(case, {"p": p, "q": q, "k": k}))
    return specs


def spec_volume(spec) -> int:
    p = spec.params["p"]
    if spec.family.startswith("p2-"):
        return p * p
    if spec.family.startswith("pq-"):
        return p * spec.params["q"]
    return p


def random_vertices(rng, d: int, volume: int) -> list[list[int]]:
    """A random d-simplex in a small box with exactly this normalized volume."""
    while True:
        shift = [rng.randint(-1, 1) for _ in range(d)]
        pts = [shift] + [[x + rng.randint(-1, 2) for x in shift] for _ in range(d)]
        if abs(oracle.det(oracle.homogenized(pts))) == volume:
            return pts


def ehrhart_problems(entry, ok, count_points) -> list[str]:
    """Checks on one ehrhart_check result and on the simplex it was given."""
    problems = [] if ok is True else [f"ehrhart_check returned {ok!r}"]
    kind, s, info = entry
    if kind == "catalog":
        elems, n = oracle.simplex_group(s.vertices)
        problems += oracle.height_problems(elems, n, spec_volume(info),
                                           info.params["k"])
        return problems
    if s.volume() != info:
        problems.append(f"volume {s.volume()} != {info}")
    for dilate in (1, 2):
        got = count_points(s, dilate)
        want = oracle.brute_force_count(s.vertices, dilate)
        if got != want:
            problems.append(f"{got} points in the {dilate}-dilate, brute force {want}")
    return problems


def build_ehrhart(m, rng) -> Plan:
    entries = []
    for spec in catalog_specs(m.catalog.FamilySpec):
        s = m.catalog.construct_simplex(spec)
        if s.volume() <= 8 and s.dim <= 6:
            entries.append(("catalog", s, spec))
    for d, volume in RANDOM_SHAPES:
        for _ in range(RANDOM_PER_SHAPE):
            s = m.simplex.from_vertices(random_vertices(rng, d, volume))
            entries.append(("random", s, volume))
    rng.shuffle(entries)

    def check(outputs):
        return {i: ehrhart_problems(entry, ok, m.simplex.count_points)
                for i, (entry, ok) in enumerate(zip(entries, outputs))
                if ok is not None}

    return Plan([(f"ehrhart {kind} {info}", lambda s=s: m.delta.ehrhart_check(s))
                 for kind, s, info in entries], check)


def vertex_form_specs(FamilySpec) -> list:
    """The 54 specs with a vertex form that criterion 3 round-trips."""
    specs = []
    for k in (0, 1):
        for p in (2, 3, 5):
            specs.append(FamilySpec("prime", {"p": p, "k": k}))
            for case in ("p2-case1", "p2-case2", "p2-case3"):
                specs.append(FamilySpec(case, {"p": p, "k": k}))
        for p, q in ((2, 3), (2, 5), (3, 5)):
            for case in ("pq-case1", "pq-case2", "pq-case3",
                         "pq-case4", "pq-case5"):
                specs.append(FamilySpec(case, {"p": p, "q": q, "k": k}))
    return specs


def chain_problems(chain, k, gen, out) -> list[str]:
    """Checks on one chain group: the generator, its heights and its delta."""
    v = chain[-1]
    _, coeffs, order = out
    problems = []
    if sorted(gen) != sorted(oracle.chain_layout(chain, k)):
        problems.append("generator is not the chain layout")
    gens, n = oracle.to_residues([gen])
    problems += oracle.height_problems(oracle.close(gens, n), n, v, k)
    if order != v:
        problems.append(f"order {order} != {v}")
    if list(coeffs) != oracle.target_coeffs(v, k, len(gen) - 1):
        problems.append(f"delta {coeffs} is not the target")
    return problems


def round_trip_problems(s, out) -> list[str]:
    from_simplex, from_spec, order = out
    problems = [] if from_simplex == from_spec else ["round trip changes the class"]
    want = abs(oracle.det(oracle.homogenized(s.vertices)))
    if order != want:
        problems.append(f"group order {order} != |det| {want}")
    return problems


def build_canon(m, rng) -> Plan:
    """Chain groups closed from generators, and vertex forms through SNF.

    One operation takes every chain ending at one v, for one k: the classes
    of that (v, k).  Each chain generator gets a seeded coordinate
    permutation; the check closes the unpermuted generator and requires the
    same canonical form.
    """
    r = m.residues
    ops, kinds = [], []
    for v in range(2, CANON_MAX_V + 1):
        chains = oracle.divisor_chains(v)
        for k in (0, 1):
            plain, gens = [], []
            for chain in chains:
                gen = m.catalog.chain_generator(chain, k)
                plain.append(gen)
                gens.append(tuple(rng.sample(gen, len(gen))))

            def run(gens=gens):
                out = []
                for gen in gens:
                    g = r.from_generators([gen])
                    out.append((r.canonical_form(g), m.delta.delta_of(g).coeffs, g.order))
                return out
            ops.append((f"canon chains of v={v} k={k}", run))
            kinds.append(("chains", chains, k, gens, plain))
    for spec in vertex_form_specs(m.catalog.FamilySpec):
        s = m.catalog.construct_simplex(spec)
        expected = m.catalog.construct_group(spec)

        def run(s=s, expected=expected):
            g = r.group_of_simplex(s)
            return r.canonical_form(g), r.canonical_form(expected), g.order
        ops.append((f"canon round trip {spec}", run))
        kinds.append(("vertex", s))
    order = list(range(len(ops)))
    rng.shuffle(order)
    ops = [ops[i] for i in order]
    kinds = [kinds[i] for i in order]

    def check(outputs):
        out = {}
        for i, (kind, out_i) in enumerate(zip(kinds, outputs)):
            if out_i is None:
                continue
            if kind[0] == "vertex":
                out[i] = round_trip_problems(kind[1], out_i)
                continue
            _, chains, k, gens, plain = kind
            out[i] = [f"chain {chain}: {p}"
                      for chain, gen, got in zip(chains, gens, out_i)
                      for p in chain_problems(chain, k, gen, got)]
            # the permuted generator must give the class of the unpermuted one
            out[i] += [f"chain {chain}: permuting the coordinates changes the class"
                       for chain, gen, (form, _, _) in zip(chains, plain, out_i)
                       if form != r.canonical_form(r.from_generators([gen]))]
            distinct = len({form for form, _, _ in out_i})
            if distinct != len(chains):
                out[i].append(f"{distinct} distinct classes among {len(chains)} chains")
        return out

    return Plan(ops, check)


WORKLOADS = {
    "classify": build_classify,
    "ehrhart": build_ehrhart,
    "canon": build_canon,
}
