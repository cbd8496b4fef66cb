"""Command-line interface.

Five verbs: delta (polynomial of a simplex or generator file), construct
(build a family member), classify (exhaustive search plus match report),
count (chain and known class counts), verify (acceptance suite).  Output is
deterministic: JSON is printed with sorted keys and a trailing newline,
fractions as "a/b" in lowest terms, and nothing timing-dependent goes to
stdout.  Exit codes: 0 success, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .acceptance import run_suite
from .catalog import construct_group, construct_simplex, expected_classes, spec_from_json, spec_to_json
from .classifier import DEFAULT_NODE_BUDGET, search
from .counting import count_M, known_N
from .delta import delta_of, delta_text, gorenstein_index, is_gorenstein
from .errors import BudgetExceeded, GorsimError, NotGorenstein, UnsupportedVolume
from .residues import canonical_form, group_from_json, group_of_simplex, group_to_json
from .simplex import simplex_from_json, simplex_to_json

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gorsim",
        description="Delta polynomials of lattice simplices via residue groups.")
    sub = parser.add_subparsers(dest="verb", required=True)

    d = sub.add_parser("delta", help="delta polynomial of one simplex or group")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--simplex", metavar="FILE",
                     help="JSON file with a 'vertices' list")
    src.add_argument("--generators", metavar="FILE",
                     help="JSON file with a 'generators' list of fraction rows")

    c = sub.add_parser("construct", help="build one catalog family member")
    c.add_argument("--family", required=True, metavar="SPEC",
                   help="family spec as inline JSON or a path to a JSON file")
    c.add_argument("--vertex-form", action="store_true",
                   help="also emit the explicit simplex")

    cl = sub.add_parser("classify", help="search all classes of one volume")
    cl.add_argument("--v", type=int, required=True)
    cl.add_argument("--k", type=int, required=True)
    cl.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                    help="node budget (default %(default)s)")

    co = sub.add_parser("count", help="chain count M and known class count N")
    co.add_argument("--v", type=int, required=True)

    sub.add_parser("verify", help="run the acceptance criteria")
    return parser


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_delta(args) -> int:
    if args.simplex:
        group = group_of_simplex(simplex_from_json(_load_json(args.simplex)))
    else:
        group = group_from_json(_load_json(args.generators))
    poly = delta_of(group)
    print(f"delta = {delta_text(poly)}")
    print(f"volume = {poly.volume}")
    try:
        index = str(gorenstein_index(poly))
        flag = "true"
    except NotGorenstein:
        index = "none"
        flag = "false"
    print(f"gorenstein = {flag}")
    print(f"index = {index}")
    return 0


def _cmd_construct(args) -> int:
    raw = args.family.strip()
    obj = json.loads(raw) if raw.startswith("{") else _load_json(raw)
    spec = spec_from_json(obj)
    group = construct_group(spec)
    out = spec_to_json(spec)
    out["group"] = group_to_json(group)
    if args.vertex_form:
        out["simplex"] = simplex_to_json(construct_simplex(spec))
    _emit(out)
    return 0


def _cmd_classify(args) -> int:
    classes = search(args.v, args.k, budget=args.budget)
    try:
        expected = {
            canonical_form(construct_group(sp)): str(sp)
            for sp in expected_classes(args.v, args.k)
        }
    except UnsupportedVolume:
        expected = None
    rows = []
    matched = 0
    for g in classes:
        label = expected.get(canonical_form(g)) if expected is not None else None
        matched += label is not None
        rows.append({
            "dim": g.ambient - 1,
            "generators": group_to_json(g)["generators"],
            "delta": list(delta_of(g).coeffs),
            "matched_family": label,
        })
    if expected is None:
        match = "unknown"
    else:
        match = matched == len(classes) == len(expected)
    _emit({"v": args.v, "k": args.k, "classes": rows, "match": match})
    return 0 if match in (True, "unknown") else 1


def _cmd_count(args) -> int:
    m = count_M(args.v)
    n = known_N(args.v, 0)
    print(f"M = {m}; N = {n if n is not None else 'unknown'}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite()
    for r in results:
        if r.ok:
            print(f"criterion {r.num} {r.name}: PASS")
        else:
            print(f"criterion {r.num} {r.name}: FAIL ({r.detail})")
        print(f"criterion {r.num}: {r.elapsed:.2f}s", file=sys.stderr)
    passed = sum(r.ok for r in results)
    print(f"{passed} passed, {len(results) - passed} failed")
    return 0 if passed == len(results) else 1


_COMMANDS = {
    "delta": _cmd_delta,
    "construct": _cmd_construct,
    "classify": _cmd_classify,
    "count": _cmd_count,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return _COMMANDS[args.verb](args)
    except BudgetExceeded as e:
        print(f"error: {' '.join(str(e).split())}", file=sys.stderr)
        return 1
    except (GorsimError, ValueError, OSError) as e:
        print(f"error: {' '.join(str(e).split()) or type(e).__name__}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
