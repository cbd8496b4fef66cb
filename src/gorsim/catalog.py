"""Catalog of group families whose delta polynomial is 1 + t^(k+1) + ... + t^((v-1)(k+1)).

Each family is named by a FamilySpec and can be realized as a residue group.
The named families, the classes for v = p, p**2 and pq, have one of two
shapes.  A divisor chain of one or two terms is the single generator
chain_generator, with vertex form family_A.  The join (a, b) of two primes
is the block (1/a) x a(k+1) followed by the block (1/b) x ab(k+1), the join
of prime(a, k) with prime(b, a(k+1) - 1), with vertex form family_BC.
divisor(v, u, k) is the two-term chain (v/u, v); it and the families chain
and join, which take any divisor chain or any two specs, have no vertex
form.  expected_classes lists, for a supported volume, the full set of
classes in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import factorize, is_prime
from .errors import InvalidChain, InvalidParams, NoVertexForm, UnsupportedVolume
from .residues import ResidueGroup, direct_sum, from_generators
from .simplex import LatticeSimplex, family_A, family_BC

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "chain_generator",
    "construct_group",
    "construct_simplex",
    "expected_classes",
    "spec_to_json",
    "spec_from_json",
]

FAMILIES = (
    "prime",
    "divisor",
    "join",
    "p2-case1",
    "p2-case2",
    "p2-case3",
    "pq-case1",
    "pq-case2",
    "pq-case3",
    "pq-case4",
    "pq-case5",
    "chain",
)


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameter assignment."""

    family: str
    params: dict = field(default_factory=dict)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def _int_param(sp: FamilySpec, name: str, low: int = 0) -> int:
    if name not in sp.params:
        raise InvalidParams(f"{sp.family} needs parameter {name!r}")
    x = sp.params[name]
    if not isinstance(x, int) or isinstance(x, bool) or x < low:
        raise InvalidParams(f"{name} must be an integer >= {low}, got {x!r}")
    return x


def _prime_param(sp: FamilySpec, name: str) -> int:
    x = _int_param(sp, name, 2)
    if not is_prime(x):
        raise InvalidParams(f"{name} must be prime, got {x}")
    return x


def _spec_param(sp: FamilySpec, name: str) -> FamilySpec:
    x = sp.params.get(name)
    if not isinstance(x, FamilySpec):
        raise InvalidParams(f"{sp.family} needs a nested family spec {name!r}")
    return x


def _family_k(sp: FamilySpec) -> int:
    """The k whose target polynomial the family realizes."""
    if sp.family == "join":
        return _family_k(_spec_param(sp, "first"))
    return _int_param(sp, "k")


def chain_generator(chain, k) -> tuple[Fraction, ...]:
    """Single generator for a divisor chain 1 < v_1 | v_2 | ... | v_t.

    Block i holds coordinates 1/v_i; the block sizes taper so that the
    element heights sweep 0, k+1, ..., (v_t - 1)(k+1) exactly once each.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidChain(f"k must be a nonnegative integer, got {k!r}")
    try:
        chain = tuple(chain)
    except TypeError:
        raise InvalidChain(
            f"chain must be a sequence of integers, got {chain!r}") from None
    if not chain or any(not isinstance(x, int) for x in chain) or chain[0] <= 1:
        raise InvalidChain(f"chain must be integers starting above 1: {chain}")
    for a, b in zip(chain, chain[1:]):
        if b <= a or b % a:
            raise InvalidChain(f"{a} -> {b} is not a proper divisor step")
    ext = (1,) + chain
    t = len(chain)
    vt = chain[-1]
    coords: list[Fraction] = []
    for i in range(1, t + 1):
        if i < t:
            size = (vt // ext[i - 1] - vt // ext[i + 1]) * (k + 1)
        else:
            size = (vt // ext[t - 1]) * (k + 1)
        coords.extend([Fraction(1, ext[i])] * size)
    return tuple(coords)


# named family -> (shape, its divisor chain or prime pair, given the primes)
_NAMED = {
    "prime": ("chain", lambda p: (p,)),
    "p2-case1": ("chain", lambda p: (p * p,)),
    "p2-case2": ("chain", lambda p: (p, p * p)),
    "p2-case3": ("join", lambda p: (p, p)),
    "pq-case1": ("chain", lambda p, q: (p * q,)),
    "pq-case2": ("join", lambda p, q: (p, q)),
    "pq-case3": ("join", lambda p, q: (q, p)),
    "pq-case4": ("chain", lambda p, q: (q, p * q)),
    "pq-case5": ("chain", lambda p, q: (p, p * q)),
}


def _shape(sp: FamilySpec) -> tuple[str, tuple[int, ...], int]:
    """Shape, chain or pair, and k of a named family, parameters validated."""
    kind, terms_of = _NAMED[sp.family]
    primes = [_prime_param(sp, "p")]
    if sp.family.startswith("pq-"):
        primes.append(_prime_param(sp, "q"))
        if primes[0] == primes[1]:
            raise InvalidParams("p and q must be distinct primes")
    return kind, terms_of(*primes), _int_param(sp, "k")


def _generators(sp: FamilySpec) -> list[tuple[Fraction, ...]]:
    f = sp.family
    if f in _NAMED:
        kind, terms, k = _shape(sp)
        if kind == "chain":
            return [chain_generator(terms, k)]
        a, b = terms
        first = (Fraction(1, a),) * (a * (k + 1))
        second = (Fraction(1, b),) * (a * b * (k + 1))
        if a != b:
            return [first + second]
        # one summed generator would only have order a
        zero = Fraction(0)
        return [first + (zero,) * len(second), (zero,) * len(first) + second]
    if f == "divisor":
        v = _int_param(sp, "v", 2)
        u = _int_param(sp, "u", 1)
        k = _int_param(sp, "k")
        if u >= v or v % u:
            raise InvalidParams(f"u must be a proper divisor of v, got u={u}, v={v}")
        return [chain_generator((v // u, v) if u > 1 else (v,), k)]
    if f == "chain":
        if "chain" not in sp.params:
            raise InvalidParams("chain family needs parameter 'chain'")
        return [chain_generator(sp.params["chain"], _int_param(sp, "k"))]
    raise InvalidParams(f"unknown family {f!r}")


def construct_group(sp: FamilySpec) -> ResidueGroup:
    """Realize the family as a residue group; heights are checked on closure."""
    if sp.family == "join":
        first = _spec_param(sp, "first")
        second = _spec_param(sp, "second")
        g1 = construct_group(first)
        g2 = construct_group(second)
        k1 = _family_k(first)
        k2 = _family_k(second)
        # the second factor's gap must continue where the first leaves off
        if k2 + 1 != g1.order * (k1 + 1):
            raise InvalidParams(
                f"join needs k2 + 1 = v1 (k1 + 1); got k2={k2}, v1={g1.order}, k1={k1}"
            )
        return direct_sum(g1, g2)
    return from_generators(_generators(sp))


def construct_simplex(sp: FamilySpec) -> LatticeSimplex:
    """Explicit vertex realization, where one is known (the named families)."""
    f = sp.family
    if f not in _NAMED:
        if f in FAMILIES:
            raise NoVertexForm(f"no vertex description for family {f!r}")
        raise InvalidParams(f"unknown family {f!r}")
    kind, terms, k = _shape(sp)
    if kind == "chain":
        v = terms[-1]
        r = v // terms[0]
        return family_A(
            [1] * (r * (k + 1) - 1) + [r] * ((v - 1) * (k + 1) - 1) + [v]
        )
    a, b = terms
    return family_BC(
        [1] * (a * (k + 1) - 1) + [a],
        [b] * (a * (k + 1)) + [1] * (a * b * (k + 1) - 2) + [b],
    )


def expected_classes(v: int, k: int) -> list[FamilySpec]:
    """All classes for a supported volume, in the standard order.

    Supported: primes, squares of primes, and products of two distinct
    primes.  Other volumes raise UnsupportedVolume.
    """
    if not isinstance(v, int) or v < 2:
        raise UnsupportedVolume(f"no classification known for volume {v!r}")
    if not isinstance(k, int) or k < 0:
        raise InvalidParams(f"k must be a nonnegative integer, got {k!r}")
    fac = factorize(v)
    if len(fac) == 1:
        (p, e), = fac.items()
        if e == 1:
            return [FamilySpec("prime", {"p": p, "k": k})]
        if e == 2:
            return [
                FamilySpec("p2-case1", {"p": p, "k": k}),
                FamilySpec("p2-case2", {"p": p, "k": k}),
                FamilySpec("p2-case3", {"p": p, "k": k}),
            ]
    if len(fac) == 2 and all(e == 1 for e in fac.values()):
        p, q = sorted(fac)
        return [
            FamilySpec(name, {"p": p, "q": q, "k": k})
            for name in ("pq-case1", "pq-case2", "pq-case3", "pq-case4", "pq-case5")
        ]
    raise UnsupportedVolume(f"no classification known for volume {v}")


def spec_to_json(sp: FamilySpec) -> dict:
    params = {}
    for key, val in sp.params.items():
        if isinstance(val, FamilySpec):
            params[key] = spec_to_json(val)
        elif isinstance(val, tuple):
            params[key] = list(val)
        else:
            params[key] = val
    return {"family": sp.family, "params": params}


def spec_from_json(obj) -> FamilySpec:
    if not isinstance(obj, dict) or "family" not in obj:
        raise InvalidParams("family spec JSON needs 'family' and 'params'")
    raw = obj.get("params", {})
    if not isinstance(raw, dict):
        raise InvalidParams("'params' must be a JSON object")
    params = {}
    for key, val in raw.items():
        if isinstance(val, dict):
            params[key] = spec_from_json(val)
        elif isinstance(val, list):
            params[key] = tuple(val)
        else:
            params[key] = val
    return FamilySpec(str(obj["family"]), params)
