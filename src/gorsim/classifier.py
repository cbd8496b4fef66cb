"""Exhaustive search for the classes realizing 1 + t^(k+1) + ... + t^((v-1)(k+1)).

A class of volume v is determined by an abelian group A of order v together
with a multiset of nonzero characters of A, one per coordinate.  The height
of a group element is a nonnegative integer combination of character
fractional values, so the search runs over assignments s of the heights
1..v-1 (in units of k+1) to the nonzero elements of A.  Heights are
subadditive, which prunes the assignment tree hard, and the tree yields one
assignment per Aut(A)-orbit, its least (orderly generation).  Each
assignment leaves a linear system for the character multiplicities.
The system is rank-deficient (inverse pairs of characters force equal
height sums), so the solver rewrites it once per group in class totals, one
per cyclic subgroup of characters, and pair differences, one per inverse
pair.  That system has a unique solution per assignment; the multiplicities
are then all the ways of splitting each class total across its pairs.
Trivial characters are excluded, which restricts the search to classes that
are not lattice pyramids over lower-dimensional ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

from .arith import factorize, partitions
from .delta import delta_of, target
from .errors import BoundViolation, BudgetExceeded, InvalidParams, SearchInvariantError
from .residues import ResidueGroup, canonical_form, from_generators

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "AbstractGroup",
    "groups_of_order",
    "subadditive_bijections",
    "search",
    "verify_bounds",
]

# tree nodes, one node per automorphism in each orbit check, the Aut listing,
# pair-split nodes, (v-1)^3 per solver set-up and v * ambient per class; sized
# so v <= 10 at k <= 1 finishes with headroom and a hopeless run stops quickly
DEFAULT_NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class AbstractGroup:
    """Finite abelian group in invariant factor form (ascending, each divides next)."""

    invariant_factors: tuple

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def elements(self):
        return product(*(range(f) for f in self.invariant_factors))

    def character(self, c, a) -> Fraction:
        """Fractional value of the character indexed by c at the element a."""
        total = sum(
            Fraction(ci * ai, f)
            for ci, ai, f in zip(c, a, self.invariant_factors)
        )
        return total % 1


def groups_of_order(v: int) -> list[AbstractGroup]:
    """All abelian groups of order v, one per isomorphism type."""
    if not isinstance(v, int) or v < 1:
        raise InvalidParams(f"order must be a positive integer, got {v!r}")
    per_prime = []
    for p, e in sorted(factorize(v).items()):
        per_prime.append([(p, part) for part in partitions(e)])
    out = []
    for combo in product(*per_prime):
        width = max(len(part) for _, part in combo) if combo else 0
        factors = []
        for j in range(width):
            f = 1
            for p, part in combo:
                if j < len(part):
                    f *= p ** part[j]
            factors.append(f)
        out.append(AbstractGroup(tuple(reversed(factors))))
    return out


def _nonzero_elements(group: AbstractGroup) -> list:
    return [a for a in group.elements() if any(a)]


def _charge(counter, cap, nodes):
    """Count nodes of work about to be done; raise once the total passes cap."""
    counter[0] += nodes
    if counter[0] > cap:
        raise BudgetExceeded(f"search exceeded {cap} nodes", used=counter[0])


def _bijection_dfs(add, m, counter, cap, perms):
    """Yield the least subadditive bijection onto slots 1..m of each orbit.

    add[i][j] is the index of elems[i] + elems[j], or -1 when the sum is
    zero.  Slots are filled in increasing order; bound[x] is the tightest
    s(a) + s(b) over assigned pairs with a + b = x, an upper bound for any
    slot x may still take.  Element i takes slot t only when no permutation
    in perms fixing the earlier slots' elements maps it lower, so elements
    listed by slot are least in their orbit; the identity alone yields all.
    """
    INF = m + 1
    bound = [INF] * m
    slot = [0] * m

    def rec(t, stab):
        if t > m:
            yield tuple(slot)
            return
        forced = -1
        dead = False
        cands = []
        for i in range(m):
            if slot[i]:
                continue
            if bound[i] < t or (bound[i] == t and forced >= 0):
                dead = True
                break
            if bound[i] == t:
                forced = i
            else:
                cands.append(i)
        if dead:
            return
        for i in ([forced] if forced >= 0 else cands):
            _charge(counter, cap, len(stab))
            if any(p[i] < i for p in stab):
                continue
            slot[i] = t
            row = add[i]
            changed = []
            for j in range(m):
                if slot[j]:
                    tgt = row[j]
                    if tgt >= 0 and not slot[tgt]:
                        nb = t + slot[j]
                        if nb < bound[tgt]:
                            changed.append((tgt, bound[tgt]))
                            bound[tgt] = nb
            yield from rec(t + 1, [p for p in stab if p[i] == i])
            for tgt, old in changed:
                bound[tgt] = old
            slot[i] = 0

    yield from rec(1, perms)


def _addition_table(group: AbstractGroup, elems):
    idx = {a: i for i, a in enumerate(elems)}
    facs = group.invariant_factors
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = tuple((x + y) % f for x, y, f in zip(a, b, facs))
            row.append(idx[c] if any(c) else -1)
        table.append(row)
    return table


def subadditive_bijections(group: AbstractGroup,
                           budget: int = DEFAULT_NODE_BUDGET) -> list:
    """All subadditive bijections from the nonzero elements onto 1..|A|-1."""
    m = group.order - 1
    add = _addition_table(group, _nonzero_elements(group))
    return list(_bijection_dfs(add, m, [0], budget, [tuple(range(m))]))


def _rref_with_ops(matrix):
    """Gauss-Jordan over Fractions; returns (rref, ops, pivot columns)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    rref = [[Fraction(x) for x in row] for row in matrix]
    ops = [[Fraction(int(i == j)) for j in range(rows)] for i in range(rows)]
    pivots = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        piv = next((r for r in range(row, rows) if rref[r][col]), None)
        if piv is None:
            continue
        rref[row], rref[piv] = rref[piv], rref[row]
        ops[row], ops[piv] = ops[piv], ops[row]
        inv = 1 / rref[row][col]
        rref[row] = [x * inv for x in rref[row]]
        ops[row] = [x * inv for x in ops[row]]
        for r in range(rows):
            if r != row and rref[r][col]:
                fct = rref[r][col]
                rref[r] = [x - fct * y for x, y in zip(rref[r], rref[row])]
                ops[r] = [x - fct * y for x, y in zip(ops[r], ops[row])]
        pivots.append(col)
        row += 1
    return rref, ops, pivots


class _PairSolver:
    """Per-group height system solved through the inverse-pair structure.

    The raw system (columns indexed by nonzero characters) is rank-deficient
    in general: the column sum over a pair {c, -c} depends only on the
    subgroup generated by c, so weight can shift between pairs generating
    the same subgroup.  Rewriting in class totals T (one per cyclic
    subgroup of characters) and pair differences d (one per proper pair)
    gives a full-column-rank system with a unique solution per assignment;
    the original multiplicities are then all the splits of each T into its
    pairs respecting the fixed differences and parities.  The constructor
    verifies that the pair shifts span the whole kernel and raises
    SearchInvariantError when they do not.
    """

    def __init__(self, group: AbstractGroup, elems):
        m = self.m = len(elems)
        facs = group.invariant_factors
        cols = [[group.character(c, a) for a in elems] for c in elems]
        index = {c: i for i, c in enumerate(elems)}
        # inverse pairs, singleton when the character has order 2
        self.pairs = []
        done = set()
        for i, c in enumerate(elems):
            if i in done:
                continue
            j = index[tuple((-x) % f for x, f in zip(c, facs))]
            done.add(i)
            done.add(j)
            self.pairs.append((i, j) if i <= j else (j, i))
        # class key: the subgroup generated by the character
        def subgroup_of(i):
            c = elems[i]
            seen = {tuple(0 for _ in facs)}
            cur = c
            while cur not in seen:
                seen.add(cur)
                cur = tuple((x + y) % f for x, y, f in zip(cur, c, facs))
            return frozenset(seen)

        classes = {}
        for pi, (i, j) in enumerate(self.pairs):
            classes.setdefault(subgroup_of(i), []).append(pi)
        self.classes = [classes[key] for key in sorted(classes, key=sorted)]
        self.proper = [pi for pi, (i, j) in enumerate(self.pairs) if i != j]
        rank_claim = m - sum(len(v) - 1 for v in self.classes)

        # columns: one T per class, one d per proper pair
        half = Fraction(1, 2)
        tcols = []
        for members in self.classes:
            i, j = self.pairs[members[0]]
            col = [(cols[i][a] + cols[j][a]) * half if i != j else cols[i][a]
                   for a in range(m)]
            tcols.append(col)
        dcols = []
        for pi in self.proper:
            i, j = self.pairs[pi]
            dcols.append([(cols[i][a] - cols[j][a]) * half for a in range(m)])
        nvars = self.nvars = len(tcols) + len(dcols)
        matrix = [[col[a] for col in tcols + dcols] for a in range(m)]
        _, ops, pivots = _rref_with_ops(matrix)
        if pivots != list(range(nvars)) or len(pivots) != rank_claim:
            raise SearchInvariantError(
                f"pair shifts do not span the height-system kernel of "
                f"{facs}: rank {len(pivots)}, expected {rank_claim}")
        self.rank = len(pivots)
        den = lcm(*(x.denominator for row in ops for x in row))
        self.scale = den
        self.ops_int = [[int(x * den) for x in row] for row in ops]

    def solutions(self, s, k, counter, cap):
        """All nonnegative integer multiplicity vectors for one assignment."""
        m, rank, den = self.m, self.rank, self.scale
        ops = self.ops_int
        for z in range(rank, m):
            if sum(ops[z][a] * s[a] for a in range(m)):
                return
        kk = k + 1
        vals = []
        for r in range(rank):
            num = kk * sum(ops[r][a] * s[a] for a in range(m))
            if num % den:
                return
            vals.append(num // den)
        nl = len(self.classes)
        totals = vals[:nl]
        diffs = {pi: 0 for pi in range(len(self.pairs))}
        for pos, pi in enumerate(self.proper):
            diffs[pi] = vals[nl + pos]
        # split each class total into pair totals with the fixed differences
        per_class = []
        for ci, members in enumerate(self.classes):
            t = totals[ci]
            base = sum(abs(diffs[pi]) for pi in members)
            slack = t - base
            if slack < 0:
                return
            if any(self.pairs[pi][0] == self.pairs[pi][1] for pi in members):
                # order-2 characters: a singleton class, total used directly
                if len(members) != 1:
                    return
                per_class.append(None)
                continue
            if slack % 2:
                return
            per_class.append(slack // 2)

        def rec(ci, n):
            _charge(counter, cap, 1)
            if ci == nl:
                yield tuple(n)
                return
            members = self.classes[ci]
            if per_class[ci] is None:
                i, _ = self.pairs[members[0]]
                n[i] = totals[ci]
                yield from rec(ci + 1, n)
                n[i] = 0
                return

            def spread(pos, left):
                _charge(counter, cap, 1)
                pi = members[pos]
                i, j = self.pairs[pi]
                d = diffs[pi]
                if pos == len(members) - 1:
                    t = abs(d) + 2 * left
                    n[i] = (t + d) // 2
                    n[j] = (t - d) // 2
                    yield from rec(ci + 1, n)
                    n[i] = n[j] = 0
                    return
                for u in range(left + 1):
                    t = abs(d) + 2 * u
                    n[i] = (t + d) // 2
                    n[j] = (t - d) // 2
                    yield from spread(pos + 1, left - u)
                n[i] = n[j] = 0

            yield from spread(0, per_class[ci])

        yield from rec(0, [0] * m)


def _aut_character_perms(group: AbstractGroup, elems):
    """Automorphisms as permutations of the nonzero elements' indices.

    They drive the orbit checks of the bijection DFS.  Generator e_i may go
    to any x of order f_i whose multiples meet the span of the earlier
    images only in zero; each full choice of images is one automorphism.
    """
    facs = group.invariant_factors
    m = len(elems)
    # addition by index, with 0 for zero and i + 1 for elems[i]
    plus = [list(range(m + 1))] + [
        [i + 1] + [x + 1 for x in row]
        for i, row in enumerate(_addition_table(group, elems))]
    idx = {c: i + 1 for i, c in enumerate(elems)}
    perms = []

    def rec(i, image):
        # image maps the span of e_0..e_{i-1} into the group, by index
        if i == len(facs):
            perms.append(tuple(image[a] - 1 for a in range(1, m + 1)))
            return
        e = idx[tuple(int(j == i) for j in range(len(facs)))]
        span = set(image.values())
        for x in range(1, m + 1):
            # j x must miss the span for 0 < j < f_i and be zero at j = f_i
            steps, a, b = [(0, 0)], e, x
            while a and b not in span:
                steps.append((a, b))
                a, b = plus[a][e], plus[b][x]
            if not a and not b:
                rec(i + 1, {plus[s][je]: plus[t][jx]
                            for s, t in image.items() for je, jx in steps})

    rec(0, {0: 0})
    return perms


def _group_from_profile(group: AbstractGroup, elems, counts) -> ResidueGroup:
    """Residue group with counts[i] coordinates carrying character elems[i]."""
    facs = group.invariant_factors
    cols = []
    for c, n in zip(elems, counts):
        cols.extend([c] * n)
    gens = [
        tuple(Fraction(c[i], facs[i]) for c in cols)
        for i in range(len(facs))
    ]
    return from_generators(gens)


def search(v: int, k: int, budget: int | None = DEFAULT_NODE_BUDGET) -> list:
    """All classes of order v for gap k, sorted by dimension then layout.

    Runs over every abelian group of order v and every subadditive height
    assignment, keeping the assignments whose character-multiplicity system
    has a nonnegative integer solution.  The tree yields one assignment per
    Aut(A)-orbit and an assignment determines its profiles, so the classes
    are distinct by construction; two with the same canonical form raise
    SearchInvariantError.  Raises BudgetExceeded (carrying the classes
    found so far in .partial) when the node budget runs out.
    """
    if not isinstance(v, int) or v < 2:
        raise InvalidParams(f"volume must be an integer >= 2, got {v!r}")
    if not isinstance(k, int) or k < 0:
        raise InvalidParams(f"k must be a nonnegative integer, got {k!r}")
    if budget is not None and budget < 1:
        raise InvalidParams(f"budget must be at least 1 node, got {budget!r}")
    cap = budget if budget is not None else float("inf")
    counter = [0]
    found = {}

    def finish():
        return [
            g for _, g in
            sorted(found.items(), key=lambda kv: (kv[1].ambient, kv[0]))
        ]

    try:
        for group in groups_of_order(v):
            # the Aut listing: |A| images for each tuple of candidate
            # generator images, prod_j gcd(f_i, f_j) candidates for e_i
            facs = group.invariant_factors
            _charge(counter, cap,
                    v * prod(prod(gcd(f, g) for g in facs) for f in facs))
            elems = _nonzero_elements(group)
            # the solver's elimination on its m x m system
            _charge(counter, cap, len(elems) ** 3)
            solver = _PairSolver(group, elems)
            add = _addition_table(group, elems)
            perms = _aut_character_perms(group, elems)
            for s in _bijection_dfs(add, len(elems), counter, cap, perms):
                for counts in solver.solutions(s, k, counter, cap):
                    # closure, delta and canonical form of v rows
                    _charge(counter, cap, v * sum(counts))
                    g = _group_from_profile(group, elems, counts)
                    if g.order != v:
                        raise SearchInvariantError(
                            f"profile {counts} of {facs} "
                            f"closes to order {g.order}, not {v}")
                    if delta_of(g) != target(v, k, g.ambient - 1):
                        raise SearchInvariantError(
                            f"profile {counts} of {facs} "
                            f"misses the target delta")
                    key = canonical_form(g)
                    if key in found:
                        raise SearchInvariantError(
                            f"profile {counts} of {facs} repeats a class")
                    found[key] = g
    except BudgetExceeded as e:
        raise BudgetExceeded(str(e), partial=finish(), used=counter[0]) from None
    return finish()


def verify_bounds(groups, v: int, k: int) -> bool:
    """Dimension window plus unique-minimum check for a set of classes.

    Every class must satisfy v(k+1) - 1 <= d <= 4(v-1)(k+1) - 2, and
    exactly one may attain the lower end: the all-(1/v) layout.
    """
    low = v * (k + 1) - 1
    high = 4 * (v - 1) * (k + 1) - 2
    at_minimum = []
    for g in groups:
        if g.order != v:
            raise BoundViolation(f"order {g.order} != volume {v}")
        d = g.ambient - 1
        if not low <= d <= high:
            raise BoundViolation(f"dimension {d} outside [{low}, {high}]")
        if d == low:
            at_minimum.append(g)
    minimal = from_generators([(Fraction(1, v),) * (v * (k + 1))])
    if len(at_minimum) != 1:
        raise BoundViolation(
            f"expected exactly one class at dimension {low}, got {len(at_minimum)}"
        )
    if canonical_form(at_minimum[0]) != canonical_form(minimal):
        raise BoundViolation("minimum-dimension class is not the all-(1/v) layout")
    return True
