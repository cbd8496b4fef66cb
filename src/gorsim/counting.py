"""Chain counts in divisor lattices.

count_M(v) counts the chains in the divisor lattice of v that start at any
element other than 1 and end at v.  Each such chain indexes one construction
class (see catalog.chain_generator), so this is a lower bound for the number
of classes of volume v.  The count satisfies the proper-divisor recursion
M(v) = sum of M(n) over proper divisors n, with M(1) = 1, and depends only
on the multiset of prime exponents of v.  For prime powers it is 2**(l-1);
for squarefree v with t prime factors it is the ordered Bell number a(t).

known_N returns the exact number of classes where a complete classification
exists: 1 for primes, 3 for p**2, 5 for pq.
"""

from functools import cache
from math import comb

from .arith import divisors
from .catalog import expected_classes
from .errors import InvalidParams, UnsupportedVolume

__all__ = ["count_M", "known_N", "ordered_bell"]


@cache
def count_M(v: int) -> int:
    """Number of divisor chains from a non-least element up to v; M(1) = 1."""
    if not isinstance(v, int) or v < 1:
        raise InvalidParams(f"v must be a positive integer, got {v!r}")
    if v == 1:
        return 1
    return sum(count_M(n) for n in divisors(v) if n != v)


@cache
def ordered_bell(t: int) -> int:
    """Ordered set partitions of a t-element set: a(t) = sum C(t,i) a(i), i < t."""
    if not isinstance(t, int) or t < 0:
        raise InvalidParams(f"t must be a nonnegative integer, got {t!r}")
    if t == 0:
        return 1
    return sum(comb(t, i) * ordered_bell(i) for i in range(t))


def known_N(v: int, k: int) -> int | None:
    """Exact class count for the solved volumes, None elsewhere.

    The count is the length of the catalog's expected class list.  It is
    independent of k for every solved case; the argument is kept so callers
    can ask about a specific target polynomial.
    """
    if not isinstance(v, int) or v < 1:
        raise InvalidParams(f"v must be a positive integer, got {v!r}")
    if not isinstance(k, int) or k < 0:
        raise InvalidParams(f"k must be a nonnegative integer, got {k!r}")
    try:
        return len(expected_classes(v, k))
    except UnsupportedVolume:
        return None
