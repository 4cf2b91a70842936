"""Counting and constructing balanced symmetric functions over GF(p).

Multiset classes group into orbits under permutation of the symbol counts;
an orbit is described by its multiplicity vector (how many counts equal
each value l).  When gcd(n, p) = 1 every orbit size is divisible by p, so
each orbit splits into p equal groups of classes; assigning output value g
to group g balances every orbit and hence the function.  The number of
such splits is the product lower bound; brute-force counting provides the
oracle at desk scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress, groupby, islice
from typing import Iterator, Optional

from .errors import BudgetError, InternalCheckError, OrbitSplitError
from .exactnum import binom, exact_div, is_prime, multinomial
from .symfun import MultisetClass, SymmetricFunction, enumerate_classes

BRUTE_MAX_BITS = 96


def count_symmetric(p: int, n: int) -> int:
    """p^C(p+n-1, n): one free output value per multiset class."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 0:
        raise ValueError("n must be non-negative")
    return p ** binom(p + n - 1, n)


def count_balanced_all(p: int, n: int) -> int:
    """Balanced functions GF(p)^n -> GF(p), symmetric or not:
    (p^n)! / ((p^(n-1))!)^p with s = p^(n-1), as the product of q^e over
    the primes q <= p s, e = v_q((p s)!) - p v_q(s!) by Legendre's formula,
    multiplied pairwise so the big factors meet only at the top."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError("balance needs n >= 1")
    share = p ** (n - 1)
    return _product([q ** (_factorial_valuation(p * share, q) - p * _factorial_valuation(share, q))
                     for q in _primes_up_to(p * share)])


def _product(factors: list[int]) -> int:
    """Product of a non-empty list, multiplied pairwise so the big factors
    meet only at the top."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


def _primes_up_to(m: int) -> list[int]:
    """Primes q <= m (m >= 1), by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(m) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, m + 1, q)))
    return list(compress(range(m + 1), sieve))


def _factorial_valuation(m: int, q: int) -> int:
    """Exponent of the prime q in m!: the sum of floor(m / q^i), i >= 1."""
    e = 0
    while m:
        m //= q
        e += m
    return e


@dataclass(frozen=True)
class MVector:
    """Multiplicities of count values within one class: m[l] counts the
    symbols appearing exactly l times."""

    p: int
    n: int
    m: tuple[int, ...]

    def __post_init__(self):
        if len(self.m) != self.n + 1:
            raise ValueError("m must have n + 1 entries")
        if any(q < 0 for q in self.m):
            raise ValueError("multiplicities must be non-negative")
        if sum(self.m) != self.p:
            raise ValueError("multiplicities must sum to p")
        if sum(l * q for l, q in enumerate(self.m)) != self.n:
            raise ValueError("weighted multiplicities must sum to n")


def mvector_of(cls: MultisetClass) -> MVector:
    """Multiplicity vector of a class's count multiset."""
    return MVector(cls.p, cls.n,
                   tuple(cls.counts.count(l) for l in range(cls.n + 1)))


def orbit_size(mv: MVector) -> int:
    """Number of classes sharing this count multiset: p! / prod m_l!."""
    return multinomial(mv.p, mv.m)


def check_divisibility(mv: MVector) -> bool:
    """Whether p divides the orbit size."""
    return orbit_size(mv) % mv.p == 0


def _check_orbit_args(p: int, n: int) -> None:
    """The checks every orbit walk makes first: p prime, n >= 0."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 0:
        raise ValueError("n must be non-negative")


def _partitions(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into at most p positive parts, as non-increasing
    tuples in descending lexicographic order: one per orbit, the nonzero
    symbol counts of its classes.  Each next partition lowers the last part
    that can drop by one while the parts after it, none larger, still fit
    in the slots left; those parts are then refilled greedily."""
    _check_orbit_args(p, n)
    parts: list[int] = []
    rest = n
    while True:
        while rest:
            q = min(rest, parts[-1]) if parts else rest
            parts.append(q)
            rest -= q
        yield tuple(parts)
        while parts:
            q = parts.pop()
            rest += q
            if q > 1 and rest - q + 1 <= (p - len(parts) - 1) * (q - 1):
                parts.append(q - 1)
                rest -= q - 1
                break
        else:
            return


def _multiplicities(parts: tuple[int, ...], p: int) -> list[int]:
    """How many symbols share each count of a partition's orbit: the
    p - len(parts) absent symbols, then one entry per distinct part."""
    return [p - len(parts), *(len(list(run)) for _, run in groupby(parts))]


def enumerate_mvectors(p: int, n: int) -> list[MVector]:
    """All multiplicity vectors with sum p and weighted sum n, one per
    partition of n into at most p parts; sorted for determinism."""
    found = []
    for parts in _partitions(n, p):
        m = [0] * (n + 1)
        m[0] = p - len(parts)
        for q in parts:
            m[q] += 1
        found.append(tuple(m))
    return [MVector(p, n, t) for t in sorted(found)]


def all_orbits_divisible(p: int, n: int) -> bool:
    """Whether every orbit splits into p equal groups.  Decided two ways
    that must agree: gcd(n, p) = 1, and no multiplicity reaching p.  When
    p divides n the second way needs only the partition into p equal parts
    (none at all for n = 0), whose one multiplicity is p; otherwise it
    scans every partition."""
    _check_orbit_args(p, n)
    by_gcd = math.gcd(n, p) == 1
    if by_gcd:
        by_scan = all(max(_multiplicities(parts, p)) < p for parts in _partitions(n, p))
    else:
        by_scan = max(_multiplicities((n // p,) * p if n else (), p)) < p
    if by_gcd != by_scan:
        raise InternalCheckError(f"orbit split criteria disagree at p={p}, n={n}")
    return by_gcd


def lower_bound_balanced(p: int, n: int) -> int:
    """Product over orbits of (orbit)! / ((orbit/p)!)^p: the number of ways
    to split every orbit into p labeled equal groups.  Each split yields a
    distinct balanced function, so this bounds their count from below.

    Requires gcd(n, p) = 1; when p divides n the all-equal class forms an
    orbit of size 1 that cannot be split, and the bound is not asserted.
    """
    if not all_orbits_divisible(p, n):
        raise OrbitSplitError(
            f"p={p} divides n={n}: some orbit cannot be split into p groups")
    factors = []
    for parts in _partitions(n, p):
        size = multinomial(p, _multiplicities(parts, p))
        part = exact_div(size, p)
        factors.append(exact_div(math.factorial(size), math.factorial(part) ** p))
    return _product(factors)


def _orbits(p: int, n: int) -> list[list[int]]:
    """Class indices grouped by count multiset, in canonical order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, cls in enumerate(enumerate_classes(p, n)):
        groups.setdefault(tuple(sorted(cls.counts)), []).append(idx)
    return [groups[key] for key in sorted(groups)]


def _equal_partitions(members: list[int], p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All splits of members into p ordered groups of equal size, in
    lexicographic order; the first split is the consecutive runs."""
    share = len(members) // p

    def rec(pool: list[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(pool) == share:
            yield (tuple(pool),)
            return
        for picked in combinations(range(len(pool)), share):
            group = tuple(pool[i] for i in picked)
            chosen = set(picked)
            rest = [x for i, x in enumerate(pool) if i not in chosen]
            for tail in rec(rest):
                yield (group,) + tail

    return rec(members)


def generate_balanced(p: int, n: int, limit: Optional[int] = None) -> Iterator[SymmetricFunction]:
    """Yield distinct balanced symmetric functions: every orbit is split
    into p equal groups of classes and group g outputs value g.  Deterministic
    order; distinct splits differ on some class, so outputs never repeat.

    Varying all splits reaches lower_bound_balanced(p, n) functions.  A
    negative limit raises ValueError on the first next(), before any work.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    if not all_orbits_divisible(p, n):
        raise OrbitSplitError(
            f"p={p} divides n={n}: some orbit cannot be split into p groups")
    orbits = _orbits(p, n)
    values = [0] * binom(p + n - 1, n)

    def assign(split: tuple[tuple[int, ...], ...]) -> None:
        for value, group in enumerate(split):
            for idx in group:
                values[idx] = value

    def walk() -> Iterator[SymmetricFunction]:
        # An odometer over the orbits' split iterators, last orbit fastest:
        # an exhausted orbit restarts at its first split and carries.
        splits = [_equal_partitions(orbit, p) for orbit in orbits]
        for it in splits:
            assign(next(it))
        while True:
            yield SymmetricFunction(p, n, tuple(values))
            for k in reversed(range(len(orbits))):
                split = next(splits[k], None)
                if split is not None:
                    assign(split)
                    break
                splits[k] = _equal_partitions(orbits[k], p)
                assign(next(splits[k]))
            else:
                return

    yield from islice(walk(), limit)


def brute_count_balanced_symmetric(p: int, n: int) -> int:
    """Exact count of balanced symmetric functions by exhaustive assignment
    of output values to classes, with branches pruned once a value's input
    count exceeds p^(n-1) and shared suffixes counted once (memoized on the
    remaining classes and the sorted bucket fills: every bucket has the same
    target, so relabeling buckets leaves the count unchanged)."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError("balance needs n >= 1")
    classes = binom(p + n - 1, n)
    if classes * math.log2(p) > BRUTE_MAX_BITS:
        raise BudgetError(
            f"assignment space p^{classes} exceeds the 2^{BRUTE_MAX_BITS} cap")
    sizes = sorted((cls.size() for cls in enumerate_classes(p, n)), reverse=True)
    target = p ** (n - 1)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def count_from(idx: int, buckets: tuple[int, ...]) -> int:
        if idx == len(sizes):
            return 1
        key = (idx, tuple(sorted(buckets)))
        cached = memo.get(key)
        if cached is not None:
            return cached
        size = sizes[idx]
        total = 0
        for b in range(p):
            if buckets[b] + size <= target:
                total += count_from(
                    idx + 1, buckets[:b] + (buckets[b] + size,) + buckets[b + 1:])
        memo[key] = total
        return total

    return count_from(0, (0,) * p)
