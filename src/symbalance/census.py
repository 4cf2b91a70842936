"""Counting and constructing balanced symmetric functions over GF(p).

Multiset classes group into orbits under permutation of the symbols; an
orbit is a partition of n into at most p parts (the nonzero symbol counts
of its classes), and its size is p! over the product of the factorials of
the multiplicities of its counts.  When gcd(n, p) = 1 every orbit size is
divisible by p, so each orbit splits into p equal groups of classes;
assigning output value g to group g balances every orbit and hence the
function.  The number of such splits is the product lower bound.

The exact count comes from a forward DP over the classes in descending
size that keeps one layer of sorted bucket fills; the count over all
functions, symmetric or not, is a factorial quotient read prime by prime.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right, insort
from itertools import chain, compress, islice
from typing import Iterator, Optional

from .errors import BudgetError, InternalCheckError, OrbitSplitError
from .exactnum import _multinomial, binom, exact_div, is_prime
from .symfun import SymmetricFunction, _class_sizes, _count_vectors, _valid_function

BRUTE_MAX_BITS = 96


def _check_args(p: int, n: int) -> None:
    """The checks every count and orbit walk makes first: p prime, n >= 0."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 0:
        raise ValueError("n must be non-negative")


def count_symmetric(p: int, n: int) -> int:
    """p^C(p+n-1, n): one free output value per multiset class."""
    _check_args(p, n)
    return p ** binom(p + n - 1, n)


def count_balanced_all(p: int, n: int) -> int:
    """Balanced functions GF(p)^n -> GF(p), symmetric or not:
    (p^n)! / ((p^(n-1))!)^p with s = p^(n-1), as the product of q^e over
    the primes q <= p s, e = v_q((p s)!) - p v_q(s!) by Legendre's formula,
    multiplied pairwise so the big factors meet only at the top.

    Above the root of p s, q^2 > p s, so e = (p s) // q - p (s // q): the
    primes there fall into runs of one exponent, and each run is read
    from the sieve at once, multiplied once and raised once."""
    _check_args(p, n)
    if n < 1:
        raise ValueError("balance needs n >= 1")
    share = p ** (n - 1)
    total = p * share
    sieve = _sieve(total)
    root = math.isqrt(total)
    factors = [q ** (_factorial_valuation(total, q) - p * _factorial_valuation(share, q))
               for q in compress(range(root + 1), sieve[:root + 1])]
    q = root + 1
    while q <= total:
        # total // q is the same for q..end, and so is share // q, since
        # share // q >= b exactly when q <= share // b, that is when
        # total // q >= p b.
        above = total // q
        end = total // above
        exponent = above - p * (share // q)
        if exponent:
            run = list(compress(range(q, end + 1), sieve[q:end + 1]))
            if run:
                factors.append(_product(run) ** exponent)
        q = end + 1
    return _product(factors)


def _product(factors: list[int]) -> int:
    """Product of a non-empty list, multiplied pairwise so the big factors
    meet only at the top."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


def _sieve(m: int) -> bytearray:
    """sieve[q] = 1 exactly for the primes q <= m (m >= 1), by the sieve of
    Eratosthenes."""
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(m) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, m + 1, q)))
    return sieve


def _factorial_valuation(m: int, q: int) -> int:
    """Exponent of the prime q in m!: the sum of floor(m / q^i), i >= 1."""
    e = 0
    while m:
        m //= q
        e += m
    return e


def _orbit_walk(n: int, p: int) -> Iterator[tuple[list[int], list[int]]]:
    """One step per orbit, through the partitions of n into at most p
    positive parts in descending lexicographic order: the nonzero symbol
    counts of the orbit's classes.  A partition of k parts is held as its
    distinct parts, descending, and its multiplicities: the p - k symbols
    absent from its classes, then how many parts equal each distinct part.
    Both lists are the walk's own state, changed by the next step.

    Each next partition lowers the last part that can drop by one while
    the parts after it, none larger, still fit in the slots left; those
    parts are then refilled greedily, as copies of the lowered part and
    one remainder.  If the last of a run of equal parts cannot drop, no
    part of the run can, so the run is passed over whole."""
    _check_args(p, n)
    parts, multiplicities = ([n], [p - 1, 1]) if n else ([], [p])
    while True:
        yield parts, multiplicities
        rest = 0
        while parts:
            q = parts[-1]
            # Lowered by one, q leaves rest + 1 for the p - k free slots,
            # each at most q - 1.
            if q > 1 and rest < multiplicities[0] * (q - 1):
                break
            parts.pop()
            count = multiplicities.pop()
            multiplicities[0] += count
            rest += q * count
        else:
            return
        if multiplicities[-1] == 1:
            parts.pop()
            multiplicities.pop()
        else:
            multiplicities[-1] -= 1
        copies, left = divmod(rest + q, q - 1)
        parts.append(q - 1)
        multiplicities.append(copies)
        if left:
            parts.append(left)
            multiplicities.append(1)
        multiplicities[0] += 1 - copies - (left > 0)


def all_orbits_divisible(p: int, n: int) -> bool:
    """Whether every orbit splits into p equal groups: exactly when
    gcd(n, p) = 1.  Then every partition is scanned as well, and a
    multiplicity reaching p raises InternalCheckError.  When p divides n
    the partition into p equal parts has multiplicity p by construction,
    so nothing is scanned."""
    _check_args(p, n)
    if math.gcd(n, p) != 1:
        return False
    for _ in _scanned_multiplicities(p, n):
        pass
    return True


def _scanned_multiplicities(p: int, n: int) -> Iterator[list[int]]:
    """The multiplicities of each orbit when gcd(n, p) = 1, in one walk of
    the partitions, checked on the way by the scan of all_orbits_divisible:
    a multiplicity reaching p raises InternalCheckError at that orbit."""
    for _, multiplicities in _orbit_walk(n, p):
        if max(multiplicities) >= p:
            raise _disagreement(p, n)
        yield multiplicities


def _disagreement(p: int, n: int) -> InternalCheckError:
    return InternalCheckError(f"orbit split criteria disagree at p={p}, n={n}")


def _split_orbit_sizes(p: int, n: int, max_bits: float = math.inf) -> list[int]:
    """The size of every orbit, read in one walk of the partitions, when
    every orbit splits; OrbitSplitError when p divides n.  The walk checks
    the scan route of all_orbits_divisible against the gcd, and sums log2
    of each orbit's splits, log2(size! / ((size/p)!)^p), from math.lgamma
    with no factorial formed.  Once the sum passes max_bits it raises
    BudgetError, so at most about max_bits orbits are read, each adding at
    least log2(p!) >= 1.  An orbit of 2^64 classes or more adds far more
    than any max_bits a caller can hold."""
    _check_args(p, n)
    if math.gcd(n, p) != 1:
        raise OrbitSplitError(
            f"p={p} divides n={n}: some orbit cannot be split into p groups")
    sizes = []
    bits = 0.0
    for multiplicities in _scanned_multiplicities(p, n):
        # The walk's multiplicities are non-negative and sum to p, so
        # they need no check.
        size = _multinomial(multiplicities)
        if size >> 64:
            bits = math.inf
        else:
            bits += (math.lgamma(size + 1) - p * math.lgamma(size // p + 1)) / math.log(2)
        if bits > max_bits:
            raise BudgetError(f"the bound for p={p}, n={n} exceeds 2^{max_bits}")
        sizes.append(size)
    return sizes


def lower_bound_balanced(p: int, n: int) -> int:
    """Product over orbits of (orbit)! / ((orbit/p)!)^p: the number of ways
    to split every orbit into p labeled equal groups.  Each split yields a
    distinct balanced function, so this bounds their count from below.

    Requires gcd(n, p) = 1; when p divides n the all-equal class forms an
    orbit of size 1 that cannot be split, and the bound is not asserted.
    """
    return _split_count(p, _split_orbit_sizes(p, n))


def _split_count(p: int, sizes: list[int]) -> int:
    """Product over the orbit sizes of size! / ((size/p)!)^p, for sizes read
    by _split_orbit_sizes."""
    return _product([exact_div(math.factorial(size), math.factorial(exact_div(size, p)) ** p)
                     for size in sizes])


def _orbits(p: int, n: int) -> list[list[int]]:
    """Class indices grouped by orbit.  An orbit's key is its classes'
    counts sorted ascending: its partition, reversed and padded with zeros
    to p counts.  Orbits come in ascending order of that key, which fixes
    the output order of generate_balanced."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, counts in enumerate(_count_vectors(p, n)):
        groups.setdefault(tuple(sorted(counts)), []).append(idx)
    return [groups[key] for key in sorted(groups)]


def _equal_partitions(members: list[int], p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All splits of members into p ordered groups of equal size, in
    lexicographic order; the first split is the consecutive runs.  Group k
    is a set of positions, ascending, in the pool that groups before it
    left; the last group takes its whole pool.  Without recursion, the
    deepest group that has a next set of positions in lex order takes it,
    and the groups after it restart at the first positions of what is
    left."""
    share = len(members) // p
    pools = [tuple(members)]
    picks = [list(range(share))]
    while True:
        while len(pools) < p:
            pool, picked = pools[-1], picks[-1]
            pools.append(tuple(chain.from_iterable(
                pool[a + 1:b] for a, b in zip((-1, *picked), (*picked, len(pool))))))
            picks.append(list(range(share)))
        yield tuple(tuple(map(pool.__getitem__, picked)) for pool, picked in zip(pools, picks))
        pools.pop()
        picks.pop()
        while picks:
            picked, top = picks[-1], len(pools[-1]) - share
            j = share - 1
            while j >= 0 and picked[j] == top + j:
                j -= 1
            if j >= 0:
                picked[j:] = range(picked[j] + 1, picked[j] + 1 + share - j)
                break
            pools.pop()
            picks.pop()
        else:
            return


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
            yield _valid_function(p, n, tuple(values))
            for k in reversed(range(len(orbits))):
                split = next(splits[k], None)
                if split is not None:
                    assign(split)
                    break
                splits[k] = _equal_partitions(orbits[k], p)
                assign(next(splits[k]))
            else:
                return

    # A limit past sys.maxsize, which islice refuses, caps no listing.
    yield from islice(walk(), None if limit is None else min(limit, sys.maxsize))


def brute_count_balanced_symmetric(p: int, n: int) -> int:
    """Exact count of balanced symmetric functions: the assignments of an
    output value to every class that give each value p^(n-1) inputs.  A
    forward DP walks the classes in descending size and keeps one layer, a
    dict from the sorted tuple of bucket fills to the number of labeled
    partial assignments that reach it (every bucket has the same target, so
    relabeling buckets leaves the count unchanged).  A class of size s
    raises each distinct fill v <= p^(n-1) - s once, weighted by how many
    buckets hold v; the count is the entry for p full buckets.  The budget
    is checked before any class is listed."""
    _check_args(p, n)
    if n < 1:
        raise ValueError("balance needs n >= 1")
    classes = binom(p + n - 1, n)
    if classes * math.log2(p) > BRUTE_MAX_BITS:
        raise BudgetError(
            f"assignment space p^{classes} exceeds the 2^{BRUTE_MAX_BITS} cap")
    target = p ** (n - 1)
    layer = {(0,) * p: 1}
    for size in sorted(_class_sizes(p, n), reverse=True):
        room = target - size
        step: dict[tuple[int, ...], int] = {}
        for fills, ways in layer.items():
            i = 0
            while i < p and fills[i] <= room:
                v = fills[i]
                k = bisect_right(fills, v, i + 1)
                raised = list(fills)
                del raised[i]
                insort(raised, v + size, i)
                key = tuple(raised)
                step[key] = step.get(key, 0) + ways * (k - i)
                i = k
        layer = step
    return layer.get((target,) * p, 0)
