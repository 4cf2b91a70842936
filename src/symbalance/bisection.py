"""Signed bisections of a binomial row.

A solution is a vector of signs delta[0..n] with sum_i delta_i C(n, i) = 0;
its +1 side and -1 side then each carry 2^(n-1) of the total mass.  For
even n the only structured solutions are the two alternating vectors; for
odd n every antisymmetric vector (delta[n-i] = -delta[i]) works, giving
2^((n+1)/2) of them.  Everything else is a nontrivial solution, and the
search reproduces exactly where those exist.

The witnesses are listed on the row folded by its symmetry C(n, i) =
C(n, n-i).  Take the k = ceil(n/2) pairs (i, n-i) with i < k, and for even
n the middle m = n/2 besides.  With c_i = (delta_i + delta_{n-i}) / 2 in
{-1, 0, +1} the signed sum is sum_{i<k} 2 c_i C(n, i) [+ delta_m C(n, m)],
so delta solves row n exactly when c solves sum_{i<k} c_i C(n, i) = 0 for
odd n, or = -delta_m C(n, m) / 2 for even n (C(n, m) is even for n >= 2).
This is a bijection between the solutions delta and the pairs
(c, delta_m) with one free sign per zero of c: where c_i != 0, delta_i =
delta_{n-i} = c_i; where c_i = 0, delta_i is free and delta_{n-i} =
-delta_i.  So each folded solution stands for a subcube of 2^(zeros of c)
sign vectors, and the subcubes are disjoint.  The trivial solutions are
c = 0 for odd n (the antisymmetric vectors) and, for even n, the two
alternating c with their matching delta_m.  The folded solutions are
found by a ternary meet in the middle (Horowitz and Sahni, J. ACM 21(2),
1974): about 3^(k/2) sums per half row where the unfolded row takes
2^(n/2).  In a subcube every free sign delta_i sits below its mirror
n-i, so the first differing entry of two of its vectors is a free sign,
and the vectors run in the lex order of their free signs; a lazy heap
merge of the subcubes then lists every witness in lex order.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from heapq import merge
from itertools import islice, product
from typing import Iterator, Optional

from .census import brute_count_balanced_symmetric
from .errors import BudgetError, InternalCheckError
from .exactnum import pascal_row

SEARCH_MAX_N = 32


class SignVector(namedtuple("SignVector", "n delta")):
    """Candidate signing delta[0..n] of row n, entries in {-1, +1}."""

    __slots__ = ()

    def __new__(cls, n: int, delta: tuple[int, ...]):
        if len(delta) != n + 1:
            raise ValueError("delta must have n + 1 entries")
        if any(d not in (-1, 1) for d in delta):
            raise ValueError("delta entries must be -1 or +1")
        return super().__new__(cls, n, delta)


class SolutionReport(namedtuple("SolutionReport", "n total trivial nontrivial witnesses",
                                defaults=(None,))):
    """Exact solution counts for one n, with optional witnesses (a tuple
    of SignVector, or None when none were asked for)."""

    __slots__ = ()


def count_trivial(n: int) -> int:
    """2 for even n, 2^((n+1)/2) for odd n (n >= 1)."""
    if n < 1:
        raise ValueError("no trivial solutions exist for n = 0")
    return 2 if n % 2 == 0 else 1 << ((n + 1) // 2)


def find_all_solutions(n: int, enumerate_witnesses: bool = False,
                       witness_limit: Optional[int] = None) -> SolutionReport:
    """Count every solution for row n (n <= 32).

    A solution signs the weight classes of n bits so that the +1 side holds
    2^(n-1) inputs: a balanced symmetric Boolean function, so the count is
    the GF(2) census.  With enumerate_witnesses, nontrivial solutions are
    materialized in lexicographic order (-1 before +1), optionally capped
    at witness_limit, and the fold's count of them must equal the census
    count, or InternalCheckError is raised.
    """
    if n > SEARCH_MAX_N:
        raise BudgetError(f"solution search capped at n <= {SEARCH_MAX_N}")
    if n < 0:
        raise ValueError("n must be non-negative")
    if witness_limit is not None and witness_limit < 0:
        raise ValueError("witness_limit must be non-negative")
    total = trivial = 0
    if n >= 1:
        total = brute_count_balanced_symmetric(2, n)
        trivial = count_trivial(n)

    witnesses = None
    if enumerate_witnesses:
        cubes = _folded_solutions(n)
        # The fold and the census DP count the nontrivial solutions by
        # independent routes.
        folded = sum(1 << c.count(0) for c, _ in cubes)
        if folded != total - trivial:
            raise InternalCheckError(
                f"bisection routes disagree at n={n}: the census leaves "
                f"{total - trivial} nontrivial solutions, the fold {folded}")
        # A limit past sys.maxsize, which islice refuses, caps no listing.
        cap = None if witness_limit is None else min(witness_limit, sys.maxsize)
        witnesses = tuple(islice(_nontrivial_in_lex_order(n, cubes), cap))

    return SolutionReport(n=n, total=total, trivial=trivial,
                          nontrivial=total - trivial, witnesses=witnesses)


def _ternary_sums(weights: tuple[int, ...]) -> list[int]:
    """Every sum of c_j weights[j] with c_j in {-1, 0, +1}, at the index
    whose base-3 digits, most significant first, are the c_j + 1: tripling
    on the weights taken last to first."""
    sums = [0]
    for w in reversed(weights):
        sums = [s - w for s in sums] + sums + [s + w for s in sums]
    return sums


def _trits(index: int, k: int) -> tuple[int, ...]:
    """The k coefficients c_j in {-1, 0, +1} at index in _ternary_sums."""
    c = [0] * k
    for j in reversed(range(k)):
        index, digit = divmod(index, 3)
        c[j] = digit - 1
    return tuple(c)


def _folded_solutions(n: int) -> list[tuple[tuple[int, ...], Optional[int]]]:
    """The nontrivial folded solutions (c, delta_m) of row n, delta_m None
    for odd n, which has no middle.

    A ternary meet in the middle: every sum of the low half of the k pair
    weights, and of the high half, is listed by tripling; the high sums
    that complete a low sum to the target are found by one set
    intersection, and c is decoded from the two base-3 indices only on
    such a match.
    """
    if n == 0:
        # Row 0's signed sum is +-1: no solution, and no even middle.
        return []
    row = pascal_row(n)
    k = (n + 1) // 2
    cut = k // 2
    low = _ternary_sums(row[:cut])
    high = _ternary_sums(row[cut:k])
    if n % 2:
        targets = ((None, 0),)
        trivial = {(0,) * k}
    else:
        half = row[k] // 2
        targets = ((-1, half), (1, -half))
        alt = tuple((-1) ** i for i in range(k))
        trivial = {alt, tuple(-d for d in alt)}
    found = []
    sums = set(high)
    for middle, target in targets:
        for s in sums.intersection(map(target.__sub__, low)):
            his = list(_positions(high, s))
            for lo in _positions(low, target - s):
                for hi in his:
                    c = _trits(lo, cut) + _trits(hi, k - cut)
                    if c not in trivial:
                        found.append((c, middle))
    return found


def _positions(values: list[int], x: int) -> Iterator[int]:
    """Every index of x in values, ascending, by C-level scans."""
    at = -1
    for _ in range(values.count(x)):
        at = values.index(x, at + 1)
        yield at


def _subcube(n: int, c: tuple[int, ...], middle: Optional[int]) -> Iterator[tuple[int, ...]]:
    """The sign vectors of one folded solution, in lex order: the free
    signs sit at the zeros of c, each below its mirror, so the vectors
    run in the lex order of their free signs."""
    delta = [0] * (n + 1)
    free = []
    for i, ci in enumerate(c):
        if ci:
            delta[i] = delta[n - i] = ci
        else:
            free.append(i)
    if middle is not None:
        delta[n // 2] = middle
    for signs in product((-1, 1), repeat=len(free)):
        for i, s in zip(free, signs):
            delta[i] = s
            delta[n - i] = -s
        yield tuple(delta)


def _nontrivial_in_lex_order(n: int, cubes: list[tuple[tuple[int, ...], Optional[int]]]
                             ) -> Iterator[SignVector]:
    """Yield the nontrivial solutions of row n lexicographically (-1
    before +1), lazily, from its folded solutions cubes.

    Each folded solution (c, delta_m) stands for a disjoint subcube of sign
    vectors (see the module docstring).  Within one subcube the prefix
    delta_0..delta_{k-1} fixes the vector, and the vectors come in lex
    order; a heap merge of the subcubes on the full tuple then gives the
    global lex order, one vector at a time.
    """
    for delta in merge(*(_subcube(n, c, middle) for c, middle in cubes)):
        yield SignVector(n, delta)
