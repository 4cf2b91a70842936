"""Signed bisections of a binomial row.

A solution is a vector of signs delta[0..n] with sum_i delta_i C(n, i) = 0;
its +1 side and -1 side then each carry 2^(n-1) of the total mass.  For
even n the only structured solutions are the two alternating vectors; for
odd n every antisymmetric vector (delta[n-i] = -delta[i]) works, giving
2^((n+1)/2) of them.  Everything else is a nontrivial solution, and the
search reproduces exactly where those exist.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import islice
from typing import Optional

from .census import brute_count_balanced_symmetric
from .errors import BudgetError
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


def _alternating(n: int) -> tuple[int, ...]:
    return tuple((-1) ** i for i in range(n + 1))


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
    at witness_limit.
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
        # A limit past sys.maxsize, which islice refuses, caps no listing.
        cap = None if witness_limit is None else min(witness_limit, sys.maxsize)
        witnesses = tuple(islice(_nontrivial_in_lex_order(n), cap))

    return SolutionReport(n=n, total=total, trivial=trivial,
                          nontrivial=total - trivial, witnesses=witnesses)


def _signed_sums(weights: tuple[int, ...]) -> list[int]:
    """Every signed sum of weights, in the lex order of their sign tuples
    (-1 before +1): doubling on the weights taken last to first."""
    sums = [0]
    for w in reversed(weights):
        sums = [s - w for s in sums] + [s + w for s in sums]
    return sums


def _signs(index: int, k: int) -> tuple[int, ...]:
    """Sign tuple number index in the lex order on k signs: bit k-1-j of
    index is sign j, 1 for +1 and 0 for -1."""
    return tuple(1 if index >> (k - 1 - j) & 1 else -1 for j in range(k))


def _nontrivial_in_lex_order(n: int):
    """Yield nontrivial solutions lexicographically (-1 before +1).

    The low prefix of cut = ceil(n/2) signs and the high suffix are held as
    their indices in lex order, with every signed sum listed by doubling.
    Each high sum maps to its last index; nearly all sums are distinct, so
    only the sums held at several indices get an ascending list of them.
    The low indices run in order, and a sign tuple is built only for a
    prefix that has a nontrivial match.  Each prefix has at most one
    trivial suffix, which is skipped: for odd n its antisymmetric mirror,
    which always matches (so a lone match is trivial); for even n the rest
    of an alternating vector.
    """
    row = pascal_row(n)
    cut = -(-n // 2)
    width = n + 1 - cut
    high = _signed_sums(row[cut:])
    last = dict(zip(high, range(len(high))))
    repeated: dict[int, list[int]] = {}
    if len(last) < len(high):
        for hi, s in enumerate(high):
            if last[s] != hi:
                repeated.setdefault(s, []).append(hi)
        for s, his in repeated.items():
            his.append(last[s])
    alt = _alternating(n)
    ends = {tuple(s * d for d in alt[:cut]): tuple(s * d for d in alt[cut:]) for s in (-1, 1)}
    for lo, s in enumerate(_signed_sums(row[:cut])):
        matches = repeated.get(-s)
        if matches is None:
            if n % 2 or -s not in last:
                continue
            matches = (last[-s],)
        prefix = _signs(lo, cut)
        trivial = tuple(-d for d in reversed(prefix)) if n % 2 else ends.get(prefix)
        for hi in matches:
            suffix = _signs(hi, width)
            if suffix != trivial:
                yield SignVector(n, prefix + suffix)
