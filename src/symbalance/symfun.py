"""Symmetric functions over GF(p) and elementary symmetric Boolean forms.

A symmetric function is constant on each permutation orbit of inputs, so it
is stored as one output value per multiset class (the count vector of input
symbols).  For p = 2 a class is just an input weight and the compact
WeightFunction form applies; the degree-d elementary symmetric form takes
the value C(j, d) mod 2 on inputs of weight j, since exactly C(j, d) of its
monomials are all-ones there.

The weight wt(X(d, n)) sums C(n, i) over one index walk, the i that
dominate d (_dominating).  weight_elem steps C(n, i) along it; the balance
steps along the walk checked against the Kummer mask (_checked_walk), and
the scans sum a row over a prefix of one checked walk per degree.

Importing this module loads errors and nothing else of the package: the
weight and balance walks need only math, and the functions that call
exactnum (SymmetricFunction and _class_sizes) import it when they run.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, compress
from math import perm
from operator import sub
from typing import Iterable, Iterator

from .errors import InternalCheckError


class SymmetricFunction(namedtuple("SymmetricFunction", "p n values")):
    """Output value per multiset class, in _count_vectors order."""

    __slots__ = ()

    def __new__(cls, p: int, n: int, values: tuple[int, ...]):
        from .exactnum import binom

        if len(values) != binom(p + n - 1, n):
            raise ValueError("one value per class is required")
        if any(not 0 <= v < p for v in values):
            raise ValueError(f"values must lie in [0, {p})")
        return super().__new__(cls, p, n, values)


class WeightFunction(namedtuple("WeightFunction", "n v")):
    """Boolean symmetric function as output bits v[0..n] per input weight."""

    __slots__ = ()

    def __new__(cls, n: int, v: tuple[int, ...]):
        if len(v) != n + 1:
            raise ValueError("v must have n + 1 entries")
        if not set(v) <= {0, 1}:
            raise ValueError("v entries must be bits")
        return super().__new__(cls, n, v)


def _count_vectors(p: int, n: int) -> Iterator[tuple[int, ...]]:
    """The count vectors of p symbols summing to n, lexicographically
    ascending, by stars and bars: a non-decreasing choice of p - 1 cut
    points in 0..n splits the n stars into p runs, and the cuts come in
    lex order exactly when the run lengths do."""
    for cuts in combinations_with_replacement(range(n + 1), p - 1):
        yield tuple(map(sub, cuts + (n,), (0,) + cuts))


def _class_sizes(p: int, n: int) -> Iterator[int]:
    """The size of each multiset class, in _count_vectors order, for
    p >= 1 and n >= 0 (unchecked), without a class record each."""
    from .exactnum import _multinomial

    return map(_multinomial, _count_vectors(p, n))


def _valid_function(p: int, n: int, values: tuple[int, ...]) -> SymmetricFunction:
    """SymmetricFunction(p, n, values) for values that are valid by
    construction, one in [0, p) per class, made without the checks."""
    return SymmetricFunction._make((p, n, values))


def check_degree(d: int, n: int) -> None:
    """Demand 1 <= d <= n, the degrees of X(d, n)."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")


def _parity_mask(d: int, n: int) -> bytes:
    """C(j, d) mod 2 for 0 <= j <= n, one byte each.  By Kummer's theorem
    it is 1 exactly when j >= d and adding d and m = j - d in base 2
    carries nowhere, that is m & d == 0.  That test reads only m mod 2^r
    (r = d.bit_length()), so one period is built bit by bit, doubling it
    with a copy of itself, or with zeros where d has a one, and then
    repeated."""
    period = b"\1"
    for t in range(d.bit_length()):
        period += bytes(len(period)) if d >> t & 1 else period
    tail = n - d + 1
    return bytes(d) + (period * -(-tail // len(period)))[:tail]


def elem_values(d: int, n: int) -> WeightFunction:
    """Weight-value vector of the degree-d elementary symmetric form:
    v(j) = C(j, d) mod 2 (see _parity_mask)."""
    check_degree(d, n)
    return WeightFunction(n, tuple(_parity_mask(d, n)))


def _dominating(d: int, n: int) -> Iterator[int]:
    """The i <= n whose binary digits dominate those of d, ascending: the
    walk visits only those i, stepping from one to the next with
    i = (i + 1) | d."""
    i = d
    while i <= n:
        yield i
        i = (i + 1) | d


def _stepped_sum(d: int, n: int, indices: Iterable[int]) -> int:
    """Sum of C(n, i) over the ascending indices 0 <= i <= n, for
    X(d, n) (d names the form in an error only), without a row.

    Each index above n/2 folds onto n - i (C(n, i) = C(n, n - i)), the
    ascending run below the middle and the mirrored run are merged by one
    sort (duplicates kept), and C(n, k) is stepped from one index k to the
    next j: c (n - k) / j for a gap of 1, c perm(n - k, g) / perm(j, g) for
    a gap of g.  Besides the indices only two big ints are held, O(n) bits.

    The last stepped value C(n, k) is guarded by its 2-adic valuation,
    which by Kummer's theorem is s2(k) + s2(n - k) - s2(n) (s2 the binary
    digit sum).  A jump that comes out 2^e times too large (e >= 1) leaves
    every later step exact, so the last value carries the factor and fails
    the guard; any other slip fails it unless the wrong value happens to
    keep the valuation.  A failure raises InternalCheckError."""
    half = n // 2
    total = 0
    c = 1
    k = 0
    for j in sorted([n - i if i > half else i for i in indices]):
        g = j - k
        if g == 1:
            c = c * (n - k) // j
        elif g:
            c = c * perm(n - k, g) // perm(j, g)
        k = j
        total += c
    if (c & -c).bit_length() - 1 != k.bit_count() + (n - k).bit_count() - n.bit_count():
        raise InternalCheckError(f"stepped C({n}, {k}) fails its 2-adic check at d={d}, n={n}")
    return total


def weight_elem(d: int, n: int) -> int:
    """Hamming weight of the degree-d elementary symmetric form on n bits:
    the sum of C(n, i) over i whose binary digits dominate those of d,
    stepped by _stepped_sum over the Lucas walk (_dominating), so no row
    is built and a failed 2-adic guard raises InternalCheckError."""
    check_degree(d, n)
    return _stepped_sum(d, n, _dominating(d, n))


def _checked_walk(d: int, n: int) -> list[int]:
    """The i <= n that dominate d, from the Lucas walk (_dominating),
    checked against the j <= n with C(j, d) odd by Kummer's theorem
    (_parity_mask).  By Lucas's theorem C(j, d) is odd exactly when j
    dominates d, so the two lists are equal; if they differ, raises
    InternalCheckError.  Equal sets give equal sums, and the set check also
    sees faults that keep a sum, such as flipped bytes at j and n - j.

    The walk reads n only as its stop bound, so its prefix <= m is the
    checked walk for every m < n: the scans check one walk per degree at
    their largest n and sum each row over its prefix."""
    walk = list(_dominating(d, n))
    if walk != list(compress(range(n + 1), _parity_mask(d, n))):
        raise InternalCheckError(f"dominance routes disagree at d={d}, n={n}")
    return walk


def _stepped_balance(d: int, n: int) -> tuple[int, bool]:
    """Weight and balance of X(d, n) for 1 <= d <= n (unchecked), without
    a row: the weight is _stepped_sum over _checked_walk, so the Lucas
    walk must match the Kummer mask and the last stepped binomial must
    pass its 2-adic guard, or InternalCheckError is raised."""
    w = _stepped_sum(d, n, _checked_walk(d, n))
    return w, w == 1 << (n - 1)


def _check_row(row: tuple[int, ...]) -> None:
    """Checks row = pascal_row(n) once, for the scans, which sum each row
    over the checked walks: the lower half row[:h + 1], h = n // 2, must
    equal the mirrored upper half (pascal_row and pascal_rows build both
    from the same int objects, so this costs almost nothing there), and
    2 sum(half), less the middle entry for even n, must be 2^n.  These see
    entries that no weight reads.  A failed check raises
    InternalCheckError."""
    n = len(row) - 1
    h = n // 2
    half = row[:h + 1]
    if half != row[:n - h - 1:-1]:
        raise InternalCheckError(f"row is not symmetric at n={n}")
    if 2 * sum(half) - (half[h] if n % 2 == 0 else 0) != 1 << n:
        raise InternalCheckError(f"row does not sum to 2^n at n={n}")


def is_balanced_elem(d: int, n: int) -> bool:
    """Balance of the elementary form (see _stepped_balance)."""
    check_degree(d, n)
    return _stepped_balance(d, n)[1]
