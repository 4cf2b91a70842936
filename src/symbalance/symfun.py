"""Symmetric functions over GF(p) and elementary symmetric Boolean forms.

A symmetric function is constant on each permutation orbit of inputs, so it
is stored as one output value per multiset class (the count vector of input
symbols).  For p = 2 a class is just an input weight and the compact
WeightFunction form applies; the degree-d elementary symmetric form takes
the value C(j, d) mod 2 on inputs of weight j, since exactly C(j, d) of its
monomials are all-ones there.

Importing this module loads errors and nothing else of the package: the
weight and balance walks need only math, and the functions that call
exactnum (SymmetricFunction and _class_sizes) import it when they run.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, compress
from math import perm
from operator import sub
from typing import Iterator

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


def weight_in_row(d: int, row: tuple[int, ...]) -> int:
    """Sum of row[i] over the i that dominate d: wt(X(d, n)) for row = pascal_row(n)."""
    return sum(map(row.__getitem__, _dominating(d, len(row) - 1)))


def weight_elem(d: int, n: int) -> int:
    """Hamming weight of the degree-d elementary symmetric form on n bits:
    the sum of C(n, i) over i whose binary digits dominate those of d.

    No row is built.  Each index above n/2 folds onto n - i (C(n, i) =
    C(n, n - i)), the ascending run below the middle and the mirrored run
    are merged by one sort (duplicates kept), and C(n, k) is stepped from
    one index k to the next j: c (n - k) / j for a gap of 1,
    c perm(n - k, g) / perm(j, g) for a gap of g.  Besides the indices
    only two big ints are held, O(n) bits."""
    check_degree(d, n)
    half = n // 2
    total = 0
    c = 1
    k = 0
    for j in sorted([n - i if i > half else i for i in _dominating(d, n)]):
        g = j - k
        if g == 1:
            c = c * (n - k) // j
        elif g:
            c = c * perm(n - k, g) // perm(j, g)
        k = j
        total += c
    return total


def _stepped_balance(d: int, n: int) -> tuple[int, bool]:
    """Weight and balance of X(d, n) for 1 <= d <= n (unchecked), decided
    by the two routes of _balance without a row.

    Each route folds its indices above n/2 onto n - i, as weight_elem does:
    the weight route takes the i that dominate d from _dominating, the
    signed route the j with C(j, d) odd from _parity_mask.  Both are tagged
    (2j for the weight route, 2j + 1 for the signed one) and sorted
    together, and C(n, j) is stepped once across them with weight_elem's
    jumps; each route adds the stepped value once per index it holds.  So
    the routes share the binomials and differ in their index sets, and
    besides the indices the call holds a few big ints, O(n) bits.

    The routes must agree: weight = 2^(n-1) exactly when the signed sum
    2^n - 2 sum_(C(j, d) odd) C(n, j) is 0, and the signed sum is
    2^n - 2 weight.  Since the binomials are shared, a slip in a jump
    would reach both routes alike; the last stepped value C(n, k) is
    guarded instead by its 2-adic valuation, which by Kummer's theorem is
    s2(k) + s2(n - k) - s2(n) (s2 the binary digit sum).  A jump that
    comes out 2^e times too large (e >= 1) leaves every later step exact,
    so the last value carries the factor and fails the guard; any other
    slip fails it unless the wrong value happens to keep the valuation.
    Either failure raises InternalCheckError."""
    half = n // 2
    odd = _parity_mask(d, n)
    keys = [2 * (n - i) if i > half else 2 * i for i in _dominating(d, n)]
    keys += compress(range(1, 2 * half + 2, 2), odd)
    keys += compress(range(1, 2 * (n - half), 2), odd[n:half:-1])
    keys.sort()
    sums = [0, 0]
    c = 1
    k = 0
    for x in keys:
        j = x >> 1
        g = j - k
        if g == 1:
            c = c * (n - k) // j
        elif g:
            c = c * perm(n - k, g) // perm(j, g)
        k = j
        sums[x & 1] += c
    if (c & -c).bit_length() - 1 != k.bit_count() + (n - k).bit_count() - n.bit_count():
        raise InternalCheckError(f"stepped C({n}, {k}) fails its 2-adic check at d={d}, n={n}")
    w, odd_sum = sums
    signed = (1 << n) - 2 * odd_sum
    by_weight = w == 1 << (n - 1)
    if by_weight != (signed == 0) or signed != (1 << n) - 2 * w:
        raise InternalCheckError(f"balance routes disagree at d={d}, n={n}")
    return w, by_weight


def _balance(d: int, row: tuple[int, ...], odd: bytes) -> tuple[int, bool]:
    """Weight and balance of X(d, n) for row = pascal_row(n) and
    1 <= d <= n, with odd[j] = C(j, d) mod 2 for j <= n (odd may run past
    n; a scan passes one mask per degree): _stepped_balance for a caller
    that holds the row.  The signed route reads every entry of the row.

    The lower half row[:h + 1], h = n // 2, is compared with the mirrored
    upper half, which pascal_row and pascal_rows build from the same int
    objects, so the comparison costs almost nothing there.  With that
    symmetry the signed sum is 2 sum(half) (the middle entry once for even
    n) minus twice the entries at j with odd[j] = 1, summed from the half
    row once as j = k and once as j = n - k > h."""
    n = len(row) - 1
    h = n // 2
    half = row[:h + 1]
    if half != row[:n - h - 1:-1]:
        raise InternalCheckError(f"row is not symmetric at d={d}, n={n}")
    w = weight_in_row(d, row)
    total = 2 * sum(half) - (half[h] if n % 2 == 0 else 0)
    signed = total - 2 * (sum(compress(half, odd)) + sum(compress(half, odd[n:h:-1])))
    by_weight = w == 1 << (n - 1)
    by_sign = signed == 0
    if by_weight != by_sign or signed != (1 << n) - 2 * w:
        raise InternalCheckError(f"balance routes disagree at d={d}, n={n}")
    return w, by_weight


def is_balanced_elem(d: int, n: int) -> bool:
    """Balance of the elementary form (see _stepped_balance)."""
    check_degree(d, n)
    return _stepped_balance(d, n)[1]
