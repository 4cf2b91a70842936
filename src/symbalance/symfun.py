"""Symmetric functions over GF(p) and elementary symmetric Boolean forms.

A symmetric function is constant on each permutation orbit of inputs, so it
is stored as one output value per multiset class (the count vector of input
symbols).  For p = 2 a class is just an input weight and the compact
WeightFunction form applies; the degree-d elementary symmetric form takes
the value C(j, d) mod 2 on inputs of weight j, since exactly C(j, d) of its
monomials are all-ones there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import perm
from typing import Iterator

from .errors import InternalCheckError
from .exactnum import binom, is_prime, multinomial, pascal_row


@dataclass(frozen=True)
class MultisetClass:
    """One permutation orbit of inputs: counts[l] coordinates equal l."""

    p: int
    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError("counts must have one entry per symbol")
        if any(c < 0 for c in self.counts) or sum(self.counts) != self.n:
            raise ValueError("counts must be non-negative and sum to n")

    def size(self) -> int:
        """Number of input vectors in the class."""
        return multinomial(self.n, self.counts)


@dataclass(frozen=True)
class SymmetricFunction:
    """Output value per multiset class, in enumerate_classes order."""

    p: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != binom(self.p + self.n - 1, self.n):
            raise ValueError("one value per class is required")
        if any(not 0 <= v < self.p for v in self.values):
            raise ValueError(f"values must lie in [0, {self.p})")


@dataclass(frozen=True)
class WeightFunction:
    """Boolean symmetric function as output bits v[0..n] per input weight."""

    n: int
    v: tuple[int, ...]

    def __post_init__(self):
        if len(self.v) != self.n + 1:
            raise ValueError("v must have n + 1 entries")
        if not set(self.v) <= {0, 1}:
            raise ValueError("v entries must be bits")

    def to_symmetric(self) -> SymmetricFunction:
        """General form: the class with counts (n - j, j) has weight j."""
        return SymmetricFunction(2, self.n,
                                 tuple(self.v[self.n - c] for c in range(self.n + 1)))


@dataclass(frozen=True)
class AnfVector:
    """Coefficients lam[0..n]: the function is the XOR of the elementary
    symmetric forms of each degree d with lam[d] = 1."""

    n: int
    lam: tuple[int, ...]

    def __post_init__(self):
        if len(self.lam) != self.n + 1:
            raise ValueError("lam must have n + 1 entries")
        if not set(self.lam) <= {0, 1}:
            raise ValueError("lam entries must be bits")


def _count_vectors(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    def rec(parts: int, total: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rec(parts - 1, total - first):
                yield (first,) + rest

    return tuple(rec(p, n))


def enumerate_classes(p: int, n: int) -> list[MultisetClass]:
    """All multiset classes, lexicographically ascending on count vectors."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 0:
        raise ValueError("n must be non-negative")
    return [MultisetClass(p, n, c) for c in _count_vectors(p, n)]


def balance_histogram(f: SymmetricFunction) -> tuple[int, ...]:
    """Exact input count per output value."""
    hist = [0] * f.p
    for cls, val in zip(enumerate_classes(f.p, f.n), f.values):
        hist[val] += cls.size()
    return tuple(hist)


def is_balanced(f: SymmetricFunction) -> bool:
    """True when every output value is hit by exactly p^(n-1) inputs.

    The full histogram is always computed (no early exit) so callers can
    reuse it for reporting.
    """
    if f.n < 1:
        raise ValueError("balance is undefined for n = 0")
    share = f.p ** (f.n - 1)
    return all(count == share for count in balance_histogram(f))


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


# Swaps the bytes 0 and 1 of a parity mask.
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def balance_in_row(d: int, row: tuple[int, ...]) -> tuple[int, bool]:
    """Weight and balance of X(d, n) for row = pascal_row(n), the balance
    decided by two routes that must agree: weight = 2^(n-1), and the signed
    sum over weights sum_j C(n, j) (-1)^(C(j, d)) = 0, which reads every
    entry of the row."""
    n = len(row) - 1
    check_degree(d, n)
    odd = _parity_mask(d, n)
    w = weight_in_row(d, row)
    signed = sum(compress(row, odd.translate(_FLIP))) - sum(compress(row, odd))
    by_weight = w == 1 << (n - 1)
    by_sign = signed == 0
    if by_weight != by_sign or signed != (1 << n) - 2 * w:
        raise InternalCheckError(f"balance routes disagree at d={d}, n={n}")
    return w, by_weight


def is_balanced_elem(d: int, n: int) -> bool:
    """Balance of the elementary form (see balance_in_row)."""
    check_degree(d, n)
    return balance_in_row(d, pascal_row(n))[1]


def _domination_transform(bits: tuple[int, ...]) -> tuple[int, ...]:
    """out(i) = XOR of bits(j) over all j dominated by i; over GF(2) this
    transform is its own inverse.  Computed in place by the subset-XOR
    butterfly: one pass per bit b folds entry i ^ b into each i holding b."""
    out = list(bits)
    b = 1
    while b < len(out):
        for i in range(b, len(out)):
            if i & b:
                out[i] ^= out[i ^ b]
        b <<= 1
    return tuple(out)


def values_from_anf(anf: AnfVector) -> WeightFunction:
    """v(i) = XOR of lam(j) over all j dominated by i."""
    return WeightFunction(anf.n, _domination_transform(anf.lam))


def anf_from_values(wf: WeightFunction) -> AnfVector:
    """lam(i) = XOR of v(j) over all j dominated by i (the inverse of
    values_from_anf)."""
    return AnfVector(wf.n, _domination_transform(wf.v))
