"""Walsh spectra of symmetric Boolean functions and avalanche tests.

Grouping the Walsh sum by input weight turns the 2^n-term transform into an
(n+1)-term sum against Krawtchouk values, so a symmetric function's spectrum
is stored per weight class y = wt(w).  The Krawtchouk values P_k(y, n) are
the coefficients of (1 - z)^y (1 + z)^(n - y); stepping y to y + 1
multiplies that polynomial by (1 - z)/(1 + z), so each column of values
follows from the last by n + 1 integer additions, starting from row n of
Pascal's triangle at y = 0.  A whole spectrum costs O(n^2) additions.
Everything in this module is exact integer arithmetic on the n + 1 weight
classes; the one-value Krawtchouk sum and the all-mask brute-force
evaluators it is tested against live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .exactnum import binom, pascal_row
from .symfun import WeightFunction, elem_values, is_balanced_elem


def walsh_symmetric(wf: WeightFunction, y: int) -> int:
    """Walsh value at any mask of weight y: sum_k (-1)^(v(k)) P_k(y, n)."""
    if not 0 <= y <= wf.n:
        raise ValueError("need 0 <= y <= n")
    return walsh_spectrum(wf).by_weight[y]


@dataclass(frozen=True)
class WalshSpectrum:
    """Walsh values of a symmetric function, indexed by mask weight."""

    n: int
    by_weight: tuple[int, ...]


def walsh_spectrum(wf: WeightFunction) -> WalshSpectrum:
    """W(y) = sum_k (-1)^(v(k)) P_k(y, n) for every y.  With A_k = P_k(y, n)
    and B_k = P_k(y + 1, n), B(z)(1 + z) = A(z)(1 - z) gives
    B_k = A_k - A_(k-1) - B_(k-1), so the column is updated in place."""
    signs = [1 - 2 * b for b in wf.v]
    column = list(pascal_row(wf.n))  # P_k(0, n) = C(n, k)
    by_weight = []
    for y in range(wf.n + 1):
        if y:
            a_prev = b = 0
            for k, a in enumerate(column):
                b = a - a_prev - b
                a_prev = a
                column[k] = b
        by_weight.append(sum(map(mul, signs, column)))
    return WalshSpectrum(wf.n, tuple(by_weight))


def is_sac_elem(d: int, n: int) -> bool:
    """Avalanche criterion for the degree-d elementary form, decided by the
    reduction: the form on n bits satisfies it iff the degree-(d-1) form on
    n-1 bits is balanced.  Degree 1 is rejected: the reduction would land on
    the constant-1 form of degree 0."""
    if d < 2:
        raise ValueError("need d >= 2")
    if d > n:
        raise ValueError("need d <= n")
    return is_balanced_elem(d - 1, n - 1)


def check_antisymmetry(d: int, n: int) -> bool:
    """For odd degree d: W(y) = -W(n - y) for all 0 < y < n (the all-zero
    and all-one masks are exempt)."""
    if d % 2 == 0:
        raise ValueError("antisymmetry applies to odd degrees only")
    spec = walsh_spectrum(elem_values(d, n)).by_weight
    return all(spec[y] == -spec[n - y] for y in range(1, n))


def half_square_sums(wf: WeightFunction) -> tuple[int, int]:
    """Sums of W(w)^2 over the half-spaces w_n = 0 and w_n = 1.  Of the
    masks of weight y, C(n-1, y) have w_n = 0 and C(n-1, y-1) have w_n = 1."""
    squares = [v * v for v in walsh_spectrum(wf).by_weight]
    lo = sum(binom(wf.n - 1, y) * sq for y, sq in enumerate(squares))
    hi = sum(binom(wf.n - 1, y - 1) * sq for y, sq in enumerate(squares))
    return lo, hi


def check_half_sums(wf: WeightFunction) -> bool:
    """True when both half-space sums of W(w)^2 equal 2^(2n-1), as they
    must for any function satisfying the avalanche criterion."""
    lo, hi = half_square_sums(wf)
    return lo == hi == 1 << (2 * wf.n - 1)
