"""Walsh spectra of symmetric Boolean functions and avalanche tests.

Grouping the Walsh sum by input weight turns the 2^n-term transform into an
(n+1)-term sum against Krawtchouk values, so a symmetric function's spectrum
is stored per weight class y = wt(w).  Everything in this module is exact
integer arithmetic on the n + 1 weight classes; the all-mask brute-force
evaluators it is tested against live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import binom
from .symfun import WeightFunction, elem_values, is_balanced_elem


def krawtchouk(k: int, y: int, n: int) -> int:
    """P_k(y, n) = sum_j (-1)^j C(y, j) C(n-y, k-j), exactly."""
    if not (0 <= k <= n and 0 <= y <= n):
        raise ValueError("need 0 <= k, y <= n")
    return sum((-1) ** j * binom(y, j) * binom(n - y, k - j) for j in range(k + 1))


def walsh_symmetric(wf: WeightFunction, y: int) -> int:
    """Walsh value at any mask of weight y: sum_k (-1)^(v(k)) P_k(y, n)."""
    if not 0 <= y <= wf.n:
        raise ValueError("need 0 <= y <= n")
    return sum((1 - 2 * wf.v[k]) * krawtchouk(k, y, wf.n) for k in range(wf.n + 1))


@dataclass(frozen=True)
class WalshSpectrum:
    """Walsh values of a symmetric function, indexed by mask weight."""

    n: int
    by_weight: tuple[int, ...]


def walsh_spectrum(wf: WeightFunction) -> WalshSpectrum:
    return WalshSpectrum(wf.n, tuple(walsh_symmetric(wf, y) for y in range(wf.n + 1)))


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
