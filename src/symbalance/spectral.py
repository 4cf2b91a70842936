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

from collections import namedtuple
from operator import mul

from .symfun import WeightFunction, is_balanced_elem


class WalshSpectrum(namedtuple("WalshSpectrum", "n by_weight")):
    """Walsh values of a symmetric function, indexed by mask weight."""

    __slots__ = ()


def walsh_spectrum(wf: WeightFunction) -> WalshSpectrum:
    """W(y) = sum_k (-1)^(v(k)) P_k(y, n) for every y.  With A_k = P_k(y, n)
    and B_k = P_k(y + 1, n), B(z)(1 + z) = A(z)(1 - z) gives
    B_k = A_k - A_(k-1) - B_(k-1), so the column is updated in place."""
    from .exactnum import pascal_row

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
