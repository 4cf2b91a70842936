"""Numeric scans for two conjectures on elementary symmetric polynomials.

Conjecture 1 (balancedness): over GF(2), the balanced X(d, n) with d >= 2
are exactly the pairs d = 2^t, n = 2^(t+1) l - 1.  Conjecture 2 (weight):
once d has at least six binary ones and n >= 2(d - 1), the weight of
X(d, n) stays strictly below 2^(n-2).  Scans recompute every cell in a
range exactly and report the cells so callers can look for mismatches.

The closed-form weights for degrees 2^t + 1 and 1 + 2^s + 2^t evaluate
short cosine sums instead of binomial rows; they are exact in exact
arithmetic and are evaluated here in fixed precision, to be checked
against the integer route.  They import mpmath and fractions on their
first call; the scans never load either.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import BudgetError
from .exactnum import (
    PRECISION_BITS,
    compensated_sum,
    cospi_frac,
    pascal_rows,
    sinpi_frac,
)
from .symfun import _balance, _parity_mask, weight_in_row

if TYPE_CHECKING:
    import mpmath

C1_MAX_N = 64
C2_DEFAULT_N = 160
C2_MAX_N = 512


class ScanCell(namedtuple("ScanCell", "d n weight balanced predicted")):
    """One (d, n) cell of a balancedness scan."""

    __slots__ = ()


class BoundCell(namedtuple("BoundCell", "d n weight bound below")):
    """One (d, n) cell of a quarter-weight bound scan."""

    __slots__ = ()


def predicted_balanced(d: int, n: int) -> bool:
    """Conjectured balancedness of X(d, n): degree one, or a power of two
    2^t with n + 1 divisible by 2^(t+1)."""
    if d < 1 or n < d:
        raise ValueError("need 1 <= d <= n")
    if d == 1:
        return True
    return d & (d - 1) == 0 and (n + 1) % (2 * d) == 0


def scan_conjecture1(n_max: int) -> list[ScanCell]:
    """Every cell 2 <= d <= n <= n_max with its exact weight, its exact
    balancedness, and the conjectured verdict, ordered by (n, d)."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > C1_MAX_N:
        raise BudgetError(f"n_max={n_max} exceeds the scan cap {C1_MAX_N}")
    # One parity mask per degree, read by every row up to n_max.
    masks = {d: _parity_mask(d, n_max) for d in range(2, n_max + 1)}
    return [ScanCell(d, n, *_balance(d, row, masks[d]), predicted_balanced(d, n))
            for n, row in pascal_rows(2, n_max) for d in range(2, n + 1)]


def scan_conjecture2(n_max: int = C2_DEFAULT_N) -> list[BoundCell]:
    """Every cell with wt(d) >= 6 and 2(d - 1) <= n <= n_max, with the exact
    weight and the strict quarter bound 2^(n-2), ordered by (d, n)."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > C2_MAX_N:
        raise BudgetError(f"n_max={n_max} exceeds the scan cap {C2_MAX_N}")
    degrees = [d for d in range(63, n_max // 2 + 2) if d.bit_count() >= 6]
    by_degree = [[] for _ in degrees]
    # Row by row, each stepped from the last; 63 is the first degree.  Each
    # degree's cells are appended in n order.
    for n, row in pascal_rows(2 * (63 - 1), n_max):
        bound = 1 << (n - 2)
        for d, cells in zip(degrees, by_degree):
            if n < 2 * (d - 1):
                break
            w = weight_in_row(d, row)
            cells.append(BoundCell(d, n, w, bound, w < bound))
    return [cell for cells in by_degree for cell in cells]


def conjecture1_mismatches(cells: list[ScanCell]) -> list[ScanCell]:
    """Cells where exact balancedness and the conjectured set disagree."""
    return [cell for cell in cells if cell.balanced != cell.predicted]


def conjecture2_violations(cells: list[BoundCell]) -> list[BoundCell]:
    """Cells whose weight reaches the quarter bound."""
    return [cell for cell in cells if not cell.below]


def weight_trig_wt2(t: int, m: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Closed-form weight of X(2^t + 1, m) for m >= 2^(t+1), as the pair
    (S, T) with S = 2^(m-2) + T / 2^t; the weight is S rounded.  T collects
    (2 cos A)^(m-1) sin(rA)/sin(A) over odd a < 2^t with A = a pi / 2^(t+1)
    and r = m - 2^(t+1)."""
    from fractions import Fraction

    import mpmath
    if t < 1:
        raise ValueError("t must be at least 1")
    half = 1 << (t + 1)
    r = m - half
    if r < 0:
        raise ValueError(f"m={m} must be at least 2^(t+1)={half}")
    with mpmath.workprec(PRECISION_BITS):
        terms = []
        for a in range(1, 1 << t, 2):
            base = 2 * cospi_frac(Fraction(a, half))
            ratio = sinpi_frac(Fraction(r * a, half)) / sinpi_frac(Fraction(a, half))
            terms.append(base ** (m - 1) * ratio)
        correction = compensated_sum(terms)
        series = mpmath.mpf(2) ** (m - 2) + correction / (1 << t)
    return series, correction


def weight_trig_wt3(s: int, t: int, n: int) -> mpmath.mpf:
    """Closed-form weight of X(1 + 2^s + 2^t, n) for 1 <= s < t and n at
    least the degree, as one value to round.  Two cosine sums: odd j up to
    2^t - 1 with A = j pi / 2^(t+1), and odd k up to 2^s - 1 with
    B = k pi / 2^(s+1)."""
    from fractions import Fraction

    import mpmath
    if not 1 <= s < t:
        raise ValueError("need 1 <= s < t")
    d = 1 + (1 << s) + (1 << t)
    if n < d:
        raise ValueError(f"n={n} must be at least the degree {d}")
    big = 1 << (t + 1)
    small = 1 << (s + 1)
    with mpmath.workprec(PRECISION_BITS):
        first = []
        for j in range(1, 1 << t, 2):
            base = 2 * cospi_frac(Fraction(j, big))
            num = (sinpi_frac(Fraction((n - (1 << s)) * j, big))
                   * sinpi_frac(Fraction((1 << s) * j, big)))
            den = (sinpi_frac(Fraction(j, big))
                   * sinpi_frac(Fraction((1 << (s + 1)) * j, big)))
            first.append(base ** (n - 1) * num / den)
        second = []
        for k in range(1, 1 << s, 2):
            base = 2 * cospi_frac(Fraction(k, small))
            ratio = sinpi_frac(Fraction(n * k, small)) / sinpi_frac(Fraction(k, small))
            second.append(base ** (n - 1) * ratio)
        total = (mpmath.mpf(2) ** (n - 3)
                 - compensated_sum(first) / (1 << t)
                 - compensated_sum(second) / (1 << (s + 1)))
    return total
