"""Numeric scans for two conjectures on elementary symmetric polynomials.

Conjecture 1 (balancedness): over GF(2), the balanced X(d, n) with d >= 2
are exactly the pairs d = 2^t, n = 2^(t+1) l - 1.  Conjecture 2 (weight):
once d has at least six binary ones and n >= 2(d - 1), the weight of
X(d, n) stays strictly below 2^(n-2).  Scans recompute every cell in a
range exactly and report the cells so callers can look for mismatches.
Both scans step each row from the last (pascal_rows) and sum it over the
prefix <= n of one checked Lucas walk per degree, built at the largest n
(symfun._checked_walk), so a walk that strays from the Kummer mask raises
InternalCheckError before any cell is made, and each row is checked once
(symfun._check_row) before it is summed.

The closed-form weights for degrees 2^t + 1 and 1 + 2^s + 2^t are short
cosine sums instead of binomial rows.  Each is evaluated as a sum of the
certified lacunary closed forms of `exactnum`, over the residues mod
2^d.bit_length() that dominate d, so the value is exact at every size; it
is returned as an mpmath mpf holding that integer, and mpmath loads on
the first such call.  The scans never load it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import BudgetError
from .exactnum import lacunary_trig_sums, pascal_rows
from .symfun import _check_row, _checked_walk

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


def _walk_sum(walk: list[int], row: tuple[int, ...]) -> int:
    """wt(X(d, n)) for row = pascal_row(n) and walk = _checked_walk(d, m),
    m >= n: the sum of row over the prefix of walk that is <= n."""
    return sum(map(row.__getitem__, walk[:bisect_right(walk, len(row) - 1)]))


def scan_conjecture1(n_max: int) -> list[ScanCell]:
    """Every cell 2 <= d <= n <= n_max with its exact weight, its exact
    balancedness, and the conjectured verdict, ordered by (n, d)."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > C1_MAX_N:
        raise BudgetError(f"n_max={n_max} exceeds the scan cap {C1_MAX_N}")
    walks = {d: _checked_walk(d, n_max) for d in range(2, n_max + 1)}
    cells = []
    for n, row in pascal_rows(2, n_max):
        _check_row(row)
        half = 1 << (n - 1)
        for d in range(2, n + 1):
            w = _walk_sum(walks[d], row)
            cells.append(ScanCell(d, n, w, w == half, predicted_balanced(d, n)))
    return cells


def scan_conjecture2(n_max: int = C2_DEFAULT_N) -> list[BoundCell]:
    """Every cell with wt(d) >= 6 and 2(d - 1) <= n <= n_max, with the exact
    weight and the strict quarter bound 2^(n-2), ordered by (d, n)."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > C2_MAX_N:
        raise BudgetError(f"n_max={n_max} exceeds the scan cap {C2_MAX_N}")
    degrees = [d for d in range(63, n_max // 2 + 2) if d.bit_count() >= 6]
    walks = [_checked_walk(d, n_max) for d in degrees]
    by_degree = [[] for _ in degrees]
    # Row by row, each stepped from the last; 63 is the first degree.  Each
    # degree's cells are appended in n order.
    for n, row in pascal_rows(2 * (63 - 1), n_max):
        _check_row(row)
        bound = 1 << (n - 2)
        for d, walk, cells in zip(degrees, walks, by_degree):
            if n < 2 * (d - 1):
                break
            w = _walk_sum(walk, row)
            cells.append(BoundCell(d, n, w, bound, w < bound))
    return [cell for cells in by_degree for cell in cells]


def conjecture1_mismatches(cells: list[ScanCell]) -> list[ScanCell]:
    """Cells where exact balancedness and the conjectured set disagree."""
    return [cell for cell in cells if cell.balanced != cell.predicted]


def conjecture2_violations(cells: list[BoundCell]) -> list[BoundCell]:
    """Cells whose weight reaches the quarter bound."""
    return [cell for cell in cells if not cell.below]


def _dominating_weight(d: int, n: int) -> int:
    """wt(X(d, n)), the sum of C(n, i) over the i that dominate d
    (i & d == d), as a sum of certified lacunary_trig_sums values over the
    residues mod 2^r, r = d.bit_length().

    i dominates d exactly when i mod 2^r does: d has no bit at or above r,
    so i & d == (i mod 2^r) & d."""
    r = d.bit_length()
    return sum(lacunary_trig_sums(n, r, [rho for rho in range(1 << r) if rho & d == d]))


def _exact_mpf(x: int) -> mpmath.mpf:
    """The int x as an mpf, exactly: a bare mpmath.mpf(x) rounds to the
    working precision, 53 bits by default."""
    import mpmath
    with mpmath.workprec(x.bit_length()):
        return mpmath.mpf(x)


def weight_trig_wt2(t: int, m: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Closed-form weight of X(2^t + 1, m) for m >= 2^(t+1), as the pair
    (S, T) with S = 2^(m-2) + T / 2^t the weight and T the correction
    2^t (S - 2^(m-2)), both exact integers.  T is the sum over odd a < 2^t
    of (2 cos A)^(m-1) sin(rA)/sin(A) with A = a pi / 2^(t+1) and
    r = m - 2^(t+1).  Both are computed from _dominating_weight(2^t + 1, m)."""
    if t < 1:
        raise ValueError("t must be at least 1")
    half = 1 << (t + 1)
    if m < half:
        raise ValueError(f"m={m} must be at least 2^(t+1)={half}")
    weight = _dominating_weight((1 << t) + 1, m)
    return _exact_mpf(weight), _exact_mpf((weight - (1 << (m - 2))) << t)


def weight_trig_wt3(s: int, t: int, n: int) -> mpmath.mpf:
    """Closed-form weight of X(1 + 2^s + 2^t, n) for 1 <= s < t and n at
    least the degree, as an exact integer: 2^(n-3) less two scaled cosine
    sums (odd j up to 2^t - 1 with A = j pi / 2^(t+1), and odd k up to
    2^s - 1 with B = k pi / 2^(s+1)), computed as _dominating_weight(d, n)."""
    if not 1 <= s < t:
        raise ValueError("need 1 <= s < t")
    d = 1 + (1 << s) + (1 << t)
    if n < d:
        raise ValueError(f"n={n} must be at least the degree {d}")
    return _exact_mpf(_dominating_weight(d, n))
