"""Exact integer combinatorics and certified closed forms.

Arbitrary-precision naturals are plain Python ints.  The closed
trigonometric form of a lacunary binomial sum is evaluated in fixed point
on plain ints throughout, from its cosine/sine pair to its last sum, at a
precision chosen from n and the modulus, with a proven error bound: each
value is rounded only when the bound certifies the nearest integer.  Each
residue is evaluated at the coarsest modulus 2^r <= 2^power that decides
its class inside 0..n, which for n < 2^power is often far below 2^power.
The weight closed forms of `conjectures` are sums of these certified values.
No float or mpmath arithmetic is used here, and floats never decide a
verdict anywhere in this package.
"""

from __future__ import annotations

import math
from operator import add
from typing import Iterable, Iterator

from .errors import BudgetError, InternalCheckError


def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle: the entries k <= n/2 by incremental
    multiplication, the rest mirrored from them (the same int objects, so
    the row holds about half the memory).  Not cached: a caller builds
    each row once and passes it on."""
    if n < 0:
        raise ValueError("row index must be non-negative")
    row = [1]
    c = 1
    for k in range(n // 2):
        c = c * (n - k) // (k + 1)
        row.append(c)
    row.extend(reversed(row[:(n + 1) // 2]))
    return tuple(row)


def pascal_rows(lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(n, pascal_row(n)) for lo <= n <= hi.  Row lo is built once; each
    next half row (the entries k <= n/2) comes from the last by Pascal's
    rule C(n, k) = C(n - 1, k - 1) + C(n - 1, k), one addition per entry,
    and is mirrored as in pascal_row."""
    if hi < lo:
        return
    row = pascal_row(lo)
    yield lo, row
    half = row[:lo // 2 + 1]
    for n in range(lo + 1, hi + 1):
        step = [1, *map(add, half, half[1:])]
        if n % 2 == 0:  # C(n, n/2) = 2 C(n - 1, n/2 - 1)
            step.append(2 * half[-1])
        half = step
        yield n, tuple(half + half[(n + 1) // 2 - 1::-1])


def binom(n: int, k: int) -> int:
    """C(n, k), exactly; 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_div(a: int, b: int) -> int:
    """Quotient a // b, demanding that b divides a."""
    q, r = divmod(a, b)
    if r:
        raise ValueError(f"{a} is not divisible by {b}")
    return q


def _multinomial(parts: Iterable[int]) -> int:
    """sum(parts)! / (parts[0]! ... parts[-1]!) for non-negative parts,
    unchecked, as a product of binomials."""
    out = 1
    acc = 0
    for p in parts:
        acc += p
        out *= math.comb(acc, p)
    return out


# Strong probable-prime tests to these bases decide primality exactly
# below _SPRP_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86, 2017).
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_EXACT_BELOW = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Primality, exactly, by strong probable-prime tests to the first 13
    prime bases, which no composite below 3,317,044,064,679,887,385,961,981
    passes.  A base that is itself the prime fails its own test (p divides
    it), so the bases are answered first.  Past that range no fixed set of
    bases is proven and trial division takes time of order sqrt(p), so
    BudgetError is raised."""
    if p < 2:
        return False
    if p >= _SPRP_EXACT_BELOW:
        raise BudgetError(f"p={p} is past the proven primality range "
                          f"p < {_SPRP_EXACT_BELOW}")
    if p in _SPRP_BASES:
        return True
    if p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SPRP_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _lacunary_residues(n: int, power: int, residues: Iterable[int]) -> tuple[int, ...]:
    """The residues as a tuple, each checked against the modulus 2^power."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if power < 1:
        raise ValueError("power must be at least 1")
    residues = tuple(residues)
    for i in residues:
        # i < 2^power, checked without forming 2^power
        if i < 0 or i >> power:
            raise ValueError(f"residue {i} out of range for modulus 2^{power}")
    return residues


def lacunary_sums(n: int, power: int, residues: Iterable[int]) -> tuple[int, ...]:
    """For each residue i, the sum of C(n, j) over 0 <= j <= n with
    j = i (mod 2^power), sliced from one row."""
    residues = _lacunary_residues(n, power, residues)
    row = pascal_row(n)
    return tuple(sum(row[i::1 << power]) for i in residues)


def _lacunary_precision(n: int, power: int) -> int:
    """Fractional bits P of the fixed-point lacunary kernel."""
    return n + 2 * power + n.bit_length() + 32


def _lacunary_error_bound(n: int, power: int) -> tuple[int, int]:
    """The bound E = (2n + 1) 2^(n + power + 2 - P) of _lacunary_fixed, as
    the integer pair (numerator, denominator)."""
    return 2 * n + 1, 1 << (_lacunary_precision(n, power) - n - power - 2)


def _cos_sin_pi(power: int, prec: int) -> tuple[int, int]:
    """cos(pi/M) and sin(pi/M) for M = 2^power, as ints scaled by 2^prec and
    rounded to nearest: the half-angle chain cos(a/2) = sqrt((1 + cos a)/2)
    from cos(pi/2) = 0, then sin = sqrt((1 - cos)(1 + cos)), on plain ints
    with power + 8 guard bits (step 1 of _lacunary_fixed bounds the error)."""
    guard = power + 8
    q = prec + guard
    one = 1 << q
    c = 0
    for _ in range(power - 1):
        c = math.isqrt((one + c) << (q - 1))
    s = math.isqrt((one - c) * (one + c))
    half = 1 << (guard - 1)
    return (c + half) >> guard, (s + half) >> guard


def _lacunary_terms(n: int, power: int) -> tuple[list[int], list[int]]:
    """Steps 1-4 of _lacunary_fixed: the table cos(k pi/M) for
    0 <= k <= M/2 scaled by 2^P, and b_j^n for j = 1, 2, ... scaled by
    2^(P - n), up to the tail cut, which drops the rest of j < M/2."""
    mod = 1 << power
    half = mod >> 1
    prec = _lacunary_precision(n, power)
    c1, s1 = _cos_sin_pi(power, prec)
    cosines, sines = [1 << prec], [0]
    c, s = 1 << prec, 0
    for _ in range(mod >> 2):
        c, s = (c * c1 - s * s1) >> prec, (s * c1 + c * s1) >> prec
        cosines.append(c)
        sines.append(s)
    # cos(k pi/M) = sin((M/2 - k) pi/M) for M/4 < k <= M/2.
    quarter = cosines + sines[half - len(cosines)::-1]
    # The tail budget T and the error of each power, in units of 2^(n - P).
    budget = (n + 1) << (2 * power + 1)
    slack = 3 * n * mod // 2 + 4 * n.bit_length() + 1
    bits = bin(n)[3:]
    powers = []
    for j in range(1, half):
        base = 2 * quarter[j]
        y = base
        for bit in bits:
            y = y * y >> prec
            if bit == "1":
                y = y * base >> prec
        y >>= n
        powers.append(y)
        if 3 * j >= mod and (half - 1 - j) * (y + slack) <= budget:
            break
    return quarter, powers


def _lacunary_fixed(n: int, power: int, residues: Iterable[int]) -> tuple[int, list[int]]:
    """The closed form of lacunary_trig_sums for each residue i, as
    (Q, [A_i 2^Q]).

    With M = 2^power, b_j = 2 cos(j pi / M) and u = 2^-P (P from
    _lacunary_precision), everything is a plain int scaled by 2^P:

    1. cos(pi/M) and sin(pi/M) come from _cos_sin_pi on plain ints scaled
       by 2^R, R = P + power + 8, and are rounded to within u.  The chain
       c <- isqrt((2^R + c) 2^(R-1)) starts exactly at cos(pi/2) = 0 and
       truncates at each step, so c never exceeds its true value.  On
       angles up to pi/2 the map x -> sqrt((1 + x)/2) has slope at most
       1/(4 cos(pi/4)) = 1/(2 sqrt 2), so each step contracts the error
       carried in by that factor and adds less than one unit 2^-R: the
       error stays below 1/(1 - 1/(2 sqrt 2)) < 1.55 units.  Taking
       s = isqrt((2^R - c)(2^R + c)) amplifies that error by the slope of
       sqrt(1 - x^2), cot(pi/M) < M/2, and truncation adds one unit, so s
       is off by less than 0.78 M + 1 units of 2^-R, that is below u/128
       (M >= 2).  Rounding each to P bits adds at most u/2, so the pair is
       within u/2 + u/128.
    2. The quarter-wave table: (cos, sin)(k pi/M) for 0 <= k <= M/4 comes
       from k rotations by that pair, each truncated, and
       cos((M/2 - k) pi/M) = sin(k pi/M) fills the table up to k = M/2.
       Measured on c + i s, a rotation scales the error already made by
       at most 1 + u and adds less than 3u (the pair is within 0.73u, each
       truncation within sqrt(2) u), so entry k is within 3k u <= 0.75 M u
       (M >= 4; at M = 2 the table 1, 0 is exact).  Every angle
       j (n - 2i) pi / M folds into this table by exact sign and symmetry.
    3. b_j^n comes from square-and-multiply on the truncated base, whose
       error is at most 1.5 M u.  Measured against the majorant 2^m of
       b_j^m, each product multiplies the relative error factors and
       truncation adds u, so after at most 2L products
       (L = n.bit_length()) the error is at most
       2^n ((1 + 0.75 M u)^n (1 + u)^(2L) - 1) <= 2^n (1.5 n M + 4 L) u.
       Dropping the n lowest bits then adds less than 2^n u, so each kept
       y_j is within K = 2^n (1.5 n M + 4 L + 1) u of b_j^n.
    4. The tail cut.  On 0 < j < M/2, b_j is positive and decreasing.  The
       powers stop at the first j with 3j >= M (so b_j <= 1) at which the
       M/2 - 1 - j terms left satisfy (M/2 - 1 - j)(y_j + K) <= T, the
       budget T = (n + 1) 2^(n + 2 power + 1 - P) = 2 M^2 (n + 1) 2^n u.
       Each dropped term is at most b_j^n <= y_j + K in magnitude, so the
       dropped sum is at most T.
    5. Each residue sums the kept products exactly.  A product is off by
       at most 2^n (1.5 n M + 4 L + 1) u (1 + 0.75 M u) + 2^n 0.75 M u,
       there are at most M/2 - 1 of them, and the sum is scaled by
       2^(1 - power) = 2/M, so with the dropped tail (M >= 4)

           |A - exact| <= 2^n u (1.5 n M + 0.75 M + 4 L + 2) + 2 T / M
                       <= 2^n u (4 n M + 4 M (n + 1))
                        = E = (2n + 1) 2^(n + power + 2 - P)

       (power 1 has no terms, so no error).

    E = (2n + 1) 2^-(L + 1) 2^(-power - 29) < 2^(-power - 29), since
    2n + 1 < 2^(L + 1): far below 1/2.  Each A is certified: the interval
    [A - E, A + E] must hold exactly one integer, that is E < 1/2 and
    |A - round(A)| <= E; otherwise InternalCheckError is raised.
    """
    if n == 0:
        raise ValueError("the closed form requires n >= 1")
    num, den = _lacunary_error_bound(n, power)
    if 2 * num >= den:
        raise InternalCheckError(f"lacunary error bound {num}/{den} is not below 1/2")
    mod = 1 << power
    prec = _lacunary_precision(n, power)
    quarter, powers = _lacunary_terms(n, power)
    # cos(r pi / M) for 0 <= r < 2M: cos(r) = -cos(M - r), cos(2M - r) = cos(r).
    table = quarter + [-x for x in reversed(quarter[:-1])]
    table += table[mod - 1:0:-1]
    # Products carry (P - n) + P fractional bits; A = 2^(n-power) + 2^(1-power) sum.
    scale = 2 * prec - n + power
    lead = 1 << (n - power + scale)
    wrap = 2 * mod - 1
    by_angle: dict[int, int] = {}
    out = []
    for i in residues:
        step = (n - 2 * i) & wrap
        # Residues i and n - i (mod M) have opposite angles: C(n, j) = C(n, n - j).
        key = min(step, 2 * mod - step)
        if key not in by_angle:
            by_angle[key] = lead + 2 * sum([y * table[j * key & wrap]
                                            for j, y in enumerate(powers, 1)])
        value = by_angle[key]
        nearest = (value + (1 << (scale - 1))) >> scale
        if abs(value - (nearest << scale)) * den > num << scale:
            raise InternalCheckError(
                f"lacunary closed form at n={n}, power={power}, i={i} is not "
                f"within its error bound of an integer")
        out.append(value)
    return scale, out


def lacunary_trig_sums(n: int, power: int, residues: Iterable[int]) -> tuple[int, ...]:
    """lacunary_sums by its closed trigonometric form (valid for n >= 1):

        2^(n-r) + 2^(1-r) * sum_{j=1}^{2^(r-1)-1}
                  (2 cos(j pi / 2^r))^n cos(j (n - 2i) pi / 2^r)

    evaluated by _lacunary_fixed from one cosine table and one set of n-th
    powers per modulus 2^r, and rounded only where certified to lie within
    2^(-r-29) of an integer.

    Each residue i is evaluated, as i mod 2^r, at the smallest r with
    min(n.bit_length(), power) <= r <= power such that i < 2^r or
    i mod 2^r > n; r = power always qualifies, since i < 2^power.  The sums
    agree.  At r = power there is nothing to show.  Below it
    r >= n.bit_length(), so 2^r > n: inside 0..n the class of i mod 2^r
    holds at most its least member, i mod 2^r, and the class of
    i mod 2^power lies within it.  So both sums are C(n, i) when i < 2^r
    and both are empty when i mod 2^r > n.  r depends on n and i alone,
    and every residue, those above n included, is still a certified closed
    form."""
    residues = _lacunary_residues(n, power, residues)
    if n == 0:
        raise ValueError("the closed form requires n >= 1")
    low = min(n.bit_length(), power)
    by_power: dict[int, list[int]] = {}
    for i in residues:
        r = low
        while i >> r and i & ((1 << r) - 1) <= n:
            r += 1
        by_power.setdefault(r, []).append(i)
    sums = {}
    for r, group in by_power.items():
        mask = (1 << r) - 1
        scale, values = _lacunary_fixed(n, r, [i & mask for i in group])
        for i, v in zip(group, values):
            sums[i] = (v + (1 << (scale - 1))) >> scale
    return tuple(sums[i] for i in residues)
