"""Exact integer combinatorics and high-precision real evaluation.

Arbitrary-precision naturals are plain Python ints.  Real-valued series
(the closed trigonometric forms for lacunary binomial sums) are evaluated
with mpmath at PRECISION_BITS of mantissa, with every cosine/sine argument
kept as an exact rational multiple of pi and reduced mod 2 before the
numeric call.  Floats never decide a verdict anywhere in this package;
they only cross-check integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

PRECISION_BITS = 96


def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, by incremental multiplication.  Not
    cached: a caller builds each row once and passes it on."""
    if n < 0:
        raise ValueError("row index must be non-negative")
    row = [1]
    c = 1
    for k in range(n):
        c = c * (n - k) // (k + 1)
        row.append(c)
    return tuple(row)


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


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! ... parts[-1]!) for non-negative parts summing to n."""
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if sum(parts) != n:
        raise ValueError(f"parts {tuple(parts)} do not sum to n={n}")
    out = 1
    acc = 0
    for p in parts:
        acc += p
        out *= binom(acc, p)
    return out


def is_prime(p: int) -> bool:
    """Trial-division primality; inputs here are small moduli."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for prime p, digit by digit in base p."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if k > n:
        return 0
    out = 1
    while n or k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        out = out * binom(nd, kd) % p
        if out == 0:
            return 0
    return out


def _validate_lacunary(n: int, power: int, i: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")
    if power < 1:
        raise ValueError("power must be at least 1")
    if not 0 <= i < 1 << power:
        raise ValueError(f"residue {i} out of range for modulus 2^{power}")


def lacunary_exact(n: int, power: int, i: int) -> int:
    """Sum of C(n, j) over 0 <= j <= n with j = i (mod 2^power)."""
    _validate_lacunary(n, power, i)
    return sum(pascal_row(n)[i::1 << power])


def lacunary_sums(n: int, power: int) -> tuple[int, ...]:
    """lacunary_exact(n, power, i) for every residue i, from one row."""
    _validate_lacunary(n, power, 0)
    row = pascal_row(n)
    return tuple(sum(row[i::1 << power]) for i in range(1 << power))


def cospi_frac(q: Fraction) -> mpmath.mpf:
    """cos(pi q) for rational q, reduced mod 2 before evaluation."""
    q = Fraction(q) % 2
    with mpmath.workprec(PRECISION_BITS):
        return mpmath.cospi(mpmath.mpf(q.numerator) / q.denominator)


def sinpi_frac(q: Fraction) -> mpmath.mpf:
    """sin(pi q) for rational q, reduced mod 2 before evaluation."""
    q = Fraction(q) % 2
    with mpmath.workprec(PRECISION_BITS):
        return mpmath.sinpi(mpmath.mpf(q.numerator) / q.denominator)


def sign_sinpi(q: Fraction) -> int:
    """Exact sign of sin(pi q) for rational q: -1, 0, or +1."""
    q = Fraction(q) % 2
    if q == 0 or q == 1:
        return 0
    return 1 if q < 1 else -1


def compensated_sum(terms: Iterable) -> mpmath.mpf:
    """Neumaier-compensated summation; the running error term is folded in
    at the end."""
    with mpmath.workprec(PRECISION_BITS):
        total = mpmath.mpf(0)
        err = mpmath.mpf(0)
        for t in terms:
            t = mpmath.mpf(t)
            new = total + t
            if abs(total) >= abs(t):
                err += (total - new) + t
            else:
                err += (t - new) + total
            total = new
        return total + err


def round_real(x) -> int:
    """Nearest integer to a high-precision real."""
    with mpmath.workprec(PRECISION_BITS):
        return int(mpmath.nint(x))


def lacunary_trig(n: int, power: int, i: int) -> mpmath.mpf:
    """Closed trigonometric form of lacunary_exact (valid for n >= 1):

        2^(n-p) + 2^(1-p) * sum_{j=1}^{2^(p-1)-1}
                  (2 cos(j pi / 2^p))^n cos(j (n - 2i) pi / 2^p)

    Rounding the result recovers the exact sum.
    """
    _validate_lacunary(n, power, i)
    if n == 0:
        raise ValueError("the closed form requires n >= 1")
    mod = 1 << power
    with mpmath.workprec(PRECISION_BITS):
        terms = []
        for j in range(1, mod // 2):
            base = 2 * cospi_frac(Fraction(j, mod))
            terms.append(base ** n * cospi_frac(Fraction(j * (n - 2 * i), mod)))
        return mpmath.mpf(2) ** (n - power) + mpmath.mpf(2) ** (1 - power) * compensated_sum(terms)
