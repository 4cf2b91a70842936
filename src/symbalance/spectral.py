"""Walsh spectra of symmetric Boolean functions and avalanche tests.

Grouping the Walsh sum by input weight turns the 2^n-term transform into an
(n+1)-term sum against Krawtchouk values, so a symmetric function's spectrum
is stored per weight class y = wt(w).  Everything in this module is exact
integer arithmetic; the brute-force operations are budgeted oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError
from .exactnum import binom
from .symfun import WeightFunction, elem_values, is_balanced_elem

BRUTEFORCE_MAX_N = 20
SAC_MAX_N = 16


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


def _mask_of(w, n: int) -> int:
    """Accept a mask int or a bit sequence (coordinate i = bit i)."""
    if isinstance(w, int):
        mask = w
    else:
        bits = tuple(w)
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise ValueError("w must have n bits")
        mask = sum(b << i for i, b in enumerate(bits))
    if not 0 <= mask < 1 << n:
        raise ValueError("mask out of range")
    return mask


def walsh_bruteforce(wf: WeightFunction, w) -> int:
    """Definitional Walsh sum over all 2^n inputs at one mask (n <= 20)."""
    n = wf.n
    if n > BRUTEFORCE_MAX_N:
        raise BudgetError(f"brute-force Walsh capped at n <= {BRUTEFORCE_MAX_N}")
    mask = _mask_of(w, n)
    total = 0
    for x in range(1 << n):
        sign = wf.v[x.bit_count()] ^ ((x & mask).bit_count() & 1)
        total += 1 - 2 * sign
    return total


def walsh_all_bruteforce(wf: WeightFunction) -> tuple[int, ...]:
    """Walsh values at every mask, by the in-place butterfly on the sign
    truth table (n <= 20).  Exact integers; assumes nothing about symmetry,
    so it serves as the all-mask oracle for walsh_symmetric."""
    n = wf.n
    if n > BRUTEFORCE_MAX_N:
        raise BudgetError(f"brute-force Walsh capped at n <= {BRUTEFORCE_MAX_N}")
    t = [1 - 2 * wf.v[x.bit_count()] for x in range(1 << n)]
    h = 1
    while h < len(t):
        for start in range(0, len(t), h * 2):
            for a in range(start, start + h):
                x, y = t[a], t[a + h]
                t[a], t[a + h] = x + y, x - y
        h *= 2
    return tuple(t)


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


def is_sac_bruteforce(wf: WeightFunction) -> bool:
    """Definitional avalanche test (n <= 16): for every unit vector a, the
    derivative f(x) xor f(x xor a) must be 1 on exactly half of all inputs.

    The truth table is packed into one big int; flipping input bit b is a
    masked shift by 2^b, and the derivative's weight is a popcount.
    """
    n = wf.n
    if n > SAC_MAX_N:
        raise BudgetError(f"brute-force avalanche test capped at n <= {SAC_MAX_N}")
    size = 1 << n
    table = 0
    for x in range(size):
        if wf.v[x.bit_count()]:
            table |= 1 << x
    for b in range(n):
        s = 1 << b
        low = ((1 << size) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1)
        flipped = ((table & low) << s) | ((table >> s) & low)
        if (table ^ flipped).bit_count() != size // 2:
            return False
    return True


def check_antisymmetry(d: int, n: int) -> bool:
    """For odd degree d: W(y) = -W(n - y) for all 0 < y < n (the all-zero
    and all-one masks are exempt)."""
    if d % 2 == 0:
        raise ValueError("antisymmetry applies to odd degrees only")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    spec = walsh_spectrum(elem_values(d, n)).by_weight
    return all(spec[y] == -spec[n - y] for y in range(1, n))


def half_square_sums(wf: WeightFunction) -> tuple[int, int]:
    """Sums of W(w)^2 over the half-spaces w_n = 0 and w_n = 1 (n <= 16)."""
    n = wf.n
    if n > SAC_MAX_N:
        raise BudgetError(f"half-sum evaluation capped at n <= {SAC_MAX_N}")
    spec = walsh_spectrum(wf).by_weight
    squares = [v * v for v in spec]
    lo = hi = 0
    last = 1 << (n - 1)
    for w in range(1 << n):
        if w & last:
            hi += squares[w.bit_count()]
        else:
            lo += squares[w.bit_count()]
    return lo, hi


def check_half_sums(wf: WeightFunction) -> bool:
    """True when both half-space sums of W(w)^2 equal 2^(2n-1), as they
    must for any function satisfying the avalanche criterion."""
    lo, hi = half_square_sums(wf)
    return lo == hi == 1 << (2 * wf.n - 1)
