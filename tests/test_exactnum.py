import math
import random
from fractions import Fraction
from itertools import takewhile

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import symbalance.exactnum as exactnum
from symbalance.errors import InternalCheckError
from symbalance.exactnum import (
    binom,
    compensated_sum,
    cospi_frac,
    exact_div,
    is_prime,
    lacunary_sums,
    lacunary_trig_sums,
    multinomial,
    pascal_row,
    pascal_rows,
    round_real,
    sinpi_frac,
)


def test_pascal_row_small():
    assert pascal_row(0) == (1,)
    assert pascal_row(5) == (1, 5, 10, 10, 5, 1)


@given(st.integers(min_value=0, max_value=200))
def test_pascal_row_matches_comb(n):
    assert pascal_row(n) == tuple(math.comb(n, k) for k in range(n + 1))


def test_pascal_row_matches_comb_up_to_300_and_near_4096():
    for n in [*range(301), 4095, 4096, 4097]:
        assert pascal_row(n) == tuple(math.comb(n, k) for k in range(n + 1))


def test_pascal_row_mirrors_its_first_half():
    # the upper half holds the very int objects of the lower half
    for n in (1, 2, 7, 8, 4096, 4097):
        row = pascal_row(n)
        assert all(row[k] is row[n - k] for k in range(n + 1))


def test_pascal_rows_step_to_the_rows_pascal_row_builds():
    for lo in range(13):
        stepped = list(pascal_rows(lo, 300))
        assert [n for n, _ in stepped] == list(range(lo, 301))
        assert all(row == pascal_row(n) for n, row in stepped)
    stepped = list(pascal_rows(4090, 4100))
    assert [n for n, _ in stepped] == list(range(4090, 4101))
    assert all(row == pascal_row(n) for n, row in stepped)
    assert list(pascal_rows(9, 8)) == []


def test_binom_outside_range_is_zero():
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    assert binom(10, 3) == 120


def test_exact_div():
    assert exact_div(84, 7) == 12
    with pytest.raises(ValueError):
        exact_div(85, 7)


def test_multinomial():
    assert multinomial(6, (2, 2, 2)) == 90
    assert multinomial(4, (4,)) == 1
    assert multinomial(7, (3, 2, 1, 1)) == 420
    with pytest.raises(ValueError):
        multinomial(6, (2, 2, 1))
    with pytest.raises(ValueError):
        multinomial(4, (5, -1))


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for m in range(-3, 25):
        assert is_prime(m) == (m in primes)


def test_is_prime_matches_a_sieve():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, limit, f)))
    primes = [m for m in range(limit) if sieve[m]]
    assert [m for m in range(limit) if is_prime(m)] == primes
    # Across 2^20, where trial division hands over to the strong tests.
    for m in range((1 << 20) - 500, (1 << 20) + 5000):
        assert is_prime(m) == all(m % f for f in takewhile(lambda f: f * f <= m, primes)), m


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # Each composite passes the strong test to every prime base up to 2,
    # 7, 23 and 37 in turn.
    for m in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(m), m
    assert is_prime((1 << 31) - 1)
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 1 + 2)
    assert not is_prime(((1 << 31) - 1) * ((1 << 19) - 1))


@given(st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=300),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_binom_mod_p_matches_comb(n, k, p):
    assert oracles.binom_mod_p(n, k, p) == math.comb(n, k) % p


@given(st.integers(min_value=0, max_value=60),
       st.integers(min_value=1, max_value=5))
def test_lacunary_partitions_the_row(n, power):
    assert sum(lacunary_sums(n, power, range(1 << power))) == 1 << n


@given(st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=31))
def test_lacunary_exact_matches_oracle(n, power, i):
    i %= 1 << power
    assert lacunary_sums(n, power, [i]) == (oracles.lacunary_sum_direct(n, power, i),)
    assert lacunary_sums(n, power, range(1 << power)) == tuple(
        oracles.lacunary_sum_direct(n, power, r) for r in range(1 << power))


@pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
def test_lacunary_trig_rounds_to_exact(power):
    residues = range(1 << power)
    for n in range(1, 41):
        assert lacunary_trig_sums(n, power, residues) == lacunary_sums(n, power, residues)
        for i in residues:
            assert lacunary_trig_sums(n, power, [i]) == lacunary_sums(n, power, [i])


def test_lacunary_trig_rejects_n_zero():
    assert lacunary_sums(0, 2, range(4)) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        lacunary_trig_sums(0, 2, [0])
    with pytest.raises(ValueError):
        lacunary_trig_sums(0, 2, range(4))


def test_lacunary_validation():
    # Both routes check every residue they are given, not only the first.
    for route in (lacunary_sums, lacunary_trig_sums):
        for n, power, residues in ((10, 0, [0]), (10, 2, [4]), (10, 2, [0, 1, -1]),
                                   (10, 2, range(5)), (-1, 2, [0])):
            with pytest.raises(ValueError):
                route(n, power, residues)
        assert route(10, 2, iter([3, 1])) == (240, 272)


def test_trig_helpers_exact_points():
    assert cospi_frac(Fraction(1, 2)) == 0
    assert sinpi_frac(Fraction(1)) == 0
    assert cospi_frac(Fraction(7, 2)) == 0
    assert abs(sinpi_frac(Fraction(1, 2)) - 1) == 0
    assert cospi_frac(Fraction(2)) == 1


def test_compensated_sum_cancellation():
    big = 10 ** 30
    terms = [big, 1, -big]
    assert compensated_sum(terms) == 1
    assert compensated_sum([]) == 0


def test_round_real():
    assert round_real(compensated_sum([0.5, 0.25, 0.25])) == 1
    assert round_real(cospi_frac(Fraction(1, 3)) * 544) == 272


def test_round_real_is_exact_at_any_magnitude():
    with mpmath.workprec(400):
        big = mpmath.mpf(2 ** 200 + 1)
        assert round_real(big) == 2 ** 200 + 1
        assert round_real(big + mpmath.mpf(0.5)) == 2 ** 200 + 2
        assert round_real(-big - mpmath.mpf(0.25)) == -(2 ** 200 + 1)
    # Ties go to even, as mpmath.nint did.
    assert [round_real(mpmath.mpf(x)) for x in (0.5, 1.5, 2.5, -0.5, -1.5)] == [0, 2, 2, 0, -2]
    assert round_real(7) == 7


LACUNARY_SWEEP_N = (1, 2, 3, 5, 7, 40, 100, 193, 1000)


@pytest.mark.parametrize("power", range(1, 13))
def test_cos_sin_chain_matches_libmp(power):
    for n in LACUNARY_SWEEP_N + (4096,):
        prec = exactnum._lacunary_precision(n, power)
        cos1, sin1 = mpmath.libmp.mpf_cos_sin_pi(mpmath.libmp.from_man_exp(1, -power), prec + 4)
        expected = tuple((mpmath.libmp.to_fixed(x, prec + 4) + 8) >> 4 for x in (cos1, sin1))
        assert exactnum._cos_sin_pi(power, prec) == expected, n


@pytest.mark.parametrize("power", range(1, 13))
def test_cos_sin_chain_is_within_its_proved_error(power):
    # Step 1 of the kernel's proof: each value of the pair is within
    # 1/2 + 1/128 units of 2^-P.  n = 1354 and 3643 are near ties where the
    # chain rounds the other way from libmp (at powers 2 and 3).
    for n in LACUNARY_SWEEP_N + (1354, 3643, 4096):
        prec = exactnum._lacunary_precision(n, power)
        with mpmath.workprec(prec + 64):
            angle = mpmath.mpf(1) / (1 << power)
            exact = (mpmath.cospi(angle) * 2 ** prec, mpmath.sinpi(angle) * 2 ** prec)
            for value, true in zip(exactnum._cos_sin_pi(power, prec), exact):
                assert abs(value - true) <= mpmath.mpf(1) / 2 + mpmath.mpf(1) / 128, n


def _checked_errors(n, power, residues):
    """The kernel's |A - exact| for each residue, against the bound E."""
    scale, values = exactnum._lacunary_fixed(n, power, residues)
    bound = exactnum._lacunary_error_bound(n, power)
    errors = []
    for i, value in zip(residues, values):
        exact = oracles.lacunary_sum_direct(n, power, i)
        error = Fraction(abs(value - (exact << scale)), 1 << scale)
        assert error <= bound, (n, power, i)
        errors.append(error)
    return errors


@pytest.mark.parametrize("power", range(1, 9))
def test_certified_lacunary_matches_oracle_on_every_residue(power):
    for n in LACUNARY_SWEEP_N:
        assert lacunary_trig_sums(n, power, range(1 << power)) == tuple(
            oracles.lacunary_sum_direct(n, power, i) for i in range(1 << power))
        errors = _checked_errors(n, power, range(1 << power))
        assert max(errors) < Fraction(1, 1 << (power + 29))


@pytest.mark.parametrize("power", range(9, 13))
def test_certified_lacunary_matches_oracle_on_sampled_residues(power):
    rng = random.Random(power)
    for n in (1, 150, 1000, 4096):
        residues = [0, (1 << power) - 1] + rng.sample(range(1 << power), 6)
        _checked_errors(n, power, residues)
        i = residues[-1]
        assert lacunary_trig_sums(n, power, [i]) == (oracles.lacunary_sum_direct(n, power, i),)


@pytest.mark.parametrize("power", range(8, 13))
def test_certified_lacunary_on_the_forms_census_band(power):
    # forms-census draws single-residue lacunary calls at these n and powers.
    rng = random.Random(power)
    for n in (60, 88, 120, 160):
        residues = [0, (1 << power) - 1] + rng.sample(range(1 << power), 6)
        assert max(_checked_errors(n, power, residues)) < Fraction(1, 1 << (power + 29))


@pytest.mark.parametrize("n, power", [
    *((n, power) for n in (1, 2, 7, 60, 200) for power in (1, 2, 3)),
    (100, 4), (300, 4), (60, 8), (88, 10), (60, 12), (140, 12), (1000, 12), (4096, 12),
])
def test_lacunary_tail_cut_stays_within_its_budget(n, power):
    # Step 4 of the kernel's proof: the n-th powers it drops sum to at most
    # T = (n + 1) 2^(n + 2 power + 1 - P), and below power 4 it drops none.
    half = 1 << (power - 1)
    prec = exactnum._lacunary_precision(n, power)
    _, powers = exactnum._lacunary_terms(n, power)
    cut = len(powers) + 1
    if power <= 3:
        assert cut == half
    if (n, power) in ((60, 12), (4096, 12)):
        assert cut < half
    with mpmath.workprec(prec + 64):
        dropped = mpmath.fsum((2 * mpmath.cospi(mpmath.mpf(j) / (1 << power))) ** n
                              for j in range(cut, half))
        budget = Fraction(n + 1, 1 << (prec - n - 2 * power - 1))
        assert dropped <= mpmath.mpf(budget.numerator) / budget.denominator


def test_lacunary_error_bound_is_strictly_below_its_stated_limit():
    for power in range(1, 13):
        limit = Fraction(1, 1 << (power + 29))
        for n in range(1, 4097):
            assert exactnum._lacunary_error_bound(n, power) < limit, (n, power)


def test_lacunary_error_bound_is_far_below_one_half():
    for n, power in ((4096, 1), (4096, 12)):
        bound = exactnum._lacunary_error_bound(n, power)
        assert bound < Fraction(1, 2)
        assert bound < Fraction(1, 1 << (power + 29))


def test_lacunary_certificate_refuses_a_value_outside_its_bound(monkeypatch):
    monkeypatch.setattr(exactnum, "_lacunary_error_bound", lambda n, power: Fraction(0))
    with pytest.raises(InternalCheckError):
        lacunary_trig_sums(10, 3, range(8))
    monkeypatch.setattr(exactnum, "_lacunary_error_bound", lambda n, power: Fraction(1, 2))
    with pytest.raises(InternalCheckError):
        lacunary_trig_sums(10, 3, [0])
