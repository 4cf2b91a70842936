import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from symbalance.exactnum import binom
from symbalance.spectral import is_sac_elem, walsh_spectrum
from symbalance.symfun import WeightFunction, elem_values, weight_elem


def _table(wf):
    """Truth table over all 2^n inputs, input x having weight popcount(x)."""
    return [wf.v[x.bit_count()] for x in range(1 << wf.n)]


def test_krawtchouk_identities():
    assert oracles.krawtchouk(2, 1, 4) == 0
    for n in range(1, 15):
        for y in range(n + 1):
            assert oracles.krawtchouk(1, y, n) == n - 2 * y
        for k in range(n + 1):
            assert oracles.krawtchouk(k, 0, n) == binom(n, k)
            assert oracles.krawtchouk(k, n, n) == (-1) ** k * binom(n, k)


def test_krawtchouk_matches_polynomial_oracle():
    for n in range(0, 13):
        for y in range(n + 1):
            for k in range(n + 1):
                assert oracles.krawtchouk(k, y, n) == oracles.krawtchouk_poly(k, y, n)


@given(st.integers(min_value=2, max_value=40), st.data())
def test_even_krawtchouk_sum_vanishes_inside(n, data):
    y = data.draw(st.integers(min_value=1, max_value=n - 1))
    assert sum(oracles.krawtchouk(k, y, n) for k in range(0, n + 1, 2)) == 0


@pytest.mark.parametrize("n", range(1, 11))
def test_walsh_symmetric_matches_all_mask_bruteforce(n):
    for d in range(1, n + 1):
        wf = elem_values(d, n)
        by_mask = oracles.walsh_all(_table(wf))
        spec = walsh_spectrum(wf).by_weight
        for mask in range(1 << n):
            assert by_mask[mask] == spec[mask.bit_count()]


def test_walsh_bruteforce_routes_agree():
    for n in range(1, 9):
        for d in range(1, n + 1):
            table = _table(elem_values(d, n))
            by_mask = oracles.walsh_all(table)
            for mask in range(1 << n):
                assert oracles.walsh_direct(table, mask) == by_mask[mask]


def test_walsh_zero_mask_counts_weight():
    for n in range(1, 15):
        for d in range(1, n + 1):
            spec = walsh_spectrum(elem_values(d, n)).by_weight
            assert spec[0] == (1 << n) - 2 * weight_elem(d, n)


def _krawtchouk_sums(v, columns):
    """sum_k (-1)^(v(k)) P_k(y, n) for each column P_.(y, n)."""
    return tuple(sum((1 - 2 * b) * p for b, p in zip(v, column)) for column in columns)


@pytest.mark.parametrize("n", range(1, 41))
def test_walsh_spectrum_matches_krawtchouk_sums(n):
    # oracles.krawtchouk sums C(y, j) C(n-y, k-j) one value at a time,
    # independent of the column recurrence behind walsh_spectrum
    columns = [[oracles.krawtchouk(k, y, n) for k in range(n + 1)] for y in range(n + 1)]
    for d in range(1, n + 1):
        wf = elem_values(d, n)
        assert walsh_spectrum(wf).by_weight == _krawtchouk_sums(wf.v, columns)


@given(st.integers(min_value=0, max_value=128), st.data())
def test_walsh_spectrum_matches_krawtchouk_sums_on_any_function(n, data):
    bits = data.draw(st.lists(st.sampled_from((0, 1)), min_size=n + 1, max_size=n + 1))
    wf = WeightFunction(n, tuple(bits))
    spec = walsh_spectrum(wf).by_weight
    ys = data.draw(st.lists(st.integers(min_value=0, max_value=n), min_size=1, max_size=3))
    columns = [[oracles.krawtchouk(k, y, n) for k in range(n + 1)] for y in ys]
    assert tuple(spec[y] for y in ys) == _krawtchouk_sums(bits, columns)


@pytest.mark.parametrize("n", range(1, 65))
def test_parseval(n):
    for d in range(1, n + 1):
        spec = walsh_spectrum(elem_values(d, n)).by_weight
        total = sum(binom(n, y) * spec[y] ** 2 for y in range(n + 1))
        assert total == 1 << (2 * n)


def test_sac_reduction_matches_bruteforce():
    for n in range(2, 13):
        for d in range(2, n + 1):
            assert is_sac_elem(d, n) == oracles.sac_direct(_table(elem_values(d, n)), n)


def test_sac_known_cells():
    assert is_sac_elem(2, 4)
    assert is_sac_elem(3, 4)
    assert is_sac_elem(3, 8)
    assert is_sac_elem(5, 8)
    assert not is_sac_elem(4, 7)
    with pytest.raises(ValueError):
        is_sac_elem(1, 4)
    with pytest.raises(ValueError):
        is_sac_elem(5, 4)


def test_antisymmetry_odd_degrees():
    # odd degree d: W(y) = -W(n - y) for 0 < y < n (the all-zero and
    # all-one masks are exempt); even degrees break it
    for n in range(1, 15):
        for d in range(1, n + 1, 2):
            spec = walsh_spectrum(elem_values(d, n)).by_weight
            assert all(spec[y] == -spec[n - y] for y in range(1, n))
    spec = walsh_spectrum(elem_values(2, 6)).by_weight
    assert not all(spec[y] == -spec[6 - y] for y in range(1, 6))


def test_sac_odd_degree_consequences():
    # odd degree and avalanche force weight 2^(n-2) and W(0) = W(n) = 2 wt
    for n in range(2, 15):
        for d in range(3, n + 1, 2):
            if not is_sac_elem(d, n):
                continue
            w = weight_elem(d, n)
            assert w == 1 << (n - 2)
            spec = walsh_spectrum(elem_values(d, n)).by_weight
            assert spec[0] == spec[n] == 2 * w


def test_half_square_sums():
    # Sums of W(w)^2 over the half-spaces w_n = 0 and w_n = 1: of the masks
    # of weight y, C(n-1, y) have w_n = 0 and C(n-1, y-1) have w_n = 1.  The
    # avalanche criterion makes both 2^(2n-1).
    constant_zero = WeightFunction(4, (0, 0, 0, 0, 0))
    squares = [v * v for v in walsh_spectrum(constant_zero).by_weight]
    lo = sum(math.comb(3, y) * sq for y, sq in enumerate(squares))
    hi = sum(math.comb(3, y - 1) * sq for y, sq in enumerate(squares) if y)
    assert (lo, hi) == (1 << 8, 0)  # Parseval still holds; the split is lopsided
    # no size cap: X(2, n) satisfies the criterion for every n, X(3, 20) too
    for d, n in ((3, 4), (2, 4), (2, 17), (3, 20), (2, 64)):
        squares = [v * v for v in walsh_spectrum(elem_values(d, n)).by_weight]
        lo = sum(math.comb(n - 1, y) * sq for y, sq in enumerate(squares))
        hi = sum(math.comb(n - 1, y - 1) * sq for y, sq in enumerate(squares) if y)
        assert lo == hi == 1 << (2 * n - 1)


def test_half_square_sums_match_all_mask_oracle():
    for n in range(1, 11):
        for d in range(1, n + 1):
            by_mask = oracles.walsh_all(_table(elem_values(d, n)))
            half = 1 << (n - 1)
            squares = [v * v for v in walsh_spectrum(elem_values(d, n)).by_weight]
            assert sum(w * w for w in by_mask[:half]) == \
                sum(math.comb(n - 1, y) * sq for y, sq in enumerate(squares))
            assert sum(w * w for w in by_mask[half:]) == \
                sum(math.comb(n - 1, y - 1) * sq for y, sq in enumerate(squares) if y)


def test_half_sums_hold_for_every_sac_cell():
    # every cell the reduction calls SAC has both half-space sums 2^(2n-1)
    for n in range(2, 13):
        for d in range(2, n + 1):
            if is_sac_elem(d, n):
                squares = [v * v for v in walsh_spectrum(elem_values(d, n)).by_weight]
                assert sum(math.comb(n - 1, y) * sq for y, sq in enumerate(squares)) == \
                    1 << (2 * n - 1)
                assert sum(math.comb(n - 1, y - 1) * sq
                           for y, sq in enumerate(squares) if y) == 1 << (2 * n - 1)
