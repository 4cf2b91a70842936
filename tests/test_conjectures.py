import mpmath
import pytest

import oracles
from symbalance.conjectures import (
    BoundCell,
    ScanCell,
    conjecture1_mismatches,
    conjecture2_violations,
    predicted_balanced,
    scan_conjecture1,
    scan_conjecture2,
    weight_trig_wt2,
    weight_trig_wt3,
)
from symbalance.errors import BudgetError
from symbalance.exactnum import round_real
from symbalance.symfun import is_balanced_elem, weight_elem


def test_predicted_balanced():
    assert predicted_balanced(1, 5)
    assert predicted_balanced(2, 3)
    assert predicted_balanced(2, 7)
    assert predicted_balanced(4, 7)
    assert predicted_balanced(4, 15)
    assert predicted_balanced(8, 15)
    assert not predicted_balanced(2, 5)
    assert not predicted_balanced(3, 7)
    assert not predicted_balanced(4, 11)
    with pytest.raises(ValueError):
        predicted_balanced(0, 3)
    with pytest.raises(ValueError):
        predicted_balanced(5, 3)


def test_scan_conjecture1_structure():
    cells = scan_conjecture1(12)
    assert [(c.d, c.n) for c in cells] == [
        (d, n) for n in range(2, 13) for d in range(2, n + 1)]
    for c in cells:
        assert c.weight == weight_elem(c.d, c.n)
        assert c.balanced == (c.weight == 1 << (c.n - 1))
    assert conjecture1_mismatches(cells) == []
    balanced = [(c.d, c.n) for c in cells if c.balanced if c.n <= 8]
    assert balanced == [(2, 3), (2, 7), (4, 7)]


def test_scan_conjecture1_validation():
    with pytest.raises(BudgetError):
        scan_conjecture1(65)
    with pytest.raises(ValueError):
        scan_conjecture1(1)


def test_scan_conjecture2_cells():
    cells = scan_conjecture2(260)
    degrees = (63, 95, 111, 119, 123, 125, 126, 127)
    assert [(c.d, c.n) for c in cells] == [
        (d, n) for d in degrees for n in range(2 * (d - 1), 261)]
    for c in cells:
        assert c.weight == weight_elem(c.d, c.n)
        assert c.bound == 1 << (c.n - 2)
        assert c.below
    assert conjecture2_violations(cells) == []


def test_scan_conjecture2_includes_next_degree():
    cells = scan_conjecture2(188)
    assert {c.d for c in cells} == {63, 95}
    assert BoundCell(95, 188, weight_elem(95, 188), 1 << 186, True) in cells
    assert conjecture2_violations(cells) == []


def test_scan_conjecture2_empty_below_first_window():
    assert scan_conjecture2(100) == []


def test_scan_conjecture2_budget():
    with pytest.raises(BudgetError):
        scan_conjecture2(513)


def test_violation_helpers_catch_planted_cells():
    bad_balance = ScanCell(3, 5, 10, False, True)
    assert conjecture1_mismatches([bad_balance]) == [bad_balance]
    bad_bound = BoundCell(63, 124, 1 << 122, 1 << 122, False)
    assert conjecture2_violations([bad_bound]) == [bad_bound]


def test_quarter_weight_family():
    # X(2^t + 1, 2^(t+1) l) has weight exactly 2^(n-2)
    assert weight_elem(3, 4) == 4
    assert weight_elem(3, 8) == 64
    assert weight_elem(5, 8) == 64
    for t in (1, 2, 3):
        for ell in range(1, 5):
            n = (1 << (t + 1)) * ell
            assert weight_elem((1 << t) + 1, n) == 1 << (n - 2)


def test_weight_trig_wt2_anchors():
    series, corr = weight_trig_wt2(1, 6)
    assert round_real(series) == weight_elem(3, 6) == 20
    assert round_real(corr) == 8
    assert abs(corr - 8) < mpmath.mpf(2) ** -80

    series, corr = weight_trig_wt2(1, 8)
    assert corr == 0
    assert round_real(series) == weight_elem(3, 8) == 64

    series, _ = weight_trig_wt2(2, 10)
    assert round_real(series) == weight_elem(5, 10)


def test_weight_trig_wt2_round_trip():
    for t in range(1, 5):
        d = (1 << t) + 1
        for m in range(1 << (t + 1), 61):
            series, _ = weight_trig_wt2(t, m)
            exact = weight_elem(d, m)
            assert round_real(series) == exact
            assert abs(series - exact) < 0.25


def test_weight_trig_wt2_validation():
    with pytest.raises(ValueError):
        weight_trig_wt2(0, 8)
    with pytest.raises(ValueError):
        weight_trig_wt2(2, 7)


def test_weight_trig_wt3_anchors():
    assert round_real(weight_trig_wt3(1, 2, 12)) == weight_elem(7, 12) == 792
    assert round_real(weight_trig_wt3(1, 2, 14)) == weight_elem(7, 14) == 3432
    assert round_real(weight_trig_wt3(2, 3, 16)) == weight_elem(13, 16) == 576


def test_weight_trig_wt3_round_trip():
    for s in range(1, 4):
        for t in range(s + 1, 5):
            d = 1 + (1 << s) + (1 << t)
            for n in range(d, 41):
                value = weight_trig_wt3(s, t, n)
                exact = weight_elem(d, n)
                assert round_real(value) == exact
                assert abs(value - exact) < 0.25


def test_weight_trig_wt3_validation():
    with pytest.raises(ValueError):
        weight_trig_wt3(2, 2, 20)
    with pytest.raises(ValueError):
        weight_trig_wt3(0, 2, 20)
    with pytest.raises(ValueError):
        weight_trig_wt3(1, 2, 6)


def test_correction_sign_check():
    # The correction T of weight_trig_wt2 for m = r + 2^(t+1) variables,
    # T = 2^t (w - 2^(m-2)) with w = wt(X(2^t + 1, m)), carries the sign of
    # sin(r pi / 2^(t+1)): zero when 2^(t+1) divides r, else positive
    # exactly when r mod 2^(t+2) is below 2^(t+1).
    for t in range(1, 5):
        half = 1 << (t + 1)
        for r in range(0, 3 * half):
            m = r + half
            excess = weight_elem((1 << t) + 1, m) - (1 << (m - 2))
            sign = 0 if r % half == 0 else 1 if r % (2 * half) < half else -1
            assert (excess > 0) - (excess < 0) == sign


def test_correction_sign_check_uses_the_exact_sign():
    # A fixed 1e-6 * 2^m zero cutoff on T failed on 155 of the cells with
    # t <= 5 and r < 200, the first at (t, r) = (1, 35); the exact sign of
    # w - 2^(m-2) holds on all of them, with w from weight_elem and from
    # math.comb.
    for t in range(1, 8):
        half = 1 << (t + 1)
        for r in range(400):
            m = r + half
            excess = weight_elem((1 << t) + 1, m) - (1 << (m - 2))
            sign = 0 if r % half == 0 else 1 if r % (2 * half) < half else -1
            assert (excess > 0) - (excess < 0) == sign
            if t <= 5 and r < 200:
                assert oracles.elem_weight_dominating((1 << t) + 1, m) - (1 << (m - 2)) == excess


def test_quarter_weight_only_at_zero_residue():
    # d = 2^t + 1: the weight hits 2^(m-2) exactly when 2^(t+1) divides m
    for t in range(1, 5):
        d = (1 << t) + 1
        period = 1 << (t + 1)
        for m in range(period, 61):
            hit = weight_elem(d, m) == 1 << (m - 2)
            assert hit == (m % period == 0)


def test_strict_bound_between_powers():
    # odd j strictly inside (2^t + 1, 2^(t+1) + 1) stays under the quarter
    # weight at n = 2^(t+1) l
    for t in range(1, 5):
        for ell in range(1, 4):
            n = (1 << (t + 1)) * ell
            for j in range((1 << t) + 3, min((1 << (t + 1)) + 1, n + 1), 2):
                assert weight_elem(j, n) < 1 << (n - 2)


def test_quarter_weight_missed_by_inner_odd_degrees():
    # odd d with 2^t + 1 < d <= 2^(t+1) - 1 never hits 2^(n-2) when
    # n = 2^(t+1) l + r with l even and 0 <= r < 2^(t+1) + 2^t
    checked = 0
    for t in range(1, 4):
        period = 1 << (t + 1)
        for d in range((1 << t) + 3, (1 << (t + 1)), 2):
            for ell in range(2, 9, 2):
                for r in range(0, period + (1 << t)):
                    n = period * ell + r
                    if d <= n <= 64:
                        assert weight_elem(d, n) != 1 << (n - 2)
                        checked += 1
    assert checked > 100


def test_correction_shrinks_along_residue_classes():
    # relative to 2^(m-2), |T| decays within each residue class of m; the
    # zero test is exact because sin of an integer multiple of pi is an
    # exact zero in the arithmetic used
    for t in range(1, 5):
        period = 1 << (t + 1)
        for r in range(period):
            ratios = []
            for m in range(period + r, 61, period):
                _, corr = weight_trig_wt2(t, m)
                ratios.append(None if corr == 0 else abs(corr) / mpmath.mpf(2) ** (m - 2))
            if r == 0:
                assert all(x is None for x in ratios)
            else:
                assert all(x is not None for x in ratios)
                assert all(a > b for a, b in zip(ratios, ratios[1:]))
