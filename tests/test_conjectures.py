import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import oracles
import symbalance
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


def exact_int(value) -> int:
    """The integer a closed form returned, which must be an integer mpf."""
    assert isinstance(value, mpmath.mpf) and mpmath.isint(value), value
    return int(value)


def wt2_exact(t: int, m: int) -> tuple[int, int]:
    return tuple(map(exact_int, weight_trig_wt2(t, m)))


# Sizes at which a 96-bit floating evaluation of the same cosine sums first
# rounds wrong, per t for wt2 and per (s, t) for wt3; the odd sizes 20 to 59
# past them are checked exactly.
WT2_FLOAT_FAIL_M = {2: 133, 4: 97}
WT3_FLOAT_FAIL_N = {(1, 3): 115, (2, 4): 95}


def test_weight_trig_wt2_anchors():
    assert wt2_exact(1, 6) == (weight_elem(3, 6), 8) == (20, 8)
    assert wt2_exact(1, 8) == (weight_elem(3, 8), 0) == (64, 0)
    assert wt2_exact(2, 10)[0] == weight_elem(5, 10)


def test_weight_trig_wt2_round_trip():
    # Every t <= 6, from m = 2^(t+1) to at least 60.
    for t in range(1, 7):
        d = (1 << t) + 1
        for m in range(1 << (t + 1), max(61, (1 << (t + 1)) + 25)):
            exact = weight_elem(d, m)
            assert wt2_exact(t, m) == (exact, (exact - (1 << (m - 2))) << t), (t, m)


@pytest.mark.parametrize("t, first", WT2_FLOAT_FAIL_M.items())
def test_weight_trig_wt2_is_exact_past_a_fixed_precision(t, first):
    for m in range((first + 20) | 1, first + 60, 2):
        exact = weight_elem((1 << t) + 1, m)
        assert wt2_exact(t, m) == (exact, (exact - (1 << (m - 2))) << t), m


def test_weight_trig_wt2_is_exact_at_t_8():
    exact = weight_elem(257, 600)
    assert wt2_exact(8, 600) == (exact, (exact - (1 << 598)) << 8)


def test_weight_trig_wt2_validation():
    with pytest.raises(ValueError, match="t must be at least 1"):
        weight_trig_wt2(0, 8)
    with pytest.raises(ValueError, match=r"m=7 must be at least 2\^\(t\+1\)=8"):
        weight_trig_wt2(2, 7)


def test_weight_trig_wt3_anchors():
    assert exact_int(weight_trig_wt3(1, 2, 12)) == weight_elem(7, 12) == 792
    assert exact_int(weight_trig_wt3(1, 2, 14)) == weight_elem(7, 14) == 3432
    assert exact_int(weight_trig_wt3(2, 3, 16)) == weight_elem(13, 16) == 576


def test_weight_trig_wt3_round_trip():
    for s in range(1, 4):
        for t in range(s + 1, 5):
            d = 1 + (1 << s) + (1 << t)
            for n in range(d, 41):
                assert exact_int(weight_trig_wt3(s, t, n)) == weight_elem(d, n), (s, t, n)


@pytest.mark.parametrize("s, t, first", [(s, t, n) for (s, t), n in WT3_FLOAT_FAIL_N.items()])
def test_weight_trig_wt3_is_exact_past_a_fixed_precision(s, t, first):
    d = 1 + (1 << s) + (1 << t)
    for n in range((first + 20) | 1, first + 60, 2):
        assert exact_int(weight_trig_wt3(s, t, n)) == weight_elem(d, n), n


def test_closed_forms_load_mpmath_but_not_fractions():
    # The weights are sums of integers; mpmath only holds the result.
    probe = "\n".join([
        "import sys",
        "from symbalance.conjectures import weight_trig_wt2, weight_trig_wt3",
        "weight_trig_wt2(2, 200), weight_trig_wt3(1, 3, 150)",
        "sys.exit(sorted({'mpmath', 'fractions'} & set(sys.modules)) != ['mpmath'])",
    ])
    src = os.path.dirname(os.path.dirname(symbalance.__file__))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_weight_trig_wt3_validation():
    with pytest.raises(ValueError, match="need 1 <= s < t"):
        weight_trig_wt3(2, 2, 20)
    with pytest.raises(ValueError, match="need 1 <= s < t"):
        weight_trig_wt3(0, 2, 20)
    with pytest.raises(ValueError, match="n=6 must be at least the degree 7"):
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
    # relative to 2^(m-2), |T| decays within each residue class of m, and T
    # is zero exactly on the class of 0
    for t in range(1, 5):
        period = 1 << (t + 1)
        for r in range(period):
            ratios = []
            for m in range(period + r, 61, period):
                _, corr = wt2_exact(t, m)
                ratios.append(None if corr == 0 else Fraction(abs(corr), 1 << (m - 2)))
            if r == 0:
                assert all(x is None for x in ratios)
            else:
                assert all(x is not None for x in ratios)
                assert all(a > b for a, b in zip(ratios, ratios[1:]))
