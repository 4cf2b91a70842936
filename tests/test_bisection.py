import functools
import math
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symbalance import bisection
from symbalance.bisection import SignVector, count_trivial, find_all_solutions
from symbalance.errors import BudgetError
from symbalance.symfun import is_balanced_elem

# nontrivial solution counts for every n <= 32 where any exist
NONTRIVIAL = {8: 4, 13: 16, 14: 12, 20: 4, 24: 48, 26: 4, 29: 2048, 31: 640, 32: 4}


def test_nontrivial_counts_frozen():
    for n, expected in NONTRIVIAL.items():
        assert find_all_solutions(n).nontrivial == expected


def test_no_other_nontrivial_up_to_32():
    for n in range(1, 33):
        report = find_all_solutions(n)
        assert report.nontrivial == NONTRIVIAL.get(n, 0)
        assert report.total == report.trivial + report.nontrivial


@pytest.mark.parametrize("n", range(1, 13))
def test_total_matches_literal_enumeration(n):
    assert find_all_solutions(n).total == oracles.bisection_count_literal(n)


@pytest.mark.parametrize("n", range(1, 21))
def test_total_matches_subset_sum_dp(n):
    assert find_all_solutions(n).total == oracles.bisection_count_dp(n)


def test_trivial_counts():
    for n in range(2, 30, 2):
        assert count_trivial(n) == 2
    for n in range(1, 30, 2):
        assert count_trivial(n) == 1 << ((n + 1) // 2)
    with pytest.raises(ValueError):
        count_trivial(0)


def test_n_zero_has_no_solutions():
    report = find_all_solutions(0)
    assert (report.total, report.trivial, report.nontrivial) == (0, 0, 0)


def test_trivial_solutions_are_solutions():
    # even n: the alternating signings; odd n: antisymmetric signings
    for n in (6, 12):
        for sign in (-1, 1):
            assert sum(sign * (-1) ** i * math.comb(n, i) for i in range(n + 1)) == 0
    for n in (5, 9):
        for half in product((-1, 1), repeat=(n + 1) // 2):
            delta = half + tuple(-half[n - i] for i in range((n + 1) // 2, n + 1))
            assert sum(d * math.comb(n, i) for i, d in enumerate(delta)) == 0


def test_trivial_count_matches_enumeration():
    # all solutions, less the nontrivial ones the product oracle lists
    for n in range(1, 13):
        nontrivial = sum(1 for _ in oracles.nontrivial_bisections_lex(n))
        assert oracles.bisection_count_literal(n) - nontrivial == count_trivial(n)


def test_witness_properties():
    report = find_all_solutions(14, enumerate_witnesses=True)
    assert report.witnesses is not None
    assert len(report.witnesses) == report.nontrivial == 12
    alt = tuple((-1) ** i for i in range(15))
    for sv in report.witnesses:
        assert sum(d * math.comb(14, i) for i, d in enumerate(sv.delta)) == 0
        assert sv.delta not in (alt, tuple(-d for d in alt))
    # lex order with -1 before +1, and no duplicates
    deltas = [sv.delta for sv in report.witnesses]
    assert deltas == sorted(deltas)
    assert len(set(deltas)) == len(deltas)


def test_witnesses_match_literal_enumeration():
    # odd n has 2^((n+1)/2) trivial solutions to skip, even n two
    for n in range(1, 15):
        row = [math.comb(n, i) for i in range(n + 1)]
        alt = tuple((-1) ** i for i in range(n + 1))
        expected = []
        for signs in product((-1, 1), repeat=n + 1):
            if n % 2:
                trivial = signs == tuple(-d for d in reversed(signs))
            else:
                trivial = signs in (alt, tuple(-d for d in alt))
            if sum(s * c for s, c in zip(signs, row)) == 0 and not trivial:
                expected.append(signs)
        report = find_all_solutions(n, enumerate_witnesses=True)
        assert [sv.delta for sv in report.witnesses] == expected


def test_witness_limit():
    report = find_all_solutions(13, enumerate_witnesses=True, witness_limit=5)
    assert len(report.witnesses) == 5
    assert find_all_solutions(13).witnesses is None


def test_a_witness_limit_past_sys_maxsize_caps_nothing():
    every = find_all_solutions(8, True).witnesses
    assert len(every) == 4
    assert find_all_solutions(8, True, 10 ** 20).witnesses == every


@functools.cache
def oracle_witnesses(n):
    return list(oracles.nontrivial_bisections_lex(n))


@pytest.mark.parametrize("n", range(33))
def test_witnesses_match_the_product_oracle(n):
    report = find_all_solutions(n, enumerate_witnesses=True)
    assert [sv.delta for sv in report.witnesses] == oracle_witnesses(n)
    assert len(report.witnesses) == report.nontrivial


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 32), st.integers(0, 40))
def test_witness_limit_takes_the_oracle_prefix(n, limit):
    witnesses = find_all_solutions(n, True, limit).witnesses
    assert [sv.delta for sv in witnesses] == oracle_witnesses(n)[:limit]
    for sv in witnesses:
        assert sum(d * math.comb(n, i) for i, d in enumerate(sv.delta)) == 0


def test_negative_witness_limit_is_refused_before_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work started on a negative limit")

    monkeypatch.setattr(bisection, "brute_count_balanced_symmetric", forbidden)
    monkeypatch.setattr(bisection, "_nontrivial_in_lex_order", forbidden)
    with pytest.raises(ValueError, match="witness_limit"):
        find_all_solutions(8, enumerate_witnesses=True, witness_limit=-1)
    with pytest.raises(ValueError, match="witness_limit"):
        find_all_solutions(8, witness_limit=-1)


def test_listing_at_the_cap_holds_little_memory():
    # The folded halves hold 3^8 sums each, where the unfolded ones held 2^16.
    tracemalloc.start()
    try:
        find_all_solutions(32, True, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_balanced_elementary_forms_give_solutions():
    # delta_j = (-1)^(C(j,d)) solves the signed sum iff X(d, n) is balanced
    for n in range(1, 25):
        for d in range(1, n + 1):
            delta = tuple(1 - 2 * (math.comb(j, d) % 2) for j in range(n + 1))
            solves = sum(s * math.comb(n, j) for j, s in enumerate(delta)) == 0
            assert solves == is_balanced_elem(d, n)


def test_bisection_from_solution():
    # the +1 positions of a solution carry half of the 2^n inputs
    for n in (8, 13, 14):
        for sv in find_all_solutions(n, enumerate_witnesses=True).witnesses:
            plus = [i for i, d in enumerate(sv.delta) if d == 1]
            assert sum(math.comb(n, i) for i in plus) == 1 << (n - 1)
    assert sum(math.comb(8, i) for i in range(0, 9, 2)) == 1 << 7


def test_sign_vector_validation():
    with pytest.raises(ValueError):
        SignVector(3, (1, -1, 1))
    with pytest.raises(ValueError):
        SignVector(3, (1, -1, 0, 1))


def test_search_budget():
    with pytest.raises(BudgetError):
        find_all_solutions(33)
    with pytest.raises(ValueError):
        find_all_solutions(-1)
