import math
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import symbalance.symfun as symfun
from oracles import MultisetClass, enumerate_classes
from symbalance.cli import main
from symbalance.conjectures import _walk_sum
from symbalance.errors import InternalCheckError
from symbalance.exactnum import binom, pascal_row
from symbalance.symfun import (
    SymmetricFunction,
    WeightFunction,
    _check_row,
    _checked_walk,
    _class_sizes,
    _stepped_balance,
    elem_values,
    is_balanced_elem,
    weight_elem,
)


def test_class_count_and_total_size():
    for p in (2, 3, 5):
        for n in range(0, 7):
            classes = enumerate_classes(p, n)
            assert len(classes) == binom(p + n - 1, n)
            assert sum(c.size() for c in classes) == p ** n


def test_class_sizes_follow_the_class_records():
    # census counts from _class_sizes, which makes no class record
    for p, n in [(2, 0), (2, 5), (3, 4), (5, 3), (7, 2), (13, 1)]:
        assert list(_class_sizes(p, n)) == [c.size() for c in enumerate_classes(p, n)]


def test_enumerate_classes_rejects_composite():
    with pytest.raises(ValueError):
        enumerate_classes(4, 3)


def test_class_sizes_match_oracle():
    # every class once, lexicographically ascending on count vectors
    for p, n in [(2, 5), (3, 4), (5, 3), (7, 3), (89, 2), (983, 1)]:
        expected = {}
        for combo, size in oracles.symmetric_classes(p, n):
            counts = tuple(combo.count(s) for s in range(p))
            expected[counts] = size
        classes = enumerate_classes(p, n)
        assert [cls.counts for cls in classes] == sorted(expected)
        for cls in classes:
            assert cls.size() == expected[cls.counts]


def test_multiset_class_validation():
    MultisetClass(3, 4, (2, 1, 1))
    with pytest.raises(ValueError):
        MultisetClass(3, 4, (2, 1))
    with pytest.raises(ValueError):
        MultisetClass(3, 4, (2, 1, 2))
    with pytest.raises(ValueError):
        MultisetClass(3, 4, (-1, 4, 1))


def test_dominated():
    assert oracles.dominated(0, 0)
    assert oracles.dominated(5, 7)
    assert not oracles.dominated(2, 5)
    assert oracles.dominated(8, 12)
    with pytest.raises(ValueError):
        oracles.dominated(-1, 3)


def test_weight_elem_frozen_values():
    assert weight_elem(2, 3) == 4
    assert weight_elem(3, 5) == 10
    assert weight_elem(2, 7) == 64
    assert weight_elem(3, 6) == 20
    assert weight_elem(7, 12) == 792


def test_weight_elem_validation():
    with pytest.raises(ValueError):
        weight_elem(0, 5)
    with pytest.raises(ValueError):
        weight_elem(4, 3)


@pytest.mark.parametrize("n", range(1, 13))
def test_weight_elem_matches_truth_table(n):
    for d in range(1, n + 1):
        assert weight_elem(d, n) == oracles.elem_weight_comb(d, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_weight_elem_matches_monomial_evaluation(n):
    for d in range(1, n + 1):
        assert weight_elem(d, n) == sum(oracles.elem_truth_table(d, n))


def test_weight_elem_spot_large():
    # independent route at a size where truth tables are still feasible
    assert weight_elem(6, 20) == oracles.elem_weight_comb(6, 20)
    assert weight_elem(11, 20) == oracles.elem_weight_comb(11, 20)


@pytest.mark.parametrize("n", [4095, 4096, 4097, 4600])
def test_weight_and_balance_on_rows_near_4096(n):
    # degrees with at least four binary ones keep the oracle short
    for d in (15, 170, 1365):
        weight = oracles.elem_weight_dominating(d, n)
        assert weight_elem(d, n) == weight
        assert is_balanced_elem(d, n) == (weight == 1 << (n - 1))


def test_weight_elem_matches_the_dominance_oracle_up_to_200():
    for n in range(1, 201):
        for d in range(1, n + 1):
            assert weight_elem(d, n) == oracles.elem_weight_dominating(d, n)


@pytest.mark.parametrize("n", [4095, 4096, 4097, 4600])
def test_weight_elem_matches_comb_on_dense_and_sparse_degrees(n):
    # every C(n, i) once from math.comb, summed over the i dominating d
    row = [math.comb(n, i) for i in range(n + 1)]
    rng = random.Random(n)
    bits = n.bit_length()
    degrees = {1 << t for t in range(bits)} | {(1 << t) - 1 for t in range(1, bits)}
    degrees |= {sum(1 << b for b in rng.sample(range(bits - 1), k)) for k in range(1, 9)}
    for d in sorted(d for d in degrees if d <= n):
        expected = sum(c for i, c in enumerate(row) if oracles.dominated(d, i))
        assert weight_elem(d, n) == expected, d


def test_balanced_elem_dual_routes_agree():
    for n in range(1, 31):
        for d in range(1, n + 1):
            verdict = is_balanced_elem(d, n)
            assert verdict == (weight_elem(d, n) == 1 << (n - 1))


def test_balanced_elem_known_cells():
    assert is_balanced_elem(1, 5)
    assert is_balanced_elem(2, 3)
    assert is_balanced_elem(2, 7)
    assert is_balanced_elem(4, 7)
    assert not is_balanced_elem(2, 4)
    assert not is_balanced_elem(3, 7)
    # X(2^t, 2^(t+1) l - 1) past n = 4096
    assert is_balanced_elem(2, 4099)
    assert is_balanced_elem(4, 4095)


def test_odd_degree_above_one_never_balanced():
    for n in range(1, 26):
        for d in range(3, n + 1, 2):
            assert not is_balanced_elem(d, n)


def test_stepped_balance_matches_the_row_route_up_to_160():
    # The scans' route: one checked walk per degree, summed over its prefix.
    walks = {d: _checked_walk(d, 160) for d in range(1, 161)}
    for n in range(1, 161):
        row = pascal_row(n)
        _check_row(row)
        for d in range(1, n + 1):
            w = _walk_sum(walks[d], row)
            assert _stepped_balance(d, n) == (w, w == 1 << (n - 1)), (d, n)


def _assert_caught(capsys, d, n, check):
    with pytest.raises(InternalCheckError, match=f"{check} at d={d}, n={n}$"):
        _stepped_balance(d, n)
    assert main(["balanced", str(d), str(n)]) == 70
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal check failed: ")


def test_stepped_balance_catches_a_flipped_parity_byte(monkeypatch, capsys):
    # C(4091, 4) is even; the flipped byte puts 4091 in the mask's index set
    original = symfun._parity_mask

    def flipped(d, n):
        odd = bytearray(original(d, n))
        odd[4091] ^= 1
        return bytes(odd)

    monkeypatch.setattr(symfun, "_parity_mask", flipped)
    _assert_caught(capsys, 4, 4095, "dominance routes disagree")


def test_stepped_balance_catches_two_flipped_parity_bytes(monkeypatch, capsys):
    # C(4, 4) is odd and C(4091, 4) even; since 4091 = 4095 - 4, the flips
    # take C(4095, 4) out of a sum over the mask and put it back, so only
    # the index sets differ.
    original = symfun._parity_mask

    def flipped(d, n):
        odd = bytearray(original(d, n))
        odd[4] ^= 1
        odd[4091] ^= 1
        return bytes(odd)

    monkeypatch.setattr(symfun, "_parity_mask", flipped)
    _assert_caught(capsys, 4, 4095, "dominance routes disagree")


def test_stepped_balance_catches_a_dropped_dominating_index(monkeypatch, capsys):
    original = symfun._dominating
    monkeypatch.setattr(symfun, "_dominating",
                        lambda d, n: (i for i in original(d, n) if i != 2004))
    _assert_caught(capsys, 4, 4095, "dominance routes disagree")


def test_stepped_balance_catches_a_jump_off_by_two(monkeypatch, capsys):
    # The first jump, C(n, 0) to C(n, 2), comes out doubled.  The walk and
    # the mask still agree, so only the 2-adic guard sees it.
    d, n = 5, 4095
    slips = []

    def slipping(a, g):
        if a == n:
            slips.append(g)
            return 2 * math.perm(a, g)
        return math.perm(a, g)

    monkeypatch.setattr(symfun, "perm", slipping)
    _assert_caught(capsys, d, n, "fails its 2-adic check")
    assert slips == [2, 2]


def test_weight_catches_a_jump_off_by_two(monkeypatch, capsys):
    # weight_elem steps the same loop as the balance, so the first jump,
    # doubled, fails the same 2-adic guard.
    d, n = 5, 4095
    monkeypatch.setattr(symfun, "perm",
                        lambda a, g: 2 * math.perm(a, g) if a == n else math.perm(a, g))
    with pytest.raises(InternalCheckError, match=f"fails its 2-adic check at d={d}, n={n}$"):
        weight_elem(d, n)
    assert main(["weight", str(d), str(n)]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal check failed: stepped C(4095, 2047) fails its 2-adic check "
                   "at d=5, n=4095\n")


def test_balance_of_general_symmetric_function():
    # with n = 2 over GF(3): the class sizes, added per output value, give
    # the input count of every value, tallied input by input
    classes = enumerate_classes(3, 2)
    sizes = [c.size() for c in classes]
    for values in product(range(3), repeat=len(classes)):
        hist = [0, 0, 0]
        for v, s in zip(values, sizes):
            hist[v] += s
        assert oracles.output_histogram(3, 2, values) == tuple(hist)


def test_symmetric_function_validation():
    with pytest.raises(ValueError):
        SymmetricFunction(2, 3, (0, 1, 0))
    with pytest.raises(ValueError):
        SymmetricFunction(2, 3, (0, 1, 2, 0))


def test_weight_function_validation():
    with pytest.raises(ValueError):
        WeightFunction(3, (0, 1, 0))
    with pytest.raises(ValueError):
        WeightFunction(3, (0, 1, 2, 0))


@given(st.integers(min_value=1, max_value=16), st.data())
def test_anf_round_trip(n, data):
    # The ANF transform over GF(2) is its own inverse, and it takes X(d, n)
    # to the single coefficient d and back.
    bits = tuple(data.draw(st.lists(st.sampled_from((0, 1)), min_size=n + 1, max_size=n + 1)))
    assert oracles.domination_xor(oracles.domination_xor(bits)) == bits
    d = data.draw(st.integers(min_value=1, max_value=n))
    unit = tuple(int(j == d) for j in range(n + 1))
    assert oracles.domination_xor(unit) == elem_values(d, n).v


def test_domination_transform_matches_pairwise_oracle():
    # v(j) = C(j, d) mod 2 is the XOR over the monomial degrees j dominates,
    # here only d: the pairwise oracle on the unit vector at d gives the
    # values of X(d, n) for seeded d <= n = 300 and every power of two.
    rng = random.Random(0)
    n = 300
    for d in sorted({1 << t for t in range(9)} | set(rng.sample(range(1, n + 1), 24))):
        unit = tuple(int(j == d) for j in range(n + 1))
        assert elem_values(d, n).v == oracles.domination_xor(unit)


def test_anf_of_elementary_form_is_single_coefficient():
    # X(d, n) has ANF vector with a single 1 in position d
    for n in range(1, 11):
        for d in range(1, n + 1):
            expected = tuple(1 if j == d else 0 for j in range(n + 1))
            assert oracles.domination_xor(elem_values(d, n).v) == expected


def test_elem_values_match_parity():
    for n in range(1, 20):
        for d in range(1, n + 1):
            wf = elem_values(d, n)
            assert wf.v == tuple(math.comb(j, d) % 2 for j in range(n + 1))


def test_elem_values_match_lucas_for_every_degree():
    # the Kummer carry test against Lucas' theorem, 1 <= d <= n <= 300
    for d in range(1, 301):
        lucas = tuple(oracles.binom_mod_p(j, d, 2) for j in range(301))
        for n in range(d, 301):
            assert elem_values(d, n).v == lucas[:n + 1]


def test_weight_in_row_matches_the_dominance_filter():
    # A row summed over the prefix of one checked walk per degree, as the
    # scans read it.
    walks = [_checked_walk(d, 200) for d in range(201)]
    for n in range(201):
        row = tuple(math.comb(n, i) for i in range(n + 1))
        for d in range(n + 1):
            assert _walk_sum(walks[d], row) == sum(c for i, c in enumerate(row) if i & d == d)
