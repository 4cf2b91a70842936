import math
from collections import Counter
from itertools import islice, product

import pytest

import oracles
from symbalance.bisection import count_trivial
from symbalance.census import (
    MVector,
    _equal_partitions,
    _orbits,
    all_orbits_divisible,
    brute_count_balanced_symmetric,
    check_divisibility,
    count_balanced_all,
    count_symmetric,
    enumerate_mvectors,
    generate_balanced,
    lower_bound_balanced,
    mvector_of,
    orbit_size,
)
from symbalance.errors import BudgetError, OrbitSplitError
from symbalance.exactnum import binom, exact_div
from symbalance.symfun import enumerate_classes, is_balanced

# balanced symmetric function counts, exhaustively verified
BRUTE_COUNTS = {
    (2, 3): 4,
    (2, 14): 14,
    (2, 20): 6,
    (2, 24): 50,
    (3, 2): 36,
    (3, 4): 19440,
    (5, 2): 13608000,
    (7, 1): 5040,
}


def test_count_symmetric():
    assert count_symmetric(2, 3) == 16
    assert count_symmetric(3, 2) == 729
    for p in (2, 3, 5):
        for n in range(0, 6):
            assert count_symmetric(p, n) == p ** len(oracles.symmetric_classes(p, n))
    with pytest.raises(ValueError):
        count_symmetric(4, 3)


def test_count_balanced_all_formula():
    assert count_balanced_all(2, 2) == 6
    assert count_balanced_all(3, 1) == 6
    assert count_balanced_all(2, 3) == binom(8, 4)
    assert count_balanced_all(2, 4) == binom(16, 8)
    # the factorial quotient (p^n)! / ((p^(n-1))!)^p, for every p^n <= 2^12
    primes = [p for p in range(2, 1 << 12) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for p in primes:
        for n in range(1, 13):
            if p ** n > 1 << 12:
                break
            quotient = exact_div(math.factorial(p ** n), math.factorial(p ** (n - 1)) ** p)
            assert count_balanced_all(p, n) == quotient
    with pytest.raises(ValueError):
        count_balanced_all(2, 0)


@pytest.mark.parametrize("p, n", [(2, 14), (2, 16), (3, 9)])
def test_count_balanced_all_matches_the_product_of_binomials(p, n):
    share = p ** (n - 1)
    expected = math.prod(math.comb(k * share, share) for k in range(1, p + 1))
    assert count_balanced_all(p, n) == expected


def test_count_balanced_all_matches_enumeration():
    assert count_balanced_all(2, 2) == oracles.count_balanced_all_enumerate(2, 2)
    assert count_balanced_all(3, 1) == oracles.count_balanced_all_enumerate(3, 1)
    assert count_balanced_all(2, 3) == oracles.count_balanced_all_enumerate(2, 3)


def test_multinomial_product_identity():
    # prod_k C((k+1)a, a) telescopes to (pa)! / (a!)^p, the integrality
    # behind every balanced count in this module
    for p in (2, 3, 5, 7):
        for a in range(1, 13):
            left = math.prod(binom((k + 1) * a, a) for k in range(p))
            right = exact_div(math.factorial(p * a), math.factorial(a) ** p)
            assert left == right


def test_brute_counts_frozen():
    for (p, n), expected in BRUTE_COUNTS.items():
        assert brute_count_balanced_symmetric(p, n) == expected


def test_brute_count_matches_exhaustive_assignment():
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)]:
        assert brute_count_balanced_symmetric(p, n) == \
            oracles.count_balanced_symmetric_enumerate(p, n)


def test_brute_count_budget():
    with pytest.raises(BudgetError):
        brute_count_balanced_symmetric(3, 12)
    with pytest.raises(ValueError):
        brute_count_balanced_symmetric(2, 0)


def test_mvector_validation():
    MVector(3, 4, (1, 1, 0, 1, 0))
    MVector(3, 4, (0, 2, 1, 0, 0))
    MVector(3, 4, (2, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        MVector(3, 4, (1, 1, 0, 1))  # wrong length
    with pytest.raises(ValueError):
        MVector(3, 4, (2, 1, 0, 0, 1))  # multiplicities sum to 4, not p
    with pytest.raises(ValueError):
        MVector(3, 4, (1, 1, 1, 0, 0))  # weighted sum 3, not n


def test_enumerate_mvectors_matches_filter():
    for p in (2, 3, 5):
        for n in range(0, 6):
            found = {mv.m for mv in enumerate_mvectors(p, n)}
            expected = {
                m for m in product(range(p + 1), repeat=n + 1)
                if sum(m) == p and sum(l * q for l, q in enumerate(m)) == n}
            assert found == expected


def test_enumerate_mvectors_equals_the_grouped_classes_in_order():
    # One vector per orbit, in the same sorted order as the oracle's vectors
    # read off every class.
    for p, n_max in ((2, 16), (3, 12), (5, 8), (7, 6), (11, 5), (13, 5)):
        for n in range(n_max + 1):
            found = enumerate_mvectors(p, n)
            assert [mv.m for mv in found] == oracles.multiplicity_vectors(p, n)
            assert all((mv.p, mv.n) == (p, n) for mv in found)


def test_census_orbits_reach_large_n():
    # One partition per orbit, with no walk as deep as n.
    assert len(enumerate_mvectors(2, 1001)) == 501
    assert all_orbits_divisible(2, 4095)
    assert not all_orbits_divisible(3, 1002)


def test_census_orbits_refuse_a_bad_p_or_n():
    for p, n in ((4, 3), (1, 2), (2, -1), (3, -5)):
        with pytest.raises(ValueError):
            enumerate_mvectors(p, n)
        with pytest.raises(ValueError):
            all_orbits_divisible(p, n)
        with pytest.raises(ValueError):
            lower_bound_balanced(p, n)
        with pytest.raises(ValueError):
            next(generate_balanced(p, n))


def test_mvector_of_partitions_classes():
    # every class maps to one multiplicity vector; class counts per vector
    # equal the orbit size, and sizes add up over the whole census
    for p, n in [(2, 6), (3, 5), (5, 4), (5, 10)]:
        classes = enumerate_classes(p, n)
        grouped = Counter(mvector_of(cls) for cls in classes)
        assert set(grouped) == set(enumerate_mvectors(p, n))
        for mv, members in grouped.items():
            assert members == orbit_size(mv)
        assert sum(grouped.values()) == binom(p + n - 1, n)


def test_orbit_size_remark_instance():
    mv = MVector(7, 7, (3, 2, 1, 1, 0, 0, 0, 0))
    assert orbit_size(mv) == 420
    assert 420 % 7 == 0
    assert check_divisibility(mv)


def test_divisibility_when_parts_small():
    # p divides the orbit size whenever no multiplicity reaches p
    for p in (2, 3, 5, 7):
        for n in range(0, 13):
            for mv in enumerate_mvectors(p, n):
                if max(mv.m) < p:
                    assert check_divisibility(mv)


def test_all_orbits_divisible_iff_p_ndivides_n():
    for p in (2, 3, 5, 7):
        for n in range(1, 13):
            assert all_orbits_divisible(p, n) == (n % p != 0)


def test_lower_bound_values():
    assert lower_bound_balanced(2, 3) == 4
    assert lower_bound_balanced(2, 5) == 8
    assert lower_bound_balanced(3, 4) == 19440
    assert lower_bound_balanced(2, 1) == 2
    assert lower_bound_balanced(3, 1) == 6


def test_lower_bound_for_p_2_is_the_trivial_bisection_count():
    # The (n + 1)/2 orbits of p = 2 are pairs of classes, and splitting
    # each one is a choice of sign per pair of mirrored weight classes.
    for n in [*range(1, 302, 2), 995, 4095]:
        assert lower_bound_balanced(2, n) == count_trivial(n)


def test_lower_bound_requires_coprime():
    for p, n in [(2, 2), (2, 4), (3, 3), (5, 10)]:
        with pytest.raises(OrbitSplitError):
            lower_bound_balanced(p, n)


def test_lower_bound_is_a_lower_bound():
    for p, n in [(2, 1), (2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13),
                 (3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (7, 1)]:
        assert brute_count_balanced_symmetric(p, n) >= lower_bound_balanced(p, n)


def test_lower_bound_beats_affine_family():
    # a (sum of inputs) + b with a != 0 gives p(p-1) balanced symmetric
    # functions; the orbit-splitting bound must clear that benchmark
    for p, n in [(2, 3), (3, 2), (3, 4), (5, 2)]:
        assert lower_bound_balanced(p, n) > p * (p - 1)


def test_generate_balanced_full_run():
    for p, n in [(2, 3), (2, 5), (3, 2)]:
        fns = list(generate_balanced(p, n))
        assert len(fns) == lower_bound_balanced(p, n)
        assert len({f.values for f in fns}) == len(fns)
        for f in fns:
            assert f.p == p and f.n == n
            assert is_balanced(f)


def test_generate_balanced_limit_and_laziness():
    first = list(generate_balanced(3, 4, limit=4))
    assert len(first) == 4
    assert all(is_balanced(f) for f in first)
    stream = generate_balanced(3, 4)
    assert [f.values for f in islice(stream, 4)] == [f.values for f in first]


def test_generate_balanced_refuses_a_negative_limit():
    with pytest.raises(ValueError, match="non-negative"):
        next(generate_balanced(3, 2, limit=-2))
    assert list(generate_balanced(3, 2, limit=0)) == []


def test_generate_balanced_rejects_split_failure():
    with pytest.raises(OrbitSplitError):
        next(generate_balanced(2, 4))


@pytest.mark.parametrize("p, n", [(2, 3), (2, 5), (2, 7), (3, 2), (3, 4), (5, 2), (7, 1)])
def test_generate_balanced_walks_every_split_with_the_last_orbit_fastest(p, n):
    # itertools.product over each orbit's listed splits is the same odometer.
    orbits = _orbits(p, n)
    expected = []
    for splits in islice(product(*(list(_equal_partitions(o, p)) for o in orbits)), 5000):
        values = [0] * binom(p + n - 1, n)
        for split in splits:
            for value, group in enumerate(split):
                for idx in group:
                    values[idx] = value
        expected.append(tuple(values))
    assert [f.values for f in generate_balanced(p, n, limit=5000)] == expected


def test_generated_functions_are_deterministic():
    a = [f.values for f in generate_balanced(2, 5)]
    b = [f.values for f in generate_balanced(2, 5)]
    assert a == b
