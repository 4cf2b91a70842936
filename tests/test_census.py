import math
import tracemalloc
from itertools import islice, permutations, product

import pytest

import oracles
import symbalance.census as census
from oracles import enumerate_classes, multinomial
from symbalance.bisection import count_trivial
from symbalance.census import (
    _equal_partitions,
    _orbit_walk,
    _orbits,
    _split_orbit_sizes,
    all_orbits_divisible,
    brute_count_balanced_symmetric,
    count_balanced_all,
    count_symmetric,
    generate_balanced,
    lower_bound_balanced,
)
from symbalance.errors import BudgetError, InternalCheckError, OrbitSplitError
from symbalance.exactnum import binom, exact_div
from symbalance.symfun import SymmetricFunction

# balanced symmetric function counts, exhaustively verified
BRUTE_COUNTS = {
    (2, 3): 4,
    (2, 14): 14,
    (2, 16): 2,
    (2, 20): 6,
    (2, 24): 50,
    (3, 2): 36,
    (3, 4): 19440,
    (3, 7): 4607848058400,
    (3, 8): 5113518240381120,
    (3, 9): 6462858787021871160,
    (5, 2): 13608000,
    (5, 3): 39830527082946600000,
    (7, 1): 5040,
    (7, 2): 919847209881600000,
    (13, 1): 6227020800,
}

# Every (p, n) the labeled-fill oracle reaches in a few seconds in all.
FILL_DP_SIZES = ([(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 8)]
                 + [(5, n) for n in range(1, 4)] + [(7, 1), (7, 2), (11, 1), (13, 1)])


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


@pytest.mark.parametrize("p, n", FILL_DP_SIZES)
def test_brute_count_matches_the_labeled_fill_dp(p, n):
    assert brute_count_balanced_symmetric(p, n) == oracles.count_balanced_symmetric_fills(p, n)


def test_brute_count_keeps_one_layer():
    # The DP holds one layer of sorted fills at a time, not every state
    # it has seen.
    tracemalloc.start()
    try:
        assert brute_count_balanced_symmetric(3, 9) == BRUTE_COUNTS[3, 9]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3e6


def test_brute_count_budget():
    with pytest.raises(BudgetError):
        brute_count_balanced_symmetric(3, 12)
    with pytest.raises(ValueError):
        brute_count_balanced_symmetric(2, 0)


def test_brute_count_cap_is_strict(monkeypatch):
    # p = 2 has n + 1 classes, so at a 12-bit cap (2, 11) fills it exactly
    # and answers, and (2, 12) is one bit past it.
    monkeypatch.setattr(census, "BRUTE_MAX_BITS", 12)
    assert brute_count_balanced_symmetric(2, 11) == 64
    with pytest.raises(BudgetError) as caught:
        brute_count_balanced_symmetric(2, 12)
    assert str(caught.value) == "assignment space p^13 exceeds the 2^12 cap"


def _partitions(n, p):
    """The partitions _orbit_walk steps through, as tuples of parts."""
    for parts, multiplicities in _orbit_walk(n, p):
        yield tuple(part for part, count in zip(parts, multiplicities[1:])
                    for _ in range(count))


def _partition_of(m):
    """The partition of the orbit with multiplicity vector m (m[l] symbols
    appear exactly l times): each count l >= 1, m[l] times, descending."""
    return tuple(l for l in reversed(range(1, len(m))) for _ in range(m[l]))


def test_enumerate_mvectors_matches_filter():
    # One orbit per partition: the partitions are those of every vector
    # with sum p and weighted sum n, each once.
    for p in (2, 3, 5):
        for n in range(0, 6):
            found = list(_partitions(n, p))
            expected = {
                _partition_of(m) for m in product(range(p + 1), repeat=n + 1)
                if sum(m) == p and sum(l * q for l, q in enumerate(m)) == n}
            assert len(found) == len(expected)
            assert set(found) == expected


def test_enumerate_mvectors_equals_the_grouped_classes_in_order():
    # One partition per orbit, in descending lex order, whose vectors are
    # the oracle's vectors read off every class.
    for p, n_max in ((2, 16), (3, 12), (5, 8), (7, 6), (11, 5), (13, 5)):
        for n in range(n_max + 1):
            found = list(_partitions(n, p))
            expected = sorted(map(_partition_of, oracles.multiplicity_vectors(p, n)),
                              reverse=True)
            assert found == expected


def test_census_orbits_reach_large_n():
    # One partition per orbit, with no walk as deep as n.
    assert sum(1 for _ in _partitions(1001, 2)) == 501
    assert all_orbits_divisible(2, 4095)
    assert not all_orbits_divisible(3, 1002)


def test_census_orbits_refuse_a_bad_p_or_n():
    for p, n in ((4, 3), (1, 2), (2, -1), (3, -5)):
        with pytest.raises(ValueError):
            next(_partitions(n, p))
        with pytest.raises(ValueError):
            all_orbits_divisible(p, n)
        with pytest.raises(ValueError):
            lower_bound_balanced(p, n)
        with pytest.raises(ValueError):
            next(generate_balanced(p, n))


def test_mvector_of_partitions_classes():
    # The classes grouped by _orbits are the orbits of the partitions: each
    # group's key is its partition, padded and reversed, and it holds the
    # multinomial p! / prod m_l! of classes; the sizes add up to the census.
    for p, n in [(2, 6), (3, 5), (5, 4), (5, 10)]:
        classes = enumerate_classes(p, n)
        orbits = _orbits(p, n)
        by_partition = {}
        for orbit in orbits:
            keys = {tuple(sorted(classes[idx].counts, reverse=True)) for idx in orbit}
            assert len(keys) == 1
            (key,) = keys
            by_partition[tuple(q for q in key if q)] = len(orbit)
        assert sorted(by_partition, reverse=True) == list(_partitions(n, p))
        for parts, members in by_partition.items():
            assert members == multinomial(p, oracles.multiplicities(parts, p))
        assert sorted(idx for orbit in orbits for idx in orbit) == list(range(len(classes)))
        assert len(classes) == binom(p + n - 1, n)


def test_orbit_size_remark_instance():
    # Counts (3, 2, 1, 1) over p = 7: multiplicities 3, 1, 1, 2, orbit 420.
    assert oracles.multiplicities((3, 2, 1, 1), 7) == [3, 1, 1, 2]
    size = multinomial(7, oracles.multiplicities((3, 2, 1, 1), 7))
    assert size == 420
    assert size % 7 == 0
    assert (3, 2, 1, 1) in _partitions(7, 7)


def test_divisibility_when_parts_small():
    # p divides the orbit size whenever no multiplicity reaches p
    for p in (2, 3, 5, 7):
        for n in range(0, 13):
            for parts in _partitions(n, p):
                m = oracles.multiplicities(parts, p)
                assert sum(m) == p
                if max(m) < p:
                    assert multinomial(p, m) % p == 0


def _count_partitions(n, p):
    """Partitions of n into at most p parts, by the recurrence over the
    largest part: q(n, p) = q(n, p - 1) + q(n - p, p)."""
    table = [1] + [0] * n
    for parts in range(1, p + 1):
        for m in range(parts, n + 1):
            table[m] += table[m - parts]
    return table[n]


@pytest.mark.parametrize("p, n", [(2, 1000), (3, 300), (5, 80), (7, 40), (13, 30),
                                  (31, 25), (101, 20)])
def test_orbit_walk_keeps_the_multiplicities_of_each_partition(p, n):
    # The multiplicities kept as the walk steps are those read off each
    # partition, and the orbit sizes are the multinomials of them.
    walked = [(tuple(parts), list(multiplicities)) for parts, multiplicities in _orbit_walk(n, p)]
    partitions = list(_partitions(n, p))
    assert len(walked) == len(partitions) == _count_partitions(n, p)
    assert partitions == sorted(set(partitions), reverse=True)
    for (parts, multiplicities), partition in zip(walked, partitions):
        assert parts == tuple(sorted(set(partition), reverse=True))
        assert multiplicities == oracles.multiplicities(partition, p)
    if n % p:
        sizes = [multinomial(p, oracles.multiplicities(partition, p)) for partition in partitions]
        assert _split_orbit_sizes(p, n) == sizes


def test_all_orbits_divisible_iff_p_ndivides_n():
    for p in (2, 3, 5, 7):
        for n in range(1, 13):
            assert all_orbits_divisible(p, n) == (n % p != 0)


def test_orbit_split_routes_are_compared(monkeypatch):
    # The gcd decides, and on a coprime pair the multiplicities must agree
    # with it: one reaching p is a fault.
    monkeypatch.setattr(census, "_orbit_walk", lambda n, p: iter([([n], [p])]))
    for check in (all_orbits_divisible, lower_bound_balanced):
        with pytest.raises(InternalCheckError, match="disagree at p=2, n=5"):
            check(2, 5)


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
            assert oracles.output_histogram(p, n, f.values) == (p ** (n - 1),) * p


def test_generated_functions_pass_the_constructor_checks():
    # generate_balanced makes its records without SymmetricFunction's
    # checks; each must pass them.
    for p, n in [(2, 3), (2, 7), (3, 4), (5, 3), (7, 2)]:
        for f in generate_balanced(p, n, limit=40):
            assert type(f) is SymmetricFunction
            assert SymmetricFunction(p, n, f.values) == f


def test_generate_balanced_limit_and_laziness():
    first = list(generate_balanced(3, 4, limit=4))
    assert len(first) == 4
    assert all(oracles.output_histogram(3, 4, f.values) == (27, 27, 27) for f in first)
    stream = generate_balanced(3, 4)
    assert [f.values for f in islice(stream, 4)] == [f.values for f in first]


def test_generate_balanced_refuses_a_negative_limit():
    with pytest.raises(ValueError, match="non-negative"):
        next(generate_balanced(3, 2, limit=-2))
    assert list(generate_balanced(3, 2, limit=0)) == []


def test_generate_balanced_reads_a_limit_past_sys_maxsize_as_no_cap():
    every = [f.values for f in generate_balanced(3, 2)]
    assert len(every) == 36
    assert [f.values for f in generate_balanced(3, 2, limit=10 ** 20)] == every


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


@pytest.mark.parametrize("size, p", [(2, 2), (4, 2), (6, 2), (6, 3), (8, 2), (9, 3), (5, 5), (7, 7)])
def test_equal_partitions_list_every_split_once_in_lex_order(size, p):
    # Chunk every ordering of the members into p runs of equal size, each
    # run sorted: the distinct results, sorted, are all the splits in order.
    members = list(range(10, 10 + 3 * size, 3))
    share = size // p
    expected = sorted({tuple(tuple(sorted(order[k * share:(k + 1) * share])) for k in range(p))
                       for order in permutations(members)})
    assert list(_equal_partitions(members, p)) == expected


def test_generated_functions_are_deterministic():
    a = [f.values for f in generate_balanced(2, 5)]
    b = [f.values for f in generate_balanced(2, 5)]
    assert a == b
