"""Independent oracles for the test suite.

Everything here is written from definitions using only the standard
library and numpy, with no imports from the package under test.  The
implementations favor transparency over speed; tests freeze their
outputs or compare them directly against the package at small sizes.
"""

import math
from collections import Counter, namedtuple
from itertools import combinations, combinations_with_replacement, groupby, product

import numpy as np


def elem_poly_value(x_bits, d):
    """X(d, n) at one point, summed monomial by monomial over GF(2)."""
    ones = [i for i, b in enumerate(x_bits) if b]
    return sum(1 for _ in combinations(ones, d)) % 2


def elem_truth_table(d, n):
    """Truth table of X(d, n) over all 2^n inputs, monomial by monomial."""
    return [elem_poly_value(x, d) for x in product((0, 1), repeat=n)]


def elem_weight_comb(d, n):
    """Weight of X(d, n) via output values C(popcount, d) mod 2."""
    return sum(math.comb(bin(x).count("1"), d) % 2 for x in range(1 << n))


def elem_weight_dominating(d, n):
    """Weight of X(d, n) as the sum of C(n, i) over the i whose binary
    digits dominate those of d, each C(n, i) from math.comb."""
    return sum(math.comb(n, i) for i in range(d, n + 1) if dominated(d, i))


def domination_xor(bits):
    """out(i) = XOR of bits(j) over every j <= i whose binary digits are
    dominated by those of i, one pair (i, j) at a time."""
    out = []
    for i in range(len(bits)):
        acc = 0
        for j in range(i + 1):
            if j & i == j:
                acc ^= bits[j]
        out.append(acc)
    return tuple(out)


def walsh_direct(table, w):
    """Walsh value at mask w straight from the definition."""
    total = 0
    for x, fx in enumerate(table):
        total += (-1) ** (fx ^ (bin(x & w).count("1") & 1))
    return total


def walsh_all(table):
    """Walsh values at every mask at once, by the butterfly on the sign
    table (-1)^f(x): stage b combines the entries whose indices differ in
    bit b only.  Assumes nothing about symmetry."""
    signs = 1 - 2 * np.asarray(table, dtype=np.int64)
    for b in range(signs.size.bit_length() - 1):
        pairs = signs.reshape(-1, 2, 1 << b)
        signs = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)
    return signs.ravel().tolist()


def sac_direct(table, n):
    """Definitional strict avalanche criterion: each single-bit flip changes
    the output on exactly half the inputs."""
    values = np.asarray(table)
    inputs = np.arange(1 << n)
    return all(int(np.count_nonzero(values != values[inputs ^ (1 << b)])) == 1 << (n - 1)
               for b in range(n))


def krawtchouk_poly(k, y, n):
    """Krawtchouk value via the generating polynomial (1-z)^y (1+z)^(n-y)."""
    coeffs = [1]
    for _ in range(y):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for _ in range(n - y):
        coeffs = [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[k] if 0 <= k < len(coeffs) else 0


def bisection_count_literal(n):
    """Number of sign vectors with zero weighted sum, by full enumeration."""
    row = [math.comb(n, i) for i in range(n + 1)]
    return sum(1 for signs in product((-1, 1), repeat=n + 1)
               if sum(s * c for s, c in zip(signs, row)) == 0)


def bisection_count_dp(n):
    """Same count via a subset-sum table: solutions pick the subset of the
    binomial row carrying the plus sign, which must sum to 2^(n-1)."""
    table = np.zeros((1 << n) + 1, dtype=np.int64)
    table[0] = 1
    for i in range(n + 1):
        c = math.comb(n, i)
        shifted = np.zeros_like(table)
        shifted[c:] = table[: len(table) - c]
        table = table + shifted
    return int(table[1 << (n - 1)])


def nontrivial_bisections_lex(n):
    """Nontrivial sign vectors of row n with zero weighted sum, in lex
    order (-1 before +1): the low prefix of ceil(n/2) signs runs through
    itertools.product, and the high suffixes are grouped by their sum.  A
    prefix's trivial suffix (its antisymmetric mirror for odd n, the rest
    of an alternating vector for even n) is skipped."""
    row = [math.comb(n, i) for i in range(n + 1)]
    cut = -(-n // 2)
    by_sum = {}
    for hi in product((-1, 1), repeat=n + 1 - cut):
        s = sum(d * w for d, w in zip(hi, row[cut:]))
        by_sum.setdefault(s, []).append(hi)
    alt = tuple((-1) ** i for i in range(n + 1))
    ends = {tuple(s * d for d in alt[:cut]): tuple(s * d for d in alt[cut:]) for s in (-1, 1)}
    for lo in product((-1, 1), repeat=cut):
        s = sum(d * w for d, w in zip(lo, row[:cut]))
        trivial = tuple(-d for d in reversed(lo)) if n % 2 else ends.get(lo)
        for hi in by_sum.get(-s, ()):
            if hi != trivial:
                yield lo + hi


def dominated(j, i):
    """True when every base-2 digit of j is at most the matching digit of i."""
    if j < 0 or i < 0:
        raise ValueError("arguments must be non-negative")
    return j & i == j


def symmetric_classes(p, n):
    """Multiset classes as sorted symbol tuples with their orbit sizes."""
    classes = []
    for combo in combinations_with_replacement(range(p), n):
        size = math.factorial(n)
        for mult in Counter(combo).values():
            size //= math.factorial(mult)
        classes.append((combo, size))
    return classes


def output_histogram(p, n, values):
    """Input count per output value of the symmetric function taking
    values[k] on the k-th count vector in ascending lex order, tallied one
    input at a time over all p^n inputs."""
    def counts(x):
        return tuple(x.count(s) for s in range(p))

    vectors = sorted({counts(x) for x in product(range(p), repeat=n)})
    index = {vec: k for k, vec in enumerate(vectors)}
    hist = [0] * p
    for x in product(range(p), repeat=n):
        hist[values[index[counts(x)]]] += 1
    return tuple(hist)


def count_balanced_symmetric_enumerate(p, n):
    """Count balanced symmetric functions by trying every assignment of
    output values to multiset classes."""
    sizes = [size for _, size in symmetric_classes(p, n)]
    share = p ** (n - 1)
    total = 0
    for assignment in product(range(p), repeat=len(sizes)):
        buckets = [0] * p
        for value, size in zip(assignment, sizes):
            buckets[value] += size
        if all(b == share for b in buckets):
            total += 1
    return total


def count_balanced_symmetric_fills(p, n):
    """Count balanced symmetric functions by a DP over labeled bucket
    fills: each class in turn goes to every value whose input count stays
    within p^(n-1), and the Counter keeps one entry per unsorted tuple of
    counts, so no two states stand for each other."""
    share = p ** (n - 1)
    fills = Counter({(0,) * p: 1})
    for _, size in symmetric_classes(p, n):
        raised = Counter()
        for state, ways in fills.items():
            for value, filled in enumerate(state):
                if filled + size <= share:
                    raised[state[:value] + (filled + size,) + state[value + 1:]] += ways
        fills = raised
    return fills[(share,) * p]


def count_balanced_all_enumerate(p, n):
    """Count balanced functions among all p^(p^n) functions."""
    inputs = p ** n
    share = p ** (n - 1)
    total = 0
    for table in product(range(p), repeat=inputs):
        counts = Counter(table)
        if all(counts[v] == share for v in range(p)):
            total += 1
    return total


def lacunary_sum_direct(n, power, i):
    """Sum of C(n, j) over j congruent to i mod 2^power."""
    step = 1 << power
    return sum(math.comb(n, j) for j in range(i, n + 1, step))


def krawtchouk(k, y, n):
    """P_k(y, n) = sum_j (-1)^j C(y, j) C(n-y, k-j), one value at a time."""
    return sum((-1) ** j * math.comb(y, j) * math.comb(n - y, k - j) for j in range(k + 1))


def binom_mod_p(n, k, p):
    """C(n, k) mod a prime p by Lucas' theorem, one base-p digit at a time."""
    out = 1
    while n or k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        out = out * math.comb(nd, kd) % p
    return out


def multiplicity_vectors(p, n):
    """The multiplicity vectors (m[l] = how many symbols appear exactly l
    times) of the classes of symmetric_classes(p, n), each once, sorted."""
    found = set()
    for combo, _ in symmetric_classes(p, n):
        counts = Counter(combo)
        found.add(tuple(sum(1 for s in range(p) if counts[s] == l) for l in range(n + 1)))
    return sorted(found)


def multiplicities(parts, p):
    """How many symbols share each count of a partition's orbit: the
    p - len(parts) absent symbols, then one entry per distinct part."""
    return [p - len(parts), *(len(list(run)) for _, run in groupby(parts))]


def multinomial(n, parts):
    """n! / (parts[0]! ... parts[-1]!) for non-negative parts summing to n,
    from factorials."""
    if any(q < 0 for q in parts):
        raise ValueError("parts must be non-negative")
    if sum(parts) != n:
        raise ValueError(f"parts {tuple(parts)} do not sum to n={n}")
    out = math.factorial(n)
    for q in parts:
        out //= math.factorial(q)
    return out


class MultisetClass(namedtuple("MultisetClass", "p n counts")):
    """One permutation orbit of inputs: counts[l] coordinates equal l."""

    __slots__ = ()

    def __new__(cls, p, n, counts):
        if len(counts) != p:
            raise ValueError("counts must have one entry per symbol")
        if any(c < 0 for c in counts) or sum(counts) != n:
            raise ValueError("counts must be non-negative and sum to n")
        return super().__new__(cls, p, n, counts)

    def size(self):
        """Number of input vectors in the class."""
        return multinomial(self.n, self.counts)


def enumerate_classes(p, n):
    """All multiset classes of n inputs over a prime p, lexicographically
    ascending on count vectors: one per sorted symbol tuple."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")
    if n < 0:
        raise ValueError("n must be non-negative")
    vectors = sorted(tuple(combo.count(s) for s in range(p))
                     for combo in combinations_with_replacement(range(p), n))
    return [MultisetClass(p, n, c) for c in vectors]
