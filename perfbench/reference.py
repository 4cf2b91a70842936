"""Independent expected answers and the answer checker.

Nothing here imports symbalance.  Expected values come from the standard
library: binomial rows anchored on math.comb, bitwise domination for the
weights of X(d, n), a frozen table of bisection counts, exact lacunary
sums, and closed-form or dynamic-programming census totals.  They are
computed once per run, outside the timed region.

`check(op, expect, outcome)` returns None for a correct answer and a
one-line reason otherwise.  An outcome is `(exit_code, stdout)` for a CLI
call and the returned value for a library call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

from workloads import Op

# Total signed bisections of row n (sign vectors delta with
# sum delta_i C(n, i) = 0), n = 0..32, computed by meet-in-the-middle
# subset-sum counting.  Nontrivial ones exist only at n = 8, 13, 14, 20,
# 24, 26, 29, 31 and 32.
BISECTION_TOTALS = (
    0, 2, 2, 4, 2, 8, 2, 16, 6, 32, 2, 64, 2, 144, 14, 256, 2, 512, 2, 1024,
    6, 2048, 2, 4096, 50, 8192, 6, 16384, 2, 34816, 2, 66176, 6)


def trivial_bisections(n: int) -> int:
    """Alternating signings for even n; antisymmetric ones for odd n."""
    if n == 0:
        return 0
    return 2 if n % 2 == 0 else 1 << ((n + 1) // 2)


def nontrivial_bisections(n: int) -> int:
    return BISECTION_TOTALS[n] - trivial_bisections(n)


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int/str digit limit while the checker parses answers;
    the program under test always runs with the default limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def binomial_row(n: int) -> list[int]:
    """Row n of Pascal's triangle by the multiplicative recurrence, anchored
    on math.comb at its middle entry."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    if row[n // 2] != math.comb(n, n // 2):
        raise AssertionError(f"binomial row {n} is wrong")
    return row


def elem_weight(d: int, row: list[int]) -> int:
    """Weight of X(d, n): C(n, i) summed over i whose bits contain d's."""
    return sum(c for i, c in enumerate(row) if i & d == d)


def walsh_by_weight(d: int, n: int) -> list[int]:
    """Walsh value of X(d, n) at a mask of weight y, for y = 0..n:
    sum over k of (-1)^v(k) [z^k] (1 - z)^y (1 + z)^(n - y), with the
    polynomial stepped from y to y + 1 by one exact division by (1 + z)
    and one multiplication by (1 - z)."""
    signs = [-1 if k & d == d else 1 for k in range(n + 1)]
    poly = [math.comb(n, k) for k in range(n + 1)]
    spectrum = []
    for y in range(n + 1):
        spectrum.append(sum(s * c for s, c in zip(signs, poly)))
        if y < n:
            quotient, carry = [], 0
            for c in poly[:-1]:
                carry = c - carry
                quotient.append(carry)
            poly = [a - b for a, b in zip(quotient + [0], [0] + quotient)]
    return spectrum


def sac_holds(d: int, n: int) -> bool:
    """Strict avalanche criterion of X(d, n) from its definition: flipping
    one input moves the weight from j to j + 1 (or back), so the derivative
    has weight 2 * sum_j C(n-1, j) [v(j) != v(j+1)], which must be 2^(n-1)."""
    row = binomial_row(n - 1)
    flips = sum(c for j, c in enumerate(row)
                if (j & d == d) != ((j + 1) & d == d))
    return 2 * flips == 1 << (n - 1)


def lacunary_sums(n: int, power: int, residues) -> list[tuple[int, int]]:
    row = binomial_row(n)
    return [(i, sum(row[i::1 << power])) for i in residues]


def compositions(p: int, n: int) -> list[tuple[int, ...]]:
    """Count vectors of length p summing to n, lexicographically ascending."""
    return [c for c in itertools.product(range(n + 1), repeat=p) if sum(c) == n]


def class_size(counts: tuple[int, ...]) -> int:
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def balanced_symmetric_count(p: int, n: int) -> int:
    """Value assignments to classes that put p^(n-1) inputs on each value.
    The state is the sorted tuple of per-value input counts; a transition
    adding a class to one of m equal buckets is weighted by m."""
    target = p ** (n - 1)
    states = Counter({(0,) * p: 1})
    for size in sorted((class_size(c) for c in compositions(p, n)), reverse=True):
        step = Counter()
        for state, ways in states.items():
            for value, mult in Counter(state).items():
                if value + size <= target:
                    nxt = list(state)
                    nxt[nxt.index(value)] += size
                    step[tuple(sorted(nxt))] += ways * mult
        states = step
    return states[(target,) * p]


def orbits(p: int, n: int) -> dict[tuple[int, ...], list[int]]:
    """Class indices (in composition order) grouped by sorted count vector."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for index, counts in enumerate(compositions(p, n)):
        groups.setdefault(tuple(sorted(counts)), []).append(index)
    return groups


def orbit_lower_bound(p: int, n: int) -> int:
    out = 1
    for members in orbits(p, n).values():
        size = len(members)
        out *= math.factorial(size) // math.factorial(size // p) ** p
    return out


def balanced_all_count(p: int, n: int) -> int:
    """(p^n)! / ((p^(n-1))!)^p as a product of binomials."""
    share = p ** (n - 1)
    return math.prod(math.comb(k * share, share) for k in range(1, p + 1))


# --- parsing program output -------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_rows(argv: tuple, stdout: str) -> list[dict]:
    """Result rows of a CLI answer as dicts of strings, for either format."""
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        payload = json.loads(stdout)
        if payload["command"] != argv[0]:
            raise ValueError(f"answer is for {payload['command']}")
        return [{k: _cell(v) for k, v in row.items()} for row in payload["results"]]
    return list(csv.DictReader(io.StringIO(stdout)))


def _rows(*dicts) -> list[dict]:
    return [{k: _cell(v) for k, v in row.items()} for row in dicts]


# --- expectations -----------------------------------------------------------

class Expect:
    """Expected exit code plus either exact rows or a row predicate."""

    def __init__(self, rows=None, exit_code: int = 0,
                 predicate: Optional[Callable[[list[dict]], Optional[str]]] = None):
        self.rows = rows
        self.exit_code = exit_code
        self.predicate = predicate


def _scan_c1(n_max: int) -> Expect:
    rows, bad = [], 0
    for n in range(2, n_max + 1):
        row = binomial_row(n)
        for d in range(2, n + 1):
            weight = elem_weight(d, row)
            balanced = weight == 1 << (n - 1)
            predicted = d & (d - 1) == 0 and (n + 1) % (2 * d) == 0
            bad += balanced != predicted
            rows.append({"d": d, "n": n, "weight": weight,
                         "balanced": balanced, "predicted": predicted})
    return Expect(_rows(*rows), 2 if bad else 0)


def _scan_c2(n_max: int) -> Expect:
    table = [binomial_row(n) for n in range(n_max + 1)]
    rows, bad = [], 0
    for d in range(2, n_max + 1):
        if d.bit_count() < 6 or 2 * (d - 1) > n_max:
            continue
        tops = [i for i in range(n_max + 1) if i & d == d]
        for n in range(2 * (d - 1), n_max + 1):
            weight = sum(table[n][i] for i in tops if i <= n)
            bound = 1 << (n - 2)
            bad += weight >= bound
            rows.append({"d": d, "n": n, "weight": weight, "bound": bound,
                         "below": weight < bound})
    return Expect(_rows(*rows), 2 if bad else 0)


def _bisect_enumerate(n: int, limit: int):
    row = binomial_row(n)
    order = {"-": 0, "+": 1}

    def predicate(rows: list[dict]) -> Optional[str]:
        if len(rows) != min(limit, nontrivial_bisections(n)):
            return f"{len(rows)} witnesses listed"
        keys = []
        for index, r in enumerate(rows):
            delta = r["delta"]
            if r["index"] != str(index) or len(delta) != n + 1 or set(delta) - set("+-"):
                return f"malformed witness {r}"
            signs = [1 if c == "+" else -1 for c in delta]
            if sum(s * c for s, c in zip(signs, row)):
                return f"witness {delta} does not bisect the row"
            alternating = all(signs[i] == signs[0] * (-1) ** i for i in range(n + 1))
            antisymmetric = all(signs[n - i] == -signs[i] for i in range(n + 1))
            if alternating if n % 2 == 0 else antisymmetric:
                return f"witness {delta} is trivial"
            keys.append([order[c] for c in delta])
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return "witnesses not in strict lexicographic order"
        return None

    return Expect(predicate=predicate)


def _generate(p: int, n: int, limit: int):
    sizes = [class_size(c) for c in compositions(p, n)]
    groups = list(orbits(p, n).values())
    share = p ** (n - 1)
    available = orbit_lower_bound(p, n)

    def predicate(rows: list[dict]) -> Optional[str]:
        if len(rows) != min(limit, available):
            return f"{len(rows)} functions generated"
        seen = set()
        for index, r in enumerate(rows):
            values = r["values"]
            if r["index"] != str(index) or len(values) != len(sizes):
                return f"malformed function {r}"
            if values in seen:
                return f"function {values} repeated"
            seen.add(values)
            digits = [int(c) for c in values]
            load = [0] * p
            for size, v in zip(sizes, digits):
                if v >= p:
                    return f"value {v} out of range"
                load[v] += size
            if load != [share] * p:
                return f"function {values} is not balanced"
            for members in groups:
                split = Counter(digits[i] for i in members)
                if sorted(split.values()) != [len(members) // p] * p:
                    return f"function {values} does not split an orbit evenly"
        return None

    return Expect(predicate=predicate)


def _expect_cli(argv: tuple) -> Expect:
    command, nums, flags = argv[0], [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--enumerate":
            flags[token] = True
        elif token.startswith("--"):
            flags[token] = next(tokens)
        else:
            nums.append(int(token))
    if command == "scan-c1":
        return _scan_c1(int(flags["--n-max"]))
    if command == "scan-c2":
        return _scan_c2(int(flags["--n-max"]))
    if command in ("weight", "balanced"):
        d, n = nums
        weight = elem_weight(d, binomial_row(n))
        row = {"d": d, "n": n, "weight": weight}
        if command == "balanced":
            row["balanced"] = weight == 1 << (n - 1)
        return Expect(_rows(row))
    if command == "sac":
        d, n = nums
        return Expect(_rows({"d": d, "n": n, "sac": sac_holds(d, n)}))
    if command == "walsh":
        d, n = nums
        return Expect(_rows(*({"y": y, "value": v}
                              for y, v in enumerate(walsh_by_weight(d, n)))))
    if command == "lacunary":
        n, power, *single = nums
        residues = single or range(1 << power)
        return Expect(_rows(*({"i": i, "exact": s, "trig": s}
                              for i, s in lacunary_sums(n, power, residues))))
    if command == "bisect":
        (n,) = nums
        if "--enumerate" in flags:
            return _bisect_enumerate(n, int(flags["--limit"]))
        return Expect(_rows({"n": n, "total": BISECTION_TOTALS[n],
                             "trivial": trivial_bisections(n),
                             "nontrivial": nontrivial_bisections(n)}))
    if command == "count":
        p, n = nums
        return Expect(_rows({"p": p, "n": n,
                             "symmetric": p ** math.comb(p + n - 1, n),
                             "balanced_all": balanced_all_count(p, n),
                             "balanced_symmetric": balanced_symmetric_count(p, n)}))
    if command == "lower-bound":
        p, n = nums
        return Expect(_rows({"p": p, "n": n, "bound": orbit_lower_bound(p, n)}))
    if command == "generate":
        p, n = nums
        return _generate(p, n, int(flags["--limit"]))
    raise ValueError(f"no reference for {command}")


def expected(op: Op):
    """The expectation for one operation: an Expect for CLI calls, the
    exact weight for the closed forms."""
    with unlimited_int_digits():
        if op.kind == "cli":
            return _expect_cli(op.args)
        if op.kind == "wt2":
            t, m = op.args
            return elem_weight((1 << t) + 1, binomial_row(m))
        if op.kind == "wt3":
            s, t, n = op.args
            return elem_weight(1 + (1 << s) + (1 << t), binomial_row(n))
    raise ValueError(f"unknown operation kind {op.kind}")


def round_mpf(x) -> int:
    """Nearest integer to an mpmath real, computed exactly from its
    mantissa and exponent."""
    man, exp = x.man_exp
    return round(Fraction(int(man)) * Fraction(2) ** int(exp))


def check(op: Op, expect, outcome) -> Optional[str]:
    """None when the outcome matches the expectation, else the reason."""
    with unlimited_int_digits():
        if op.kind == "wt2":
            got = round_mpf(outcome[0])
        elif op.kind == "wt3":
            got = round_mpf(outcome)
        else:
            code, stdout = outcome
            if code != expect.exit_code:
                return f"exit code {code}, expected {expect.exit_code}"
            try:
                rows = parse_rows(op.args, stdout)
            except (ValueError, KeyError) as exc:
                return f"unreadable answer: {exc}"
            if expect.predicate is not None:
                return expect.predicate(rows)
            if rows != expect.rows:
                return "answer rows differ from the reference"
            return None
    return None if got == expect else f"rounded closed form {got} != weight {expect}"
