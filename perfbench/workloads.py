"""Seeded operation lists for the two benchmark workloads.

An operation is either one `symbalance.cli.main` call (an argv list) or one
direct call of a library-only closed form.  Every list is built from the
workload name and the seed alone, so the same seed always gives the same
inputs.  Sizes are drawn stratified (one draw per fixed size band) so the
total work of a list barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("scan-rows", "forms-census")

# The row-cache limit of the seed's binom: rows above it go to math.comb.
ROW_CACHE_LIMIT = 4096

# The seed's 96-bit closed forms, measured on the seed, per power, t, or
# (s, t): *_FAIL_* is the first size whose rounding goes wrong, and
# *_SAFE_* the largest size drawn inside the route, a margin below it.
LACUNARY_SAFE_N = {2: 180, 3: 120, 4: 105, 5: 88, 6: 88, 7: 88, 8: 88,
                   9: 88, 10: 88, 11: 88, 12: 88}
LACUNARY_FAIL_N = {2: 193, 3: 130, 4: 113, 5: 96, 6: 95, 7: 97, 8: 98,
                   9: 99, 10: 98, 11: 98, 12: 100}
WT2_SAFE_M = {1: 180, 2: 120, 3: 100, 4: 88, 5: 84}
WT3_SAFE_N = {(1, 2): 120, (1, 3): 105, (2, 3): 105, (1, 4): 90, (2, 4): 86,
              (3, 4): 86}
WT2_FAIL_M = {1: 195, 2: 133, 3: 113, 4: 97, 5: 93}
WT3_FAIL_N = {(1, 2): 131, (1, 3): 115, (2, 3): 117, (1, 4): 99, (2, 4): 95,
              (3, 4): 94}


@dataclass(frozen=True)
class Op:
    """kind "cli" carries an argv tuple; "wt2" carries (t, m) for
    weight_trig_wt2 and "wt3" carries (s, t, n) for weight_trig_wt3.
    past_limit marks a closed-form call past the seed's 96-bit route: a
    wrong value there counts as a failed operation, not a wrong answer."""

    kind: str
    args: tuple
    past_limit: bool = False

    def label(self) -> str:
        if self.kind == "cli":
            return " ".join(self.args)
        return f"{self.kind} " + " ".join(map(str, self.args))


def _cli(rng: random.Random, *argv) -> Op:
    return Op("cli", tuple(str(a) for a in argv) + ("--format", rng.choice(("json", "csv"))))


def _bands(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """`count` adjacent bands covering lo..hi inclusive."""
    width = hi - lo + 1
    return [(lo + k * width // count, lo + (k + 1) * width // count - 1)
            for k in range(count)]


def _degree(rng: random.Random, command: str, n: int) -> int:
    """A degree in the lowest quarter of 1..n (2.. for sac).  weight_elem
    walks i from d to n, so this keeps the work near n per query."""
    return rng.randint(2 if command == "sac" else 1, n // 4)


def _low_degree(rng: random.Random, bits: int) -> int:
    """A degree below 256 with exactly `bits` binary ones."""
    return sum(1 << b for b in rng.sample(range(8), bits))


def scan_grid(rng: random.Random) -> list[Op]:
    ops = [_cli(rng, "scan-c1", "--n-max", 64), _cli(rng, "scan-c2", "--n-max", 512)]
    for command in ("weight", "balanced", "sac"):
        for lo, hi in _bands(8, 512, 40):
            n = rng.randint(lo, hi)
            ops.append(_cli(rng, command, _degree(rng, command, n), n))
    # A spectrum costs about n^3 whatever d is, so n is fixed and d drawn.
    for n in range(2, 65, 2):
        ops.append(_cli(rng, "walsh", rng.randint(1, n), n))
    return ops


def wide_rows(rng: random.Random) -> list[Op]:
    ops = []
    commands = ("weight", "balanced", "sac")
    below = [rng.randint(lo, hi) for lo, hi in _bands(1024, ROW_CACHE_LIMIT, 64)]
    below += rng.sample(below, 12)  # a few rows are asked for twice
    for k, n in enumerate(below):
        command = commands[k % 3]
        ops.append(_cli(rng, command, _degree(rng, command, n), n))
    # Past the limit every binom is a math.comb call.  A weight query makes
    # about (n - d) / 2^popcount(d) of them, so d is small with a fixed
    # popcount.
    for lo, hi in _bands(ROW_CACHE_LIMIT + 1, 4600, 24):
        ops.append(_cli(rng, "weight", _low_degree(rng, 5), rng.randint(lo, hi)))
    return ops


def closed_forms(rng: random.Random) -> list[Op]:
    ops = []
    # All residues: cost grows as 4^power, so each power has a fixed quota.
    # n starts at 60 so the cost of the n-th powers barely depends on it.
    for power, count in ((2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 1)):
        for _ in range(count):
            ops.append(_cli(rng, "lacunary", rng.randint(60, LACUNARY_SAFE_N[power]), power))
    # Power 12 single residues are the bulk of the slowest tenth.
    for power, count in ((8, 2), (9, 2), (10, 2), (11, 2), (12, 20)):
        for _ in range(count):
            n = rng.randint(60, LACUNARY_SAFE_N[power])
            ops.append(_cli(rng, "lacunary", n, power, rng.randrange(1 << power)))
    # Beyond the 96-bit route: the seed exits 70 on these.
    for power in (4, 6):
        n = rng.randint(LACUNARY_FAIL_N[power] + 20, LACUNARY_FAIL_N[power] + 60)
        ops.append(_cli(rng, "lacunary", n, power))
    for power in (9, 12):
        n = rng.randint(LACUNARY_FAIL_N[power] + 20, LACUNARY_FAIL_N[power] + 60)
        ops.append(_cli(rng, "lacunary", n, power, rng.randrange(1 << power)))
    for t, top in WT2_SAFE_M.items():
        for _ in range(8):
            ops.append(Op("wt2", (t, rng.randint(1 << (t + 1), top))))
    for (s, t), top in WT3_SAFE_N.items():
        degree = 1 + (1 << s) + (1 << t)
        for _ in range(6):
            ops.append(Op("wt3", (s, t, rng.randint(degree, top))))
    # Past the 96-bit route the seed returns a wrong value without an
    # error.  m and n are odd: at some even sizes past it the rounding
    # still happens to come out right.
    for t in (2, 4):
        ops.append(Op("wt2", (t, _odd_past(rng, WT2_FAIL_M[t])), past_limit=True))
    for s, t in ((1, 3), (2, 4)):
        ops.append(Op("wt3", (s, t, _odd_past(rng, WT3_FAIL_N[s, t])), past_limit=True))
    return ops


def _odd_past(rng: random.Random, first_fail: int) -> int:
    return rng.randint(first_fail + 20, first_fail + 59) | 1


def census_bisect(rng: random.Random) -> list[Op]:
    ops = [_cli(rng, "bisect", n) for n in range(20, 33)]
    # Rows with nontrivial bisections below 33 (none at 23).  The limit sets
    # how far a search runs, so it is drawn only where the search is short.
    for n in (8, 13, 14):
        ops.append(_cli(rng, "bisect", n, "--enumerate", "--limit", rng.randint(1, 30)))
    for n, limit in ((20, 10), (23, 5), (24, 20), (26, 10), (29, 20), (31, 5)):
        ops.append(_cli(rng, "bisect", n, "--enumerate", "--limit", limit))
    # Every small (p, n) the census commands accept, once each; the seed
    # sets the limits, the formats and the order.
    counts = [(2, n) for n in range(2, 14)] + [(3, n) for n in range(1, 9)]
    counts += [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 1)]
    # Inside the accepted range (p^n <= 2^20) but too many digits to print:
    # the seed exits 64 on these.
    counts += [(2, 14), (2, 16), (3, 9)]
    ops += [_cli(rng, "count", p, n) for p, n in counts]
    bounds = [(2, n) for n in range(1, 32, 2)] + [(3, n) for n in (1, 2, 4, 5, 7, 8)]
    bounds += [(5, n) for n in range(1, 5)] + [(7, n) for n in range(1, 4)] + [(11, 2)]
    ops += [_cli(rng, "lower-bound", p, n) for p, n in bounds]
    gens = [(2, n) for n in range(1, 16, 2)] + [(3, n) for n in (1, 2, 4, 5)]
    gens += [(3, 7), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
    ops += [_cli(rng, "generate", p, n, "--limit", rng.randint(1, 30)) for p, n in gens]
    return ops


# Two workloads, each of two parts: one long run per workload averages out
# the shared host's slow spells better than four short ones.  Every layer
# runs mainly in one of them.
_BUILDERS = {
    "scan-rows": lambda rng: scan_grid(rng) + wide_rows(rng),
    "forms-census": lambda rng: closed_forms(rng) + census_bisect(rng),
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operation list for this seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops
