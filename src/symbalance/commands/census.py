"""The count, lower-bound and generate commands, which run census."""

from __future__ import annotations

from .. import census, exactnum
from ..errors import BudgetError
from . import CommandResult

COUNT_MAX_INPUTS = 1 << 20
GENERATE_MAX_CLASSES = 4096
# The orbit-splitting bound is refused while its log2, estimated before
# any factorial is formed, exceeds this.  The orbits are read once.  At
# the cap, lower-bound 2 262143 (exactly 2^131072, 39,457 digits) took
# 0.38-0.59 s as a process and 3 491 0.14-0.20 s; a refusal reads at most
# about 2^17 orbits, so lower-bound 2 1000000001 exits 65 in 0.34-0.47 s
# and 13 10 in 0.1 s (best and worst of 3, csv output, shared 2-core
# Xeon, CPython 3.11).
LOWER_BOUND_MAX_BITS = 1 << 17


def _over_count_cap(p: int, n: int) -> bool:
    """p^n > COUNT_MAX_INPUTS for p >= 2 and n >= 0, decided without
    forming a large power: p^n >= 2^(n (bits - 1)), past the cap 2^20
    once n (bits - 1) >= 21."""
    return n * (p.bit_length() - 1) >= 21 or p ** n > COUNT_MAX_INPUTS


def _over_class_cap(p: int, n: int) -> bool:
    """C(p + n - 1, n) > GENERATE_MAX_CLASSES for p >= 2 and n >= 0,
    decided without forming a large binomial: C(m, n) >= m for
    1 <= n <= m - 1, so m = p + n - 1 past the cap is over it, and
    C(m, n) is formed only for m within the cap or n = 0."""
    m = p + n - 1
    return (n > 0 and m > GENERATE_MAX_CLASSES) or exactnum.binom(m, n) > GENERATE_MAX_CLASSES


def _cmd_count(args) -> CommandResult:
    # p and n are checked first, as generate checks them: the cap reads
    # p^n only for a prime p and n >= 0.
    census._check_args(args.p, args.n)
    if _over_count_cap(args.p, args.n):
        # The decimal of p^n alone takes seconds at n = 10^6.
        inputs = (args.p ** args.n if args.n * args.p.bit_length() <= 14000
                  else f"{args.p}^{args.n}")
        raise BudgetError(f"p^n={inputs} exceeds the counting cap {COUNT_MAX_INPUTS}")
    # The census DP checks p, n and its budget before any work, with the
    # same messages as count_symmetric, so it runs first: at p = 65537 the
    # decimal of p^p alone takes seconds.
    among_symmetric = str(census.brute_count_balanced_symmetric(args.p, args.n))
    symmetric = str(census.count_symmetric(args.p, args.n))
    over_all = str(census.count_balanced_all(args.p, args.n))
    return CommandResult(
        "count", {"p": args.p, "n": args.n},
        {"p": [args.p], "n": [args.n], "symmetric": [symmetric],
         "balanced_all": [over_all], "balanced_symmetric": [among_symmetric]},
        lambda: [f"symmetric functions: {symmetric}",
                 f"balanced functions (all): {over_all}",
                 f"balanced symmetric functions: {among_symmetric}"])


def _cmd_lower_bound(args) -> CommandResult:
    # One walk reads the orbits, refusing a pair whose orbits do not split
    # (exit 64) or whose bound is past the cap (exit 65) before any
    # factorial is formed.
    sizes = census._split_orbit_sizes(args.p, args.n, LOWER_BOUND_MAX_BITS)
    bound = str(census._split_count(args.p, sizes))
    return CommandResult(
        "lower-bound", {"p": args.p, "n": args.n},
        {"p": [args.p], "n": [args.n], "bound": [bound]},
        lambda: [f"at least {bound} balanced symmetric functions "
                 f"for p={args.p}, n={args.n}"])


def _cmd_generate(args) -> CommandResult:
    # p and n are checked first, as the census checks them: the class cap
    # reads C(p + n - 1, n) only for a prime p and n >= 0.
    census._check_args(args.p, args.n)
    if _over_class_cap(args.p, args.n):
        raise BudgetError(
            f"p={args.p}, n={args.n} has more than {GENERATE_MAX_CLASSES} classes")
    # Values of 10 and up take two digits, so they need a separator.
    sep = "," if args.p > 10 else ""
    values = [sep.join(map(str, fn.values))
              for fn in census.generate_balanced(args.p, args.n, limit=args.limit)]
    return CommandResult(
        "generate", {"p": args.p, "n": args.n, "limit": args.limit},
        {"index": range(len(values)), "values": values},
        lambda: [f"{index}: {value}" for index, value in enumerate(values)])
