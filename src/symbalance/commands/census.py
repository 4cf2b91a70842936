"""The count, lower-bound and generate commands, which run census."""

from __future__ import annotations

from ..cli import COUNT_MAX_INPUTS, GENERATE_MAX_CLASSES, LOWER_BOUND_MAX_BITS, CommandResult
from ..errors import BudgetError


def _over_count_cap(p: int, n: int) -> bool:
    """p^n > COUNT_MAX_INPUTS for p >= 2 and n >= 0, decided without
    forming a large power: p^n >= 2^(n (bits - 1)), past the cap 2^20
    once n (bits - 1) >= 21."""
    return n * (p.bit_length() - 1) >= 21 or p ** n > COUNT_MAX_INPUTS


def _cmd_count(args) -> CommandResult:
    from ..census import (_check_args, brute_count_balanced_symmetric, count_balanced_all,
                          count_symmetric)

    # p and n are checked first, as generate checks them: the cap reads
    # p^n only for a prime p and n >= 0.
    _check_args(args.p, args.n)
    if _over_count_cap(args.p, args.n):
        # The decimal of p^n alone takes seconds at n = 10^6.
        inputs = (args.p ** args.n if args.n * args.p.bit_length() <= 14000
                  else f"{args.p}^{args.n}")
        raise BudgetError(f"p^n={inputs} exceeds the counting cap {COUNT_MAX_INPUTS}")
    # The census DP checks p, n and its budget before any work, with the
    # same messages as count_symmetric, so it runs first: at p = 65537 the
    # decimal of p^p alone takes seconds.
    among_symmetric = str(brute_count_balanced_symmetric(args.p, args.n))
    symmetric = str(count_symmetric(args.p, args.n))
    over_all = str(count_balanced_all(args.p, args.n))
    return CommandResult(
        "count", {"p": args.p, "n": args.n},
        {"p": [args.p], "n": [args.n], "symmetric": [symmetric],
         "balanced_all": [over_all], "balanced_symmetric": [among_symmetric]},
        lambda: [f"symmetric functions: {symmetric}",
                 f"balanced functions (all): {over_all}",
                 f"balanced symmetric functions: {among_symmetric}"])


def _cmd_lower_bound(args) -> CommandResult:
    from ..census import _split_count, _split_orbit_sizes

    # One walk reads the orbits, refusing a pair whose orbits do not split
    # (exit 64) or whose bound is past the cap (exit 65) before any
    # factorial is formed.
    bound = str(_split_count(args.p, _split_orbit_sizes(args.p, args.n, LOWER_BOUND_MAX_BITS)))
    return CommandResult(
        "lower-bound", {"p": args.p, "n": args.n},
        {"p": [args.p], "n": [args.n], "bound": [bound]},
        lambda: [f"at least {bound} balanced symmetric functions "
                 f"for p={args.p}, n={args.n}"])


def _cmd_generate(args) -> CommandResult:
    from ..census import _check_args, generate_balanced
    from ..exactnum import binom

    # p and n are checked first, as the census checks them: the class cap
    # C(p + n - 1, n) is formed only for a prime p and n >= 0.
    _check_args(args.p, args.n)
    if binom(args.p + args.n - 1, args.n) > GENERATE_MAX_CLASSES:
        raise BudgetError(
            f"p={args.p}, n={args.n} has more than {GENERATE_MAX_CLASSES} classes")
    # Values of 10 and up take two digits, so they need a separator.
    sep = "," if args.p > 10 else ""
    values = [sep.join(map(str, fn.values))
              for fn in generate_balanced(args.p, args.n, limit=args.limit)]
    return CommandResult(
        "generate", {"p": args.p, "n": args.n, "limit": args.limit},
        {"index": range(len(values)), "values": values},
        lambda: [f"{index}: {value}" for index, value in enumerate(values)])
