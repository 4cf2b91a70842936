"""The lacunary command, which runs exactnum."""

from __future__ import annotations

from ..cli import (LACUNARY_ALL_MAX_WORK, LACUNARY_MAX_N, LACUNARY_MAX_POWER,
                   CommandResult)
from ..errors import BudgetError, InternalCheckError


def _cmd_lacunary(args) -> CommandResult:
    from ..exactnum import _lacunary_residues, lacunary_sums, lacunary_trig_sums

    # n, power and the residue are checked as the routes check them, before
    # the caps, so a domain error exits 64 whatever the sizes.
    _lacunary_residues(args.n, args.power, () if args.i is None else (args.i,))
    if args.n > LACUNARY_MAX_N:
        raise BudgetError(f"n={args.n} exceeds the cap {LACUNARY_MAX_N}")
    if args.power > LACUNARY_MAX_POWER:
        raise BudgetError(f"power={args.power} exceeds the cap {LACUNARY_MAX_POWER}")
    modulus = 1 << args.power
    if args.i is None:
        work = modulus * modulus // 2 * (2 * args.n + 2 * args.power + 32)
        if work > LACUNARY_ALL_MAX_WORK:
            raise BudgetError(f"all residues of n={args.n} mod {modulus} need work "
                              f"{work}, over the cap {LACUNARY_ALL_MAX_WORK}")
        residues = range(modulus)
    else:
        residues = (args.i,)
    sums = []
    for i, exact, trig in zip(residues, lacunary_sums(args.n, args.power, residues),
                              lacunary_trig_sums(args.n, args.power, residues)):
        if exact != trig:
            raise InternalCheckError(
                f"lacunary routes disagree at n={args.n}, i={i}: {exact} vs {trig}")
        sums.append(str(exact))
    # The routes agree, so one decimal serves both columns.
    return CommandResult(
        "lacunary", {"n": args.n, "power": args.power, "i": args.i},
        {"i": residues, "exact": sums, "trig": sums},
        lambda: [f"sum of C({args.n},j) over j = {i} (mod {modulus}): {exact}"
                 for i, exact in zip(residues, sums)])
