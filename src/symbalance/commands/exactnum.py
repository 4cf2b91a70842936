"""The lacunary command, which runs exactnum."""

from __future__ import annotations

from .. import exactnum
from ..errors import BudgetError, InternalCheckError
from . import CommandResult

LACUNARY_MAX_N = 4096
LACUNARY_MAX_POWER = 12
# Work of an all-residue lacunary call evaluated at the full modulus,
# M^2/2 * (2n + 2 power + 32) for M = 2^power: M/2 + 1 angle sums of at
# most M/2 products each, on ints of about 2n + 2 power + 32 bits.  The
# closed form folds each residue to a modulus 2^r <= M, which costs no
# more, so this bounds the folded work.  At the cap (exactly lacunary
# 2358 10, 569 11 or 121 12) a call took 0.78-0.80, 0.26-0.27 and
# 0.05-0.07 s in turn (best and worst of 3 in one process, csv output) on
# a shared 2-core Xeon with CPython 3.11; 2358 10 does not fold, since
# n > 2^power.
LACUNARY_ALL_MAX_WORK = 149 << 24


def _cmd_lacunary(args) -> CommandResult:
    # n, power and the residue are checked as the routes check them, before
    # the caps, so a domain error exits 64 whatever the sizes.
    exactnum._lacunary_residues(args.n, args.power, () if args.i is None else (args.i,))
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
    for i, exact, trig in zip(residues, exactnum.lacunary_sums(args.n, args.power, residues),
                              exactnum.lacunary_trig_sums(args.n, args.power, residues)):
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
