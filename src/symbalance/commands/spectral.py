"""The sac and walsh commands, which run spectral."""

from __future__ import annotations

from ..cli import WALSH_MAX_N, CommandResult
from ..errors import BudgetError


def _cmd_sac(args) -> CommandResult:
    from ..spectral import is_sac_elem

    ok = is_sac_elem(args.d, args.n)
    verdict = "satisfies" if ok else "does not satisfy"
    return CommandResult(
        "sac", {"d": args.d, "n": args.n},
        {"d": [args.d], "n": [args.n], "sac": [ok]},
        lambda: [f"X({args.d},{args.n}) {verdict} the strict avalanche criterion"])


def _cmd_walsh(args) -> CommandResult:
    from ..spectral import walsh_spectrum
    from ..symfun import check_degree, elem_values

    check_degree(args.d, args.n)
    if args.n > WALSH_MAX_N:
        raise BudgetError(f"n={args.n} exceeds the spectrum cap {WALSH_MAX_N}")
    values = list(map(str, walsh_spectrum(elem_values(args.d, args.n)).by_weight))
    return CommandResult(
        "walsh", {"d": args.d, "n": args.n},
        {"y": range(len(values)), "value": values},
        lambda: [f"W[{y}] = {value}" for y, value in enumerate(values)])
