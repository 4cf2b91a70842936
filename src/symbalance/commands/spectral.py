"""The sac and walsh commands, which run spectral."""

from __future__ import annotations

from .. import spectral, symfun
from ..errors import BudgetError
from . import CommandResult

# A spectrum is n^2 additions on ints of up to n bits: at n = 1024 `walsh`
# took 0.29-0.42 s over d in 1..1024 and printed at most 223 KB of JSON
# (shared 2-core Xeon, CPython 3.11).
WALSH_MAX_N = 1024


def _cmd_sac(args) -> CommandResult:
    ok = spectral.is_sac_elem(args.d, args.n)
    verdict = "satisfies" if ok else "does not satisfy"
    return CommandResult(
        "sac", {"d": args.d, "n": args.n},
        {"d": [args.d], "n": [args.n], "sac": [ok]},
        lambda: [f"X({args.d},{args.n}) {verdict} the strict avalanche criterion"])


def _cmd_walsh(args) -> CommandResult:
    symfun.check_degree(args.d, args.n)
    if args.n > WALSH_MAX_N:
        raise BudgetError(f"n={args.n} exceeds the spectrum cap {WALSH_MAX_N}")
    spectrum = spectral.walsh_spectrum(symfun.elem_values(args.d, args.n))
    values = list(map(str, spectrum.by_weight))
    return CommandResult(
        "walsh", {"d": args.d, "n": args.n},
        {"y": range(len(values)), "value": values},
        lambda: [f"W[{y}] = {value}" for y, value in enumerate(values)])
