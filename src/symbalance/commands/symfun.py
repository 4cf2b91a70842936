"""The weight and balanced commands, which run symfun."""

from __future__ import annotations

from .. import symfun
from . import CommandResult


def _cmd_weight(args) -> CommandResult:
    weight = str(symfun.weight_elem(args.d, args.n))
    return CommandResult(
        "weight", {"d": args.d, "n": args.n},
        {"d": [args.d], "n": [args.n], "weight": [weight]},
        lambda: [f"wt(X({args.d},{args.n})) = {weight}"])


def _cmd_balanced(args) -> CommandResult:
    symfun.check_degree(args.d, args.n)
    weight, balanced = symfun._stepped_balance(args.d, args.n)
    weight = str(weight)
    verdict = "true" if balanced else "false"
    return CommandResult(
        "balanced", {"d": args.d, "n": args.n},
        {"d": [args.d], "n": [args.n], "weight": [weight], "balanced": [balanced]},
        lambda: [f"X({args.d},{args.n}): weight {weight} of {1 << args.n} inputs; "
                 f"balanced: {verdict}"])
