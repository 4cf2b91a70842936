"""The weight and balanced commands, which run symfun."""

from __future__ import annotations

from ..cli import _BOOLS, CommandResult


def _cmd_weight(args) -> CommandResult:
    from ..symfun import weight_elem

    weight = str(weight_elem(args.d, args.n))
    return CommandResult(
        "weight", {"d": args.d, "n": args.n},
        {"d": [args.d], "n": [args.n], "weight": [weight]},
        lambda: [f"wt(X({args.d},{args.n})) = {weight}"])


def _cmd_balanced(args) -> CommandResult:
    from ..symfun import _stepped_balance, check_degree

    check_degree(args.d, args.n)
    weight, balanced = _stepped_balance(args.d, args.n)
    weight = str(weight)
    verdict = _BOOLS[balanced]
    return CommandResult(
        "balanced", {"d": args.d, "n": args.n},
        {"d": [args.d], "n": [args.n], "weight": [weight], "balanced": [balanced]},
        lambda: [f"X({args.d},{args.n}): weight {weight} of {1 << args.n} inputs; "
                 f"balanced: {verdict}"])
