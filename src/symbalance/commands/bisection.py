"""The bisect command, which runs bisection."""

from __future__ import annotations

from ..cli import CommandResult


def _cmd_bisect(args) -> CommandResult:
    from ..bisection import find_all_solutions

    if args.enumerate:
        report = find_all_solutions(args.n, enumerate_witnesses=True,
                                    witness_limit=args.limit)
        deltas = ["".join("+" if x > 0 else "-" for x in sv.delta) for sv in report.witnesses]
        # The lines keep the counts, not the witnesses.
        counts = report.total, report.trivial, report.nontrivial
        return CommandResult(
            "bisect", {"n": args.n, "limit": args.limit},
            {"index": range(len(deltas)), "delta": deltas},
            lambda: [_bisect_summary(args.n, *counts), *deltas])
    report = find_all_solutions(args.n)
    total, trivial, nontrivial = map(str, (report.total, report.trivial, report.nontrivial))
    return CommandResult(
        "bisect", {"n": args.n, "limit": None},
        {"n": [args.n], "total": [total], "trivial": [trivial], "nontrivial": [nontrivial]},
        lambda: [_bisect_summary(args.n, total, trivial, nontrivial)])


def _bisect_summary(n: int, total, trivial, nontrivial) -> str:
    return f"n={n}: {total} solutions ({trivial} trivial, {nontrivial} nontrivial)"
