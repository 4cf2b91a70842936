"""Command line front end.

Every subcommand answers one exact question and prints it as text, JSON,
or CSV.  Large integers are rendered as decimal strings in JSON so no
consumer has to parse arbitrary-precision numbers.  Exit codes: 0 for a
clean answer, 2 when a scan finds a counterexample, 64 for usage errors,
65 when a request exceeds a computational budget, 70 when two supposedly
equivalent computations disagree.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .bisection import find_all_solutions
from .census import (
    brute_count_balanced_symmetric,
    count_balanced_all,
    count_symmetric,
    generate_balanced,
    lower_bound_balanced,
)
from .conjectures import (
    C1_MAX_N,
    C2_DEFAULT_N,
    conjecture1_mismatches,
    conjecture2_violations,
    scan_conjecture1,
    scan_conjecture2,
)
from .errors import BudgetError, InternalCheckError, OrbitSplitError
from .exactnum import binom, lacunary_sums, lacunary_trig_sums, pascal_row
from .spectral import is_sac_elem, walsh_spectrum
from .symfun import balance_in_row, check_degree, elem_values, weight_elem

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 64
EXIT_BUDGET = 65
EXIT_INTERNAL = 70

# A spectrum is n^2 additions on ints of up to n bits: at n = 1024 `walsh`
# took 0.29-0.42 s over d in 1..1024 and printed at most 223 KB of JSON
# (shared 2-core Xeon, CPython 3.11).
WALSH_MAX_N = 1024
COUNT_MAX_INPUTS = 1 << 20
GENERATE_MAX_CLASSES = 4096
LACUNARY_MAX_N = 4096
LACUNARY_MAX_POWER = 12
# Work of an all-residue lacunary call, M^2/2 * (2n + 2 power + 32) for
# M = 2^power: M/2 + 1 angle sums of at most M/2 products each, on ints of
# about 2n + 2 power + 32 bits.  At the cap (exactly lacunary 2358 10,
# 569 11 or 121 12) a call took 1.59-1.78, 0.76-0.81 and 1.07-1.14 s in
# turn (best and worst of 3 in one process, csv output) on a shared 2-core
# Xeon with CPython 3.11.
LACUNARY_ALL_MAX_WORK = 149 << 24


def _limit(text: str) -> int:
    """A --limit value: an int, refused while parsing when negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


@dataclass
class CommandResult:
    """An answer as rows for JSON and CSV, and a function that builds its
    text lines, called only when text is printed.  Each big integer is
    turned into decimal once, and the lines reuse that string.  A lines
    function keeps only what it prints, so computed witnesses are freed
    before the output is written.  The rows are read at most once, so a
    scan passes a generator over its cells that text output never runs."""

    command: str
    parameters: dict
    columns: list
    rows: Iterable[dict]
    lines: Callable[[], list]
    exit_code: int = EXIT_OK


def _cmd_weight(args) -> CommandResult:
    weight = str(weight_elem(args.d, args.n))
    return CommandResult(
        "weight", {"d": args.d, "n": args.n},
        ["d", "n", "weight"],
        [{"d": args.d, "n": args.n, "weight": weight}],
        lambda: [f"wt(X({args.d},{args.n})) = {weight}"])


def _cmd_balanced(args) -> CommandResult:
    check_degree(args.d, args.n)
    weight, balanced = balance_in_row(args.d, pascal_row(args.n))
    weight = str(weight)
    verdict = "true" if balanced else "false"
    return CommandResult(
        "balanced", {"d": args.d, "n": args.n},
        ["d", "n", "weight", "balanced"],
        [{"d": args.d, "n": args.n, "weight": weight, "balanced": balanced}],
        lambda: [f"X({args.d},{args.n}): weight {weight} of {1 << args.n} inputs; "
                 f"balanced: {verdict}"])


def _cmd_sac(args) -> CommandResult:
    ok = is_sac_elem(args.d, args.n)
    verdict = "satisfies" if ok else "does not satisfy"
    return CommandResult(
        "sac", {"d": args.d, "n": args.n},
        ["d", "n", "sac"],
        [{"d": args.d, "n": args.n, "sac": ok}],
        lambda: [f"X({args.d},{args.n}) {verdict} the strict avalanche criterion"])


def _cmd_walsh(args) -> CommandResult:
    if args.n > WALSH_MAX_N:
        raise BudgetError(f"n={args.n} exceeds the spectrum cap {WALSH_MAX_N}")
    spectrum = walsh_spectrum(elem_values(args.d, args.n))
    rows = [{"y": y, "value": str(value)}
            for y, value in enumerate(spectrum.by_weight)]
    return CommandResult(
        "walsh", {"d": args.d, "n": args.n}, ["y", "value"], rows,
        lambda: [f"W[{row['y']}] = {row['value']}" for row in rows])


def _cmd_bisect(args) -> CommandResult:
    if args.enumerate:
        report = find_all_solutions(args.n, enumerate_witnesses=True,
                                    witness_limit=args.limit)
        rows = [{"index": i, "delta": "".join("+" if x > 0 else "-" for x in sv.delta)}
                for i, sv in enumerate(report.witnesses)]
        # The lines keep the counts, not the witnesses.
        counts = report.total, report.trivial, report.nontrivial
        return CommandResult(
            "bisect", {"n": args.n, "limit": args.limit},
            ["index", "delta"], rows,
            lambda: [_bisect_summary(args.n, *counts)] + [row["delta"] for row in rows])
    report = find_all_solutions(args.n)
    return CommandResult(
        "bisect", {"n": args.n, "limit": None},
        ["n", "total", "trivial", "nontrivial"],
        [{"n": args.n, "total": str(report.total), "trivial": str(report.trivial),
          "nontrivial": str(report.nontrivial)}],
        lambda: [_bisect_summary(args.n, report.total, report.trivial, report.nontrivial)])


def _bisect_summary(n: int, total: int, trivial: int, nontrivial: int) -> str:
    return f"n={n}: {total} solutions ({trivial} trivial, {nontrivial} nontrivial)"


def _over_count_cap(p: int, n: int) -> bool:
    """p^n > COUNT_MAX_INPUTS, decided without forming a large power:
    for |p| >= 2, |p|^n >= 2^(n (bits - 1)), past the cap 2^20 once
    n (bits - 1) >= 21, and p^n is then over it when it is positive.
    For n < 1 it is never over (nor 0^n formed, which fails for n < 0)."""
    if n < 1:
        return False
    if abs(p) < 2 or n * (abs(p).bit_length() - 1) < 21:
        return p ** n > COUNT_MAX_INPUTS
    return p > 0 or n % 2 == 0


def _cmd_count(args) -> CommandResult:
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
        ["p", "n", "symmetric", "balanced_all", "balanced_symmetric"],
        [{"p": args.p, "n": args.n, "symmetric": symmetric,
          "balanced_all": over_all, "balanced_symmetric": among_symmetric}],
        lambda: [f"symmetric functions: {symmetric}",
                 f"balanced functions (all): {over_all}",
                 f"balanced symmetric functions: {among_symmetric}"])


def _cmd_lower_bound(args) -> CommandResult:
    bound = str(lower_bound_balanced(args.p, args.n))
    return CommandResult(
        "lower-bound", {"p": args.p, "n": args.n},
        ["p", "n", "bound"],
        [{"p": args.p, "n": args.n, "bound": bound}],
        lambda: [f"at least {bound} balanced symmetric functions "
                 f"for p={args.p}, n={args.n}"])


def _cmd_generate(args) -> CommandResult:
    if binom(args.p + args.n - 1, args.n) > GENERATE_MAX_CLASSES:
        raise BudgetError(
            f"p={args.p}, n={args.n} has more than {GENERATE_MAX_CLASSES} classes")
    # Values of 10 and up take two digits, so they need a separator.
    sep = "," if args.p > 10 else ""
    rows = []
    for index, fn in enumerate(generate_balanced(args.p, args.n, limit=args.limit)):
        rows.append({"index": index, "values": sep.join(map(str, fn.values))})
    return CommandResult(
        "generate", {"p": args.p, "n": args.n, "limit": args.limit},
        ["index", "values"], rows,
        lambda: [f"{row['index']}: {row['values']}" for row in rows])


def _cmd_scan_c1(args) -> CommandResult:
    cells = scan_conjecture1(args.n_max)
    bad = conjecture1_mismatches(cells)
    rows = ({"d": c.d, "n": c.n, "weight": str(c.weight),
             "balanced": c.balanced, "predicted": c.predicted} for c in cells)

    def lines():
        return [*(f"mismatch at d={c.d}, n={c.n}: balanced={c.balanced}, "
                  f"predicted={c.predicted}" for c in bad),
                f"scanned {len(cells)} cells with 2 <= d <= n <= {args.n_max}; "
                f"mismatches: {len(bad)}"]

    return CommandResult(
        "scan-c1", {"n_max": args.n_max},
        ["d", "n", "weight", "balanced", "predicted"], rows, lines,
        EXIT_COUNTEREXAMPLE if bad else EXIT_OK)


def _cmd_scan_c2(args) -> CommandResult:
    cells = scan_conjecture2(args.n_max)
    bad = conjecture2_violations(cells)
    rows = ({"d": c.d, "n": c.n, "weight": str(c.weight),
             "bound": str(c.bound), "below": c.below} for c in cells)

    def lines():
        return [*(f"violation at d={c.d}, n={c.n}: weight {c.weight} reaches "
                  f"2^(n-2) = {c.bound}" for c in bad),
                f"scanned {len(cells)} cells with wt(d) >= 6, "
                f"2(d-1) <= n <= {args.n_max}; violations: {len(bad)}"]

    return CommandResult(
        "scan-c2", {"n_max": args.n_max},
        ["d", "n", "weight", "bound", "below"], rows, lines,
        EXIT_COUNTEREXAMPLE if bad else EXIT_OK)


def _cmd_lacunary(args) -> CommandResult:
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
    rows = []
    for i, exact, trig in zip(residues, lacunary_sums(args.n, args.power, residues),
                              lacunary_trig_sums(args.n, args.power, residues)):
        if exact != trig:
            raise InternalCheckError(
                f"lacunary routes disagree at n={args.n}, i={i}: {exact} vs {trig}")
        rows.append({"i": i, "exact": str(exact), "trig": str(trig)})
    return CommandResult(
        "lacunary", {"n": args.n, "power": args.power, "i": args.i},
        ["i", "exact", "trig"], rows,
        lambda: [f"sum of C({args.n},j) over j = {row['i']} (mod {modulus}): "
                 f"{row['exact']}" for row in rows])


_HANDLERS = {
    "weight": _cmd_weight,
    "balanced": _cmd_balanced,
    "sac": _cmd_sac,
    "walsh": _cmd_walsh,
    "bisect": _cmd_bisect,
    "count": _cmd_count,
    "lower-bound": _cmd_lower_bound,
    "generate": _cmd_generate,
    "scan-c1": _cmd_scan_c1,
    "scan-c2": _cmd_scan_c2,
    "lacunary": _cmd_lacunary,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    parser = argparse.ArgumentParser(
        prog="symbalance",
        description="Exact balance, weight, and spectrum computations for "
                    "symmetric functions over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    wp = sub.add_parser("weight", parents=[common],
                        help="weight of the elementary symmetric polynomial X(d,n)")
    wp.add_argument("d", type=int)
    wp.add_argument("n", type=int)

    bp = sub.add_parser("balanced", parents=[common],
                        help="whether X(d,n) is balanced")
    bp.add_argument("d", type=int)
    bp.add_argument("n", type=int)

    sp = sub.add_parser("sac", parents=[common],
                        help="whether X(d,n) satisfies the strict avalanche criterion")
    sp.add_argument("d", type=int)
    sp.add_argument("n", type=int)

    lp = sub.add_parser("walsh", parents=[common],
                        help="Walsh spectrum of X(d,n) by input weight")
    lp.add_argument("d", type=int)
    lp.add_argument("n", type=int)

    np_ = sub.add_parser("bisect", parents=[common],
                         help="signed bisections of the binomial row n")
    np_.add_argument("n", type=int)
    np_.add_argument("--enumerate", action="store_true",
                     help="list nontrivial solutions instead of counting")
    np_.add_argument("--limit", type=_limit, default=None,
                     help="cap on listed solutions")

    cp = sub.add_parser("count", parents=[common],
                        help="census counts for symmetric functions over GF(p)")
    cp.add_argument("p", type=int)
    cp.add_argument("n", type=int)

    op = sub.add_parser("lower-bound", parents=[common],
                        help="orbit-splitting lower bound on balanced symmetric functions")
    op.add_argument("p", type=int)
    op.add_argument("n", type=int)

    gp = sub.add_parser("generate", parents=[common],
                        help="construct distinct balanced symmetric functions")
    gp.add_argument("p", type=int)
    gp.add_argument("n", type=int)
    gp.add_argument("--limit", type=_limit, default=10,
                    help="how many functions to emit (default 10)")

    c1 = sub.add_parser("scan-c1", parents=[common],
                        help="compare exact balancedness with the conjectured set")
    c1.add_argument("--n-max", type=int, default=C1_MAX_N)

    c2 = sub.add_parser("scan-c2", parents=[common],
                        help="check weights against the strict quarter bound")
    c2.add_argument("--n-max", type=int, default=C2_DEFAULT_N)

    ap = sub.add_parser("lacunary", parents=[common],
                        help="binomial sums along residue classes mod 2^power, "
                             "computed two ways")
    ap.add_argument("n", type=int)
    ap.add_argument("power", type=int)
    ap.add_argument("i", type=int, nargs="?", default=None,
                    help="single residue to report (default: all)")
    return parser


# Built once at import: parse_args keeps nothing between calls, since each
# call fills a fresh namespace.
_PARSER = _build_parser()


def _emit(result: CommandResult, fmt: str, elapsed_ms: int) -> None:
    if fmt == "text":
        for line in result.lines():
            print(line)
    elif fmt == "json":
        payload = {"command": result.command, "parameters": result.parameters,
                   "results": list(result.rows), "runtime_ms": elapsed_ms}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([
                ("true" if row[c] else "false") if isinstance(row[c], bool)
                else row[c]
                for c in result.columns])


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as stop:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if stop.code else EXIT_OK
    # Exact answers run to 20k digits, past Python's int/str digit limit
    # (3.10.7 and later), so it is lifted while one is computed and printed.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _answer(args)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _answer(args)
    finally:
        sys.set_int_max_str_digits(old)


def _answer(args) -> int:
    started = time.perf_counter()
    try:
        result = _HANDLERS[args.command](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OrbitSplitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    _emit(result, args.format, elapsed_ms)
    return result.exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
