"""Command line front end.

Every subcommand answers one exact question and prints it as text, JSON,
or CSV.  Large integers are rendered as decimal strings in JSON so no
consumer has to parse arbitrary-precision numbers.  Exit codes: 0 for a
clean answer, 2 when a scan finds a counterexample, 64 for usage errors,
65 when a request exceeds a computational budget, 70 when two supposedly
equivalent computations disagree.

The arguments of every subcommand are declared once, in _GRAMMAR.  A call
in canonical form (the command, all of its positionals, then --format and
the command's own options spelled in full, each with its value) is read
straight from that table.  Any other argv, help included, goes to an
argparse parser built from the same table when it is needed, so argparse
loads only for help, usage errors and the other spellings it accepts, and
answers them as it always has.

Every call runs this module: the grammar, the parse, the exit codes and
caps, and the writers.  The handlers live in symbalance.commands, one
module per engine module they front, and _GRAMMAR names each command's
module, imported on its first call.  So a call compiles errors, this
module, the commands package and its own command module, and no code of
another command.  Each handler imports the engine modules it runs when
it runs: weight and balanced load symfun alone, sac adds spectral and
walsh exactnum too, count, lower-bound and generate load census (bisect
adds bisection), the scans load conjectures, and lacunary only exactnum.
JSON and CSV are written here a column at a time (see _encode), not by
the json and csv modules, for just the ints, bools and strs of digits,
signs and commas that the commands print, so no call loads json or csv.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from importlib import import_module
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetError, InternalCheckError, OrbitSplitError

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
# The orbit-splitting bound is refused while its log2, estimated before
# any factorial is formed, exceeds this.  The orbits are read once.  At
# the cap, lower-bound 2 262143 (exactly 2^131072, 39,457 digits) took
# 0.38-0.59 s as a process and 3 491 0.14-0.20 s; a refusal reads at most
# about 2^17 orbits, so lower-bound 2 1000000001 exits 65 in 0.34-0.47 s
# and 13 10 in 0.1 s (best and worst of 3, csv output, shared 2-core
# Xeon, CPython 3.11).
LOWER_BOUND_MAX_BITS = 1 << 17


def _limit(text: str) -> int:
    """A --limit value: an int, refused while parsing when negative."""
    try:
        value = int(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


class CommandResult(namedtuple("CommandResult", "command parameters table lines exit_code",
                               defaults=(EXIT_OK,))):
    """An answer as a table for JSON and CSV, and a function that builds its
    text lines, called only when text is printed.  The table maps each
    column name, in CSV order, to the column's values (ints, bools or
    strs), so no row is a dict of its own.  Each big integer is turned into
    decimal once, and the lines reuse that string.  A lines function keeps
    only what it prints, so computed witnesses are freed before the output
    is written.  JSON and CSV read each column once, whole, and text reads
    none, so a scan passes lazy columns over its cells."""

    __slots__ = ()


class _Handler(namedtuple("_Handler", "module name")):
    """The handler `name` of the command module `module`, a dotted name,
    imported on its first call and read from sys.modules after that."""

    __slots__ = ()

    def __call__(self, args) -> CommandResult:
        module = sys.modules.get(self.module) or import_module(self.module)
        return getattr(module, self.name)(args)


def _handler(family: str, command: str) -> _Handler:
    """The handler of command, in symbalance/commands/<family>.py."""
    return _Handler(f"{__package__}.commands.{family}", "_cmd_" + command.replace("-", "_"))


# The grammar of every subcommand: its handler, its help, its int
# positionals, and its arguments that have a default, as name -> (kind,
# default, help).  A name without dashes is an int positional that may be
# left out; a kind of bool is a flag that takes no value.  Each subcommand
# also takes --format.  A scan's --n-max defaults to None, read by its
# handler as the default of the conjectures module, which is imported only
# when a scan runs.
_GRAMMAR = {
    "weight": (_handler("symfun", "weight"),
               "weight of the elementary symmetric polynomial X(d,n)", ("d", "n"), {}),
    "balanced": (_handler("symfun", "balanced"), "whether X(d,n) is balanced",
                 ("d", "n"), {}),
    "sac": (_handler("spectral", "sac"),
            "whether X(d,n) satisfies the strict avalanche criterion", ("d", "n"), {}),
    "walsh": (_handler("spectral", "walsh"), "Walsh spectrum of X(d,n) by input weight",
              ("d", "n"), {}),
    "bisect": (_handler("bisection", "bisect"), "signed bisections of the binomial row n",
               ("n",), {
                   "--enumerate": (bool, False, "list nontrivial solutions instead of counting"),
                   "--limit": (_limit, None, "cap on listed solutions")}),
    "count": (_handler("census", "count"), "census counts for symmetric functions over GF(p)",
              ("p", "n"), {}),
    "lower-bound": (_handler("census", "lower-bound"),
                    "orbit-splitting lower bound on balanced symmetric functions",
                    ("p", "n"), {}),
    "generate": (_handler("census", "generate"),
                 "construct distinct balanced symmetric functions", ("p", "n"), {
                     "--limit": (_limit, 10, "how many functions to emit (default 10)")}),
    "scan-c1": (_handler("conjectures", "scan-c1"),
                "compare exact balancedness with the conjectured set", (), {
                    "--n-max": (int, None, None)}),
    "scan-c2": (_handler("conjectures", "scan-c2"),
                "check weights against the strict quarter bound", (), {
                    "--n-max": (int, None, None)}),
    "lacunary": (_handler("exactnum", "lacunary"),
                 "binomial sums along residue classes mod 2^power, computed two ways",
                 ("n", "power"), {
                     "i": (int, None, "single residue to report (default: all)")}),
}
_FORMATS = ("text", "json", "csv")


def _value(kind, text: str):
    """text read as kind (int, _limit or a tuple of choices), or None where
    argparse would read it otherwise or refuse it: a text starting with
    "-", a choice not listed, or a text that kind refuses."""
    if text[:1] == "-":
        return None
    if isinstance(kind, tuple):
        return text if text in kind else None
    try:
        return kind(text)
    except Exception:
        return None


def _parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments of a call in canonical form, read straight from
    _GRAMMAR: a command, all of its positionals, then --format and the
    command's own options, spelled in full, each followed by its value
    (the last of a repeat wins).  They carry the attributes argparse would
    give them.  Any other argv gives None."""
    grammar = _GRAMMAR.get(argv[0]) if argv else None
    if grammar is None:
        return None
    _, _, required, optional = grammar
    args = {"command": argv[0], "format": "text"}
    at, end = 1, len(argv)
    for name in required:
        value = _value(int, argv[at]) if at < end else None
        if value is None:
            return None
        args[name] = value
        at += 1
    for name, (kind, default, _) in optional.items():
        if name[0] != "-" and at < end and argv[at][:1] != "-":
            default = _value(kind, argv[at])
            if default is None:
                return None
            at += 1
        args[name.lstrip("-").replace("-", "_")] = default
    while at < end:
        flag = argv[at]
        if flag == "--format":
            kind = _FORMATS
        elif flag[:2] == "--" and flag in optional:
            kind = optional[flag][0]
        else:
            return None
        dest = flag[2:].replace("-", "_")
        if kind is bool:
            args[dest] = True
            at += 1
            continue
        value = _value(kind, argv[at + 1]) if at + 1 < end else None
        if value is None:
            return None
        args[dest] = value
        at += 2
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser of _GRAMMAR, for every argv that _parse leaves:
    help, usage errors and the other spellings argparse accepts."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="symbalance",
        description="Exact balance, weight, and spectrum computations for "
                    "symmetric functions over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, required, optional) in _GRAMMAR.items():
        cp = sub.add_parser(command, help=command_help)
        cp.add_argument("--format", choices=_FORMATS, default="text", help="output format")
        for name in required:
            cp.add_argument(name, type=int)
        for name, (kind, default, arg_help) in optional.items():
            if kind is bool:
                cp.add_argument(name, action="store_true", help=arg_help)
            elif name[0] == "-":
                cp.add_argument(name, type=kind, default=default, help=arg_help)
            else:
                cp.add_argument(name, type=kind, nargs="?", default=default, help=arg_help)
    return parser


def _emit(result: CommandResult, fmt: str, elapsed_ms: int) -> None:
    if fmt == "text":
        for line in result.lines():
            print(line)
    elif fmt == "json":
        sys.stdout.write(_json(result, elapsed_ms))
    else:
        sys.stdout.write(_csv(result.table))


# JSON and CSV are written here, not by a stdlib encoder, a column at a
# time.  Each column of a table holds one kind of value: ints, bools, or
# strs of digits, signs and commas; each parameter is an int or None; and
# the command and the names are written as declared here.  So _encode
# reads each column once and writes ints and bools with one map, JSON puts
# each str between quotes as it is, and CSV quotes only a str holding a
# comma, which generate prints for p >= 11.
_BOOLS = {True: "true", False: "false"}


def _encode(column, strs):
    """The column's values as text, read once: ints by one map of str,
    bools by one map of _BOOLS, and strs by strs, given the listed column."""
    values = list(column)
    kind = type(values[0]) if values else int
    if kind is str:
        return strs(values)
    return map(_BOOLS.__getitem__ if kind is bool else str, values)


def _json_strs(texts: list) -> Iterator[str]:
    """Strs as JSON writes them: between quotes, as they are."""
    return map('"%s"'.__mod__, texts)


def _json(result: CommandResult, elapsed_ms: int) -> str:
    """The payload as json.dumps(payload, sort_keys=True,
    separators=(",", ":")) writes it, byte for byte, for the payload with
    keys command, parameters, results (one object per row of the table)
    and runtime_ms, and a line end."""
    table = result.table
    names = sorted(table)
    rows = zip(*[_encode(table[name], _json_strs) for name in names])
    row = "{" + ",".join(f'"{name}":%s' for name in names) + "}"
    parameters = ",".join(f'"{name}":{"null" if value is None else value}'
                          for name, value in sorted(result.parameters.items()))
    return '{"command":"%s","parameters":{%s},"results":[%s],"runtime_ms":%d}\n' % (
        result.command, parameters, ",".join(map(row.__mod__, rows)), elapsed_ms)


def _csv_fields(texts: list) -> Iterable[str]:
    """Strs as csv.writer writes them (QUOTE_MINIMAL): quoted when they hold
    a comma.  A column with none is checked at once and written as it is."""
    if "," not in "".join(texts):
        return texts
    return ['"' + text + '"' if "," in text else text for text in texts]


def _csv(table: dict) -> str:
    r"""The table as csv.writer writes it (QUOTE_MINIMAL, "\n" line ends)."""
    rows = zip(*[_encode(column, _csv_fields) for column in table.values()])
    return ",".join(table) + "\n" + "".join(map("%s\n".__mod__, map(",".join, rows)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
        result = _GRAMMAR[args.command][0](args)
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
    # The command modules import this module by name, so python -m runs it
    # under that name too, not a second copy of it.
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    console_main()
