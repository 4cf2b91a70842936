"""The handlers of the command line, one module per engine module they
front, each imported by cli on the first call of one of its commands.

A handler reads its parsed arguments, checks the caps and routes the
command owns, runs the engines as attributes of their modules, and
returns a CommandResult.  No module here imports cli: cli parses, maps a
result to its exit code and writes it."""

from collections import namedtuple


class CommandResult(namedtuple("CommandResult", "command parameters table lines counterexample",
                               defaults=(False,))):
    """An answer as a table for JSON and CSV, and a function that builds its
    text lines, called only when text is printed.  The table maps each
    column name, in CSV order, to the column's values (ints, bools or
    strs), so no row is a dict of its own.  Each big integer is turned into
    decimal once, and the lines reuse that string.  A lines function keeps
    only what it prints, so computed witnesses are freed before the output
    is written.  JSON and CSV read each column once, whole, and text reads
    none, so a scan passes lazy columns over its cells.  counterexample is
    True when a scan found one."""

    __slots__ = ()
