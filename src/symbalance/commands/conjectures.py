"""The scan-c1 and scan-c2 commands, which run conjectures."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from .. import conjectures
from . import CommandResult


def _cell_columns(cells: list, fields: tuple[str, ...]) -> dict:
    """Scan cells, namedtuples with these fields, as one lazy column per
    field, so text output never reads them."""
    return {field: map(itemgetter(i), cells) for i, field in enumerate(fields)}


def _bound_decimals(cells: list) -> Iterator[str]:
    """The decimal of each cell's bound, formed once per row n, since the
    bound 2^(n-2) depends on n alone."""
    decimals = {}
    for cell in cells:
        decimal = decimals.get(cell.n)
        if decimal is None:
            decimal = decimals[cell.n] = str(cell.bound)
        yield decimal


def _cmd_scan_c1(args) -> CommandResult:
    n_max = conjectures.C1_MAX_N if args.n_max is None else args.n_max
    cells = conjectures.scan_conjecture1(n_max)
    bad = conjectures.conjecture1_mismatches(cells)
    table = _cell_columns(cells, conjectures.ScanCell._fields)
    table["weight"] = map(str, table["weight"])

    def lines():
        return [*(f"mismatch at d={c.d}, n={c.n}: balanced={c.balanced}, "
                  f"predicted={c.predicted}" for c in bad),
                f"scanned {len(cells)} cells with 2 <= d <= n <= {n_max}; "
                f"mismatches: {len(bad)}"]

    return CommandResult("scan-c1", {"n_max": n_max}, table, lines, bool(bad))


def _cmd_scan_c2(args) -> CommandResult:
    n_max = conjectures.C2_DEFAULT_N if args.n_max is None else args.n_max
    cells = conjectures.scan_conjecture2(n_max)
    bad = conjectures.conjecture2_violations(cells)
    table = _cell_columns(cells, conjectures.BoundCell._fields)
    table["weight"] = map(str, table["weight"])
    table["bound"] = _bound_decimals(cells)

    def lines():
        return [*(f"violation at d={c.d}, n={c.n}: weight {c.weight} reaches "
                  f"2^(n-2) = {c.bound}" for c in bad),
                f"scanned {len(cells)} cells with wt(d) >= 6, "
                f"2(d-1) <= n <= {n_max}; violations: {len(bad)}"]

    return CommandResult("scan-c2", {"n_max": n_max}, table, lines, bool(bad))
