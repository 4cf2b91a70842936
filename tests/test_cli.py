"""End-to-end tests for the command line interface.

Each test drives main() directly with an argv list and inspects stdout,
stderr, and the exit code.  JSON payloads are parsed back and checked
against frozen expectations; CSV output is checked byte-for-byte where
the contract demands it.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import symbalance.bisection as bisection
import symbalance.census as census
import symbalance.cli as cli
import symbalance.conjectures as conjectures
import symbalance.exactnum as exactnum
from symbalance.census import lower_bound_balanced
from symbalance.cli import main
from symbalance.conjectures import BoundCell, ScanCell


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_runtime(payload: str) -> str:
    return re.sub(r'"runtime_ms":\d+', '"runtime_ms":0', payload)


# ---------------------------------------------------------------- basic


def test_weight_text(capsys):
    code, out, err = run(capsys, ["weight", "3", "6"])
    assert code == 0
    assert out == "wt(X(3,6)) = 20\n"
    assert err == ""


def test_weight_json_exact_bytes(capsys):
    # sort_keys plus compact separators pin the byte-level layout
    code, out, _ = run(capsys, ["weight", "3", "6", "--format", "json"])
    assert code == 0
    assert strip_runtime(out) == (
        '{"command":"weight","parameters":{"d":3,"n":6},'
        '"results":[{"d":3,"n":6,"weight":"20"}],"runtime_ms":0}\n')


def test_balanced_text_true(capsys):
    code, out, _ = run(capsys, ["balanced", "2", "7"])
    assert code == 0
    assert out == "X(2,7): weight 64 of 128 inputs; balanced: true\n"


def test_balanced_text_false(capsys):
    code, out, _ = run(capsys, ["balanced", "3", "7"])
    assert code == 0
    assert out.endswith("balanced: false\n")


def test_balanced_json_schema(capsys):
    code, out, _ = run(capsys, ["balanced", "2", "7", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "parameters", "results", "runtime_ms"}
    assert payload["command"] == "balanced"
    assert payload["parameters"] == {"d": 2, "n": 7}
    assert payload["results"] == [
        {"d": 2, "n": 7, "weight": "64", "balanced": True}]
    assert isinstance(payload["runtime_ms"], int)


def test_balanced_csv_lowercase_bool(capsys):
    code, out, _ = run(capsys, ["balanced", "2", "7", "--format", "csv"])
    assert code == 0
    assert out == "d,n,weight,balanced\n2,7,64,true\n"
    assert "\r" not in out


def test_sac_json(capsys):
    code, out, _ = run(capsys, ["sac", "3", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["sac"] is True


def test_walsh_rows(capsys):
    code, out, _ = run(capsys, ["walsh", "2", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 5
    # W(0) = 2^n - 2 wt = 16 - 20
    assert payload["results"][0] == {"y": 0, "value": "-4"}
    # every entry is a decimal string, possibly negative
    for row in payload["results"]:
        assert re.fullmatch(r"-?\d+", row["value"])


# ---------------------------------------------------------------- bisect


def test_bisect_count_text(capsys):
    code, out, _ = run(capsys, ["bisect", "8"])
    assert code == 0
    assert out == "n=8: 6 solutions (2 trivial, 4 nontrivial)\n"


def test_bisect_enumerate_csv(capsys):
    code, out, _ = run(capsys, ["bisect", "8", "--enumerate", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,delta"
    assert len(lines) == 5
    for line in lines[1:]:
        _, delta = line.split(",")
        assert len(delta) == 9 and set(delta) <= {"+", "-"}


def test_bisect_enumerate_text_summary_first(capsys):
    code, out, _ = run(capsys, ["bisect", "8", "--enumerate"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n=8: 6 solutions")
    assert len(lines) == 5


# ---------------------------------------------------------------- census


def test_count_csv(capsys):
    code, out, _ = run(capsys, ["count", "2", "3", "--format", "csv"])
    assert code == 0
    assert out == ("p,n,symmetric,balanced_all,balanced_symmetric\n"
                   "2,3,16,70,4\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int/str digit limit before Python 3.10.7")
def test_count_prints_answers_past_the_int_digit_limit(capsys):
    # C(2^14, 2^13) has 4930 digits, more than the default limit of 4300
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, ["count", "2", "14", "--format", "json"])
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == before
    balanced_all = json.loads(out)["results"][0]["balanced_all"]
    sys.set_int_max_str_digits(0)
    try:
        assert balanced_all == str(math.comb(2 ** 14, 2 ** 13))
    finally:
        sys.set_int_max_str_digits(before)


def test_lower_bound_json(capsys):
    code, out, _ = run(capsys, ["lower-bound", "3", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["bound"] == "19440"


def test_generate_yields_distinct_rows(capsys):
    code, out, _ = run(capsys, ["generate", "2", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    values = [row["values"] for row in payload["results"]]
    assert len(values) == 4
    assert len(set(values)) == 4
    assert all(re.fullmatch(r"[01]{4}", v) for v in values)


def test_generate_separates_two_digit_values(capsys):
    code, out, _ = run(capsys, ["generate", "11", "1", "--limit", "2",
                                "--format", "json"])
    assert code == 0
    rows = [row["values"].split(",") for row in json.loads(out)["results"]]
    assert len(rows) == 2
    for values in rows:
        assert sorted(map(int, values)) == list(range(11))


def test_generate_respects_limit(capsys):
    code, out, _ = run(capsys, ["generate", "2", "5", "--limit", "3",
                                "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["results"]) == 3


@pytest.mark.parametrize("n", [995, 4095])
def test_lower_bound_at_large_odd_n(capsys, n):
    # The census orbits are partitions of n, so no walk is as deep as n.
    code, out, err = run(capsys, ["lower-bound", "2", str(n), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["results"] == [{"p": 2, "n": n, "bound": str(1 << (n + 1) // 2)}]


def _classes_in_cli_order(p, n):
    """(count vector, size) of every class, ascending on count vectors as
    generate prints them, read off oracles.symmetric_classes."""
    return sorted((tuple(combo.count(s) for s in range(p)), size)
                  for combo, size in oracles.symmetric_classes(p, n))


def _check_generated(p, n, rows):
    """Each row is a distinct function that splits every orbit (the classes
    sharing sorted counts) into p equal groups, hence balanced."""
    classes = _classes_in_cli_order(p, n)
    functions = [tuple(map(int, row.split(",") if p > 10 else row)) for row in rows]
    assert len(set(functions)) == len(functions)
    for values in functions:
        assert len(values) == len(classes)
        orbits = {}
        for (counts, size), value in zip(classes, values):
            orbits.setdefault(tuple(sorted(counts)), []).append(value)
        for members in orbits.values():
            assert sorted(members) == sorted(list(range(p)) * (len(members) // p))
        weights = Counter()
        for (_, size), value in zip(classes, values):
            weights[value] += size
        assert weights == {value: p ** (n - 1) for value in range(p)}


@pytest.mark.parametrize("argv, count", [
    (["generate", "2", "1001", "--limit", "1"], 1),
    (["generate", "2", "4095", "--limit", "1"], 1),
    # An orbit of 120 classes (counts 0, 1, 2, 3, 5) has about 10^79 splits.
    (["generate", "5", "11", "--limit", "2"], 2),
    # One orbit of p classes, split into p groups of one class each.
    (["generate", "997", "1"], 10),
    (["generate", "4093", "1", "--limit", "2"], 2),
])
def test_generate_at_many_orbits_and_huge_orbits(capsys, argv, count):
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "index,values"
    rows = list(csv.reader(lines[1:]))
    assert [int(index) for index, _ in rows] == list(range(count))
    p, n = int(argv[1]), int(argv[2])
    if p == 2:
        # Orbit {i, n - i} puts its lower class on 0, and the classes below
        # n/2 hold half of the 2^n inputs.
        assert rows[0][1] == "0" * ((n + 1) // 2) + "1" * ((n + 1) // 2)
        assert sum(math.comb(n, i) for i in range((n + 1) // 2)) == 1 << (n - 1)
    else:
        _check_generated(p, n, [values for _, values in rows])
    if n == 1:
        assert rows[0][1] == ",".join(map(str, range(p)))


# ---------------------------------------------------------------- scans


def test_scan_c1_clean(capsys):
    code, out, _ = run(capsys, ["scan-c1", "--n-max", "12"])
    assert code == 0
    assert out == "scanned 66 cells with 2 <= d <= n <= 12; mismatches: 0\n"


def test_scan_c1_csv_header_and_booleans(capsys):
    code, out, _ = run(capsys, ["scan-c1", "--n-max", "8", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,n,weight,balanced,predicted"
    assert len(lines) == 1 + 28
    assert "2,3,4,true,true" in lines
    assert "2,4,10,false,false" in lines


def test_scan_c1_counterexample_exit(monkeypatch, capsys):
    fake = [ScanCell(d=3, n=5, weight=16, balanced=True, predicted=False)]
    monkeypatch.setattr(conjectures, "scan_conjecture1", lambda n_max: fake)
    code, out, _ = run(capsys, ["scan-c1", "--n-max", "5"])
    assert code == 2
    assert "mismatch at d=3, n=5" in out


def test_scan_c2_clean(capsys):
    code, out, _ = run(capsys, ["scan-c2", "--n-max", "130"])
    assert code == 0
    assert out.endswith("violations: 0\n")


def test_scan_c2_csv_header(capsys):
    code, out, _ = run(capsys, ["scan-c2", "--n-max", "126", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,n,weight,bound,below"
    assert len(lines) == 1 + 3  # d=63, n in 124..126
    for line in lines[1:]:
        assert line.startswith("63,") and line.endswith(",true")


def test_scan_c2_counterexample_exit(monkeypatch, capsys):
    fake = [BoundCell(d=63, n=124, weight=1 << 122, bound=1 << 122, below=False)]
    monkeypatch.setattr(conjectures, "scan_conjecture2", lambda n_max: fake)
    code, out, _ = run(capsys, ["scan-c2", "--n-max", "124"])
    assert code == 2
    assert "violation at d=63, n=124" in out


# ---------------------------------------------------------------- lacunary


def test_lacunary_all_residues(capsys):
    code, out, _ = run(capsys, ["lacunary", "10", "2", "--format", "csv"])
    assert code == 0
    assert out == ("i,exact,trig\n"
                   "0,256,256\n1,272,272\n2,256,256\n3,240,240\n")


def test_lacunary_single_residue(capsys):
    code, out, _ = run(capsys, ["lacunary", "10", "2", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"] == {"n": 10, "power": 2, "i": 1}
    assert payload["results"] == [{"i": 1, "exact": "272", "trig": "272"}]


def test_lacunary_residue_out_of_range(capsys):
    code, _, err = run(capsys, ["lacunary", "10", "2", "9"])
    assert code == 64
    assert "error" in err


@pytest.mark.parametrize("power", ["0", "-1"])
def test_lacunary_refuses_a_power_below_one(capsys, power):
    assert run(capsys, ["lacunary", "10", power]) == (64, "", "error: power must be at least 1\n")


@pytest.mark.parametrize("argv, code, err", [
    # Domain errors come before the n and power caps, with the library's message.
    (["5000", "0"], 64, "power must be at least 1"),
    (["-1", "13"], 64, "n must be non-negative"),
    (["5000", "2", "-3"], 64, "residue -3 out of range for modulus 2^2"),
    (["10", "13", "99999"], 64, "residue 99999 out of range for modulus 2^13"),
    (["10", "100000000000000000000", "5"], 65,
     "power=100000000000000000000 exceeds the cap 12"),
    (["5000", "2"], 65, "n=5000 exceeds the cap 4096"),
    (["10", "13", "5"], 65, "power=13 exceeds the cap 12"),
])
def test_lacunary_checks_its_domain_before_its_caps(capsys, argv, code, err):
    assert run(capsys, ["lacunary", *argv]) == (code, "", f"error: {err}\n")


# ---------------------------------------------------------------- csv


def csv_writer_output(result):
    """result's CSV as csv.writer writes it, booleans as true/false."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(result.table)
    for row in zip(*result.table.values()):
        writer.writerow([("true" if value else "false") if isinstance(value, bool) else value
                         for value in row])
    return out.getvalue()


# One call of each command; tables of one row, of many rows and of none.
ONE_CALL_EACH = [
    ["weight", "3", "6"], ["balanced", "2", "7"], ["sac", "3", "4"], ["walsh", "2", "8"],
    ["bisect", "8"], ["bisect", "10", "--enumerate"], ["count", "2", "3"],
    ["lower-bound", "3", "4"], ["generate", "3", "2"],
    # values of 10 and up are joined by commas, so the field is quoted
    ["generate", "13", "2", "--limit", "3"],
    ["scan-c1", "--n-max", "12"], ["scan-c2", "--n-max", "140"], ["lacunary", "10", "3"],
    ["lacunary", "10", "3", "5"], ["scan-c2", "--n-max", "100"],
]


@pytest.mark.parametrize("argv", ONE_CALL_EACH)
def test_csv_matches_csv_writer(capsys, argv):
    expected = csv_writer_output(cli._GRAMMAR[argv[0]][0](cli._parse(argv)))
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, out, err) == (0, expected, "")
    if argv[:2] == ["generate", "13"]:
        assert out.count('"') == 6


# The sizes of table the writers are checked at: none, one, a few, many.
ROW_COUNTS = [0, 1, 3, 11, 12, 25]


def with_lazy_columns(table, rows):
    """The table with a range column and a map column added, as a scan
    hands over lazy columns that can be read once, and a copy of it with
    those columns listed."""
    listed = {**table, "range": list(range(rows)), "map": list(map(str, range(rows)))}
    return {**table, "range": range(rows), "map": map(str, range(rows))}, listed


def test_csv_quotes_commas_and_quotes_as_csv_writer_does(capsys):
    # The kinds of column a command prints: strs of digits, signs and
    # commas (quoted when they hold one), bools, and big and negative ints.
    first = {"a": "1,2", "b": True, "c": -5, "d": "-3", "e": "+-+"}
    more = {"a": ["0", "10,11,12"], "b": [False, True], "c": [0, 10 ** 30],
            "d": ["12", "-4,5"], "e": ["", "-"]}
    for rows in ROW_COUNTS:
        table, listed = with_lazy_columns(
            {name: [value, *more[name] * rows][:rows] for name, value in first.items()}, rows)
        cli._emit(cli.CommandResult("x", {}, table, lambda: []), "csv", 0)
        out = capsys.readouterr().out
        assert out == csv_writer_output(cli.CommandResult("x", {}, listed, lambda: []))
        if rows:
            assert out.splitlines()[1] == '"1,2",true,-5,-3,+-+,0,0'


# ---------------------------------------------------------------- json


def json_dumps_output(result, elapsed_ms):
    """result's JSON as json.dumps writes it, with one object per row."""
    table = {name: list(values) for name, values in result.table.items()}
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    payload = {"command": result.command, "parameters": result.parameters,
               "results": rows, "runtime_ms": elapsed_ms}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv", ONE_CALL_EACH)
def test_json_matches_json_dumps(capsys, argv):
    handler, args = cli._GRAMMAR[argv[0]][0], cli._parse(argv)
    expected = json_dumps_output(handler(args), 0)
    cli._emit(handler(args), "json", 0)
    assert capsys.readouterr().out == expected
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, strip_runtime(out), err) == (0, expected, "")


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_json_escapes_strings_as_json_dumps_does(capsys, rows):
    # Columns of bools, of big and negative ints, and of strs of digits,
    # signs and commas, beside lazy columns; parameters that are ints or None.
    table = {"ok": [i % 2 == 0 for i in range(rows)],
             "int": [(-7) ** (9 * i) for i in range(rows)],
             "digits": [str(-7 ** i) for i in range(rows)],
             "values": [",".join(map(str, range(i, i + 3))) for i in range(rows)],
             "delta": ["+-"[i % 2] * (i + 1) for i in range(rows)]}
    parameters = {"n": -3, "limit": None, "p": 10 ** 30}
    table, listed = with_lazy_columns(table, rows)
    cli._emit(cli.CommandResult("walsh", parameters, table, lambda: []), "json", 7)
    expected = json_dumps_output(cli.CommandResult("walsh", parameters, listed, lambda: []), 7)
    assert capsys.readouterr().out == expected


# The writers' premise is checked on one call of each command and on
# tables of no row, of commas, of negative values and of scans at their
# defaults, with a limit left unset.
PREMISE_CALLS = ONE_CALL_EACH + [
    ["generate", "13", "2"], ["bisect", "20", "--limit", "5"], ["scan-c1"], ["scan-c2"]]


def test_tables_hold_only_what_the_writers_encode():
    # The JSON and CSV writers quote no name and escape no str: each column
    # holds one kind (int, bool or str), each str is of digits, signs and
    # commas, and each parameter is an int or None.
    seen = Counter()
    for argv in PREMISE_CALLS:
        result = cli._GRAMMAR[argv[0]][0](cli._parse(argv))
        names = [result.command, *result.table, *result.parameters]
        assert all(re.fullmatch(r"[a-z][a-z0-9_-]*", name) for name in names), argv
        for value in result.parameters.values():
            assert type(value) is int or value is None, argv
            seen["null"] += value is None
        for column in result.table.values():
            values = list(column)
            kinds = set(map(type, values))
            assert kinds <= {int} or kinds == {bool} or kinds == {str}, argv
            if kinds == {str}:
                assert all(re.fullmatch(r"[0-9+,-]*", value) for value in values), argv
                seen["comma"] += any("," in value for value in values)
                seen["negative"] += any(value[:1] == "-" for value in values)
            seen["empty"] += not values
    assert min(seen[key] for key in ("null", "comma", "negative", "empty")) > 0, seen


# ---------------------------------------------------------------- failures


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, ["no-such-command"])
    assert code == 64
    assert err != ""


def test_missing_arguments_is_usage_error(capsys):
    assert run(capsys, ["weight", "3"])[0] == 64
    assert run(capsys, [])[0] == 64


def test_non_integer_argument_is_usage_error(capsys):
    assert run(capsys, ["weight", "x", "7"])[0] == 64


def test_domain_error_maps_to_usage(capsys):
    # d = 0 is rejected by the library with a ValueError
    code, _, err = run(capsys, ["weight", "0", "5"])
    assert code == 64
    assert "error" in err
    assert run(capsys, ["balanced", "5", "4"]) == (
        64, "", "error: need 1 <= d <= n, got d=5, n=4\n")


@pytest.mark.parametrize("command", ["scan-c1", "scan-c2"])
def test_scans_reject_the_deleted_workers_flag(capsys, command):
    code, _, err = run(capsys, [command, "--workers", "1"])
    assert code == 64
    assert "unrecognized arguments: --workers 1" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ["bisect", "8", "--enumerate", "--limit", "-1"],
    ["generate", "3", "2", "--limit", "-2"],
])
def test_negative_limit_is_refused_while_parsing(monkeypatch, capsys, fmt, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("a handler ran on a negative limit")

    monkeypatch.setattr(bisection, "find_all_solutions", forbidden)
    monkeypatch.setattr(census, "generate_balanced", forbidden)
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, out) == (64, "")
    assert err.endswith(f"symbalance {argv[0]}: error: argument --limit: "
                        f"must be non-negative, not {argv[-1]}\n")
    assert err.startswith(f"usage: symbalance {argv[0]} ")


@pytest.mark.parametrize("command, rows", [(["bisect", "8", "--enumerate"], 4),
                                           (["generate", "3", "2"], 36)])
def test_a_limit_past_sys_maxsize_lists_everything(capsys, command, rows):
    # A limit only caps the listing: 2^63 - 1 and 10^20 both cap nothing.
    listed = run(capsys, command + ["--limit", str(sys.maxsize), "--format", "csv"])
    assert run(capsys, command + ["--limit", "9" * 20, "--format", "csv"]) == listed
    code, out, err = listed
    assert (code, len(out.splitlines()), err) == (0, 1 + rows, "")


@pytest.mark.parametrize("command", [["bisect", "8", "--enumerate"], ["generate", "3", "2"]])
def test_non_integer_limit_keeps_the_int_message(capsys, command):
    code, _, err = run(capsys, command + ["--limit", "1.5"])
    assert code == 64
    assert err.endswith("error: argument --limit: invalid int value: '1.5'\n")


def test_orbit_split_maps_to_usage(capsys):
    code, _, err = run(capsys, ["lower-bound", "2", "2"])
    assert code == 64
    assert "error" in err


@pytest.mark.parametrize("argv", [["lower-bound", "3", "3000"],
                                  # the largest multiple of 3 under the class cap
                                  ["generate", "3", "87"]])
def test_orbit_split_refusal_walks_no_partitions(monkeypatch, capsys, argv):
    def forbidden(n, p):
        raise AssertionError("the refusal walked the partitions")

    monkeypatch.setattr(census, "_orbit_walk", forbidden)
    assert run(capsys, argv) == (
        64, "", f"error: p=3 divides n={argv[2]}: some orbit cannot be split into p groups\n")


@pytest.mark.parametrize("argv", [
    ["scan-c1", "--n-max", "100"],
    ["walsh", "2", str(cli.WALSH_MAX_N + 1)],
    ["count", "2", "21"],
    ["bisect", "33"],
    ["lacunary", "5000", "2"],
    ["lacunary", "10", "13"],
])
def test_budget_exhaustion(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 65
    assert "error" in err


def test_walsh_answers_at_the_cap(capsys):
    code, out, _ = run(capsys, ["walsh", "2", str(cli.WALSH_MAX_N)])
    assert code == 0
    assert len(out.splitlines()) == cli.WALSH_MAX_N + 1


def test_route_disagreement_maps_to_internal(monkeypatch, capsys):
    # All residues and one residue run the same loop against one patched route.
    monkeypatch.setattr(exactnum, "lacunary_trig_sums", lambda n, power, residues: (-1, -1))
    for argv in (["lacunary", "4", "1"], ["lacunary", "4", "1", "0"]):
        code, _, err = run(capsys, argv)
        assert code == 70
        assert err == ("internal check failed: lacunary routes disagree "
                       "at n=4, i=0: 8 vs -1\n")


def test_bisection_count_disagreement_maps_to_internal(monkeypatch, capsys):
    # The census DP, one off, against the count the fold lists.
    count = bisection.brute_count_balanced_symmetric
    monkeypatch.setattr(bisection, "brute_count_balanced_symmetric",
                        lambda p, n: count(p, n) + 1)
    code, out, err = run(capsys, ["bisect", "13", "--enumerate"])
    assert (code, out) == (70, "")
    assert err == ("internal check failed: bisection routes disagree at n=13: "
                   "the census leaves 17 nontrivial solutions, the fold 16\n")
    assert run(capsys, ["bisect", "13"])[0] == 0


def test_count_refuses_before_the_product_of_binomials(monkeypatch, capsys):
    def forbidden(p, n):
        raise AssertionError("count_balanced_all ran before the budget check")

    monkeypatch.setattr(census, "count_balanced_all", forbidden)
    code, out, err = run(capsys, ["count", "3", "12"])
    assert (code, out) == (65, "")
    assert err == "error: assignment space p^91 exceeds the 2^96 cap\n"


@pytest.mark.parametrize("p", [65537, 1048573])
def test_count_refuses_a_large_p_before_computing(monkeypatch, capsys, p):
    # p^n <= 2^20, but the census DP's budget refuses; p^p is never formed.
    def forbidden(p, n):
        raise AssertionError("count_symmetric ran before the budget check")

    monkeypatch.setattr(census, "count_symmetric", forbidden)
    started = time.perf_counter()
    result = run(capsys, ["count", str(p), "1"])
    assert time.perf_counter() - started < 1
    assert result == (65, "", f"error: assignment space p^{p} exceeds the 2^96 cap\n")


@pytest.mark.parametrize("argv, message", [
    (["count", "2", "-1"], "n must be non-negative"),
    (["count", "2", "0"], "balance needs n >= 1"),
    (["count", "4", "3"], "p=4 is not prime"),
    (["count", "0", "-1"], "p=0 is not prime"),
])
def test_count_domain_errors_keep_their_messages(capsys, argv, message):
    assert run(capsys, argv) == (64, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["count", "4", "100"], "p=4 is not prime"),
    (["count", "-3", "22"], "p=-3 is not prime"),
    (["walsh", "3000", "2000"], "need 1 <= d <= n, got d=3000, n=2000"),
    (["walsh", "0", "5000"], "need 1 <= d <= n, got d=0, n=5000"),
])
def test_count_and_walsh_check_their_domain_before_their_caps(capsys, argv, message):
    # Each argv is past its command's cap as well.
    assert run(capsys, argv) == (64, "", f"error: {message}\n")


@pytest.mark.parametrize("p, n", [("-5", "2"), ("-2", "1"), ("0", "0"), ("-1", "0")])
def test_generate_names_a_p_below_one_not_a_valid_n(capsys, p, n):
    # The class cap C(p + n - 1, n) is not formed for p < 1, so the census
    # refuses p, not n.
    assert run(capsys, ["generate", p, n]) == (64, "", f"error: p={p} is not prime\n")


@pytest.mark.parametrize("n", ["-5", "100"])
def test_generate_checks_p_before_the_class_cap(capsys, n):
    # p and n are checked as the census checks them before C(p + n - 1, n)
    # is formed: a non-prime p is named whether n is negative or past the cap.
    assert run(capsys, ["generate", "4", n]) == (64, "", "error: p=4 is not prime\n")


@pytest.mark.parametrize("argv, message", [
    (["count", "2305843009213693951", "0"], "balance needs n >= 1"),
    (["generate", "2305843009213693951", "0"],
     "p=2305843009213693951 divides n=0: some orbit cannot be split into p groups"),
])
def test_a_61_bit_prime_is_recognised_at_once(capsys, argv, message):
    started = time.perf_counter()
    result = run(capsys, argv)
    assert time.perf_counter() - started < 1
    assert result == (64, "", f"error: {message}\n")


def test_count_refuses_a_large_n_before_forming_p_to_the_n(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, ["count", "2", "3000000"])
    assert time.perf_counter() - started < 1
    assert (code, out) == (65, "")
    assert err == "error: p^n=2^3000000 exceeds the counting cap 1048576\n"
    # Where p^n is short enough to print, the message gives its decimal.
    assert run(capsys, ["count", "3", "13"]) == (
        65, "", "error: p^n=1594323 exceeds the counting cap 1048576\n")
    assert run(capsys, ["count", "2", "7000"])[2] == (
        f"error: p^n={2 ** 7000} exceeds the counting cap 1048576\n")
    assert run(capsys, ["count", "2", "7001"])[2] == (
        "error: p^n=2^7001 exceeds the counting cap 1048576\n")
    assert run(capsys, ["count", "-2", "3000001"]) == (64, "", "error: p=-2 is not prime\n")


# (2^31 - 1)(2^61 - 1): past the proven range of the strong-base test,
# where trial division would run for minutes.
PAST_PRIMALITY_RANGE = ((1 << 31) - 1) * ((1 << 61) - 1)


@pytest.mark.parametrize("command", ["count", "lower-bound", "generate"])
def test_a_p_past_the_proven_primality_range_is_refused_at_once(capsys, command):
    started = time.perf_counter()
    result = run(capsys, [command, str(PAST_PRIMALITY_RANGE), "0"])
    assert time.perf_counter() - started < 1
    assert result == (65, "", f"error: p={PAST_PRIMALITY_RANGE} is past the proven "
                              f"primality range p < 3317044064679887385961981\n")


def test_lower_bound_refuses_past_its_output_cap(monkeypatch, capsys):
    # 13 10 is about 2^131507: the product of factorials is never formed.
    def forbidden(p, sizes):
        raise AssertionError("the product of factorials ran before the budget check")

    # The command forms the bound with census._split_count, as
    # lower_bound_balanced does.
    monkeypatch.setattr(census, "_split_count", forbidden)
    started = time.perf_counter()
    result = run(capsys, ["lower-bound", "13", "10"])
    assert time.perf_counter() - started < 1
    assert result == (65, "", "error: the bound for p=13, n=10 exceeds 2^131072\n")


def test_lower_bound_forms_no_factorial_before_its_refusal(monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("a factorial was formed before the budget check")

    monkeypatch.setattr(math, "factorial", forbidden)
    assert run(capsys, ["lower-bound", "13", "10"]) == (
        65, "", "error: the bound for p=13, n=10 exceeds 2^131072\n")
    assert run(capsys, ["lower-bound", "2", "1000000001"]) == (
        65, "", "error: the bound for p=2, n=1000000001 exceeds 2^131072\n")


@pytest.fixture
def unlimited_digits():
    """Lift the int/str digit limit (Python 3.10.7 and later) while a test
    writes out its expected bounds, which run to 40k digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# lower-bound 2 4095 is checked by test_lower_bound_at_large_odd_n.
@pytest.mark.parametrize("p, n", [(13, 3), (13, 6),
                                  # the forms-census workload's pairs
                                  *((2, n) for n in range(1, 32, 2)),
                                  *((3, n) for n in (1, 2, 4, 5, 7, 8)),
                                  *((5, n) for n in range(1, 5)),
                                  *((7, n) for n in range(1, 4)), (11, 2)])
def test_lower_bound_answers_under_its_output_cap(capsys, unlimited_digits, p, n):
    bound = lower_bound_balanced(p, n)
    assert bound.bit_length() <= cli.LOWER_BOUND_MAX_BITS
    assert run(capsys, ["lower-bound", str(p), str(n)]) == (
        0, f"at least {bound} balanced symmetric functions for p={p}, n={n}\n", "")


def test_lower_bound_reads_each_orbit_once(monkeypatch, capsys):
    bound = lower_bound_balanced(3, 7)
    read = Counter()
    walk = census._orbit_walk

    def key(parts, multiplicities):
        # A partition's distinct parts and their counts fix it.
        return tuple(parts), tuple(multiplicities)

    def counted(n, p):
        for state in walk(n, p):
            read[key(*state)] += 1
            yield state

    monkeypatch.setattr(census, "_orbit_walk", counted)
    assert run(capsys, ["lower-bound", "3", "7"]) == (
        0, f"at least {bound} balanced symmetric functions for p=3, n=7\n", "")
    assert read == Counter(key(*state) for state in walk(7, 3))


def test_lower_bound_cap_is_on_log2_of_the_bound(capsys, unlimited_digits):
    # lower_bound_balanced(2, n) = 2^((n + 1)/2): exactly 2^131072 is
    # answered, twice that is refused.
    assert cli.LOWER_BOUND_MAX_BITS == 1 << 17
    assert run(capsys, ["lower-bound", "2", "262143", "--format", "csv"]) == (
        0, f"p,n,bound\n2,262143,{1 << 131072}\n", "")
    assert run(capsys, ["lower-bound", "2", "262145"]) == (
        65, "", "error: the bound for p=2, n=262145 exceeds 2^131072\n")


def test_all_residue_lacunary_budget_at_the_cap(capsys):
    # lacunary 569 11 needs exactly the cap; one more n is over it.
    assert 2 ** 21 * (2 * 569 + 2 * 11 + 32) == cli.LACUNARY_ALL_MAX_WORK
    code, out, _ = run(capsys, ["lacunary", "569", "11", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2048
    assert rows[100] == f"100,{math.comb(569, 100)},{math.comb(569, 100)}"
    assert rows[600] == "600,0,0"
    code, out, err = run(capsys, ["lacunary", "570", "11"])
    assert (code, out) == (65, "")
    assert err.startswith("error: all residues of n=570 mod 2048 need work")
    # A single residue does one angle sum, so it is not refused.
    assert run(capsys, ["lacunary", "570", "11", "5"])[0] == 0


@pytest.mark.parametrize("argv", [
    ["lacunary", "100", "6"],
    ["lacunary", "4096", "12", "0"],
    # Past the old 96-bit route, one per workload power.
    ["lacunary", "213", "2"],
    ["lacunary", "170", "3"],
    ["lacunary", "133", "4"],
    ["lacunary", "130", "5"],
    ["lacunary", "135", "6"],
    ["lacunary", "137", "7"],
    ["lacunary", "140", "8", "77"],
    ["lacunary", "140", "9", "300"],
    ["lacunary", "140", "10", "1000"],
    ["lacunary", "140", "11", "2047"],
    ["lacunary", "140", "12", "4000"],
])
def test_lacunary_answers_past_the_old_96_bit_route(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    n, power = int(argv[1]), int(argv[2])
    residues = [int(argv[3])] if len(argv) > 3 else range(1 << power)
    sums = [(i, oracles.lacunary_sum_direct(n, power, i)) for i in residues]
    expected = [f"{i},{s},{s}" for i, s in sums]
    assert out.splitlines() == ["i,exact,trig"] + expected


# Modules that neither importing the package nor running any well-formed
# command loads: scans run serially, so no process machinery; mpmath loads
# only with the library's weight closed forms, and fractions never; records are
# named tuples, so dataclasses (and the inspect it pulls in) never load;
# argparse (with gettext and locale) loads only for help and usage errors.
HEAVY_MODULES = ("'mpmath', 'dataclasses', 'inspect', 'fractions', "
                 "'concurrent.futures', 'multiprocessing', 'argparse', 'gettext', 'locale'")


def run_fresh_interpreter(lines):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "\n".join(lines + [
        f"sys.exit(sorted({{{HEAVY_MODULES}}} & set(sys.modules)) or 0)",
    ])
    return subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


def test_import_starts_no_process_machinery():
    done = run_fresh_interpreter(["import sys", "import symbalance.cli"])
    assert done.returncode == 0, done.stderr


def test_no_command_loads_mpmath():
    done = run_fresh_interpreter([
        "import contextlib, io, sys",
        "import symbalance, symbalance.cli as cli",
        "commands = [['lacunary', '140', '12', '4000'], ['lacunary', '60', '3'],",
        "            ['scan-c1'], ['weight', '1', '1'], ['balanced', '4', '100'],",
        "            ['sac', '3', '10'], ['walsh', '3', '10'], ['bisect', '12', '--enumerate'],",
        "            ['count', '3', '3'], ['lower-bound', '3', '4'], ['generate', '3', '2'],",
        "            ['lower-bound', '3', '3000'], ['scan-c2', '--n-max', '130']]",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "    codes = [cli.main(argv) for argv in commands]",
        "if codes != [0] * 11 + [64, 0]:",
        "    sys.exit(f'exit codes {codes}')",
    ])
    assert done.returncode == 0, done.stderr


def test_text_and_json_commands_load_no_csv():
    done = run_fresh_interpreter([
        "import contextlib, io, sys",
        "import symbalance.cli as cli",
        "commands = [['weight', '3', '6'], ['lacunary', '10', '2', '--format', 'json'],",
        "            ['bisect', '8', '--enumerate', '--limit', '2', '--format', 'json'],",
        "            ['generate', '3', '2', '--limit', '1'], ['scan-c1', '--n-max', '20']]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(argv) for argv in commands]",
        "if codes != [0] * 5:",
        "    sys.exit(f'exit codes {codes}')",
        "if 'csv' in sys.modules:",
        "    sys.exit('csv loaded')",
    ])
    assert done.returncode == 0, done.stderr


def test_import_loads_no_submodule():
    # Each public name is imported when first read; submodules, import *
    # and dir() work as they did when the package imported them all.
    done = run_fresh_interpreter([
        "import sys",
        "import symbalance",
        "names = len(symbalance.__all__), symbalance.__version__",
        "loaded = sorted(m for m in sys.modules if m.startswith('symbalance'))",
        "if loaded != ['symbalance'] or names != (35, '0.1.0'):",
        "    sys.exit(f'loaded {loaded}, names {names}')",
        "if symbalance.census.lower_bound_balanced(3, 4) != 19440:",
        "    sys.exit('symbalance.census after a bare import')",
        "if symbalance.weight_elem is not sys.modules['symbalance.symfun'].weight_elem:",
        "    sys.exit('weight_elem is not symfun.weight_elem')",
        "star = {}",
        "exec('from symbalance import *', star)",
        "if sorted(set(star) - {'__builtins__'}) != sorted(symbalance.__all__):",
        "    sys.exit('import * differs from __all__')",
        "if not {*symbalance.__all__, 'census', 'symfun'} <= set(dir(symbalance)):",
        "    sys.exit('dir() misses a name')",
        "if hasattr(symbalance, 'pascal_row') or hasattr(symbalance, 'cli'):",
        "    sys.exit('a name outside __all__ is exported')",
    ])
    assert done.returncode == 0, done.stderr


# One well-formed call of each command, in each format, the command module
# that holds its handler, and the package modules it runs besides cli and
# errors.
COMMAND_MODULES = [
    (["weight", "1", "1", "--format", "json"], "symfun", ["symfun"]),
    (["balanced", "4", "100"], "symfun", ["symfun"]),
    (["sac", "3", "10", "--format", "csv"], "spectral", ["spectral", "symfun"]),
    (["walsh", "3", "10", "--format", "json"], "spectral", ["exactnum", "spectral", "symfun"]),
    (["bisect", "12", "--enumerate", "--format", "csv"], "bisection",
     ["bisection", "census", "exactnum", "symfun"]),
    (["count", "3", "3"], "census", ["census", "exactnum", "symfun"]),
    (["lower-bound", "3", "4", "--format", "csv"], "census", ["census", "exactnum", "symfun"]),
    (["generate", "13", "2", "--limit", "2", "--format", "csv"], "census",
     ["census", "exactnum", "symfun"]),
    (["scan-c1", "--n-max", "20"], "conjectures", ["conjectures", "exactnum", "symfun"]),
    (["scan-c2", "--n-max", "130", "--format", "csv"], "conjectures",
     ["conjectures", "exactnum", "symfun"]),
    (["lacunary", "60", "3", "--format", "json"], "exactnum", ["exactnum"]),
]


@pytest.mark.parametrize("argv, family, modules", COMMAND_MODULES,
                         ids=[a[0] for a, _, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, family, modules):
    # JSON and CSV are written without the json and csv modules, and no
    # call loads the command module of another family.
    expected = sorted(["symbalance", "symbalance.cli", "symbalance.errors",
                       "symbalance.commands", f"symbalance.commands.{family}",
                       *(f"symbalance.{module}" for module in modules)])
    done = run_fresh_interpreter([
        "import contextlib, io, sys",
        "import symbalance.cli as cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = cli.main({argv!r})",
        "loaded = sorted(m for m in sys.modules",
        "                if m in ('json', 'csv') or m.startswith('symbalance'))",
        f"if (code, loaded) != (0, {expected!r}):",
        "    sys.exit(f'exit code {code}, loaded {loaded}')",
    ])
    assert done.returncode == 0, done.stderr


def test_each_handler_lives_in_its_command_module():
    assert [name for name in vars(cli) if name.startswith("_cmd_")] == []
    families = {argv[0]: family for argv, family, _ in COMMAND_MODULES}
    assert sorted(families) == sorted(cli._GRAMMAR)
    for command, (handler, *_) in cli._GRAMMAR.items():
        module = importlib.import_module(f"symbalance.commands.{families[command]}")
        function = getattr(module, "_cmd_" + command.replace("-", "_"))
        assert function.__module__ == module.__name__
        assert (handler.module, handler.name) == (module.__name__, function.__name__)


def run_module(*argv):
    """python -m symbalance.cli, which reads its argv from sys.argv."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-m", "symbalance.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"},
                          capture_output=True, text=True)


def test_module_entry_point_reads_sys_argv():
    done = run_module("weight", "3", "6")
    assert (done.returncode, done.stdout, done.stderr) == (0, "wt(X(3,6)) = 20\n", "")
    done = run_module("--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: symbalance [-h]")
    done = run_module("weight", "x", "6")
    assert (done.returncode, done.stdout, done.stderr) == (
        64, "", "usage: symbalance weight [-h] [--format {text,json,csv}] d n\n"
                "symbalance weight: error: argument d: invalid int value: 'x'\n")


# ---------------------------------------------------------------- parser


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    def forbidden():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", forbidden)
    assert run(capsys, ["weight", "3", "6"]) == (0, "wt(X(3,6)) = 20\n", "")


def test_bisect_options_do_not_carry_over(capsys):
    code, out, _ = run(capsys, ["bisect", "8", "--enumerate", "--limit", "2"])
    assert code == 0
    assert len(out.splitlines()) == 3
    assert run(capsys, ["bisect", "8"]) == (
        0, "n=8: 6 solutions (2 trivial, 4 nontrivial)\n", "")


def test_generate_limit_does_not_carry_over(capsys):
    # p = 3, n = 2 has 36 balanced functions, so the default limit of 10 bites
    code, out, _ = run(capsys, ["generate", "3", "2", "--limit", "1"])
    assert (code, len(out.splitlines())) == (0, 1)
    code, out, _ = run(capsys, ["generate", "3", "2"])
    assert (code, len(out.splitlines())) == (0, 10)


def test_usage_error_leaves_the_parser_usable(capsys):
    code, _, err = run(capsys, ["weight", "x", "6"])
    assert code == 64
    assert "invalid int value" in err
    assert run(capsys, ["weight", "3", "6"]) == (0, "wt(X(3,6)) = 20\n", "")


def test_help_exits_cleanly(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "usage" in out


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


_INTS = st.integers(-30, 30).map(str) | st.sampled_from(
    ["+5", " 5", "5 ", " -5", "5_0", "-0", "٣"])
_TOKENS = _INTS | st.sampled_from([
    *cli._GRAMMAR, "--format", "--form", "--format=json", "--enumerate", "--enum",
    "--limit", "--lim", "--limit=2", "--n-max", "--n", "--n-max=5", "--", "-h", "--help",
    "text", "json", "csv", "xml", "", "x", "1.5", "i", "-", "--workers", "-x"])


@st.composite
def canonical_argvs(draw):
    """A call in the form _parse reads: a command, its positionals, then
    --format and the command's own options, each with a value it takes."""
    command = draw(st.sampled_from(list(cli._GRAMMAR)))
    _, _, required, optional = cli._GRAMMAR[command]
    argv = [command, *(str(draw(st.integers(0, 99))) for _ in required)]
    if "i" in optional and draw(st.booleans()):
        argv.append(str(draw(st.integers(0, 99))))
    flags = [flag for flag in optional if flag[0] == "-"] + ["--format"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        kind = cli._FORMATS if flag == "--format" else optional[flag][0]
        argv += ([flag] if kind is bool else
                 [flag, draw(st.sampled_from(kind)) if isinstance(kind, tuple)
                  else str(draw(st.integers(0, 99)))])
    return argv


@st.composite
def near_canonical_argvs(draw):
    """A canonical call with one or two tokens replaced, inserted or dropped."""
    argv = draw(canonical_argvs())
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "insert", "drop"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, draw(_TOKENS))
        elif edit == "replace":
            argv[at] = draw(_TOKENS)
        else:
            del argv[at]
    return argv


@settings(max_examples=600, deadline=None)
@given(argv=st.lists(_TOKENS, max_size=7) | near_canonical_argvs())
def test_fast_parse_defers_or_agrees_with_argparse(argv):
    # Every argv _parse reads gets argparse's attributes; where argparse
    # prints help or a usage error, _parse defers to it.
    parsed = cli._parse(argv)
    if parsed is not None:
        assert vars(parsed) == argparse_vars(argv)


@settings(max_examples=200, deadline=None)
@given(argv=canonical_argvs())
def test_fast_parse_reads_every_canonical_call(argv):
    parsed = cli._parse(argv)
    assert parsed is not None
    assert vars(parsed) == argparse_vars(argv)


@pytest.mark.parametrize("argv, parsed, code, stream, message", [
    # a negative positional is argparse's to read; the library refuses n < d
    (["weight", "5", "-3"], None, 64, "err", "error: need 1 <= d <= n, got d=5, n=-3\n"),
    (["bisect", "--enumerate", "8"], None, 0, "out", "+---++--+\n+--++---+\n"),
    (["weight", "3", "6", "--format", "json", "--format", "csv"],
     {"command": "weight", "format": "csv", "d": 3, "n": 6}, 0, "out", "d,n,weight\n3,6,20\n"),
    (["weight", "5", "6", "-h"], None, 0, "out", "output format\n"),
    (["lacunary", "10", "2", "--format", "csv"],
     {"command": "lacunary", "format": "csv", "n": 10, "power": 2, "i": None},
     0, "out", "3,240,240\n"),
    # a limit is non-negative however it is spelled
    (["bisect", "8", "--enumerate", "--limit", " -1"], None,
     64, "err", "error: argument --limit: must be non-negative, not -1\n"),
    # a positional's name is not an option
    (["lacunary", "87", "12", "5", "i", "3"], None,
     64, "err", "error: unrecognized arguments: i 3\n"),
    ([], None, 64, "err", "error: the following arguments are required: command\n"),
])
def test_fast_parse_named_cases(capsys, argv, parsed, code, stream, message):
    fast = cli._parse(argv)
    assert (fast if fast is None else vars(fast)) == parsed
    done_code, out, err = run(capsys, argv)
    assert done_code == code
    assert {"out": out, "err": err}[stream].endswith(message)


@pytest.mark.parametrize("argv", [
    # a positional after an option: whether argparse reads 1289 as i, once
    # i has taken its default, differs between CPython releases
    ["lacunary", "87", "12", "--format", "json", "1289"],
    # how argparse lists the choices of a bad command differs too
    ["no-such-command"],
])
def test_fast_parse_defers_what_argparse_reads_by_release(capsys, argv):
    assert cli._parse(argv) is None
    try:
        parsed = cli._build_parser().parse_args(argv)
    except SystemExit:
        parsed = None
    parser_out, parser_err = capsys.readouterr()
    if parsed is None:
        assert run(capsys, argv) == (cli.EXIT_USAGE, parser_out, parser_err)
        return
    expected_code = cli._answer(parsed)
    expected = capsys.readouterr()
    code, out, err = run(capsys, argv)
    assert (code, strip_runtime(out), err) == (
        expected_code, strip_runtime(expected.out), expected.err)
