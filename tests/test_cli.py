"""End-to-end tests for the command line interface.

Each test drives main() directly with an argv list and inspects stdout,
stderr, and the exit code.  JSON payloads are parsed back and checked
against frozen expectations; CSV output is checked byte-for-byte where
the contract demands it.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

import oracles
import symbalance.census as census
import symbalance.cli as cli
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
    monkeypatch.setattr(cli, "scan_conjecture1", lambda n_max: fake)
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
    monkeypatch.setattr(cli, "scan_conjecture2", lambda n_max: fake)
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

    monkeypatch.setattr(cli, "find_all_solutions", forbidden)
    monkeypatch.setattr(cli, "generate_balanced", forbidden)
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, out) == (64, "")
    assert err.endswith(f"symbalance {argv[0]}: error: argument --limit: "
                        f"must be non-negative, not {argv[-1]}\n")
    assert err.startswith(f"usage: symbalance {argv[0]} ")


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

    monkeypatch.setattr(census, "_partitions", forbidden)
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
    monkeypatch.setattr(cli, "lacunary_trig_sums", lambda n, power, residues: (-1, -1))
    for argv in (["lacunary", "4", "1"], ["lacunary", "4", "1", "0"]):
        code, _, err = run(capsys, argv)
        assert code == 70
        assert err == ("internal check failed: lacunary routes disagree "
                       "at n=4, i=0: 8 vs -1\n")


def test_count_refuses_before_the_product_of_binomials(monkeypatch, capsys):
    def forbidden(p, n):
        raise AssertionError("count_balanced_all ran before the budget check")

    monkeypatch.setattr(cli, "count_balanced_all", forbidden)
    code, out, err = run(capsys, ["count", "3", "12"])
    assert (code, out) == (65, "")
    assert err == "error: assignment space p^91 exceeds the 2^96 cap\n"


@pytest.mark.parametrize("p", [65537, 1048573])
def test_count_refuses_a_large_p_before_computing(monkeypatch, capsys, p):
    # p^n <= 2^20, but the census DP's budget refuses; p^p is never formed.
    def forbidden(p, n):
        raise AssertionError("count_symmetric ran before the budget check")

    monkeypatch.setattr(cli, "count_symmetric", forbidden)
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


def test_import_starts_no_process_machinery():
    # Scans run serially; importing the CLI must not pay for process pools.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import symbalance.cli, sys; "
             "sys.exit(sorted({'concurrent.futures', 'multiprocessing'} "
             "& set(sys.modules)) or 0)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_no_command_loads_mpmath():
    # mpmath is imported only by the library's weight closed forms.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "\n".join([
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
        "if 'mpmath' in sys.modules:",
        "    sys.exit('mpmath was loaded')",
    ])
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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
