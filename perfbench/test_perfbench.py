"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from symbalance import cli  # noqa: E402
from symbalance.conjectures import weight_trig_wt2, weight_trig_wt3  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    assert first != workloads.build(workload, 8)
    assert len(first) >= 50


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _answer(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", [
    ("weight", "3", "40", "--format", "json"),
    ("balanced", "4", "63", "--format", "csv"),
    ("walsh", "3", "9", "--format", "json"),
    ("bisect", "13", "--enumerate", "--limit", "5", "--format", "csv"),
    ("count", "3", "2", "--format", "json"),
    ("generate", "3", "2", "--limit", "4", "--format", "csv"),
])
def test_checker_flags_corrupted_answer(argv):
    op = workloads.Op("cli", argv)
    expect = reference.expected(op)
    code, text = _answer(argv)
    assert reference.check(op, expect, (code, text)) is None
    answer = text.split('"runtime_ms"')[0]  # JSON carries a timing after the rows
    last = max(i for i, c in enumerate(answer) if c.isdigit())
    corrupted = text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1:]
    assert reference.check(op, expect, (code, corrupted)) is not None
    assert reference.check(op, expect, (70, "")) is not None


def test_checker_flags_corrupted_closed_form():
    op = workloads.Op("wt2", (2, 40))
    expect = reference.expected(op)
    series, correction = weight_trig_wt2(2, 40)
    assert reference.check(op, expect, (series, correction)) is None
    assert reference.check(op, expect, (series + 1, correction)) is not None


def test_closed_forms_past_the_route_are_wrong_on_the_seed():
    """The past-limit calls measure a known seed defect: each is checked,
    and on the seed each one fails."""
    past = [op for op in workloads.build("forms-census", 3) if op.past_limit]
    assert len(past) == 4
    for op in past:
        value = (weight_trig_wt2 if op.kind == "wt2" else weight_trig_wt3)(*op.args)
        assert reference.check(op, reference.expected(op), value) is not None, op


def test_row_cache_bytes_follows_lru_order():
    @functools.lru_cache(maxsize=2)
    def row(n):
        return tuple(range(10 ** n, 10 ** n + n + 1))

    tracer = layertrace.Tracer({})
    recorded = tracer._row_recorder(row)
    for n in (1, 2, 1, 3):  # 2 is evicted, 1 and 3 stay
        recorded(n)
    size = {n: sys.getsizeof(row(n)) + sum(map(sys.getsizeof, row(n))) for n in (1, 3)}
    assert tracer.row_cache_bytes(row.cache_info().currsize) == size[1] + size[3]


def test_frozen_bisection_table():
    nontrivial = {n for n in range(33) if reference.nontrivial_bisections(n)}
    assert nontrivial == {8, 13, 14, 20, 24, 26, 29, 31, 32}


def test_smallest_setting_end_to_end():
    done = _run("--workload", "forms-census", "--seed", "0", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    assert result["failed"] > 0  # the seed's exit-64 counts are measured
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smallest_setting_traced():
    done = _run("--workload", "forms-census", "--seed", "0", "--seconds", "0",
                "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    value = {k: v["value"] for k, v in metrics.items()}
    for name in ("conjectures.scan_s", "spectral.walsh_spectrum_s",
                 "exactnum.binom.uncached_calls", "symfun.weight_elem.calls"):
        assert value[name] == 0, name
    for name in ("bisection.calls", "census.functions_generated",
                 "conjectures.trig.calls", "exactnum.cospi_frac.calls"):
        assert value[name] > 0, name


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run("--workload", "scan-rows", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
