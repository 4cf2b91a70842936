"""symbalance benchmark: one closed-loop client, in-process calls.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-rows --seed 1 --seconds 50 --trace 0

The workload's operation list is built from the seed (workloads.py) and
the expected answers are computed outside the timed region
(reference.py).  The list then runs as a pass, again and again, until
--seconds have gone by (at least MIN_PASSES times); every cache of the
package is cleared before each pass, so each pass starts as a fresh
session would.  After each pass every answer is checked.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1, traced and untraced passes alternate
and it holds the per-layer metrics (layertrace.py).  The spans of a traced
run are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 3
SETUP_RUNS = 24
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

# Fresh-interpreter set-up: import the package, build the parser and
# answer the smallest query.  Prints the seconds taken and the module path.
_SETUP_CODE = """
import contextlib, io, time
started = time.perf_counter()
import symbalance.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["weight", "1", "1", "--format", "json"])
elapsed = time.perf_counter() - started
print(elapsed if code == 0 else -1.0, cli.__file__)
"""


def import_program():
    """Import symbalance from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import symbalance.cli  # noqa: F401  (the package under test)
    import symbalance.conjectures
    found = Path(symbalance.cli.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise ImportError(f"symbalance was imported from {found}, not {SRC}")
    return symbalance


def time_setup() -> float:
    """Set-up seconds of one fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, path = done.stdout.split(maxsplit=1)
    if float(seconds) < 0 or SRC.resolve() not in Path(path.strip()).resolve().parents:
        raise RuntimeError(f"set-up run failed: {done.stdout!r} {done.stderr!r}")
    return float(seconds)


def pin_cpu(index: int) -> None:
    """Move this process to the index-th allowed CPU, round robin.  On a
    shared host one CPU can be slowed by its neighbours for seconds while
    another is not; with passes spread over the CPUs, an operation's best
    time comes from the quieter one."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def make_caller(program):
    cli, conjectures = program.cli, program.conjectures

    def call(op: workloads.Op):
        if op.kind == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.args))
            return code, out.getvalue()
        if op.kind == "wt2":
            return conjectures.weight_trig_wt2(*op.args)
        return conjectures.weight_trig_wt3(*op.args)
    return call


class Pass:
    """Timings and checked outcomes of one run through the operation list."""

    def __init__(self, call, ops, expects, caches, tracer=None):
        clear_and_collect(caches)
        outcomes, self.latencies, self.cpus = [], [], []
        clock, cpu_clock = time.perf_counter, time.process_time
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            cpu_began, began = cpu_clock(), clock()
            try:
                outcomes.append(call(op))
            except Exception as exc:  # a failed operation, not a benchmark fault
                outcomes.append(exc)
            self.latencies.append(clock() - began)
            self.cpus.append(cpu_clock() - cpu_began)
        self.failures = []
        self.wrong = 0
        self.output_bytes = 0
        for op, expect, outcome in zip(ops, expects, outcomes):
            if isinstance(outcome, Exception):
                self.failures.append((op, f"raised {type(outcome).__name__}: {outcome}"))
                continue
            if op.kind == "cli":
                self.output_bytes += len(outcome[1].encode())
            reason = reference.check(op, expect, outcome)
            if reason is not None:
                self.failures.append((op, reason))
                # A wrong answer, as opposed to a refusal, a crash, or a
                # closed form past the seed's 96-bit route.
                if op.kind == "cli":
                    self.wrong += outcome[0] == expect.exit_code
                else:
                    self.wrong += not op.past_limit


def best_times(passes: list[Pass], field: str = "latencies") -> list[float]:
    """Each operation's best time across the passes.  The shared host has
    slow spells, from under a second to tens of seconds and up to twice as
    slow, that only ever add time; an operation's best time is its cost
    when nothing else ran."""
    return [min(column) for column in zip(*(getattr(p, field) for p in passes))]


def clear_and_collect(caches: dict) -> None:
    layertrace.clear_caches(caches)
    gc.collect()


def layer_metrics(tracer: layertrace.Tracer, caches: dict, done: Pass) -> dict:
    """Per-layer metrics of one traced pass."""
    info = layertrace.cache_snapshot(caches)
    info["exactnum.row_cache_bytes"] = tracer.row_cache_bytes(
        info["exactnum.pascal_row.currsize"])
    total, own = tracer.durations()
    counts = tracer.counts
    hits, misses = info["exactnum.pascal_row.hits"], info["exactnum.pascal_row.misses"]
    trivial_checks = counts["bisection.is_trivial"]
    metrics = {f"{layer}.self_s": own[layer] for layer in layertrace.LAYERS}
    metrics.update({
        "cli.output_bytes": done.output_bytes,
        "conjectures.scan_s": total["conjectures.scan_conjecture1"]
        + total["conjectures.scan_conjecture2"],
        "conjectures.cells": counts["conjectures.cells"],
        "conjectures.trig_s": total["conjectures.weight_trig_wt2"]
        + total["conjectures.weight_trig_wt3"],
        "conjectures.trig.calls": counts["conjectures.weight_trig_wt2"]
        + counts["conjectures.weight_trig_wt3"],
        "symfun.weight_elem_s": total["symfun.weight_elem"],
        "symfun.is_balanced_elem_s": total["symfun.is_balanced_elem"],
        "symfun.weight_elem.calls": counts["symfun.weight_elem"],
        "spectral.walsh_spectrum_s": total["spectral.walsh_spectrum"],
        "spectral.is_sac_elem_s": total["spectral.is_sac_elem"],
        "bisection.find_all_solutions_s": total["bisection.find_all_solutions"],
        "bisection.calls": counts["bisection.find_all_solutions"],
        "bisection.witness_yield": (counts["bisection.witnesses"] / trivial_checks
                                    if trivial_checks else 0.0),
        "census.count_s": total["census.count_symmetric"]
        + total["census.count_balanced_all"]
        + total["census.brute_count_balanced_symmetric"],
        "census.lower_bound_s": total["census.lower_bound_balanced"],
        "census.generate_s": total["census.generate_balanced"],
        "census.functions_generated": counts["census.generate_balanced.yields"],
        "exactnum.pascal_row.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exactnum.binom.calls": counts["exactnum.binom"],
        "exactnum.binom.uncached_calls": counts["exactnum.binom.uncached"],
        "exactnum.binom_mod_p.calls": counts["exactnum.binom_mod_p"],
        "exactnum.lacunary_trig_s": total["exactnum.lacunary_trig"],
        "exactnum.lacunary_exact_s": total["exactnum.lacunary_exact"],
        "exactnum.cospi_frac.calls": counts["exactnum.cospi_frac"],
        "exactnum.compensated_sum_s": total["exactnum.compensated_sum"],
    })
    metrics.update(info)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    program = import_program()
    modules = layertrace.layer_modules()
    caches = layertrace.find_caches(modules)
    ops = workloads.build(workload, seed)
    expects = [reference.expected(op) for op in ops]
    call = make_caller(program)
    setups = []
    if not trace:
        time_setup()  # a warm-up that also writes the bytecode caches
    tracer = layertrace.Tracer(modules) if trace else None

    plain, traced, layer_samples, kept = [], [], [], []
    deadline = time.perf_counter() + seconds
    while (len(plain) < MIN_PASSES or time.perf_counter() < deadline
           or (trace and len(traced) < len(plain))):
        # An untraced pass, then a traced one, and so on.
        if trace and len(plain) > len(traced):
            pin_cpu(len(traced))
            tracer.reset()
            tracer.install()
            try:
                done = Pass(call, ops, expects, caches, tracer)
            finally:
                tracer.uninstall()
            traced.append(done)
            layer_samples.append(layer_metrics(tracer, caches, done))
            kept.append((len(traced) - 1, list(tracer.spans)))
        else:
            pin_cpu(len(plain))
            plain.append(Pass(call, ops, expects, caches))
            # Set-up runs are spread over the run and the CPUs, two after
            # each pass, so that some of them fall outside the host's slow
            # spells.
            for _ in range(0 if trace else 2):
                pin_cpu(len(setups))
                setups.append(time_setup())
    while not trace and len(setups) < SETUP_RUNS:
        pin_cpu(len(setups))
        setups.append(time_setup())

    everything = plain + traced
    attempted = sum(len(p.latencies) for p in everything)
    failed = sum(len(p.failures) for p in everything)
    for op, reason in {(op.label(), r) for p in everything for op, r in p.failures}:
        print(f"failed: {op}: {reason}")
    if trace:
        metrics = {name: min(s[name] for s in layer_samples) for name in layer_samples[0]}
        metrics["trace_overhead_frac"] = sum(best_times(traced)) / sum(best_times(plain)) - 1
        metrics["failed_frac"] = failed / attempted
        OUT.mkdir(exist_ok=True)
        layertrace.write_spans(OUT / f"spans-{workload}-{seed}.jsonl", kept)
    else:
        samples = best_times(plain)
        metrics = {
            "wall_s": sum(samples),
            "cpu_s": sum(best_times(plain, "cpus")),
            "latency_p50_ms": 1000 * statistics.median(samples),
            "latency_p90_ms": 1000 * statistics.quantiles(samples, n=10, method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": min(setups),
            "answered_frac": 1 - failed / attempted,
        }
        print(f"passes: {len(plain)}; latency samples: {len(samples)}")
    return {"correct": not any(p.wrong for p in everything), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, subprocess.SubprocessError, RuntimeError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in sorted(result["metrics"].items())}
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
