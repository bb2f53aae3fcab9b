"""Benchmark of the ulat proof machinery.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (or ``--workload all``) from the root of a checkout.
Each workload runs in fresh worker processes (``bench_worker.py``) that
import ulat from the checkout's ``src``.  ``--trace 0`` measures the
end-to-end metrics with no wrappers installed, in ``MEASURE_PARTS``
processes that share the timed phase after the processes that only set
up; ``--trace 1`` runs one process that measures an untraced and a traced
phase and reports the per-layer metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Spans and full results go to ``perfbench/out/``.

The seed generates every input.  DEFAULT_SEED is the seed for everyday
runs and HELDOUT_SEED is kept back to re-check claims made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_stats import summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("pipeline-512", "sweep-128", "lattice-turan")
DEFAULT_SEED = 1
HELDOUT_SEED = 9173
DEFAULT_SECONDS = 28
SETUP_SAMPLES = 5
# Worker processes that share the timed phase of an untraced run.
MEASURE_PARTS = 3
# Whole-run limit for one workload, kept under the 180 s a run may take.
RUN_LIMIT_S = 170.0

# (name, unit); with --trace 0 the metrics are exactly these.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (name, unit); with --trace 1 the metrics are exactly these.  A name is
# <layer>.<stat>: a stat of the layer table, or bench.trace_overhead.
PER_LAYER = (
    ("periodization.support_mask.self_ms", "ms"),
    ("periodization.support_mask.grid_points", "count"),
    ("annihilation.pipeline_trace.self_ms", "ms"),
    ("annihilation.build_pipeline_context.self_ms", "ms"),
    ("annihilation.build_pipeline_context.incl_ms", "ms"),
    ("geometry.cover_measure_upper.self_ms", "ms"),
    ("geometry.cover_measure_upper.balls", "count"),
    ("geometry.mean_width.self_ms", "ms"),
    ("geometry.mean_width.incl_ms", "ms"),
    ("geometry.sample_rotation.calls", "count"),
    ("geometry.sample_rotation.self_ms", "ms"),
    ("mc.trial_rng.calls", "count"),
    ("mc.trial_rng.self_ms", "ms"),
    ("mc.run_trials.self_ms", "ms"),
    ("lattice.sample_lattice.self_ms", "ms"),
    ("lattice.intersect.self_ms", "ms"),
    ("lattice.axis_hit_count.self_ms", "ms"),
    ("lattice.integer_vectors_in_annulus.rows", "count"),
    ("lattice.intersect.hit_ratio", "ratio"),
    ("functions.tail_energy.self_ms", "ms"),
    ("functions.cross_correlation.calls", "count"),
    ("functions.cross_correlation.self_ms", "ms"),
    ("periodization.energy.self_ms", "ms"),
    ("turan.sup_norm.self_ms", "ms"),
    ("turan.TrigPolynomial.evaluate.calls", "count"),
    ("turan.TrigPolynomial.evaluate.points", "count"),
    ("turan.poly_order.self_ms", "ms"),
    ("annihilation.translated_sweep.attempt_yield", "ratio"),
    ("bench.op.self_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
)


LAYER_COLUMNS = ("ops", "calls", "self_ms", "incl_ms", "self_share")


class BenchError(Exception):
    """A run that cannot produce a result."""


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One BLAS thread: every workload is one closed-loop caller on one core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before the worker started")
    cmd = [sys.executable, str(HERE / "bench_worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def merge_parts(parts: list[dict]) -> dict:
    """One untraced phase from the phases of consecutive worker processes."""
    ops = [op for part in parts for op in part["untraced"]["ops"]]
    merged = {
        "ops": ops,
        "failures": {k: v for part in parts for k, v in part["untraced"]["failures"].items()},
        "run_failure": "; ".join(p["untraced"]["run_failure"] for p in parts if p["untraced"]["run_failure"]),
        "refs_ms": [r for part in parts for r in part["untraced"]["refs_ms"]],
    }
    merged["failed"] = len(merged["failures"])
    return merged


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measured run of one workload.

    Untraced: ``SETUP_SAMPLES - MEASURE_PARTS`` processes that only set
    up, then ``MEASURE_PARTS`` processes that set up and measure
    ``seconds / MEASURE_PARTS`` each, on consecutive op indices.  Every
    process gives a set-up sample, and the parts' ops are summarised
    together, so that no one process's memory layout or start-up decides
    the result.  Traced: one process for the whole ``seconds``.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--out", str(OUT)]
    if trace:
        result = run_worker([*common, "--seconds", str(seconds), "--mode", "trace"], deadline)
        for key in ("untraced", "traced"):
            result[key].update(summarise(result[key]["ops"], result["cycle"]))
        return result
    setups = [
        run_worker([*common, "--seconds", "0", "--mode", "setup"], deadline)
        for _ in range(SETUP_SAMPLES - MEASURE_PARTS)
    ]
    parts, first = [], 0
    for _ in range(MEASURE_PARTS):
        part = run_worker(
            [*common, "--seconds", str(seconds / MEASURE_PARTS), "--mode", "run",
             "--first-op", str(first)],
            deadline,
        )
        first += len(part["untraced"]["ops"])
        parts.append(part)
    result = dict(parts[-1])
    result["untraced"] = merge_parts(parts)
    result["untraced"].update(summarise(result["untraced"]["ops"], result["cycle"]))
    result["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    setups += parts
    result["setup_samples"] = [s["setup_s"] for s in setups]
    result["setup_wall_samples"] = [s["setup_wall_s"] for s in setups]
    return result


def layer_metric(result: dict, name: str) -> float:
    if name == "bench.trace_overhead":
        return result["trace_overhead"]
    layer, stat = name.rsplit(".", 1)
    return float(result["layers"].get(layer, {}).get(stat, 0.0))


def report(workload: str, seed: int, seconds: float, trace: bool, result: dict) -> dict:
    """Print the human-readable report and return the result line."""
    phases = [result["untraced"]] + ([result["traced"]] if trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    run_failures = [p["run_failure"] for p in phases if p["run_failure"]]
    u = result["untraced"]
    print(f"workload {workload}: seed={seed} seconds={seconds:g} trace={int(trace)}, "
          f"closed loop, one caller")
    print(f"  versions: {json.dumps(result['versions'], sort_keys=True)}")
    if u["refs_ms"]:
        print(f"  speed reference: median {statistics.median(u['refs_ms']):.3f} ms over the run; "
              f"times are scaled to {result['reference_ms']:g} ms")
    for i, kind, wall_ms, ms, digest in u["ops"]:
        print(f"  op {i:4d} {kind:14s} {wall_ms:10.3f} ms wall {ms:10.3f} ms scaled  sha256={digest}")
    for name, phase in (("untraced", u), ("traced", result.get("traced"))):
        if phase is None:
            continue
        for i, why in phase["failures"].items():
            print(f"  FAILED {name} op {i}: {why}")
        if phase["run_failure"]:
            print(f"  FAILED {name} run check: {phase['run_failure']}")
    if trace:
        print(f"  {'layer':44s} {'ops':>5s} {'calls/op':>10s} {'self_ms/op':>11s} {'incl_ms/op':>11s} "
              f"{'self share':>10s}  counts/op (medians over the ops that reach the layer)")
        for layer, row in sorted(result["layers"].items(), key=lambda kv: -kv[1]["total_self_ms"]):
            counts = {k: v for k, v in row.items() if k not in LAYER_COLUMNS and not k.startswith("total_")}
            print(f"  {layer:44s} {row['ops']:5d} {row['calls']:10.0f} {row['self_ms']:11.3f} {row['incl_ms']:11.3f} "
                  f"{row['self_share']:10.1%}  {json.dumps(counts, sort_keys=True) if counts else ''}")
        print(f"  traced ops: {result['traced']['attempted']}, spans: {result['spans']}, "
              f"file: {result['spans_file']}")
        metrics = {name: {"value": layer_metric(result, name), "unit": unit}
                   for name, unit in PER_LAYER}
        notes = {}
    else:
        values = {
            "setup_s": statistics.median(result["setup_samples"]),
            "ops_per_s": u["ops_per_s"],
            "op_p50_ms": u["op_p50_ms"],
            "op_tail_ms": u["op_tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {
            "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in result["setup_samples"])
                       + "; wall " + ", ".join(f"{s:.4f}" for s in result["setup_wall_samples"]),
            "ops_per_s": f"median over cycles; wall {u['wall_ops_per_s']:.4f}",
            "op_p50_ms": f"wall {u['wall_op_p50_ms']:.3f}",
            "op_tail_ms": f"p{u['tail_percentile']:.1f} of n={u['attempted']}, "
                          f"at least 10 samples beyond; wall {u['wall_op_tail_ms']:.3f}",
        }
    for name, m in metrics.items():
        print(f"  {name:44s} = {m['value']:.6g} {m['unit']}  {notes.get(name, '')}")
    print(f"  {'fail_ratio':44s} = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops failed)")
    return {
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the ulat proof machinery.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ulat" / "__init__.py").is_file():
        print(f"no ulat sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu']!r}")
    lines = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        result["machine"] = facts
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}.trace{args.trace}.json").write_text(json.dumps(result, indent=1))
        lines[workload] = report(workload, args.seed, args.seconds, bool(args.trace), result)
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
