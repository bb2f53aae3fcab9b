"""One workload in one fresh process: set-up, timed closed loop, checks.

``run.py`` starts this file once per set-up sample and once per part of a
measured run, as

    python3 perfbench/bench_worker.py --workload NAME --seed N --seconds S \
        --mode MODE --first-op K --out DIR

with MODE one of ``setup`` (set up, report set-up time, exit), ``run``
(untraced timed phase of about S seconds on ops K, K + 1, ...) or
``trace`` (each op run untraced and traced in turn, S seconds in all).
The result is one JSON object on standard output.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ulat  # noqa: E402
from bench_stats import summarise  # noqa: E402
from bench_speed import REFERENCE_S, reference_s, scaled  # noqa: E402
from bench_trace import Tracer, installed_wrappers, layer_table  # noqa: E402
from bench_workloads import WARMUP_BASE, WORKLOADS  # noqa: E402

# References run after set-up; their median scales the set-up time.
SETUP_REFERENCES = 7


def _timed_call(phase: dict, i: int, fn, *args) -> float:
    """Run one op, record its duration and result (None if it raised), and
    return the clock at its end."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:  # an op that raises is a failed op; the loop goes on
        out = None
        phase["errors"][i] = traceback.format_exc(limit=4)
    t1 = time.perf_counter()
    phase["durations"].append(t1 - t0)
    phase["outs"].append(out)
    return t1


def _new_phase() -> dict:
    return {"durations": [], "outs": [], "errors": {}, "refs": []}


def warm_up(workload) -> None:
    """Run ``workload.warmup`` untimed ops on inputs no timed op uses, so
    that lazy set-up inside the libraries is done before timing starts."""
    base = WARMUP_BASE * workload.cycle
    for j in range(workload.warmup):
        workload.run(base + j)


def timed_phase(workload, seconds: float, first: int) -> dict:
    """Closed loop with one caller on ops ``first``, ``first + 1``, ...: op
    i + 1 starts when op i has returned.  The phase ends at the end of the
    cycle of op kinds that comes nearest to ``seconds``, so it always holds
    whole cycles.  The speed reference runs before every op and after the
    last one, outside the op times."""
    warm_up(workload)
    phase = _new_phase()
    i = first
    t_cycle = time.perf_counter()
    deadline = t_cycle + seconds
    while True:
        phase["refs"].append(reference_s())
        t_end = _timed_call(phase, i, workload.run, i)
        i += 1
        if (i - first) % workload.cycle == 0:
            last_cycle, t_cycle = t_end - t_cycle, t_end
            if deadline - t_end < last_cycle / 2:
                break
    phase["refs"].append(reference_s())
    return phase


def paired_phase(workload, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    """Run every op twice, once untraced and once traced, in alternating
    order, in whole cycles until ``seconds``.

    Pairing exposes both runs of an op to the same machine speed, so the
    ratio of the two op rates is the tracing cost.  The wrappers are in
    place only around the traced run, and each phase's rate is taken over
    the sum of its own op times.
    """
    warm_up(workload)
    plain, traced = _new_phase(), _new_phase()
    i = 0
    deadline = time.perf_counter() + seconds
    while True:
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            if side == 0:
                t_end = _timed_call(plain, i, workload.run, i)
                continue
            tracer.install()
            try:
                t_end = _timed_call(traced, i, tracer.run_op, i, workload.run, i)
            finally:
                tracer.uninstall()
        i += 1
        if t_end >= deadline and i % workload.cycle == 0:
            break
    return plain, traced


def check_phase(workload, phase: dict, first: int = 0) -> dict:
    """Check every op and hash every payload.  The op rows carry wall and
    scaled times; the paired phase of a traced run has no references, and
    its scaled times are its wall times."""
    ops, failures = [], dict(phase["errors"])
    durations = phase["durations"]
    times = scaled(durations, phase["refs"]) if phase["refs"] else durations
    for i, (wall, dt, out) in enumerate(zip(durations, times, phase["outs"]), first):
        digest = None
        if out is not None:
            why = workload.verdict(i, out)
            if why:
                failures[i] = why
            text = json.dumps(workload.payload(i, out), sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
        ops.append([i, workload.kind(i), wall * 1e3, dt * 1e3, digest])
    return {
        "failed": len(failures),
        "failures": {str(i): why for i, why in sorted(failures.items())},
        "run_failure": workload.run_verdict([out for out in phase["outs"] if out is not None]),
        "refs_ms": [r * 1e3 for r in phase["refs"]],
        "ops": ops,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--first-op", type=int, default=0, help="index of the first timed op")
    ap.add_argument("--out", type=Path, required=True, help="directory for the span file")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(ulat.__file__).resolve().parent != src / "ulat":
        print(f"imported ulat from {ulat.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    setup_wall = time.perf_counter() - _T0
    ref = statistics.median(reference_s() for _ in range(SETUP_REFERENCES))
    result = {
        "setup_s": setup_wall * REFERENCE_S / ref,
        "setup_wall_s": setup_wall,
        "setup_ref_ms": ref * 1e3,
        "reference_ms": REFERENCE_S * 1e3,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if installed_wrappers():
        raise RuntimeError(f"untraced phase carries wrappers: {installed_wrappers()}")
    result["cycle"] = workload.cycle
    if args.mode == "run":
        phase = timed_phase(workload, args.seconds, args.first_op)
        result["untraced"] = check_phase(workload, phase, args.first_op)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0

    tracer = Tracer()
    plain, traced = paired_phase(workload, args.seconds, tracer)
    if installed_wrappers():
        raise RuntimeError(f"wrappers left after the traced phase: {installed_wrappers()}")
    result["untraced"] = check_phase(workload, plain)
    result["traced"] = check_phase(workload, traced)
    result["layers"] = layer_table(tracer, len(traced["durations"]))
    rates = [summarise(result[k]["ops"], workload.cycle)["mean_ops_per_s"] for k in ("traced", "untraced")]
    result["trace_overhead"] = rates[0] / rates[1]
    args.out.mkdir(parents=True, exist_ok=True)
    spans_path = args.out / f"{args.workload}.spans.tsv.gz"
    tracer.write(spans_path)
    result["spans_file"] = str(spans_path)
    result["spans"] = len(tracer.start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
