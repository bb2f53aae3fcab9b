"""Payload corpus: sha256 digests of fixed runs, checked against a table.

A speed-up must leave every payload byte-identical; these tests make that a
check of the suite rather than a script of each change.  The table
``payload_digests.json`` holds one digest per run together with the numpy
and BLAS versions it was computed with: digests of floating-point results
are only comparable on the same numpy and BLAS, so a version mismatch fails
and names both sets of versions.

The rows are the first whole cycle of each perfbench workload at seed 1
(13 ``lattice-turan`` ops, 5 ``pipeline-512`` ops and 4 ``sweep-128``
ops), run and serialised through ``bench_workloads``' ``run`` and
``payload``.  A change that moves a payload on purpose regenerates the
table with ``PYTHONPATH=src python tests/test_payloads.py`` and declares
the change.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "payload_digests.json"
SEED = 1


def load_bench_workloads():
    """perfbench/bench_workloads.py as a module, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "bench_workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def without_wall_time(value):
    """The payload with every ``wall_time_ms`` key dropped, at any depth."""
    if isinstance(value, dict):
        return {k: without_wall_time(v) for k, v in value.items() if k != "wall_time_ms"}
    if isinstance(value, list):
        return [without_wall_time(v) for v in value]
    return value


def digest(payload) -> str:
    text = json.dumps(without_wall_time(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# The perfbench workload classes, in the order of the table.
WORKLOADS = ("LatticeTuran", "Pipeline512", "Sweep128")


def cycle_digests(workload_class: str) -> dict[str, str]:
    """Digest of each op of the workload's first cycle, keyed by
    '<workload> seed <s> op <i> <kind>'."""
    workload = getattr(load_bench_workloads(), workload_class)(SEED)
    return {
        f"{workload.name} seed {SEED} op {i} {workload.kind(i)}": digest(
            workload.payload(i, workload.run(i))
        )
        for i in range(workload.cycle)
    }


def table() -> dict:
    what = (
        "sha256 of json.dumps(payload, sort_keys=True) without wall_time_ms keys; "
        "regenerate with PYTHONPATH=src python tests/test_payloads.py"
    )
    digests = {key: value for name in WORKLOADS for key, value in cycle_digests(name).items()}
    return {"what": what, **versions(), "digests": digests}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(TABLE.read_text())


def require_recorded_versions(expected: dict) -> None:
    here = versions()
    recorded = {k: expected[k] for k in here}
    if recorded != here:
        pytest.fail(
            f"payload digests were computed with numpy {recorded['numpy']} and BLAS "
            f"{recorded['blas']}, but this is numpy {here['numpy']} and BLAS {here['blas']}; "
            "check the payloads on the recorded versions, then regenerate the table"
        )


def test_table_versions_match_this_numpy_and_blas(expected):
    require_recorded_versions(expected)


def check_cycle(expected: dict, workload_class: str) -> None:
    require_recorded_versions(expected)
    got = cycle_digests(workload_class)
    name = getattr(load_bench_workloads(), workload_class).name
    want = {k: v for k, v in expected["digests"].items() if k.startswith(f"{name} seed ")}
    assert sorted(got) == sorted(want)
    moved = [f"{key}: {want[key]} -> {got[key]}" for key in want if got[key] != want[key]]
    assert not moved, "payloads moved:\n" + "\n".join(moved)


def test_lattice_turan_cycle_payloads_match_the_table(expected):
    check_cycle(expected, "LatticeTuran")


def test_pipeline_512_cycle_payloads_match_the_table(expected):
    check_cycle(expected, "Pipeline512")


def test_sweep_128_cycle_payloads_match_the_table(expected):
    check_cycle(expected, "Sweep128")


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=2)
    sys.stdout.write("\n")
