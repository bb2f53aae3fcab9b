"""Payload corpus: sha256 digests of fixed runs, checked against a table.

A speed-up must leave every payload byte-identical; these tests make that a
check of the suite rather than a script of each change.  The table
``payload_digests.json`` holds one digest per run together with the numpy
and BLAS versions it was computed with: digests of floating-point results
are only comparable on the same numpy and BLAS, so a version mismatch fails
and names both sets of versions.

The ``digests`` rows are the first whole cycle of each perfbench workload
at seed 1 (13 ``lattice-turan`` ops, 5 ``pipeline-512`` ops and 4
``sweep-128`` ops), run and serialised through ``bench_workloads``' ``run``
and ``payload``.  The ``cli`` rows are ``CLI_RUNS``: every subcommand on the
``conftest`` documents at seeds 0 and 1, run in process through
``cli.main`` into an ``--output`` file.  Each ``cli`` row holds the sha256
of the artifact (a JSON document without ``wall_time_ms``, or the CSV
bytes) and a short digest of each leaf under its key path, so that a
mismatch names the argv and the first key path that differs.  A change
that moves a payload on purpose regenerates the table with
``PYTHONPATH=src python tests/test_payloads.py`` and declares the change.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import write_docs

from ulat.cli import EXIT_OK, main

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


def cli_runs() -> list[list[str]]:
    """The argv of each ``cli`` row; a name ending in .json is a conftest
    document."""
    box = ["--function", "fbox.json", "--s-set", "box8.json", "--sigma-set", "sigma2.json"]
    gauss = ["--function", "gauss2.json", "--s-set", "ball.json", "--sigma-set", "sigma2.json"]
    runs = []
    for seed in ("0", "1"):
        runs += [
            argv + ["--seed", seed]
            for argv in (
                ["lal", "--phi", "annulus:1:3", "--trials", "200"],
                ["lal", "--phi", "gaussian", "--dim", "1", "--trials", "20"],
                ["turan", "--dim", "1", "--random", "20", "--format", "json"],
                ["turan", "--dim", "1", "--random", "20", "--format", "csv"],
                ["turan", "--dim", "2", "--random", "20", "--format", "json"],
                ["turan", "--dim", "2", "--random", "20", "--format", "csv"],
                ["periodize", "--function", "gauss1.json"],
                ["periodize", "--function", "gauss2.json"],
                ["periodize", "--function", "fbox.json"],
                ["periodize", "--function", "gauss1.json", "--grid", "16", "--format", "csv"],
                ["periodize", "--function", "gauss2.json", "--grid", "8", "--format", "csv"],
                ["periodize", "--function", "fbox.json", "--grid", "8", "--format", "csv"],
                ["geometry", "--set", "ball.json", "--op", "measure", "--trials", "200"],
                ["geometry", "--set", "box8.json", "--op", "mean-width"],
                ["geometry", "--set", "ball1d.json", "--op", "cover-upper"],
                ["ratio", *box, "--trials", "200"],
                ["ratio", *gauss, "--trials", "200"],
                ["pipeline", *box],
                ["sweep", *box, "--ygrid", "2", "--grid", "16", "--format", "json"],
                ["sweep", *box, "--ygrid", "2", "--grid", "16", "--format", "csv"],
                ["sharpness", "--n", "4", "--trials", "20"],
            )
        ]
    return runs


CLI_RUNS = cli_runs()


def leaves(value, path: str = ""):
    """(key path, JSON text) of every leaf of ``value``, in key order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def cli_row(argv: list[str], docs: Path) -> dict:
    """The ``cli`` row of one run: the artifact's sha256 and a 32-bit digest
    of each leaf.  A CSV artifact's leaves are its cells, by line and column."""
    with tempfile.TemporaryDirectory() as out_dir:
        out = Path(out_dir) / "artifact"
        real = [str(docs / arg) if arg.endswith(".json") else arg for arg in argv]
        code = main(real + ["--output", str(out)])
        assert code == EXIT_OK, f"ulat {' '.join(argv)} exited {code}"
        text = out.read_text(encoding="utf-8")
    if "csv" in argv:
        doc, sha = list(csv.reader(text.splitlines())), hashlib.sha256(text.encode()).hexdigest()
    else:
        doc = without_wall_time(json.loads(text))
        sha = digest(doc)
    return {
        "sha256": sha,
        "leaves": {path: hashlib.sha256(leaf.encode()).hexdigest()[:8] for path, leaf in leaves(doc)},
    }


def first_difference(want: dict, got: dict) -> str:
    """The first key path, in the order of the leaves, whose leaf is missing
    on one side or differs."""
    for path in [*want, *(p for p in got if p not in want)]:
        if want.get(path) != got.get(path):
            return f"{path} ({want.get(path, 'absent')} -> {got.get(path, 'absent')})"
    return "no leaf differs; the artifact's bytes do"


def cli_rows() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as docs:
        write_docs(Path(docs))
        return {" ".join(argv): cli_row(argv, Path(docs)) for argv in CLI_RUNS}


def table() -> dict:
    what = (
        "digests: sha256 of json.dumps(payload, sort_keys=True) without wall_time_ms keys; "
        "cli: sha256 of each argv's artifact, JSON without wall_time_ms or CSV bytes, "
        "and the first 8 hex digits of the sha256 of each leaf's JSON text by key path; "
        "regenerate with PYTHONPATH=src python tests/test_payloads.py"
    )
    digests = {key: value for name in WORKLOADS for key, value in cycle_digests(name).items()}
    return {"what": what, **versions(), "digests": digests, "cli": cli_rows()}


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


@pytest.fixture(scope="module")
def docs(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("docs")
    write_docs(path)
    return path


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_cli_payload_matches_the_table(expected, docs, argv):
    require_recorded_versions(expected)
    key = " ".join(argv)
    assert key in expected["cli"], f"no table row for ulat {key}"
    want, got = expected["cli"][key], cli_row(argv, docs)
    if got["sha256"] != want["sha256"]:
        pytest.fail(f"ulat {key}: payload moved; first differing key path: "
                    + first_difference(want["leaves"], got["leaves"]))


def test_every_cli_row_is_run():
    assert sorted(json.loads(TABLE.read_text())["cli"]) == sorted(" ".join(argv) for argv in CLI_RUNS)


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=2)
    sys.stdout.write("\n")
