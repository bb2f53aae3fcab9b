"""Command-line interface: dispatch, exit codes, determinism, formats."""

import ast
import contextlib
import csv
import importlib
import io
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulat
from ulat import annihilation, lattice, mc, turan
from ulat import cli
from ulat.cli import (
    COUNT_CEILING,
    EXIT_ASSERTION,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
)
from ulat.geometry import EuclideanSet
from ulat.lattice import sample_lattice
from ulat.mc import trial_rng
from ulat.periodization import GRID_POINT_BUDGET


def strict_json(text: str):
    """``text`` parsed as JSON (RFC 8259), which has no NaN or Infinity."""
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))


def run_cli(capsys, argv):
    """Exit code, stdout and stderr of one in-process run; JSON on stdout
    must be strict."""
    code = main(argv)
    out = capsys.readouterr()
    if out.out.startswith("{"):
        strict_json(out.out)
    return code, out.out, out.err


# The commands with a --trials flag; the others run no trials.
TRIAL_COMMANDS = ("lal", "geometry", "ratio", "sharpness")


def with_trials(argv: list[str], trials: int) -> list[str]:
    """argv with --trials appended where its command has the flag."""
    return argv + ["--trials", str(trials)] * (argv[0] in TRIAL_COMMANDS)


def payload_of(text: str) -> str:
    doc = json.loads(text)
    assert doc["schema"] == 1
    return json.dumps(doc["payload"], sort_keys=True)


def cover_under_warning_errors(tmp_path, lower, upper) -> str:
    """The stderr of ``geometry --op cover-upper`` on one 2-D box, run in a
    process that treats a RuntimeWarning as an error; the run must exit 2
    with nothing on stdout and one line on stderr."""
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({"dimension": 2, "pieces": [{"kind": "box", "lower": lower, "upper": upper}]}))
    src = str(Path(ulat.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ulat.cli",
         "geometry", "--set", str(doc), "--op", "cover-upper"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == EXIT_PRECONDITION and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    return proc.stderr


class TestGeometryCommand:
    def test_mean_width_unit_ball(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "mean-width",
             "--trials", "500", "--seed", "7"],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"] == {"value": pytest.approx(2.0, rel=1e-15), "stderr": 0.0, "exact": False}

    def test_measure_and_cover(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "measure"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["exact"] is True
        code, out, _ = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "cover-upper"],
        )
        assert code == EXIT_OK

    def test_cover_of_a_ball_past_the_cell_index_range(self, capsys, tmp_path):
        # Cell indices past 2^53 need a radius past the input range; at its
        # edge the self cover stands.
        doc = tmp_path / "huge.json"
        for radius, code_want in ((1e300, EXIT_PRECONDITION), (2.0**40, EXIT_OK)):
            doc.write_text(json.dumps(
                {"dimension": 1, "pieces": [{"kind": "ball", "center": [0.0], "radius": radius}]}
            ))
            code, out, err = run_cli(capsys, ["geometry", "--set", str(doc), "--op", "cover-upper"])
            assert code == code_want and "Traceback" not in err
        assert json.loads(out)["payload"] == {"value": 2.0**40, "balls": 1}
        assert err == ""

    def test_cover_of_a_box_wider_than_the_float_range(self, tmp_path):
        # upper - lower would overflow; the box is past the input range.
        assert "box corners must lie in [-2^40, 2^40]" in cover_under_warning_errors(
            tmp_path, [-1e308, 0.0], [1e308, 1.0])

    def test_cover_of_a_box_whose_ends_add_past_the_float_range(self, tmp_path):
        # lower + upper would overflow; the box is past the input range.
        assert "box corners must lie in" in cover_under_warning_errors(tmp_path, [1e308, 0.0], [1.5e308, 1.0])

    def test_missing_file_is_io_error(self, capsys, doc_dir):
        code, _, err = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "absent.json"), "--op", "measure"],
        )
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_mean_width_of_a_four_dimensional_set(self, capsys, tmp_path):
        doc = tmp_path / "ball4.json"
        doc.write_text(json.dumps(
            {"dimension": 4, "pieces": [{"kind": "ball", "center": [0.0] * 4, "radius": 1.0}]}
        ))
        code, out, err = run_cli(capsys, ["geometry", "--set", str(doc), "--op", "mean-width"])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert "precondition violated" in err

    def test_bad_trials_precondition(self, capsys, doc_dir):
        code, _, err = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "measure",
             "--trials", "0"],
        )
        assert code == EXIT_PRECONDITION
        assert "precondition" in err


class TestTuranCommand:
    def test_campaign_csv_zero_violations(self, capsys):
        code, out, _ = run_cli(capsys, ["turan", "--dim", "1", "--random", "50", "--seed", "1"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 50
        assert all(r["holds"] == "True" for r in rows)

    def test_violation_is_an_assertion_of_one_line_after_the_artifact(self, capsys, monkeypatch, tmp_path):
        # Violations used to be reported through logging, unlike every other
        # exit 3.
        run_campaign = turan.run_campaign

        def violated(*args, **kwargs):
            return [{**row, "holds": row["seed"] != 1} for row in run_campaign(*args, **kwargs)]

        monkeypatch.setattr(turan, "run_campaign", violated)
        out_file = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, ["turan", "--random", "3", "-o", str(out_file)])
        assert (code, out) == (EXIT_ASSERTION, "")
        assert err == "assertion failed: 1 certified inequality violations\n"
        assert [r["holds"] for r in csv.DictReader(out_file.read_text().splitlines())] == ["True", "False", "True"]

    def test_undrawable_torus_set_is_a_precondition(self, capsys, monkeypatch):
        monkeypatch.setattr(turan, "_CAMPAIGN_DRAWS", {1: (8, 16, None, 1.0), 2: (8, 4, 3, 1.0)})
        code, _, err = run_cli(capsys, ["turan", "--dim", "1", "--random", "2", "--seed", "1"])
        assert code == EXIT_PRECONDITION
        assert "256 draws" in err


class TestLalCommand:
    def test_annulus_profile(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["lal", "--phi", "annulus:1:3", "--dim", "2", "--trials", "200", "--seed", "0"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["outer_dilation"]["bound"] == pytest.approx(8 * 3.141592653589793)

    def test_unknown_profile_precondition(self, capsys):
        code, _, err = run_cli(capsys, ["lal", "--phi", "cone:1", "--dim", "2"])
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_one_trial_exits_2_before_any_draw(self, capsys, monkeypatch, dry):
        # The loader applies the reports' own trial check, so the dry run
        # fails as the real run does, and neither draws a trial.
        for module in (cli, lattice, mc):
            monkeypatch.setattr(module, "trial_rng", lambda *a: pytest.fail("drew a trial"))
        code, out, err = run_cli(capsys, ["lal", "--phi", "annulus:1:3", "--trials", "1"] + dry)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert len(err.splitlines()) == 1 and "requires trials >= 2" in err

    def test_oversized_annulus_precondition(self, capsys):
        # About 2.8e9 integer points: rejected from the point bound, before
        # the enumeration allocates anything.
        code, out, err = run_cli(
            capsys, ["lal", "--phi", "annulus:1:30000", "--dim", "2", "--trials", "2"]
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "precondition violated" in err and "above the cap" in err

    def test_wide_gaussian_tail_is_not_cut(self, capsys):
        # For a = 1e-4 every dual term of the Poisson sum vanishes in floats,
        # so per draw the outer sum is 1e4 / v^2 - 1 and the inner one
        # 1e4 v^2 - 1; a truncated tail reads far below both.
        code, out, _ = run_cli(
            capsys, ["lal", "--phi", "gaussian:0.0001", "--dim", "2", "--trials", "20"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        v = np.array([sample_lattice(2, trial_rng(0, i)).dilation for i in range(20)])
        outer, inner = payload["outer_dilation"], payload["inner_dilation"]
        assert outer["estimate"] == pytest.approx(np.mean(1e4 / v**2 - 1.0), rel=1e-6)
        assert inner["estimate"] == pytest.approx(np.mean(1e4 * v**2 - 1.0), rel=1e-6)

    @pytest.mark.parametrize("phi", ["ball:0.9", "gaussian:1e300", f"gaussian:{2.0**40!r}"])
    def test_zero_reference_is_a_precondition(self, capsys, phi):
        # A ratio to a reference of 0 has no JSON value; the run stops first.
        # The tail of a Gaussian of a = 2^40, the largest scale in range,
        # underflows to 0; a = 1e300 is past the range.
        code, out, err = run_cli(capsys, ["lal", "--phi", phi, "--dim", "2", "--trials", "5"])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "precondition violated" in err and "Traceback" not in err

    def test_gaussian_scale_that_overflows_is_a_precondition(self, capsys):
        # a^(-d/2) would overflow; the scale is past the input range.
        code, out, err = run_cli(capsys, ["lal", "--phi", "gaussian:1e-300", "--dim", "3"])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "precondition violated" in err and "Gaussian scale must lie in [2^-40, 2^40]" in err


class TestPipelineCommands:
    def test_ratio(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["ratio", "--function", str(doc_dir / "gauss1.json"),
             "--s-set", str(doc_dir / "ball1d.json"),
             "--sigma-set", str(doc_dir / "ball1d.json")],
        )
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["ratio"] > 1

    def test_ratio_reports_the_pair_exponent(self, capsys, doc_dir):
        # |S| = 1/8 and w(S) = 4 side/pi for the eighth box, |Sigma| = 4 pi
        # and w(Sigma) = 4 for the disc of radius 2.
        argv = ["ratio", "--function", str(doc_dir / "gauss2.json"),
                "--s-set", str(doc_dir / "box8.json"),
                "--sigma-set", str(doc_dir / "sigma2.json")]
        payloads = []
        for seed in ("0", "5"):
            code, out, _ = run_cli(capsys, argv + ["--seed", seed])
            assert code == EXIT_OK
            payloads.append(json.loads(out)["payload"])
        assert payloads[0] == payloads[1]
        terms, side = payloads[0]["terms"], 2.0 ** (-3 / 2)
        assert terms["measure_product"] == pytest.approx(math.pi / 2, rel=1e-12)
        assert terms["s_measure_sigma_width"] == pytest.approx(math.sqrt(1 / 8) * 4, rel=1e-12)
        # The width rule puts a box 2.5e-8 relative above its closed form.
        assert terms["s_width_sigma_measure"] == pytest.approx(
            4 * side / math.pi * math.sqrt(4 * math.pi), rel=2.5e-8
        )
        assert payloads[0]["which"] == "s_measure_sigma_width"
        assert "constant" not in payloads[0] and "value" not in payloads[0]

    def test_ratio_measures_follow_trials_and_seed(self, capsys, doc_dir, tmp_path):
        # Overlapping discs take the Monte Carlo measure, with --trials
        # points seeded by --seed (Sigma by seed + 1).
        doc = tmp_path / "overlap.json"
        doc.write_text(json.dumps({"dimension": 2, "pieces": [
            {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            {"kind": "ball", "center": [0.8, 0.0], "radius": 1.0},
        ]}))
        argv = ["ratio", "--function", str(doc_dir / "gauss2.json"),
                "--s-set", str(doc_dir / "box8.json"), "--sigma-set", str(doc)]
        s_set, sigma = (EuclideanSet.from_dict(json.loads(p.read_text())) for p in (doc_dir / "box8.json", doc))
        seen = []
        for trials, seed in ((500, 0), (500, 4), (2000, 4)):
            code, out, _ = run_cli(capsys, argv + ["--trials", str(trials), "--seed", str(seed)])
            assert code == EXIT_OK
            terms = json.loads(out)["payload"]["terms"]
            assert terms == annihilation.pair_exponent(s_set, sigma, trials=trials, seed=seed)[0]
            seen.append(terms["measure_product"])
        assert len(set(seen)) == 3

    def test_ratio_in_four_dimensions(self, capsys, tmp_path):
        box = {"kind": "box", "lower": [-0.1] * 4, "upper": [0.1] * 4}
        for name, doc in {"f4.json": box, "s4.json": {"dimension": 4, "pieces": [box]}}.items():
            (tmp_path / name).write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["ratio", "--function", str(tmp_path / "f4.json"),
                                          "--s-set", str(tmp_path / "s4.json"),
                                          "--sigma-set", str(tmp_path / "s4.json")])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert len(err.splitlines()) == 1 and "dimensions 1 to 3" in err

    def test_pipeline_trace(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["pipeline", "--function", str(doc_dir / "fbox.json"),
             "--s-set", str(doc_dir / "box8.json"),
             "--sigma-set", str(doc_dir / "sigma2.json"),
             "--seed", "2", "--grid", "128"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["events"]["zero_coeff_dominated"] is True

    def test_pipeline_precondition(self, capsys, doc_dir):
        # Support too large for the pipeline reduction.
        big = doc_dir / "big.json"
        big.write_text(json.dumps({"kind": "box", "lower": [-1, -1], "upper": [1, 1]}))
        bigset = doc_dir / "bigset.json"
        bigset.write_text(
            json.dumps(
                {"dimension": 2, "pieces": [{"kind": "box", "lower": [-1, -1], "upper": [1, 1]}]}
            )
        )
        code, _, err = run_cli(
            capsys,
            ["pipeline", "--function", str(big), "--s-set", str(bigset),
             "--sigma-set", str(doc_dir / "sigma2.json")],
        )
        assert code == EXIT_PRECONDITION

    def test_sweep_csv(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--function", str(doc_dir / "fbox.json"),
             "--s-set", str(doc_dir / "box8.json"),
             "--sigma-set", str(doc_dir / "sigma2.json"),
             "--ygrid", "2", "--grid", "128", "--seed", "4"],
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.splitlines()))
        assert {"y1", "y2", "bound", "direct"} <= set(rows[0].keys())

    @pytest.mark.parametrize("extra", [[], ["--dry-run"]])
    @pytest.mark.parametrize("ygrid", ["0", "-3"])
    def test_sweep_empty_ygrid_precondition(self, capsys, doc_dir, ygrid, extra):
        code, out, err = run_cli(
            capsys,
            ["sweep", "--function", str(doc_dir / "fbox.json"),
             "--s-set", str(doc_dir / "box8.json"),
             "--sigma-set", str(doc_dir / "sigma2.json"),
             "--ygrid", ygrid, "--grid", "32"] + extra,
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "precondition violated: ygrid must be >= 1" in err


class TestPipelineExitCodes:
    def argv(self, doc_dir, command="pipeline"):
        return [command, "--function", str(doc_dir / "fbox.json"),
                "--s-set", str(doc_dir / "box8.json"),
                "--sigma-set", str(doc_dir / "sigma2.json"), "--grid", "32"
                ] + ["--ygrid", "1"] * (command == "sweep")

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    @pytest.mark.parametrize("floor, expected", [(0.25, EXIT_OK), (1e6, EXIT_ASSERTION)])
    def test_chain_failure_through_the_library_is_an_assertion(
        self, capsys, doc_dir, monkeypatch, command, floor, expected
    ):
        # Every draw of this instance fires all four events; a floor far
        # above 1 shrinks the chain bound below |fhat(0)|^2, and
        # pipeline_trace raises for both commands.
        monkeypatch.setattr(annihilation, "_TILDE_FLOOR", floor)
        code, out, err = run_cli(capsys, self.argv(doc_dir, command))
        assert code == expected
        if expected == EXIT_ASSERTION:
            assert out == ""
            assert err == "assertion failed: the Turan chain bound failed although all four events fired\n"

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_source_support_past_the_cap_is_a_precondition(self, capsys, doc_dir, command, dry):
        # S has measure 0.01 but the source's support, which the mask
        # rasters, is the box [-0.5, 0.5]^2 of measure 1.
        (doc_dir / "fwide.json").write_text(json.dumps({"kind": "box", "lower": [-0.5, -0.5],
                                                        "upper": [0.5, 0.5]}))
        (doc_dir / "s001.json").write_text(json.dumps({"dimension": 2, "pieces": [
            {"kind": "box", "lower": [-0.05, -0.05], "upper": [0.05, 0.05]}]}))
        argv = self.argv(doc_dir, command)
        argv[2], argv[4] = str(doc_dir / "fwide.json"), str(doc_dir / "s001.json")
        code, out, err = run_cli(capsys, argv + dry)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert len(err.splitlines()) == 1 and "source support measure 1.000000 exceeds" in err

    def test_raised_assertion_maps_to_exit_3(self, capsys, doc_dir, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("origin missing from the intersection index set")

        monkeypatch.setattr(annihilation, "pipeline_trace", broken)
        code, _, err = run_cli(capsys, self.argv(doc_dir))
        assert code == EXIT_ASSERTION
        assert "assertion failed" in err


MALFORMED = {
    "set-without-dimension": {"pieces": []},
    "set-as-list": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}],
    "gaussian-without-a": {"kind": "gaussian", "dimension": 2},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["lal", "--phi", "ball", "--dim", "2"],
        ["lal", "--phi", "annulus:1", "--dim", "2"],
        ["geometry", "--set", "{set-without-dimension}", "--op", "measure"],
        ["geometry", "--set", "{set-as-list}", "--op", "measure"],
        ["periodize", "--function", "{gaussian-without-a}"],
        ["lal", "--phi", "gaussian:nan", "--trials", "10"],
        ["lal", "--phi", "gaussian:inf", "--trials", "10"],
        ["turan", "--random", "-1"],
        ["turan", "--random", "0"],
    ],
    ids=[
        "ball-no-radius", "annulus-one-radius", "set-no-dimension", "set-list", "gaussian-no-a",
        "gaussian-nan", "gaussian-inf", "turan-negative-count", "turan-zero-count",
    ],
)
def test_malformed_input_is_a_precondition(capsys, tmp_path, argv):
    for name, doc in MALFORMED.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
    code, _, err = run_cli(capsys, argv)
    assert code == EXIT_PRECONDITION
    assert "precondition violated" in err
    # A dry run builds the same inputs, so it fails the same way.
    assert run_cli(capsys, argv + ["--dry-run"])[0] == EXIT_PRECONDITION


def instance_argv(command: str, doc_dir, function="fbox.json", s_set="box8.json",
                  sigma_set="sigma2.json") -> list[str]:
    return [command, "--function", str(doc_dir / function), "--s-set", str(doc_dir / s_set),
            "--sigma-set", str(doc_dir / sigma_set)]


DRY_RUN_DOCS = {
    "sigma4.json": {"dimension": 4, "pieces": [{"kind": "ball", "center": [0.0] * 4, "radius": 1.0}]},
    "empty.json": {"dimension": 2, "pieces": []},
    "square.json": {"dimension": 2, "pieces": [{"kind": "box", "lower": [-1, -1], "upper": [1, 1]}]},
    "off-origin.json": {"dimension": 2, "pieces": [{"kind": "ball", "center": [5.0, 5.0], "radius": 1.0}]},
    "fbox4.json": {"kind": "box", "lower": [-0.1] * 4, "upper": [0.1] * 4},
    "box4.json": {"dimension": 4, "pieces": [{"kind": "box", "lower": [-0.1] * 4, "upper": [0.1] * 4}]},
}


@pytest.mark.parametrize(
    "argv",
    [
        lambda docs: ["lal", "--phi", "bogus"],
        lambda docs: ["lal", "--phi", "gaussian:1e-300", "--dim", "3"],
        lambda docs: ["lal", "--phi", "annulus:1:30000"],
        lambda docs: ["lal", "--phi", "ball:0.9"],
        lambda docs: instance_argv("ratio", docs, sigma_set="sigma4.json"),
        lambda docs: instance_argv("ratio", docs, sigma_set="empty.json"),
        lambda docs: instance_argv("ratio", docs, function="fbox4.json", s_set="box4.json",
                                   sigma_set="sigma4.json"),
        lambda docs: instance_argv("pipeline", docs, s_set="empty.json"),
        lambda docs: instance_argv("sweep", docs, sigma_set="empty.json"),
        lambda docs: instance_argv("pipeline", docs, s_set="square.json"),
        lambda docs: instance_argv("pipeline", docs, sigma_set="off-origin.json"),
        lambda docs: instance_argv("pipeline", docs, function="gauss2.json"),
        lambda docs: instance_argv("sweep", docs, function="gauss2.json"),
        lambda docs: instance_argv("sweep", docs, s_set="square.json"),
        lambda docs: ["geometry", "--set", str(docs / "empty.json"), "--op", "cover-upper"],
        lambda docs: ["geometry", "--set", str(docs / "sigma4.json"), "--op", "mean-width"],
        lambda docs: ["sharpness", "--n", "5", "--ring-radius", "3"],
        lambda docs: ["sharpness", "--n", "5", "--ring-radius", "1e200"],
    ],
    ids=[
        "lal-bad-spec", "lal-gaussian-overflow", "lal-annulus-past-the-cap", "lal-zero-reference",
        "ratio-4d-sigma", "ratio-no-pieces", "ratio-4d-documents",
        "pipeline-empty-set", "sweep-empty-set", "pipeline-large-support",
        "pipeline-sigma-without-origin", "pipeline-gaussian-source",
        "sweep-gaussian-source", "sweep-large-support",
        "geometry-cover-empty-set", "geometry-width-4d-ball",
        "sharpness-discs-too-close", "sharpness-reach-not-finite",
    ],
)
def test_dry_run_exits_as_the_real_run(capsys, doc_dir, argv):
    # Each input is rejected by the command's loader, which a dry run runs too.
    for name, doc in DRY_RUN_DOCS.items():
        (doc_dir / name).write_text(json.dumps(doc))
    argv = with_trials(argv(doc_dir), 5)
    for call in (argv, argv + ["--dry-run"]):
        code, out, err = run_cli(capsys, call)
        assert code == EXIT_PRECONDITION, call
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("precondition violated")


def test_precondition_reported_once(tmp_path):
    # The real process's stderr, so that log records count as well.
    doc = tmp_path / "nodim.json"
    doc.write_text(json.dumps(MALFORMED["set-without-dimension"]))
    src = str(Path(ulat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "UL_LOG": "warning"}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ulat.cli",
         "geometry", "--set", str(doc), "--op", "measure"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("precondition violated: malformed set document")


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package is
    # explicit control flow that raises.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(ulat.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def import_time_nodes(nodes):
    """The nodes that run when a module is imported: all but function bodies."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            yield from import_time_nodes(ast.iter_child_nodes(node))


def test_package_imports_scipy_only_inside_functions():
    # Importing scipy.special costs more than the rest of the package's
    # import, and only the Gaussian closed forms and the grid tail's
    # quadrature need scipy.
    found = []
    for path in sorted(Path(ulat.__file__).parent.glob("*.py")):
        for node in import_time_nodes(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def module_loaded_after(lines: list[str], module: str = "scipy.special") -> bool:
    """Whether ``module`` is loaded after the Python ``lines`` run in a
    fresh process that treats a RuntimeWarning as an error."""
    src = str(Path(ulat.__file__).resolve().parents[1])
    script = "\n".join(["import sys", *lines, f"print({module!r} in sys.modules)"])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def test_import_leaves_scipy_special_unloaded():
    assert module_loaded_after(["import ulat.cli"]) is False


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["geometry", "--set", "ball.json", "--op", "cover-upper"], False),
        (["turan", "--random", "20"], False),
        (["sharpness", "--n", "4"], False),
        (["lal", "--phi", "annulus:1:3"], False),
        (instance_argv("pipeline", Path()), False),
        (instance_argv("sweep", Path()) + ["--ygrid", "2"], False),
        (instance_argv("ratio", Path()), False),
        # The Gaussian profile's reference integrals call gammaincc.
        (["lal", "--phi", "gaussian"], True),
    ],
    ids=["geometry", "turan", "sharpness", "lal-annulus", "pipeline", "sweep", "ratio", "lal-gaussian"],
)
def test_commands_load_scipy_special_only_for_closed_forms(doc_dir, argv, loads):
    argv = with_trials([str(doc_dir / arg) if arg.endswith(".json") else arg for arg in argv], 20)
    lines = [
        "import contextlib, io, ulat.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = ulat.cli.main({argv!r})",
        "if code != 0:",
        "    sys.exit(f'exit {code}')",
    ]
    assert module_loaded_after(lines) is loads
    if argv[0] == "ratio":
        # The grid tail's envelope leak is a Gauss-Legendre rule, not quad.
        assert module_loaded_after(lines, "scipy.integrate") is False


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"ulat.{m.name}") for m in pkgutil.iter_modules(ulat.__path__)]
    exported = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exported) >= 7
    missing = [f"{mod.__name__}.{name}" for mod in exported for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []


def names_used_outside_tests() -> set:
    """Every name and attribute read in the package, the demos or the
    benchmark.  Def and class lines, __all__ strings and import lists are
    not reads."""
    root = Path(__file__).resolve().parents[1]
    used = set()
    for folder in ("src/ulat", "demos", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def ulat_modules() -> list:
    return [importlib.import_module(f"ulat.{m.name}") for m in pkgutil.iter_modules(ulat.__path__)]


def test_every_exported_name_has_a_caller():
    # A name in a module's __all__ is used by the package, the demos or the
    # benchmark, not by the tests alone.
    used = names_used_outside_tests()
    unused = [f"{mod.__name__}.{name}" for mod in ulat_modules() for name in getattr(mod, "__all__", ())
              if name not in used]
    assert unused == []


def test_every_public_method_has_a_caller():
    # Each public method or property that an exported class defines is used
    # by the package, the demos or the benchmark, not by the tests alone.
    used = names_used_outside_tests()
    unused = []
    for mod in ulat_modules():
        for cls_name in getattr(mod, "__all__", ()):
            cls = getattr(mod, cls_name)
            if not isinstance(cls, type):
                continue
            unused += [
                f"{mod.__name__}.{cls_name}.{name}"
                for name, member in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, (property, classmethod, staticmethod)))
                and name not in used
            ]
    assert unused == []


LAL = ["lal", "--phi", "annulus:1:3"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (LAL, {"seed": "5"}),
        (LAL, {"trials": "10"}),
        (LAL, {"trials": 2.5}),
        (LAL, {"trials": True}),
        (LAL, {"format": "xml"}),
        (LAL, {"no_such_flag": 1}),
        (LAL, [1, 2]),
        (["turan"], {"random": "5"}),
        (["turan"], {"dim": 3}),
        (["sharpness", "--n", "4"], {"ring_radius": "20"}),
    ],
    ids=[
        "seed-string", "trials-string", "trials-float", "trials-bool", "format-choice",
        "unknown-key", "not-an-object", "random-string", "dim-choice", "ring-radius-string",
    ],
)
def test_mistyped_config_is_a_precondition(capsys, tmp_path, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, with_trials(argv, 5) + ["--config", str(cfg)])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "precondition violated" in err


def test_config_float_flag_takes_an_integer(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ring_radius": 50, "trials": 5, "format": "json"}))
    code, out, _ = run_cli(capsys, ["sharpness", "--n", "4", "--config", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["payload"]["ring_radius"] == 50.0


@pytest.mark.parametrize("extra", [[], ["--dry-run"]])
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["sharpness", "--n"], "n", 0),
        (["turan", "--random"], "random", 0),
        (["lal", "--phi", "ball:2", "--dim"], "dim", 0),
        (["lal", "--phi", "ball:2", "--dim"], "dim", -1),
    ],
)
def test_count_flag_below_one_is_a_precondition(capsys, tmp_path, argv, key, value, extra):
    # The same check on the flag and on a --config value, whether or not
    # the run is dry.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    for call in (argv + [str(value)], argv + ["1", "--config", str(cfg)]):
        code, out, err = run_cli(capsys, with_trials(call, 5) + extra)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert f"precondition violated: {key} must be >= 1" in err


@pytest.mark.parametrize("extra", [[], ["--dry-run"]])
@pytest.mark.parametrize("value", [COUNT_CEILING + 1, 10**400])
@pytest.mark.parametrize(
    "argv, key",
    [
        (["sharpness", "--n"], "n"),
        (["turan", "--random"], "random"),
        (["lal", "--phi", "annulus:1:3", "--dim"], "dim"),
        (["lal", "--phi", "annulus:1:3", "--trials"], "trials"),
    ],
)
def test_count_flag_past_the_ceiling_is_a_precondition(capsys, monkeypatch, tmp_path, argv, key, value, extra):
    # One line and exit 2 before any loader or command runs, dry or real,
    # from the flag and from --config.  (At the parent, n and dim ended in
    # an OverflowError traceback, trials ran without end, and the turan dry
    # run exited 0.)
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("the run started"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    for call in (argv + [str(value)], argv + ["1", "--config", str(cfg)]):
        code, out, err = run_cli(capsys, call + extra)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == f"precondition violated: {key} must be <= {COUNT_CEILING}\n"


RUNS_WITHOUT_TRIALS = {
    "turan": lambda doc_dir: ["turan", "--random", "2"],
    "periodize": lambda doc_dir: grid_argv("periodize", doc_dir) + ["--grid", "4"],
    "pipeline": lambda doc_dir: grid_argv("pipeline", doc_dir) + ["--grid", "8"],
    "sweep": lambda doc_dir: grid_argv("sweep", doc_dir) + ["--ygrid", "1", "--grid", "8"],
}


def test_only_the_commands_that_run_trials_take_the_flag():
    _, commands = cli._build_parser()
    flagged = {
        name for name, p in commands.items() if any("--trials" in a.option_strings for a in p._actions)
    }
    assert flagged == set(TRIAL_COMMANDS) == set(commands) - set(RUNS_WITHOUT_TRIALS)


@pytest.mark.parametrize("command", sorted(RUNS_WITHOUT_TRIALS))
def test_commands_without_trials_reject_the_flag_and_plan_none(capsys, doc_dir, tmp_path, command):
    argv = RUNS_WITHOUT_TRIALS[command](doc_dir)
    code, out, _ = run_cli(capsys, argv + ["--dry-run"])
    assert code == EXIT_OK and "trials" not in json.loads(out)["plan"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--trials", "7"])
    assert exit_info.value.code == EXIT_PRECONDITION
    assert "unrecognized arguments: --trials 7" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({"trials": 7}))
    code, out, err = run_cli(capsys, argv + ["--config", str(tmp_path / "cfg.json")])
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == f"precondition violated: config key 'trials' names no flag of ulat {command}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["turan", "--trials", "3"], "unrecognized arguments: --trials 3"),
        (["lal", "--dim", "2"], "the following arguments are required: --phi"),
        (["turan", "--random", "x"], "argument --random: invalid int value: 'x'"),
        (["frob", "--n", "4"], "argument command: invalid choice: 'frob'"),
    ],
    ids=["unknown-flag", "missing-flag", "bad-int", "unknown-command"],
)
def test_malformed_flags_exit_2_with_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_PRECONDITION
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith(f"ulat: error: {message}")


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["turan", "-h"])
    assert exit_info.value.code == EXIT_OK
    out = capsys.readouterr()
    assert out.out.startswith("usage: ulat turan") and out.err == ""


def test_count_flag_at_the_ceiling_is_accepted(capsys):
    code, out, _ = run_cli(capsys, ["turan", "--random", str(COUNT_CEILING), "--dry-run"])
    assert code == EXIT_OK
    assert json.loads(out)["plan"]["options"]["random"] == COUNT_CEILING


def grid_argv(command: str, doc_dir, function: str = "fbox.json") -> list[str]:
    argv = [command, "--function", str(doc_dir / function)]
    if command != "periodize":
        argv += ["--s-set", str(doc_dir / "box8.json"), "--sigma-set", str(doc_dir / "sigma2.json")]
    return argv


class TestGridPreconditions:
    @pytest.mark.parametrize("command", ["periodize", "pipeline", "sweep"])
    @pytest.mark.parametrize("grid", ["0", "-3"])
    @pytest.mark.parametrize("extra", [[], ["--format", "csv"], ["--dry-run"]])
    def test_grid_below_one_rejected(self, capsys, doc_dir, command, grid, extra):
        code, out, err = run_cli(capsys, grid_argv(command, doc_dir) + ["--grid", grid] + extra)
        assert code == EXIT_PRECONDITION
        assert out == ""
        # pipeline has no rows, so its CSV format is rejected before the grid.
        rowless = command == "pipeline" and "csv" in extra
        assert ("pipeline writes one JSON document" if rowless else "grid must be an integer >= 1") in err

    def test_grid_from_config_file_checked(self, capsys, doc_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 0}))
        code, out, _ = run_cli(
            capsys, grid_argv("periodize", doc_dir) + ["--config", str(cfg), "--dry-run"]
        )
        assert code == EXIT_PRECONDITION
        assert out == ""

    @pytest.mark.parametrize("command", ["periodize", "pipeline", "sweep"])
    def test_point_budget_boundary(self, capsys, doc_dir, command):
        # Only the size n^d is compared: dry runs build no grid.
        side = math.isqrt(GRID_POINT_BUDGET)
        assert side**2 <= GRID_POINT_BUDGET < (side + 1) ** 2
        argv = grid_argv(command, doc_dir) + ["--dry-run", "--grid"]
        assert run_cli(capsys, argv + [str(side)])[0] == EXIT_OK
        code, _, err = run_cli(capsys, argv + [str(side + 1)])
        assert code == EXIT_PRECONDITION
        assert "exceeds the budget" in err

    def test_point_budget_counts_every_axis(self, capsys, tmp_path):
        doc = tmp_path / "cube.json"
        doc.write_text(json.dumps({"kind": "box", "lower": [-0.1] * 3, "upper": [0.1] * 3}))
        side = 1
        while (side + 1) ** 3 <= GRID_POINT_BUDGET:
            side += 1
        argv = ["periodize", "--function", str(doc), "--dry-run", "--grid"]
        assert run_cli(capsys, argv + [str(side)])[0] == EXIT_OK
        assert run_cli(capsys, argv + [str(side + 1)])[0] == EXIT_PRECONDITION
        assert run_cli(capsys, argv + [str(10**9)])[0] == EXIT_PRECONDITION

    @pytest.mark.parametrize("command", ["periodize", "pipeline", "sweep"])
    def test_default_grid_in_four_dimensions_rejected(self, capsys, tmp_path, command):
        # The 3-D default of 64 points per axis would be 64^4 points in d = 4.
        box = {"kind": "box", "lower": [-0.1] * 4, "upper": [0.1] * 4}
        sets = {
            "f4.json": box,
            "s4.json": {"dimension": 4, "pieces": [box]},
            "sigma4.json": {"dimension": 4, "pieces": [{"kind": "ball", "center": [0.0] * 4,
                                                         "radius": 1.0}]},
        }
        for name, doc in sets.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [command, "--function", str(tmp_path / "f4.json"), "--dry-run"]
        if command != "periodize":
            argv += ["--s-set", str(tmp_path / "s4.json"), "--sigma-set", str(tmp_path / "sigma4.json")]
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "precondition violated" in err
        # A grid within the budget passes the same dry run of periodize.
        # Pipeline and sweep need the mean width, which takes d <= 3, so they
        # are rejected whatever the grid, before any work.
        want = EXIT_OK if command == "periodize" else EXIT_PRECONDITION
        assert run_cli(capsys, argv + ["--grid", "16"])[0] == want

    def test_real_run_checks_the_budget(self, capsys, doc_dir):
        # The JSON summary only echoes the grid, so without the check this
        # run would succeed without building it.
        side = math.isqrt(GRID_POINT_BUDGET) + 1
        code, out, _ = run_cli(
            capsys, grid_argv("periodize", doc_dir, "gauss2.json") + ["--grid", str(side)]
        )
        assert code == EXIT_PRECONDITION
        assert out == ""


class TestPeriodizeCommand:
    def test_json_summary(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["periodize", "--function", str(doc_dir / "gauss2.json"), "--seed", "3",
             "--format", "json"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["parseval_gap"] <= 1e-6

    def test_csv_grid_dump(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["periodize", "--function", str(doc_dir / "gauss2.json"), "--seed", "3",
             "--grid", "8", "--format", "csv"],
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 64
        assert {"t1", "t2", "re", "im"} == set(rows[0].keys())

    @pytest.mark.parametrize("function", ["gauss2.json", "fbox.json"])
    def test_csv_rows_are_written_as_they_are_made(self, doc_dir, tmp_path, function):
        # The rows go to the file block by block, so the peak is the value
        # grid and its coordinates, not the artifact: it was 356-387 B per
        # grid point when the whole artifact was built as lists and a string.
        n = 256
        out = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            code = main(["periodize", "--function", str(doc_dir / function), "--grid", str(n),
                         "--format", "csv", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == n * n + 1
        assert peak <= 96 * n * n

    def test_csv_write_failure_is_an_io_error(self, capsys, doc_dir):
        # /dev/full takes the open and fails the writes, after rows are made.
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        code, out, err = run_cli(capsys, ["periodize", "--function", str(doc_dir / "gauss2.json"),
                                          "--grid", "64", "--format", "csv", "--output", "/dev/full"])
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("i/o error: cannot write /dev/full") and len(err.splitlines()) == 1


class TestSharpnessCommand:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sharpness", "--n", "4", "--trials", "60", "--seed", "3"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        for key in ("m_estimate", "n", "measure", "mean_width", "cover_upper"):
            assert key in payload

    @pytest.mark.parametrize("radius", ["1e308", "inf", "nan"])
    def test_unbounded_ring_radius_precondition(self, capsys, radius):
        # The ring's discs are built with centres at the radius, past the
        # input range.
        code, out, err = run_cli(
            capsys, ["sharpness", "--n", "4", "--ring-radius", radius, "--trials", "10"]
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "ball centre and radius must lie in" in err

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_one_trial_exits_2_before_any_draw(self, capsys, monkeypatch, dry):
        # A one-trial report had m_stderr 0.0 and exit 0; the loader now
        # applies the experiment's own trial check.
        for name in ("_hit_blocks", "_mean_width_mc"):
            monkeypatch.setattr(annihilation, name, lambda *a, **k: pytest.fail("drew a trial"))
        code, out, err = run_cli(capsys, ["sharpness", "--n", "4", "--trials", "1"] + dry)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert len(err.splitlines()) == 1 and "requires trials >= 2" in err

    def test_crowded_ring_precondition(self, capsys):
        code, _, _ = run_cli(
            capsys, ["sharpness", "--n", "16", "--ring-radius", "20", "--trials", "10"]
        )
        assert code == EXIT_PRECONDITION


class TestDeterminismAndPlanning:
    def test_dry_run_prints_plan_without_computing(self, capsys, doc_dir):
        code, out, _ = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "mean-width",
             "--trials", "10000000", "--dry-run"],
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dry_run"] is True
        assert doc["plan"]["trials"] == 10000000

    def test_payloads_byte_identical(self, capsys, doc_dir):
        argv = ["lal", "--phi", "gaussian", "--dim", "2", "--trials", "120", "--seed", "5"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert payload_of(out1) == payload_of(out2)

    def test_config_file_overrides(self, capsys, doc_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 300, "seed": 9}))
        code, out, _ = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "mean-width",
             "--config", str(cfg)],
        )
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 9

    def test_output_file(self, capsys, doc_dir, tmp_path):
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            capsys,
            ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "measure",
             "-o", str(out_path)],
        )
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["payload"]["value"] > 3.14


OUT_OF_RANGE_SETS = {
    "ball-1e300": {"dimension": 2, "pieces": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1e300}]},
    "ball-nan-centre": {"dimension": 2, "pieces": [{"kind": "ball", "center": [math.nan, 0.0], "radius": 1.0}]},
    "box-to-infinity": {"dimension": 2, "pieces": [{"kind": "box", "lower": [0.0, 0.0], "upper": [math.inf, 1.0]}]},
    "box-1e308": {"dimension": 2, "pieces": [{"kind": "box", "lower": [-1e308, 0.0], "upper": [1e308, 1.0]}]},
}


@pytest.mark.parametrize("op", ["measure", "mean-width", "cover-upper"])
@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_SETS))
def test_sets_past_the_range_exit_2(capsys, tmp_path, op, name):
    # The documents hold NaN and Infinity tokens, which json reads.
    doc = tmp_path / "set.json"
    doc.write_text(json.dumps(OUT_OF_RANGE_SETS[name]))
    code, out, err = run_cli(capsys, ["geometry", "--set", str(doc), "--op", op])
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert len(err.splitlines()) == 1 and "must lie in" in err


@pytest.mark.parametrize("command", ["periodize", "ratio"])
def test_gaussian_past_the_range_exits_2(capsys, doc_dir, command):
    (doc_dir / "wide.json").write_text(json.dumps({"kind": "gaussian", "a": 1e300, "dimension": 2}))
    argv = (["periodize", "--function", str(doc_dir / "wide.json")] if command == "periodize"
            else instance_argv("ratio", doc_dir, function="wide.json"))
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == "precondition violated: Gaussian scale must lie in [2^-40, 2^40] in dimension 2, not 1e+300\n"


def test_csv_theta_sums_past_the_cap_exit_2(capsys, doc_dir):
    (doc_dir / "flat.json").write_text(json.dumps({"kind": "gaussian", "a": 2.0**-40, "dimension": 2}))
    code, out, err = run_cli(capsys, ["periodize", "--function", str(doc_dir / "flat.json"), "--format", "csv"])
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert len(err.splitlines()) == 1 and "pass 4194304 terms" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("function", [
    {"kind": "gaussian", "a": 2.0**-40, "dimension": 2},
    {"kind": "box", "lower": [-1000.0, -1000.0], "upper": [1000.0, 1000.0]},
])
def test_periodize_sums_past_the_cap_exit_2_dry_and_real(capsys, doc_dir, function, fmt):
    # The loader draws the run's lattice and checks the sums of the output
    # format, so the dry run fails with the real run's line, before either
    # allocates anything.
    (doc_dir / "wide.json").write_text(json.dumps(function))
    argv = ["periodize", "--function", str(doc_dir / "wide.json"), "--format", fmt]
    real = run_cli(capsys, argv)
    assert run_cli(capsys, argv + ["--dry-run"]) == real
    code, out, err = real
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert len(err.splitlines()) == 1 and "4194304" in err


# One run of each command whose result is one JSON document and no rows.
ROWLESS_RUNS = {
    "lal": lambda doc_dir: ["lal", "--phi", "annulus:1:3", "--trials", "5"],
    "sharpness": lambda doc_dir: ["sharpness", "--n", "2", "--trials", "5"],
    "pipeline": lambda doc_dir: instance_argv("pipeline", doc_dir) + ["--grid", "8"],
    "geometry": lambda doc_dir: ["geometry", "--set", str(doc_dir / "ball.json"), "--op", "measure"],
    "ratio": lambda doc_dir: instance_argv("ratio", doc_dir) + ["--trials", "50"],
}


@pytest.mark.parametrize("dry", [[], ["--dry-run"]])
@pytest.mark.parametrize("command", sorted(ROWLESS_RUNS))
def test_csv_of_a_command_without_rows_exits_2(capsys, doc_dir, tmp_path, command, dry):
    argv = ROWLESS_RUNS[command](doc_dir)
    assert run_cli(capsys, argv + dry)[0] == EXIT_OK
    for fmt in (["--format", "csv"], ["--config", str(tmp_path / "csv.json")]):
        (tmp_path / "csv.json").write_text(json.dumps({"format": "csv"}))
        code, out, err = run_cli(capsys, argv + fmt + dry)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == (
            f"precondition violated: {command} writes one JSON document and no rows; "
            "--format csv is for periodize, sweep, turan\n"
        )


def test_non_finite_payload_values_are_null(capsys, doc_dir):
    # An annihilated instance's ratio is the library's inf sentinel, which
    # the payload writes as null beside "annihilated": true.
    (doc_dir / "big.json").write_text(json.dumps(
        {"dimension": 2, "pieces": [{"kind": "ball", "center": [0.0, 0.0], "radius": 1000.0}]}))
    code, out, _ = run_cli(capsys, instance_argv("ratio", doc_dir, s_set="big.json", sigma_set="big.json")
                           + ["--trials", "10"])
    assert code == EXIT_OK
    payload = strict_json(out)["payload"]
    assert payload["annihilated"] is True and payload["ratio"] is None
    assert annihilation.ANNIHILATED_SENTINEL == math.inf


# Values for every number of a property run: zero, the edges of the float
# range, its infinities and NaN.
SPECIAL = [0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]


@st.composite
def cli_runs(draw, command):
    """One argv of ``command`` and the documents it reads, as (argv, {name:
    document}).  Every number the run reads is the documents' ordinary value
    but one or two, which take special values."""
    slots = []  # (list, index) of every number the run reads

    def numbers(*ordinary):
        values = list(ordinary)
        slots.extend((values, i) for i in range(len(values)))
        return values

    def function():
        half = 2.0 ** (-5 / 2)
        fbox = {"kind": "box", "lower": numbers(-half, -half), "upper": numbers(half, half)}
        kind = draw(st.sampled_from(["box", "gaussian", "modulated", "translated", "combination"]))
        return fbox, {
            "box": lambda: fbox,
            "gaussian": lambda: {"kind": "gaussian", "a": numbers(1.0), "dimension": numbers(2)},
            "modulated": lambda: {"kind": "modulated", "y": numbers(0.5, -0.25), "children": [fbox]},
            "translated": lambda: {"kind": "translated", "x0": numbers(0.05, 0.0), "children": [fbox]},
            "combination": lambda: {"kind": "combination",
                                    "children": [{"coef": numbers(1.0, 0.0), "function": fbox}]},
        }[kind]()

    def ball():
        return {"dimension": numbers(2), "pieces": [{"kind": "ball", "center": numbers(0.0, 0.0),
                                                     "radius": numbers(2.0)}]}

    def box_set(fbox):
        return {"dimension": numbers(2), "pieces": [{"kind": "box", "lower": fbox["lower"],
                                                     "upper": fbox["upper"]}]}

    docs, instance = {}, ["--function", "f.json", "--s-set", "s.json", "--sigma-set", "sigma.json"]
    if command in ("periodize", "ratio", "pipeline", "sweep"):
        fbox, docs["f.json"] = function()
        if command != "periodize":
            docs["s.json"], docs["sigma.json"] = box_set(fbox), ball()
    elif command == "geometry":
        docs["set.json"] = draw(st.sampled_from([ball, lambda: box_set(function()[0])]))()
    radii = numbers(1.0, 3.0) if command == "lal" else numbers(30.0) if command == "sharpness" else []
    for i in draw(st.sets(st.integers(0, len(slots) - 1), min_size=1, max_size=2)) if slots else ():
        values, k = slots[i]
        values[k] = draw(st.sampled_from(SPECIAL))
    for item in [*docs.values(), *(p for doc in docs.values() for p in doc.get("pieces", []))]:
        for key in ("a", "dimension", "radius"):  # one-number lists stand for scalars
            if isinstance(item.get(key), list):
                item[key] = item[key][0]
    argv = {
        "lal": lambda: ["lal", "--phi", draw(st.sampled_from(
            [f"annulus:{radii[0]!r}:{radii[1]!r}", f"ball:{radii[1]!r}", f"gaussian:{radii[0]!r}"])),
            "--trials", "3"],
        "turan": lambda: ["turan", "--random", "2", "--format", "json"],
        "periodize": lambda: ["periodize", "--function", "f.json", "--grid", "4"],
        "geometry": lambda: ["geometry", "--set", "set.json", "--op",
                             draw(st.sampled_from(["measure", "mean-width", "cover-upper"])), "--trials", "50"],
        "ratio": lambda: ["ratio", *instance, "--trials", "50"],
        "pipeline": lambda: ["pipeline", *instance, "--grid", "8"],
        "sweep": lambda: ["sweep", *instance, "--ygrid", "1", "--grid", "8", "--format", "json"],
        "sharpness": lambda: ["sharpness", "--n", "2", f"--ring-radius={radii[0]!r}", "--trials", "3"],
    }[command]()
    return argv, docs


@pytest.mark.parametrize(
    "command", ["lal", "turan", "periodize", "geometry", "ratio", "pipeline", "sweep", "sharpness"]
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_run_exits_0_with_strict_json_or_2_with_one_line(tmp_path_factory, command, data):
    # RuntimeWarning is an error under the suite's filter, so a warning, a
    # traceback or any other exception leaves main and fails the run.
    argv, docs = data.draw(cli_runs(command))
    where = tmp_path_factory.mktemp("docs")
    for name, doc in docs.items():
        (where / name).write_text(json.dumps(doc))
    argv = [str(where / arg) if arg.endswith(".json") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_OK:
        strict_json(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert code == EXIT_PRECONDITION, (argv, err.getvalue())
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
