"""Command-line interface: dispatch, exit codes, determinism, formats."""

import ast
import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ulat
from ulat import annihilation, turan
from ulat.cli import (
    EXIT_ASSERTION,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    GRID_POINT_BUDGET,
    main,
)
from ulat.geometry import EuclideanSet
from ulat.lattice import sample_lattice
from ulat.mc import trial_rng


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def payload_of(text: str) -> str:
    doc = json.loads(text)
    assert doc["schema"] == 1
    return json.dumps(doc["payload"], sort_keys=True)


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
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps(
            {"dimension": 1, "pieces": [{"kind": "ball", "center": [0.0], "radius": 1e300}]}
        ))
        code, out, err = run_cli(capsys, ["geometry", "--set", str(doc), "--op", "cover-upper"])
        assert code == EXIT_OK and "Traceback" not in err
        assert json.loads(out)["payload"] == {"value": 1e300, "balls": 1}

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

    @pytest.mark.parametrize("phi", ["ball:0.9", "gaussian:1e300"])
    def test_zero_reference_is_a_precondition(self, capsys, phi):
        # A ratio to a reference of 0 has no JSON value; the run stops first.
        code, out, err = run_cli(capsys, ["lal", "--phi", phi, "--dim", "2", "--trials", "5"])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "precondition violated" in err and "Traceback" not in err

    def test_gaussian_scale_that_overflows_is_a_precondition(self, capsys):
        code, out, err = run_cli(capsys, ["lal", "--phi", "gaussian:1e-300", "--dim", "3"])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "precondition violated" in err and "overflows" in err


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
    EVENTS = ("remainder_small", "order_small", "zero_set_large", "zero_coeff_dominated")

    def argv(self, doc_dir):
        return ["pipeline", "--function", str(doc_dir / "fbox.json"),
                "--s-set", str(doc_dir / "box8.json"),
                "--sigma-set", str(doc_dir / "sigma2.json"), "--grid", "32"]

    @pytest.mark.parametrize(
        "all_events, chain_holds, expected",
        [(True, False, EXIT_ASSERTION), (True, True, EXIT_OK), (False, False, EXIT_OK)],
    )
    def test_chain_failure_with_all_events_is_an_assertion(
        self, capsys, doc_dir, monkeypatch, all_events, chain_holds, expected
    ):
        events = {name: True for name in self.EVENTS}
        events["remainder_small"] = all_events
        trace = SimpleNamespace(
            events=events, all_events=all_events, chain_holds=chain_holds, to_dict=lambda: {}
        )
        monkeypatch.setattr(annihilation, "pipeline_trace", lambda *a, **k: trace)
        code, _, _ = run_cli(capsys, self.argv(doc_dir))
        assert code == expected

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
    if any(a.endswith(".json") for a in argv):
        # A dry run parses the documents too, so it fails the same way.
        assert run_cli(capsys, argv + ["--dry-run"])[0] == EXIT_PRECONDITION


def test_precondition_reported_once(tmp_path):
    # The real process's stderr, so that log records count as well.
    doc = tmp_path / "nodim.json"
    doc.write_text(json.dumps(MALFORMED["set-without-dimension"]))
    src = str(Path(ulat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "UL_LOG": "warning"}
    proc = subprocess.run(
        [sys.executable, "-m", "ulat.cli", "geometry", "--set", str(doc), "--op", "measure"],
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
    code, out, err = run_cli(capsys, argv + ["--trials", "5", "--config", str(cfg)])
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
        code, out, err = run_cli(capsys, call + ["--trials", "5"] + extra)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert f"precondition violated: {key} must be >= 1" in err


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
        assert "grid must be an integer >= 1" in err

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
        code, out, err = run_cli(
            capsys, ["sharpness", "--n", "4", "--ring-radius", radius, "--trials", "10"]
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "no finite bounding radius" in err

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
