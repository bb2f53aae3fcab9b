"""Command-line entry point for every experiment in the package.

Every subcommand takes an explicit seed (default 0), writes one artifact
(JSON or CSV) to --output or stdout, and is byte-reproducible: identical
configurations produce identical numeric payloads (wall-clock timing is
reported outside the payload).  Exit codes: 0 success, 1 I/O error,
2 precondition violation, 3 assertion failure (an inequality that must
always hold was observed to fail).

Environment: UL_LOG sets the logging level (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import annihilation, geometry, lattice, periodization, turan
from .functions import function_from_dict
from .geometry import EuclideanSet
from .mc import check_trials, trial_rng

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_ASSERTION = 3

SCHEMA_VERSION = 1

# Largest value of a count flag: 2^40, the bound M(d) on every number of a
# set for d <= 22, so that a count converts to a float exactly and stays in
# the range the library's objects accept.
COUNT_CEILING = 2**40


@dataclass
class RunConfig:
    """Resolved invocation: subcommand plus its validated parameters."""

    command: str
    options: dict = field(default_factory=dict)
    trials: int | None = None  # None for the commands without --trials
    seed: int = 0
    output: str | None = None
    fmt: str = "json"
    dry_run: bool = False
    # perf_counter origin of the reported wall time; set when the config is resolved.
    started: float = field(default_factory=time.perf_counter)

    def plan(self) -> dict:
        return {
            "command": self.command,
            "options": self.options,
            **({} if self.trials is None else {"trials": self.trials}),
            "seed": self.seed,
            "output": self.output,
            "format": self.fmt,
        }


class PreconditionError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IOError(f"{path} is not valid JSON: {exc}") from exc


def _load_doc(path: str, build, what: str):
    try:
        return build(_load_json(path))
    except (KeyError, IndexError, TypeError, AttributeError, OverflowError) as exc:
        raise PreconditionError(f"malformed {what} document {path}: {exc!r}") from exc


def _load_set(path: str) -> EuclideanSet:
    return _load_doc(path, EuclideanSet.from_dict, "set")


def _load_function(path: str):
    return _load_doc(path, function_from_dict, "function")


def _emit(config: RunConfig, payload) -> None:
    """Write the artifact to --output or stdout: for CSV, ``payload`` holds
    the rows, header first, each written as it comes; for JSON, it is the
    payload of one document, whose keys are sorted so that identical
    configurations are byte-identical (wall time lives outside the payload).
    An OSError while the output is open is the run's I/O error."""
    if config.fmt == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "command": config.command,
            "seed": config.seed,
            "payload": payload,
            "wall_time_ms": round(1000.0 * (time.perf_counter() - config.started), 3),
        }
        text = json.dumps(_json_ready(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    try:
        sink = open(config.output, "w", encoding="utf-8") if config.output else nullcontext(sys.stdout)
        with sink as fh:
            if config.fmt == "csv":
                csv.writer(fh).writerows(payload)
            else:
                fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {config.output or 'stdout'}: {exc}") from exc


def _json_ready(obj):
    """``obj`` with numpy values as Python ones and non-finite floats as None
    (null); flags beside them say why (``annihilated``, ``solved_fraction``)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


# ---------------------------------------------------------------------------
# Subcommand inputs and implementations
# ---------------------------------------------------------------------------


def _load_profile(config: RunConfig):
    """The profile of --phi, checked with --trials as check_lattice_averaging checks them."""
    check_trials(config.trials)
    spec, d = config.options["phi"], config.options["dim"]
    kind, *args = spec.split(":")
    if kind == "annulus" and len(args) == 2:
        phi = lattice.AnnulusIndicator(d, float(args[0]), float(args[1]))
    elif kind == "ball" and len(args) == 1:
        phi = lattice.AnnulusIndicator(d, 0.0, float(args[0]))
    elif kind == "gaussian" and len(args) <= 1:
        phi = lattice.GaussianProfile(d, float(args[0]) if args else 1.0)
    else:
        raise PreconditionError(f"bad profile spec {spec!r}; use annulus:r1:r2, ball:r or gaussian[:a]")
    lattice.averaging_setup(phi)
    return phi


def _load_periodize(config: RunConfig):
    """The periodization of the function over the lattice draw of --seed,
    and the grid per axis: --grid, or else the default for the function's
    dimension.  The lattice sums of the output format, the grid values for
    CSV and the energies for JSON, are checked against their cap."""
    opts = config.options
    f = _load_function(opts["function"])
    n = opts["grid"] if "grid" in opts else periodization.default_grid_size(f.dimension)
    periodization.check_grid(n, f.dimension)
    gamma = periodization.Periodization(f, lattice.sample_lattice(f.dimension, trial_rng(config.seed, 0)))
    gamma.check_sums(n if config.fmt == "csv" else None)
    return gamma, n


# The preconditions of the geometry ops, which the library checks with the
# same validators.
_GEOMETRY_CHECKS = {"mean-width": geometry.check_mean_width, "cover-upper": geometry.check_cover}


def _load_geometry(config: RunConfig) -> EuclideanSet:
    """The set, checked against the precondition of --op."""
    opts = config.options
    s = _load_set(opts["set"])
    if opts["op"] in _GEOMETRY_CHECKS:
        _GEOMETRY_CHECKS[opts["op"]](s)
    return s


def _load_instance(config: RunConfig) -> annihilation.AnnihilationInstance:
    opts = config.options
    return annihilation.AnnihilationInstance(
        _load_function(opts["function"]), _load_set(opts["s_set"]), _load_set(opts["sigma_set"])
    )


def _load_ratio(config: RunConfig) -> annihilation.AnnihilationInstance:
    """The instance, with both sets checked as ``pair_exponent``'s mean
    widths check them."""
    inst = _load_instance(config)
    geometry.check_mean_width(inst.time_support)
    geometry.check_mean_width(inst.freq_set)
    return inst


def _load_pipeline(config: RunConfig):
    """The instance and its context, which checks the grid and the source."""
    inst = _load_instance(config)
    return inst, annihilation.build_pipeline_context(inst, grid_n=config.options.get("grid"))


def _load_sweep(config: RunConfig) -> annihilation.AnnihilationInstance:
    """The instance, checked as the sweep checks it first: the dimension, the
    grid and the size of the y grid, then the source, which no modulation
    changes."""
    inst = _load_instance(config)
    grid = config.options.get("grid", annihilation.pipeline_grid_size(inst.dimension))
    periodization.check_grid(grid, inst.dimension)
    annihilation.check_modulation_grid(config.options["ygrid"], inst.dimension)
    annihilation.pipeline_source_setup(inst)
    return inst


def _load_sharpness(config: RunConfig) -> None:
    """The ring of --n discs at --ring-radius, checked with --trials as
    ``disc_ring_experiment`` checks them."""
    check_trials(config.trials)
    annihilation.disc_ring_setup(config.options["n"], config.options.get("ring_radius"))


def cmd_lal(config: RunConfig, phi) -> int:
    rep_a, rep_b = lattice.check_lattice_averaging(phi, trials=config.trials, seed=config.seed)
    _emit(config, {"outer_dilation": rep_a.to_dict(), "inner_dilation": rep_b.to_dict()})
    return EXIT_OK


def cmd_turan(config: RunConfig, _) -> int:
    opts = config.options
    rows = turan.run_campaign(opts["dim"], opts["random"], seed=config.seed)
    violations = [r for r in rows if not r["holds"]]
    if config.fmt == "csv":
        header = ["seed", "lhs", "rhs", "factor", "holds"]
        _emit(config, [header, *([r[key] for key in header] for r in rows)])
    else:
        _emit(config, {"rows": rows, "violations": len(violations)})
    if violations:
        raise AssertionError(f"{len(violations)} certified inequality violations")
    return EXIT_OK


def cmd_periodize(config: RunConfig, inputs) -> int:
    gamma, n = inputs
    lat = gamma.lattice
    if config.fmt == "csv":
        header = [f"t{i+1}" for i in range(gamma.dimension)] + ["re", "im"]
        _emit(config, itertools.chain([header], gamma.grid_rows(n)))
        return EXIT_OK
    payload = {
        "dilation": lat.dilation,
        "rotation": lat.rotation.matrix.tolist(),
        "parseval_gap": gamma.parseval_gap(),
        "energy": gamma.energy(),
        "grid": n,
    }
    _emit(config, payload)
    return EXIT_OK


def cmd_geometry(config: RunConfig, s: EuclideanSet) -> int:
    op = config.options["op"]
    if op == "mean-width":
        payload = geometry.mean_width(s).to_dict()
    elif op == "measure":
        est = geometry.lebesgue_measure(s, trials=config.trials, seed=config.seed)
        payload = est.to_dict()
    elif op == "cover-upper":
        cover = geometry.cover_measure_upper(s)
        payload = {"value": cover.value, "balls": len(cover.balls)}
    else:
        raise PreconditionError(f"unknown geometry op {op!r}")
    _emit(config, payload)
    return EXIT_OK


def cmd_ratio(config: RunConfig, inst: annihilation.AnnihilationInstance) -> int:
    # The exponent first: its widths reject d >= 4 before the ratio's work.
    terms, which = annihilation.pair_exponent(
        inst.time_support, inst.freq_set, trials=config.trials, seed=config.seed
    )
    payload = annihilation.observed_ratio(inst)
    payload["terms"], payload["which"] = terms, which
    _emit(config, payload)
    return EXIT_OK


def cmd_pipeline(config: RunConfig, inputs) -> int:
    inst, ctx = inputs
    _emit(config, annihilation.pipeline_trace(inst, seed=config.seed, context=ctx).to_dict())
    return EXIT_OK


def cmd_sweep(config: RunConfig, inst: annihilation.AnnihilationInstance) -> int:
    opts = config.options
    result = annihilation.translated_sweep(
        inst, per_axis=opts.get("ygrid", 5), seed=config.seed, grid_n=opts.get("grid")
    )
    if config.fmt == "csv":
        header = [f"y{i+1}" for i in range(inst.dimension)] + ["bound", "direct"]
        _emit(config, [header, *([*r["y"], r["bound"], r["direct"]] for r in result["rows"])])
    else:
        _emit(config, result)
    return EXIT_OK


def cmd_sharpness(config: RunConfig, _) -> int:
    opts = config.options
    report = annihilation.disc_ring_experiment(
        opts["n"],
        ring_radius=opts.get("ring_radius"),
        trials=config.trials,
        seed=config.seed,
    )
    _emit(config, report)
    return EXIT_OK


# Each command's (loader, implementation): the loader builds the command's
# inputs from its configuration, and the implementation runs on them.
_COMMANDS = {
    "lal": (_load_profile, cmd_lal),
    "turan": (lambda config: None, cmd_turan),
    "periodize": (_load_periodize, cmd_periodize),
    "geometry": (_load_geometry, cmd_geometry),
    "ratio": (_load_ratio, cmd_ratio),
    "pipeline": (_load_pipeline, cmd_pipeline),
    "sweep": (_load_sweep, cmd_sweep),
    "sharpness": (_load_sharpness, cmd_sharpness),
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, like the package's preconditions,
    are one line on stderr and exit 2; -h prints its usage as before."""

    def error(self, message: str):
        self.exit(EXIT_PRECONDITION, f"ulat: error: {message}\n")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ulat parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="ulat",
        description="Seeded experiments: lattice averaging, periodization, "
        "Turan bounds, annihilating-pair pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser, trials: bool = False) -> None:
        if trials:
            p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
        p.add_argument("--dry-run", action="store_true")
        p.add_argument("--config", default=None, help="JSON file with option overrides")

    p = sub.add_parser("lal", help="lattice averaging estimates for a profile")
    p.add_argument("--phi", required=True, help="annulus:r1:r2 | ball:r | gaussian[:a]")
    p.add_argument("--dim", type=int, default=2)
    common(p, trials=True)

    p = sub.add_parser("turan", help="randomized sup-norm inequality campaign")
    p.add_argument("--dim", type=int, choices=[1, 2], default=1)
    p.add_argument("--random", type=int, default=1000, help="number of random instances")
    common(p)

    p = sub.add_parser("periodize", help="periodize a function over one lattice draw")
    p.add_argument("--function", required=True, help="function document (JSON)")
    p.add_argument("--grid", type=int, default=None)
    common(p)

    p = sub.add_parser("geometry", help="measure / mean width / cover bound of a set")
    p.add_argument("--set", required=True, help="set document (JSON)")
    p.add_argument("--op", required=True, choices=["measure", "mean-width", "cover-upper"])
    common(p, trials=True)

    p = sub.add_parser("ratio", help="observed annihilation ratio of an instance")
    p.add_argument("--function", required=True)
    p.add_argument("--s-set", required=True)
    p.add_argument("--sigma-set", required=True)
    common(p, trials=True)

    p = sub.add_parser("pipeline", help="single proof-pipeline trace")
    p.add_argument("--function", required=True)
    p.add_argument("--s-set", required=True)
    p.add_argument("--sigma-set", required=True)
    p.add_argument("--grid", type=int, default=None)
    common(p)

    p = sub.add_parser("sweep", help="modulation sweep of the pipeline over Sigma")
    p.add_argument("--function", required=True)
    p.add_argument("--s-set", required=True)
    p.add_argument("--sigma-set", required=True)
    p.add_argument("--ygrid", type=int, default=5)
    p.add_argument("--grid", type=int, default=None)
    common(p)

    p = sub.add_parser("sharpness", help="ring-of-discs order growth experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ring-radius", type=float, default=None)
    common(p, trials=True)

    return parser, sub.choices


_DEFAULT_FORMATS = {"turan": "csv", "sweep": "csv"}

# The commands whose results are rows, the only ones --format csv can write.
_CSV_COMMANDS = ("periodize", "sweep", "turan")

# Integer flags that count something, checked to lie in [1, COUNT_CEILING]
# before a real or a dry run.
_COUNT_FLAGS = ("trials", "dim", "n", "random", "ygrid")


def _config_overrides(path: str, parser: argparse.ArgumentParser) -> dict:
    """Read a --config object and check each value as its flag would be.

    Keys are the flags' destinations of the subcommand ``parser`` (``format``
    for --format); a value must have the flag's type (an integer passes as a
    float) and lie in its choices.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise PreconditionError(f"config {path} must be a JSON object")
    flags = {"format" if a.dest == "fmt" else a.dest: a for a in parser._actions}
    for key, value in doc.items():
        action = flags.get(key)
        if action is None or key in {"help", "config", "dry_run"}:
            raise PreconditionError(f"config key {key!r} names no flag of {parser.prog}")
        kind = {float: (int, float), None: str}.get(action.type, action.type)
        if isinstance(value, bool) or not isinstance(value, kind) or (
            action.choices is not None and value not in action.choices
        ):
            raise PreconditionError(f"config value {value!r} is not valid for {action.option_strings[0]}")
    return doc


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    options = {
        k: v
        for k, v in vars(args).items()
        if k not in {"command", "trials", "seed", "output", "fmt", "dry_run", "config"}
        and v is not None
    }
    if args.config:
        for key, value in _config_overrides(args.config, parser).items():
            if key in {"trials", "seed", "output", "format"}:
                setattr(args, "fmt" if key == "format" else key, value)
            else:
                options[key] = value
    values = {"trials": getattr(args, "trials", None), **options}
    counts = {key: values[key] for key in _COUNT_FLAGS if values.get(key) is not None}
    for key, value in counts.items():
        if value < 1:
            raise PreconditionError(f"{key} must be >= 1")
        if value > COUNT_CEILING:
            raise PreconditionError(f"{key} must be <= {COUNT_CEILING}")
    fmt = args.fmt or _DEFAULT_FORMATS.get(args.command, "json")
    if fmt == "csv" and args.command not in _CSV_COMMANDS:
        raise PreconditionError(
            f"{args.command} writes one JSON document and no rows; --format csv is for "
            + ", ".join(_CSV_COMMANDS)
        )
    return RunConfig(
        command=args.command,
        options=options,
        trials=values["trials"],
        seed=args.seed,
        output=args.output,
        fmt=fmt,
        dry_run=args.dry_run,
    )


def run(config: RunConfig) -> int:
    """Dispatch one resolved configuration; returns the process exit code.
    Real and dry runs both build the command's inputs with its loader; a dry
    run then prints the plan instead of running the command."""
    load, command = _COMMANDS[config.command]
    inputs = load(config)
    if config.dry_run:
        sys.stdout.write(json.dumps({"dry_run": True, "plan": config.plan()}, sort_keys=True, indent=2) + "\n")
        return EXIT_OK
    return command(config, inputs)


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("UL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args, commands[args.command])
        return run(config)
    except ValueError as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except AssertionError as exc:
        sys.stderr.write(f"assertion failed: {exc}\n")
        return EXIT_ASSERTION
    except IOError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
