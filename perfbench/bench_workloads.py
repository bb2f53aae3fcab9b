"""The benchmark workloads: seeded inputs, one timed op each, op checks.

The random inputs of an op (its seed, and the scale of its frequency set
in ``sweep-128``) are generated from the workload seed and the op index,
so the same seed gives the same op sequence.  Calls go through the public
functions of ``ulat.annihilation``, ``ulat.lattice`` and ``ulat.turan``,
always looked up on the module at call time so that a traced phase sees its
wrappers.  No call passes ``threads``.

Each workload offers:
  ``cycle``             its op kinds repeat every ``cycle`` ops, and a run
                        ends on a whole cycle so that every run has the same
                        op mix; ``ops_per_s`` is the median over cycles of
                        each cycle's op rate;
  ``warmup``            ops run before timing starts, on op indices from
                        ``WARMUP_BASE * cycle`` up, so no timed input repeats;
  ``kind(i)``           a label for op i, for the report;
  ``run(i)``            the op with index i (the timed unit);
  ``verdict(i, out)``   None if the op's result passes its check, else why;
  ``payload(i, out)``   JSON-ready dict of the result, hashed for information;
  ``run_verdict(outs)`` None if the run-level check passes, else why.
"""

from __future__ import annotations

import numpy as np

from ulat import annihilation, lattice, turan
from ulat.functions import BoxIndicator
from ulat.geometry import AxisBox, Ball, EuclideanSet


def op_rng(seed: int, tag: int, i: int) -> np.random.Generator:
    """Generator for the inputs of op ``i`` of one workload."""
    return np.random.default_rng([tag, seed, i])


def op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def eighth_box_source() -> tuple[BoxIndicator, EuclideanSet]:
    """Criterion-9 source: indicator of the centered box of measure 1/8, d = 2."""
    side = 2.0 ** (-3 / 2)
    box = AxisBox([-side / 2] * 2, [side / 2] * 2)
    return BoxIndicator(box), EuclideanSet(2, [box])


# First op index of the warm-up ops, far above any timed op index.
WARMUP_BASE = 1_000_000


class Workload:
    cycle = 1
    warmup = 1

    def run_verdict(self, outs) -> str | None:
        return None


class Pipeline512(Workload):
    """One op is one ``pipeline_trace`` at the default 512^2 grid against a
    context built once in set-up, on the criterion-9 instance."""

    name = "pipeline-512"
    tag = 1
    # Every op is of the same kind; five ops (about 1 s) make one cycle.
    cycle = 5
    warmup = 2
    # Acceptance criterion 9: share of draws where all four events fire.
    min_all_four = 0.05

    def __init__(self, seed: int):
        self.seed = seed
        f, s_set = eighth_box_source()
        self.inst = annihilation.AnnihilationInstance(
            f, s_set, EuclideanSet(2, [Ball([0.0, 0.0], 2.0)])
        )
        self.ctx = annihilation.build_pipeline_context(self.inst)

    def kind(self, i: int) -> str:
        return "trace"

    def run(self, i: int):
        s = op_seed(op_rng(self.seed, self.tag, i))
        return annihilation.pipeline_trace(self.inst, s, context=self.ctx)

    def verdict(self, i: int, trace) -> str | None:
        if not trace.events["zero_coeff_dominated"]:
            return "zero-coefficient domination failed"
        if trace.all_events and not trace.chain_holds:
            return "chain bound failed with all four events"
        return None

    def payload(self, i: int, trace) -> dict:
        return trace.to_dict()

    def run_verdict(self, traces) -> str | None:
        if not traces:
            return None
        share = sum(t.all_events for t in traces) / len(traces)
        if share < self.min_all_four:
            return f"all four events fired on {share:.1%} of draws, below {self.min_all_four:.0%}"
        return None


def sweep_sigma(template: int, s: float) -> EuclideanSet:
    """Frequency set number ``template`` (of four) scaled by ``s`` ~ 1.

    Pieces are pairwise disjoint, as the hat-side tail quadrature requires.
    Every set contains the origin and the centre of its bounding box, so a
    one-point y-grid lands inside it; three sets are off-centre, so that y
    is nonzero and the sweep modulates the source.
    """
    if template == 0:
        pieces = [Ball([0.0, 0.0], 1.0)]
    elif template == 1:
        pieces = [Ball([0.0, 0.0], 0.8), Ball([1.5, 0.0], 0.5)]
    elif template == 2:
        pieces = [AxisBox([-0.7, -0.5], [0.7, 0.5]), Ball([0.0, 1.0], 0.35)]
    else:
        pieces = [Ball([0.0, 0.0], 0.7), AxisBox([0.9, -0.4], [1.6, 0.4])]
    return EuclideanSet(2, pieces).scale(s)


class Sweep128(Workload):
    """One op is one ``translated_sweep`` at grid 128 with a one-point y-grid
    per axis; the frequency set cycles through four templates, each scaled
    by a seeded factor in [0.9, 1.1]."""

    name = "sweep-128"
    tag = 2
    cycle = 4
    warmup = 2
    per_axis = 1
    grid_n = 128

    def __init__(self, seed: int):
        self.seed = seed
        self.f, self.s_set = eighth_box_source()

    def _inputs(self, i: int) -> tuple[EuclideanSet, int]:
        rng = op_rng(self.seed, self.tag, i)
        sigma = sweep_sigma(i % self.cycle, float(rng.uniform(0.9, 1.1)))
        return sigma, op_seed(rng)

    def kind(self, i: int) -> str:
        return f"sigma{i % self.cycle}"

    def run(self, i: int):
        sigma, s = self._inputs(i)
        inst = annihilation.AnnihilationInstance(self.f, self.s_set, sigma)
        return annihilation.translated_sweep(
            inst, per_axis=self.per_axis, seed=s, grid_n=self.grid_n
        )

    def verdict(self, i: int, out: dict) -> str | None:
        return None if out["pointwise_dominated"] else "sweep bound not pointwise dominated"

    def payload(self, i: int, out: dict) -> dict:
        return out


class LatticeTuran(Workload):
    """One op is one Monte Carlo estimator call or one block of
    ``run_campaign``, each with its own seed, cycling through ``KINDS``.

    The Monte Carlo kinds are per-trial work (trial streams, rotations,
    lattice intersection) with no torus grid; the campaign blocks are the
    only ops that reach ``turan.sup_norm`` and ``TrigPolynomial.evaluate``.
    """

    name = "lattice-turan"
    tag = 3
    # (kind, trials or instances).  Each short kind takes about 0.2 s on a
    # 2-core Xeon.  The disc ring takes about 1.2 s, 0.7 s of it a fixed
    # cover of the 16 discs, and comes once per cycle.
    SHORT = (
        ("card-R2", 900),
        ("turan-d1", 200),
        ("card-R4", 760),
        ("turan-d2", 80),
        ("card-R8", 600),
        ("lal-annulus", 1250),
    )
    KINDS = SHORT * 2 + (("disc-ring-16", 100),)
    cycle = len(KINDS)
    warmup = len(SHORT)
    # Acceptance criteria 5, 6 and 7.
    lal_window = (1.0 / 50.0, 50.0)
    card_ratio_cap = 0.75
    disc_width_trials = 512

    def __init__(self, seed: int):
        self.seed = seed
        self.discs = {
            f"card-R{r}": EuclideanSet(2, [Ball([0.0, 0.0], float(r))]) for r in (2, 4, 8)
        }
        self.annulus = lattice.AnnulusIndicator(2, 1.0, 3.0)

    def kind(self, i: int) -> str:
        return self.KINDS[i % self.cycle][0]

    def run(self, i: int):
        kind, size = self.KINDS[i % self.cycle]
        s = op_seed(op_rng(self.seed, self.tag, i))
        if kind in self.discs:
            return lattice.estimate_card(self.discs[kind], trials=size, seed=s)
        if kind == "lal-annulus":
            return lattice.check_lattice_averaging(self.annulus, trials=size, seed=s)
        if kind.startswith("turan-d"):
            return turan.run_campaign(int(kind[-1]), size, seed=s)
        return annihilation.disc_ring_experiment(
            16, trials=size, seed=s, width_trials=self.disc_width_trials
        )

    def verdict(self, i: int, out) -> str | None:
        kind = self.kind(i)
        if kind in self.discs:
            ratio = out.estimate / out.extras["sigma_measure"]
            return None if ratio <= self.card_ratio_cap else f"card ratio {ratio:.3f} above cap"
        if kind == "lal-annulus":
            lo, hi = self.lal_window
            ratios = [rep.extras["ratio"] for rep in out]
            return None if all(lo <= r <= hi for r in ratios) else f"ratios {ratios} outside window"
        if kind.startswith("turan-d"):
            bad = sum(not r["holds"] for r in out)
            return None if bad == 0 else f"{bad} Turan violations"
        floor = out["n"] / 8
        return None if out["m_estimate"] >= floor else f"hit count below the N/8 floor {floor}"

    def payload(self, i: int, out) -> dict:
        if isinstance(out, tuple):
            return {"a": out[0].to_dict(), "b": out[1].to_dict()}
        if isinstance(out, list):
            return {"rows": out}
        if isinstance(out, dict):
            return out
        return out.to_dict()


WORKLOADS = {w.name: w for w in (Pipeline512, Sweep128, LatticeTuran)}

