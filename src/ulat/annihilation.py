"""End-to-end annihilating-pair machinery.

Given a pair of finite-measure sets (S time side, Sigma frequency side) and
a test function, the module evaluates the terms of the pair exponent,
measures observed annihilation ratios, runs the full probabilistic proof
pipeline on single lattice draws (periodize, split into in-set and
out-of-set coefficient mass, check the four events, close the Turan chain),
sweeps the pipeline over modulations to control the in-set spectral mass,
and runs the ring-of-discs sharpness experiment for the order-versus-width
bound.

The pipeline describes the support of the periodization on the n^d torus
grid as sorted row runs (``Periodization.support_runs``) and counts the
zero set from them.  It evaluates its polynomial on the grid through
``turan``'s product-grid contraction, taken in blocks of first-axis rows of
about ``_GRID_BLOCK_POINTS`` points: each block is tested against the
threshold, counted off the runs and then dropped, so a trace holds the runs
and one block, and no array of the whole grid.  A draw whose coefficients'
moduli sum to at most the threshold skips the evaluation, and otherwise a
bound per first-axis row, from the tensor contracted over that axis alone,
settles the rows it keeps below the threshold, so only the 8-row bands
that hold another row are evaluated (``_thinned_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .functions import Modulated, TestFunction, norm_sq, tail_energy
from .geometry import (
    Ball,
    EuclideanSet,
    _grid_points,
    _mean_width_mc,
    cover_measure_upper,
    lebesgue_measure,
    mean_width,
)
from .lattice import _distinct_per_trial, _hit_blocks, intersect, order_of, sample_lattice
from .mc import check_trials, mean_stderr, trial_rng
from .periodization import GRID_POINT_BUDGET, Periodization, check_grid
from .turan import _coefficient_tensor, _grid_row_blocks

__all__ = [
    "AnnihilationInstance",
    "PipelineContext",
    "PipelineTrace",
    "pair_exponent",
    "observed_ratio",
    "pipeline_trace",
    "translated_sweep",
    "disc_ring",
    "disc_ring_setup",
    "disc_ring_experiment",
    "pipeline_grid_size",
    "pipeline_source_setup",
    "check_modulation_grid",
    "DEFAULT_PIPELINE_CONSTANT",
    "ANNIHILATED_SENTINEL",
]

# Averaging constant used by the pipeline events.  Calibrated over 4e3
# lattice draws on the reference instance (centered box of measure
# 2^(-d-1), frequency ball of radius 2, d = 2): the observed
# E[||R||^2] / tail is 0.67 with 99th percentile 1.24, so the event
# threshold 4 * C * tail covers the bulk with a 3x margin at C = 1.
DEFAULT_PIPELINE_CONSTANT = 1.0

ANNIHILATED_SENTINEL = math.inf

# Fraction of the grid guaranteed to survive the Chebyshev step when the
# remainder is small and the zero set large: a zero set of 1/2, less at most
# ||R||^2 / threshold^2 <= 1/4.  ``pipeline_trace`` checks it; the chain
# factor uses the reciprocal of _TILDE_FLOOR, which may not exceed it.
_CHEBYSHEV_FLOOR = 0.5 - 0.25
_TILDE_FLOOR = _CHEBYSHEV_FLOOR

# Lattice draws per modulation before the sweep gives up on that frequency.
_SWEEP_ATTEMPTS = 12

# Grid points per block of the pipeline's grid polynomial: 2^14 complex
# values take 256 KiB, and their bool test against the threshold 16 KiB.  A
# block is a multiple of 8 first-axis rows (``_poly_grid_blocks``), so it
# holds more points where a row has more than 2^11 of them (in d = 3 from
# n = 46 up).
_GRID_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True, eq=False)
class AnnihilationInstance:
    """A (function, time set, frequency set) triple under study."""

    f: TestFunction
    time_support: EuclideanSet
    freq_set: EuclideanSet

    def __post_init__(self):
        if self.time_support.is_empty() or self.freq_set.is_empty():
            raise ValueError("instance sets must be nonempty")
        if self.time_support.dimension != self.f.dimension or self.freq_set.dimension != self.f.dimension:
            raise ValueError("instance dimensions disagree")

    @property
    def dimension(self) -> int:
        return self.f.dimension


# ---------------------------------------------------------------------------
# Pair exponent and observed ratios
# ---------------------------------------------------------------------------


def pair_exponent(
    s_set: EuclideanSet, sigma_set: EuclideanSet, trials: int = 100_000, seed: int = 0
) -> tuple[dict, str]:
    """The three terms of the pair exponent min(|S||Sigma|, |S|^{1/d}
    w(Sigma), w(S) |Sigma|^{1/d}) and the name of the one that attains it.

    Widths come from the deterministic ``mean_width`` rule, which takes
    d <= 3 and is computed first, so a larger dimension is rejected before
    any measure.  Measures use the exact fast path when the pieces are
    disjoint; otherwise they are Monte Carlo estimates of ``trials`` points
    seeded by ``seed`` and ``seed + 1``.
    """
    d = s_set.dimension
    ws = mean_width(s_set).value
    wsig = mean_width(sigma_set).value
    ms = lebesgue_measure(s_set, trials=trials, seed=seed).value
    msig = lebesgue_measure(sigma_set, trials=trials, seed=seed + 1).value
    terms = {
        "measure_product": ms * msig,
        "s_measure_sigma_width": ms ** (1.0 / d) * wsig,
        "s_width_sigma_measure": ws * msig ** (1.0 / d),
    }
    return terms, min(terms, key=terms.get)


def observed_ratio(inst: AnnihilationInstance) -> dict:
    """Total energy over the sum of the two tail energies.

    The ratio is a lower bound for any constant that works for the pair
    (time_support, freq_set).  Numerically annihilated instances (both
    tails below 1e-14 of the energy) report an infinite sentinel.
    """
    total = norm_sq(inst.f)
    t_space = tail_energy(inst.f, inst.time_support, side="space")
    t_freq = tail_energy(inst.f, inst.freq_set, side="hat")
    denom = t_space.value + t_freq.value
    annihilated = bool(denom < 1e-14 * total)
    return {
        "numerator": total,
        "denominator": denom,
        "ratio": ANNIHILATED_SENTINEL if annihilated else total / denom,
        "annihilated": annihilated,
        "space_tail": t_space.value,
        "freq_tail": t_freq.value,
    }


# ---------------------------------------------------------------------------
# Proof pipeline on single lattice draws
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PipelineContext:
    """Per-instance quantities shared by every lattice draw."""

    tail_hat: float
    nu: float
    fhat0_sq: float
    support_measure: float
    c_ref: float
    grid_n: int


@dataclass(frozen=True, eq=False)
class PipelineTrace:
    """One full pipeline trace for a single lattice draw."""

    seed: int
    dilation: float
    rotation: list
    indices: np.ndarray
    p_coefficients: np.ndarray
    total_energy: float
    p_energy: float
    r_energy: float
    order: int
    exponent: int
    events: dict
    zero_fraction: float
    tilde_fraction: float
    tail_hat: float
    nu: float
    c_ref: float
    chain_value: float
    fhat0_sq: float
    chain_holds: bool

    @property
    def all_events(self) -> bool:
        return all(self.events.values())

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["indices"] = self.indices.tolist()
        doc["p_coefficients"] = [[c.real, c.imag] for c in self.p_coefficients]
        doc["events"] = dict(self.events)
        return doc


def pipeline_grid_size(d: int) -> int:
    """Default pipeline torus grid per axis: 512 for d <= 2, 64 for d = 3.

    The pipeline's nu needs the mean width, which takes d <= 3, so d >= 4 is
    rejected whatever the grid.
    """
    if d <= 2:
        return 512
    if d == 3:
        return 64
    raise ValueError(f"the pipeline is limited to d <= 3 (the mean width rule), not d = {d}")


def pipeline_source_setup(inst: AnnihilationInstance) -> float:
    """The time support's measure, after checking the source side of the
    pipeline, which no modulation changes: a compactly supported source, and
    a measure of at most 2^(-d-1) for the time support and for the source's
    support, which ``support_runs`` rasters."""
    support = inst.f.support_set()
    if support is None:
        raise ValueError("pipeline requires a compactly supported source (box-indicator kinds)")
    cap = 2.0 ** (-inst.dimension - 1)
    measures = [lebesgue_measure(s).value for s in (inst.time_support, support)]
    for name, measure in zip(("time", "source"), measures):
        if measure > cap + 1e-12:
            raise ValueError(
                f"{name} support measure {measure:.6f} exceeds 2^(-d-1) = {cap:.6f}; rescale it first"
            )
    return measures[0]


def build_pipeline_context(inst: AnnihilationInstance, grid_n: int | None = None) -> PipelineContext:
    """Validate the instance and precompute draw-independent quantities.

    The dimension and the grid (``grid_n``, or ``pipeline_grid_size`` for
    None) are checked before any other work, then the source by
    ``pipeline_source_setup``.  ``nu`` is min(cover bound, mean width) of
    the frequency set, both deterministic.
    """
    d = inst.dimension
    default_n = pipeline_grid_size(d)  # rejects d >= 4 whatever grid_n is
    grid_n = default_n if grid_n is None else grid_n
    check_grid(grid_n, d)
    support_measure = pipeline_source_setup(inst)
    if not inst.freq_set.contains(np.zeros(d)):
        raise ValueError("the frequency set must contain the origin")
    tail_hat = tail_energy(inst.f, inst.freq_set, side="hat").value
    cover = cover_measure_upper(inst.freq_set).value
    width = mean_width(inst.freq_set).value
    fhat0_sq = float(np.abs(inst.f.hat(np.zeros(d))) ** 2)
    return PipelineContext(
        tail_hat=tail_hat,
        nu=min(cover, width),
        fhat0_sq=fhat0_sq,
        support_measure=support_measure,
        c_ref=DEFAULT_PIPELINE_CONSTANT,
        grid_n=grid_n,
    )


def _poly_grid_tables(indices: np.ndarray, coeffs: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    """The residue tensor and the root tables of sum_m c_m exp(2 i pi <m, t>)
    on the n^d grid t = j/n.

    On the grid the phase of m depends only on m mod n, so the indices are
    reduced mod n (exact for any |m|) and the coefficients are summed into a
    dense tensor over the distinct residues A_i of each axis.  Table i is
    the (n, A_i) table of exact n-th roots exp(2 i pi ((a j) mod n) / n),
    the transpose view of an (A_i, n) table.
    """
    values, tensor = _coefficient_tensor(np.mod(indices, n), coeffs)
    j = np.arange(n)
    return tensor, [np.exp((2j * math.pi / n) * ((a[:, None] * j) % n)).T for a in values]


def _poly_grid_blocks(tensor: np.ndarray, tables: list, keep: np.ndarray | None = None):
    """The grid polynomial of ``_poly_grid_tables`` as (j, values) blocks of
    first-axis rows from row j on, flattened in C order: all rows, or the
    8-row bands that hold a row ``keep`` marks (``turan._grid_row_blocks``).
    The cost is about A_1 n^d over the rows evaluated.  A block is the
    largest multiple of 8 rows within ``_GRID_BLOCK_POINTS`` points, and at
    least 8 rows.
    """
    n, d = len(tables[0]), len(tables)
    rows = 8 * max(1, _GRID_BLOCK_POINTS // (8 * n ** (d - 1)))
    return _grid_row_blocks(tensor, tables, rows, keep)


def _thinned_count(
    runs: np.ndarray, indices: np.ndarray, coeffs: np.ndarray, n: int, d: int, threshold: float
) -> int:
    """The number of n^d grid points off the support ``runs`` (sorted,
    disjoint [start, stop) ranges of flat C-order indices, as
    ``Periodization.support_runs`` gives them) at which the grid polynomial
    of ``_poly_grid_blocks`` has modulus at most ``threshold``.

    The count starts from every point off the runs, n^d minus their total
    length, and takes off the points that a bound cannot settle and whose
    computed modulus is not at most the threshold (NaN included):

    - Every trigonometric polynomial has sup_T |P| <= sum_m |c_m|.  So when
      S (1 + gamma) <= threshold, with S = fsum(|c_m|) and gamma a bound on
      the rounding of the grid values, every point qualifies and no grid
      value is computed.
    - Otherwise each first-axis row j is bounded on its own.  With the
      tensor contracted over the first axis alone, M = T_1 @ tensor, an
      (n, A_2 ... A_d) array, the row has sup |P(j, .)| <= B_j =
      sum_a |M[j, a]|.  A row with B_j (1 + gamma) + gamma S <= threshold
      is settled, and only the 8-row bands that hold an unsettled row are
      evaluated, block by block.  A block's loss is the number of its
      points above the threshold, less that number over the parts of the
      runs in the block, which one ``np.add.reduceat`` takes over the
      block's bool array padded by one element (a run may end at the
      block's end).

    Every block starts at a multiple of 8 rows and keeps the evaluator's
    rule for a one-row last block, so its values equal those of a
    whole-grid evaluation bit for bit (in d >= 2; d = 1 is a gemv, see
    ``turan._grid_row_blocks``), and the count is the integer that the
    whole grid gives.

    The margin is gamma = 2 (d + 1)(k + 2) eps, with eps = 2^-52 the machine
    epsilon (twice the unit roundoff h) and k the number of terms.  A
    computed |P(t)| exceeds sum_m |c_m| only by the rounding of:

    - the residue tensor: each entry sums its c_m in turn, and a rounded
      complex sum is off by at most h times its modulus, so the entries'
      moduli add up to at most (1 + k h) sum_m |c_m|;
    - the contraction: a grid value is a d-level contraction of the tensor
      against the root tables, whose entries have modulus at most
      1 + 2 eps.  Level i sums A_i <= k products; its real and imaginary
      parts are sums of 2 A_i real products, which any summation order,
      FMA included, leaves within 2 A_i h / (1 - 2 A_i h) of the sum of
      their moduli, so the complex error is at most sqrt(2) times that of
      sum |products|.  A level thus adds at most (2 + 1.5 A_i) eps;
    - S itself: np.abs is within one ulp (eps) and fsum rounds once (h),
      so sum_m |c_m| <= S (1 + 1.5 eps) to first order;
    - the final np.abs: one ulp;
    - the test itself: 1 + gamma and its product with S round once each.

    The total, (3.5 + k/2 + 2d + 1.5 d k) eps to first order, is below
    3/4 of gamma for every d >= 1 and k >= 1, which leaves the second-order
    terms far inside the margin.  On the criterion-9 draws, with 5 to 9
    terms, gamma is below 2e-14.  So when the test passes, every computed
    value is at most the threshold.

    The row test covers the same roundings, split in two, for M is taken
    in the other contraction order.  Write |t| for sum_a |t_a| over the
    computed tensor, at most S (1 + (k/2 + 1.5) eps) to first order, and
    take every error to first order:

    - B_j, the exact sum over the exact contraction of the computed tensor
      and tables, bounds the exact row of those inputs within the table
      moduli, a factor 1 + 2 (d - 1) eps;
    - the computed M is one level of A_1 <= k products, off by at most
      (2 + 1.5 k) eps (1 + 2 eps) |t| in the sum over a; the computed B~_j
      takes np.abs (one ulp) and sums the entries, of which at most k are
      not exactly 0 (a zero column of the tensor gives exact zeros, and
      adding 0 is exact), so B~_j is within (1 + k/2) eps of its sum;
    - a computed grid value is off its exact value by at most
      (2 d + 1.5 d k) eps |t|, the d levels above, and the final np.abs adds
      one ulp.

    So every computed |P(j, .)| is at most B~_j (1 + (2 d + k/2) eps) +
    (2 (d + 1) + 1.5 (d + 1) k) eps S, and the test's three roundings (the
    product, gamma S, the sum) raise the threshold by at most 2 eps of it.
    gamma exceeds both coefficients by at least (0.5 (d + 1) k + 2 (d + 1))
    eps, which covers those 2 eps and the second-order terms.  When the test
    passes, every value the row would have computed is at most the
    threshold, and every point of the row off the runs counts.  Both bounds
    take every value in the normal floating-point range; terms that
    underflow are outside them.
    """
    free = n**d - int(np.sum(runs[:, 1] - runs[:, 0]))
    gamma = 2.0 * (d + 1) * (len(coeffs) + 2) * np.finfo(float).eps
    total = math.fsum(np.abs(coeffs))
    if total * (1.0 + gamma) <= threshold:
        return free
    tensor, tables = _poly_grid_tables(indices, coeffs, n)
    bound = np.abs(tables[0] @ tensor.reshape(len(tensor), -1)).sum(axis=1)
    keep = ~(bound * (1.0 + gamma) + gamma * total <= threshold)
    starts, stops = np.ascontiguousarray(runs.T)
    row, thinned = n ** (d - 1), free
    for j, p_vals in _poly_grid_blocks(tensor, tables, keep):
        start, size = j * row, p_vals.size
        big = np.zeros(size + 1, dtype=bool)  # the pad: a run may end at the block's end
        np.logical_not(np.abs(p_vals) <= threshold, out=big[:size])
        first, last = np.searchsorted(stops, start, "right"), np.searchsorted(starts, start + size)
        edges = np.minimum(np.maximum(runs[first:last] - start, 0), size).reshape(-1)
        if len(edges):
            thinned += int(np.add.reduceat(big.view(np.uint8), edges, dtype=np.int32)[::2].sum())
        thinned -= np.count_nonzero(big)
    return thinned


def pipeline_trace(inst: AnnihilationInstance, seed: int, context: PipelineContext) -> PipelineTrace:
    """One full proof-pipeline trace for a single lattice draw.

    Draws (rho, v), splits the periodization into the in-set polynomial
    part and the out-of-set remainder, computes the four event flags,
    grid-estimates the zero set and its Chebyshev-thinned subset on the
    context's grid, and evaluates the closing Turan-chain bound against
    |fhat(0)|^2.  ``context`` is ``build_pipeline_context(inst, ...)``.

    The support is the sorted row runs of ``Periodization.support_runs``,
    and the zero fraction is 1 - sum(stop - start) / n^d.  The thinned set
    is {t off the support : |P(t)| <= 4 sqrt(C tail)}.  Since
    sup_T |P| <= sum_m |c_m|, a draw whose coefficient sum, raised by the
    rounding margin gamma of ``_thinned_count`` (about 1e-14), is at most
    that threshold has the whole zero set as its thinned set, and P is not
    evaluated on the grid.  Otherwise each first-axis row is bounded by the
    moduli of the tensor contracted over the first axis alone, and P is
    evaluated only on the 8-row bands that hold a row whose bound exceeds
    the threshold, one block of rows at a time, counted off the runs.
    Either way the count is the integer a whole-grid evaluation gives, and
    no array spans the grid.

    When the remainder is small and the zero set large, Chebyshev's
    inequality leaves at least ``_CHEBYSHEV_FLOOR`` - grid_tol = 1/2 -
    grid_tol - 1/4 of the grid in the thinned set, and the chain's factor
    assumes ``_TILDE_FLOOR``, which equals it.  It raises AssertionError on
    an origin missing from the in-set indices, on |fhat(0)|^2 >
    |Phat(0)|^2, on a chain that fails once all four events fire, and on a
    thinned fraction below that floor once those two events hold.
    """
    d = inst.dimension
    rng = trial_rng(seed, 0)
    lat = sample_lattice(d, rng)
    gamma = Periodization(inst.f, lat)

    inside = intersect(lat, inst.freq_set)
    origin = np.all(inside == 0, axis=1)
    if not origin.any():
        raise AssertionError("origin missing from the intersection index set")
    p_coeffs = np.atleast_1d(gamma.coefficient(inside.astype(float)))
    p_energy = float(np.sum(np.abs(p_coeffs) ** 2))
    total = gamma.energy()
    r_energy = max(total - p_energy, 0.0)

    order = order_of(inside)
    exponent = order - d
    grid_tol = 2.0 * d / context.grid_n

    runs = gamma.support_runs(context.grid_n)
    size = context.grid_n**d
    zero_fraction = 1.0 - int(np.sum(runs[:, 1] - runs[:, 0])) / size

    threshold = 4.0 * math.sqrt(context.c_ref * context.tail_hat)
    thinned = _thinned_count(runs, inside, p_coeffs, context.grid_n, d, threshold)
    tilde_fraction = thinned / size

    p_hat0 = abs(p_coeffs[np.argmax(origin)]) ** 2
    events = {
        "remainder_small": bool(r_energy <= 4.0 * context.c_ref * context.tail_hat),
        "order_small": bool(order <= 2.0 * (context.c_ref * context.nu + d)),
        "zero_set_large": bool(zero_fraction >= 0.5 - grid_tol),
        "zero_coeff_dominated": bool(context.fhat0_sq <= p_hat0 + 1e-15),
    }
    if not events["zero_coeff_dominated"]:
        raise AssertionError("zero-coefficient domination failed; this must never happen")

    # Chain bound evaluated in log space; the factor exponentiates fast.
    if context.tail_hat > 0:
        log_chain = 2.0 * (
            exponent * math.log(14.0 * d / _TILDE_FLOOR)
            + math.log(4.0)
            + 0.5 * math.log(context.c_ref * context.tail_hat)
        )
        chain_value = math.exp(log_chain) if log_chain < 700.0 else math.inf
        chain_holds = bool(
            context.fhat0_sq <= 0.0 or math.log(context.fhat0_sq) <= log_chain + 1e-12
        )
    else:
        chain_value = 0.0
        chain_holds = bool(context.fhat0_sq <= 0.0)
    if all(events.values()) and not chain_holds:
        raise AssertionError("the Turan chain bound failed although all four events fired")
    chebyshev = events["remainder_small"] and events["zero_set_large"]
    if chebyshev and tilde_fraction < _CHEBYSHEV_FLOOR - grid_tol:
        raise AssertionError(
            f"the thinned zero set holds {tilde_fraction:.6f} of the grid, below the Chebyshev floor "
            f"{_CHEBYSHEV_FLOOR} - {grid_tol:.6f}"
        )

    return PipelineTrace(
        seed=seed,
        dilation=lat.dilation,
        rotation=lat.rotation.matrix.tolist(),
        indices=inside,
        p_coefficients=p_coeffs,
        total_energy=total,
        p_energy=p_energy,
        r_energy=r_energy,
        order=order,
        exponent=exponent,
        events=events,
        zero_fraction=zero_fraction,
        tilde_fraction=tilde_fraction,
        tail_hat=context.tail_hat,
        nu=context.nu,
        c_ref=context.c_ref,
        chain_value=chain_value,
        fhat0_sq=context.fhat0_sq,
        chain_holds=chain_holds,
    )


# ---------------------------------------------------------------------------
# Modulation sweep
# ---------------------------------------------------------------------------


def check_modulation_grid(per_axis: int, d: int) -> None:
    """Reject a modulation grid of ``translated_sweep`` with per_axis < 1, or
    whose per_axis^d points of y pass ``GRID_POINT_BUDGET``; only the size is
    computed."""
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    if per_axis**d > GRID_POINT_BUDGET:
        raise ValueError(f"y grid {per_axis}^{d} exceeds the budget of {GRID_POINT_BUDGET} modulation points")


def _sigma_grid(sigma: EuclideanSet, per_axis: int) -> np.ndarray:
    lo, hi = sigma.bounding_box()
    axes = [
        lo[i] + (np.arange(per_axis) + 0.5) * (hi[i] - lo[i]) / per_axis
        for i in range(sigma.dimension)
    ]
    mesh = _grid_points(axes)
    kept = mesh[sigma.contains(mesh)]
    if len(kept) == 0:
        raise ValueError("modulation grid contains no points of the frequency set")
    return kept


def translated_sweep(
    inst: AnnihilationInstance,
    per_axis: int = 5,
    seed: int = 0,
    grid_n: int | None = None,
) -> dict:
    """Run the pipeline across modulations f_y over a grid of y in Sigma.

    Each frequency y pairs the modulated function with the shifted set
    Sigma - y, so the per-draw chain bounds |fhat(y)|^2; up to
    _SWEEP_ATTEMPTS lattice draws are tried until all four events fire.  The
    aggregation compares the resulting bound field with |fhat(y)|^2, the
    context's |f_y hat(0)|^2, and integrates both over Sigma.  The dimension,
    the grid and the size of the modulation grid (``check_modulation_grid``)
    are checked before the modulation grid is built.
    """
    d = inst.dimension
    check_grid(pipeline_grid_size(d) if grid_n is None else grid_n, d)
    check_modulation_grid(per_axis, d)
    ys = _sigma_grid(inst.freq_set, per_axis)
    sigma_measure = lebesgue_measure(inst.freq_set, seed=seed).value
    rows = []
    for yi, y in enumerate(ys):
        shifted = inst.freq_set.translate(-y)
        f_y = Modulated(inst.f, y) if np.any(y) else inst.f
        sub = AnnihilationInstance(f_y, inst.time_support, shifted)
        ctx = build_pipeline_context(sub, grid_n=grid_n)
        bound = math.nan
        attempts = 0
        for attempt in range(_SWEEP_ATTEMPTS):
            attempts += 1
            trace = pipeline_trace(sub, seed=seed + 100_003 * yi + 7919 * attempt, context=ctx)
            if trace.all_events:
                bound = trace.chain_value
                break
        rows.append(
            {
                "y": [float(c) for c in y],
                "bound": bound,
                "direct": ctx.fhat0_sq,
                "attempts": attempts,
            }
        )
    bounds = np.array([r["bound"] for r in rows])
    directs = np.array([r["direct"] for r in rows])
    solved = np.isfinite(bounds)
    return {
        "rows": rows,
        "solved_fraction": float(np.mean(solved)),
        "sigma_measure": sigma_measure,
        "integral_upper": sigma_measure * float(np.max(bounds[solved])) if np.any(solved) else math.nan,
        "bound_integral": sigma_measure * float(np.mean(bounds[solved])) if np.any(solved) else math.nan,
        "direct_integral": sigma_measure * float(np.mean(directs[solved])) if np.any(solved) else math.nan,
        "pointwise_dominated": bool(np.all(bounds[solved] >= directs[solved] - 1e-12)),
    }


# ---------------------------------------------------------------------------
# Ring-of-discs sharpness experiment
# ---------------------------------------------------------------------------


def disc_ring(n: int, ring_radius: float) -> EuclideanSet:
    """n discs of radius 1/2 regularly placed on a circle of the given radius."""
    if n < 1:
        raise ValueError("need at least one disc")
    centers = [
        (ring_radius * math.cos(2.0 * math.pi * j / n), ring_radius * math.sin(2.0 * math.pi * j / n))
        for j in range(n)
    ]
    return EuclideanSet(2, [Ball(c, 0.5) for c in centers])


def disc_ring_setup(n: int, ring_radius: float | None = None) -> tuple[float, EuclideanSet]:
    """The ring radius (10 n by default) and the ring of ``n`` discs, after
    checking that ``disc_ring_experiment`` can run on them: the radius must
    exceed 2 n, so that the discs stay well separated; otherwise ValueError."""
    ring_radius = 10.0 * n if ring_radius is None else float(ring_radius)
    if ring_radius <= 2.0 * n:
        raise ValueError(
            "ring radius must exceed twice the disc count so discs stay well separated"
        )
    return ring_radius, disc_ring(n, ring_radius)


def disc_ring_experiment(
    n: int,
    ring_radius: float | None = None,
    trials: int = 1500,
    seed: int = 0,
    width_trials: int = 2048,
) -> dict:
    """Estimate the expected axis hit count over the ring of discs: the
    number of distinct nonzero first coordinates k of the indices (k, k')
    whose lattice points lie in the ring.

    The hit count grows like the number of discs, matching the disc union's
    measure and mean width rather than its area alone; the report carries
    all three reference scales.  Both trial counts are checked first, by
    ``mc.check_trials`` (a standard error needs two trials), and then the
    ring, by ``disc_ring_setup``.  The trials' lattice points come in blocks
    from ``lattice._hit_blocks``, and the counts equal those of a loop over
    ``sample_lattice`` and ``intersect`` bit for bit.
    """
    check_trials(trials)
    check_trials(width_trials)
    ring_radius, sigma = disc_ring_setup(n, ring_radius)
    counts = []
    for size, trial, rows in _hit_blocks(sigma, trials, seed):
        first = rows[:, 0]
        counts.append(_distinct_per_trial(trial[first != 0], first[first != 0], size))
    values = np.concatenate(counts).astype(float)
    est, err = mean_stderr(values)
    width = _mean_width_mc(sigma, trials=width_trials, seed=seed + 1)
    cover = cover_measure_upper(sigma).value
    return {
        "n": n,
        "ring_radius": ring_radius,
        "m_estimate": est,
        "m_stderr": err,
        "trials": trials,
        "seed": seed,
        "measure": n * math.pi * 0.25,
        "mean_width": width.value,
        "mean_width_stderr": width.stderr,
        "cover_upper": cover,
    }
