"""End-to-end annihilating-pair machinery.

Given a pair of finite-measure sets (S time side, Sigma frequency side) and
a test function, the module evaluates the terms of the pair exponent,
measures observed annihilation ratios, runs the full probabilistic proof
pipeline on single lattice draws (periodize, split into in-set and
out-of-set coefficient mass, check the four events, close the Turan chain),
sweeps the pipeline over modulations to control the in-set spectral mass,
and runs the ring-of-discs sharpness experiment for the order-versus-width
bound.

The pipeline evaluates its polynomial on the n^d torus grid through
``turan``'s product-grid contraction, taken in blocks of first-axis rows of
about ``_GRID_BLOCK_POINTS`` points: each block is tested against the
threshold and the support mask and then dropped, so a trace holds the bool
mask and one block, not n^d complex values.  A draw whose coefficients'
moduli sum to at most the threshold skips the evaluation
(``_thinned_count``).
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
from .periodization import Periodization, check_grid
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

# Fraction of the zero set guaranteed to survive the Chebyshev step; the
# chain factor uses its reciprocal.
_TILDE_FLOOR = 0.25

# Lattice draws per modulation before the sweep gives up on that frequency.
_SWEEP_ATTEMPTS = 12

# Grid points per block of the pipeline's grid polynomial: 2^14 complex
# values take 256 KiB.  A block is a multiple of 8 first-axis rows
# (``_poly_grid_blocks``), so it holds more points where a row has more than
# 2^11 of them (in d = 3 from n = 46 up).
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
    support, which ``support_mask`` rasters."""
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


def _poly_grid_blocks(indices: np.ndarray, coeffs: np.ndarray, n: int, d: int):
    """Evaluate sum_m c_m exp(2 i pi <m, t>) on the n^d grid t = j/n, as
    flattened C-order blocks of first-axis rows that concatenate to the
    grid.

    On the grid the phase of m depends only on m mod n, so the indices are
    reduced mod n (exact for any |m|) and the coefficients are summed into a
    dense tensor over the distinct residues A_i of each axis.
    ``turan._grid_row_blocks`` contracts it against the (n, A_i) tables of
    exact n-th roots exp(2 i pi ((a j) mod n) / n), each the transpose view
    of an (A_i, n) table, so the cost is about A_1 n^d.  A block is the
    largest multiple of 8 rows within ``_GRID_BLOCK_POINTS`` points, and at
    least 8 rows.
    """
    values, tensor = _coefficient_tensor(np.mod(indices, n), coeffs)
    j = np.arange(n)
    tables = [np.exp((2j * math.pi / n) * ((a[:, None] * j) % n)).T for a in values]
    rows = 8 * max(1, _GRID_BLOCK_POINTS // (8 * n ** (d - 1)))
    return _grid_row_blocks(tensor, tables, rows)


def _thinned_count(
    mask: np.ndarray, indices: np.ndarray, coeffs: np.ndarray, n: int, d: int, threshold: float
) -> int:
    """The number of n^d grid points off ``mask`` (flat, in C order) at
    which the grid polynomial of ``_poly_grid_blocks`` has modulus at most
    ``threshold``.

    Every trigonometric polynomial has sup_T |P| <= sum_m |c_m|.  So when
    S (1 + gamma) <= threshold, with S = fsum(|c_m|) and gamma a bound on the
    rounding of the grid values, every point qualifies and the count is the
    number of points off the mask, with no grid value computed.  Otherwise
    the values are computed block by block and counted.

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
    value is at most the threshold, and the count is the integer the block
    loop returns.
    """
    gamma = 2.0 * (d + 1) * (len(coeffs) + 2) * np.finfo(float).eps
    if math.fsum(np.abs(coeffs)) * (1.0 + gamma) <= threshold:
        return mask.size - np.count_nonzero(mask)
    start = thinned = 0
    for p_vals in _poly_grid_blocks(indices, coeffs, n, d):
        stop = start + p_vals.size
        thinned += np.count_nonzero(~mask[start:stop] & (np.abs(p_vals) <= threshold))
        start = stop
    return thinned


def pipeline_trace(inst: AnnihilationInstance, seed: int, context: PipelineContext) -> PipelineTrace:
    """One full proof-pipeline trace for a single lattice draw.

    Draws (rho, v), splits the periodization into the in-set polynomial
    part and the out-of-set remainder, computes the four event flags,
    grid-estimates the zero set and its Chebyshev-thinned subset on the
    context's grid, and evaluates the closing Turan-chain bound against
    |fhat(0)|^2.  ``context`` is ``build_pipeline_context(inst, ...)``.

    The thinned set is {t off the support : |P(t)| <= 4 sqrt(C tail)}.
    Since sup_T |P| <= sum_m |c_m|, a draw whose coefficient sum, raised by
    the rounding margin gamma of ``_thinned_count`` (about 1e-14), is
    at most that threshold has the whole zero set as its thinned set, and P
    is not evaluated on the grid; otherwise it is, one block of grid rows at
    a time.  Either way the count is the same integer.  It raises
    AssertionError on an origin missing from the in-set indices, on
    |fhat(0)|^2 > |Phat(0)|^2, and on a chain that fails once all four
    events fire.
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

    mask = gamma.support_mask(context.grid_n)
    zero_fraction = 1.0 - np.count_nonzero(mask) / mask.size

    threshold = 4.0 * math.sqrt(context.c_ref * context.tail_hat)
    thinned = _thinned_count(mask, inside, p_coeffs, context.grid_n, d, threshold)
    tilde_fraction = thinned / mask.size

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


def _sigma_grid(sigma: EuclideanSet, per_axis: int) -> np.ndarray:
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
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
    context's |f_y hat(0)|^2, and integrates both over Sigma.
    """
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
