"""Trigonometric polynomials on the torus and Turan-type sup-norm bounds.

A sparse polynomial sum_k c_k exp(2 i pi <k, t>) obeys a reverse-Hoelder
inequality: its global sup is controlled by its sup on any measurable set E
of positive measure, at cost (14 d / |E|)^(m_1 + ... + m_d) in dimension d,
where m_i + 1 counts the distinct frequencies along axis i.  In d = 1 this
is Nazarov's (14/|E|)^(m-1) for m terms.  This module evaluates both sides with
certified sup-norm brackets, each a grid maximum (a feasible lower bound)
plus a gradient window, and runs randomized campaigns.

Every grid here is a product of per-axis samples, so a polynomial is
evaluated on it by ``_product_grid_values``: a dense coefficient tensor over
the distinct frequencies of each axis, contracted against one exp table per
axis.  One evaluator, ``_sup_estimates``, serves ``sup_norm`` (one
polynomial, one region), ``turan_check`` (one polynomial, the full torus and
E) and ``run_campaign`` (a block of instances): it builds the grid samples
of every box of every polynomial in the call, and each axis's exp tables,
at once, then contracts box by box.  ``run_campaign`` draws its instances in
order and checks them in blocks of ``_CAMPAIGN_BLOCK``, which bounds the
memory of one call; its rows equal those of ``turan_check`` instance by
instance, bit for bit.  The pipeline's grid polynomial in ``annihilation``
passes its exact n-th-root tables to the same contraction.
``TrigPolynomial.evaluate`` is the evaluator at scattered points.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import AxisBox, _grid_points, merged_length
from .mc import trial_rng

__all__ = [
    "TrigPolynomial",
    "TorusSet",
    "PolyOrder",
    "SupEstimate",
    "TuranResult",
    "poly_order",
    "sup_norm",
    "turan_check",
    "random_polynomial",
    "random_torus_set",
    "run_campaign",
    "box_union_measure",
]

GRID_DENSITY_FACTOR = 8


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Sparse polynomial sum_k c_k exp(2 i pi <k, t>).

    The constructor drops zero coefficients and sorts the spectrum once:
    ``freqs`` is the (n, d) integer array of frequencies in lexicographic
    order and ``coefs`` holds their complex coefficients in the same order.
    """

    dimension: int
    freqs: np.ndarray
    coefs: np.ndarray

    def __init__(self, dimension: int, terms):
        clean = {}
        for k, c in dict(terms).items():
            key = tuple(int(x) for x in (k if isinstance(k, (tuple, list, np.ndarray)) else (k,)))
            if len(key) != dimension:
                raise ValueError("frequency vector dimension mismatch")
            c = complex(c)
            if c != 0:
                clean[key] = c
        if not clean:
            raise ValueError("polynomial must have at least one nonzero term")
        keys = sorted(clean)
        freqs = np.array(keys, dtype=int)
        coefs = np.array([clean[k] for k in keys])
        freqs.setflags(write=False)
        coefs.setflags(write=False)
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coefs", coefs)

    def evaluate(self, t) -> np.ndarray:
        """sum_k c_k exp(2 i pi <k, t>) for one point or an (n, d) array."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 1
        pts = np.atleast_2d(t)
        if pts.shape[1] != self.dimension:
            raise ValueError("evaluation points must match the polynomial dimension")
        vals = np.exp(2j * math.pi * (pts @ self.freqs.T)) @ self.coefs
        return vals[0] if scalar else vals

    def gradient_bound(self) -> float:
        """Global bound for ||grad p||_2: 2 pi sum |c_k| ||k||_2."""
        norms = np.linalg.norm(self.freqs.astype(float), axis=1)
        return 2.0 * math.pi * float(np.sum(np.abs(self.coefs) * norms))


@dataclass(frozen=True)
class PolyOrder:
    """Order statistics of a spectrum.

    per_axis[i] + 1 is the number of distinct frequencies along axis i, and
    fm_exponent = sum(per_axis) is the exponent of the Turan bound.  In
    d = 1 it is the term count minus one.
    """

    per_axis: tuple
    fm_exponent: int


def poly_order(p: TrigPolynomial) -> PolyOrder:
    per_axis = tuple(len(np.unique(p.freqs[:, i])) - 1 for i in range(p.dimension))
    fm = int(sum(per_axis))
    card = len(p.coefs)
    # Spectrum-count chains that every valid spectrum satisfies.
    if fm > p.dimension * max(per_axis):
        raise AssertionError(f"order {fm} exceeds d * max per-axis order")
    if max(per_axis) > card - 1:
        raise AssertionError(f"per-axis order {max(per_axis)} exceeds term count - 1")
    if card > int(np.prod([m + 1 for m in per_axis])):
        raise AssertionError(f"term count {card} exceeds the product of axis counts")
    return PolyOrder(per_axis=per_axis, fm_exponent=fm)


# ---------------------------------------------------------------------------
# Torus sets
# ---------------------------------------------------------------------------


def box_union_measure(boxes: list[AxisBox]) -> float:
    """Exact volume of a union of axis boxes by recursive slab sweep."""
    if not boxes:
        return 0.0
    return _slab_sweep([(b.lower.tolist(), b.upper.tolist()) for b in boxes])


def _slab_sweep(boxes: list) -> float:
    # Boxes as (lower, upper) coordinate lists: each slab of the first axis
    # recurses on the remaining coordinates of the boxes that span it.
    if len(boxes[0][0]) == 1:
        return merged_length([(lo[0], hi[0]) for lo, hi in boxes])
    cuts = sorted({lo[0] for lo, _ in boxes} | {hi[0] for _, hi in boxes})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        active = [(b_lo[1:], b_hi[1:]) for b_lo, b_hi in boxes if b_lo[0] <= mid <= b_hi[0]]
        if active:
            total += (hi - lo) * _slab_sweep(active)
    return total


@dataclass(frozen=True, eq=False)
class TorusSet:
    """Finite union of axis boxes inside the fundamental domain [0, 1)^d."""

    dimension: int
    pieces: tuple
    measure: float = field(init=False)

    def __init__(self, dimension: int, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("torus set needs at least one piece")
        for b in pieces:
            if b.dimension != dimension:
                raise ValueError("piece dimension mismatch")
            if np.any(b.lower < -1e-12) or np.any(b.upper > 1.0 + 1e-12):
                raise ValueError("torus set pieces must lie inside [0, 1]^d")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "measure", box_union_measure(list(pieces)))

    @staticmethod
    def full(dimension: int) -> "TorusSet":
        return TorusSet(dimension, [AxisBox([0.0] * dimension, [1.0] * dimension)])

    @staticmethod
    def arcs(intervals) -> "TorusSet":
        return TorusSet(1, [AxisBox([lo], [hi]) for lo, hi in intervals])


# ---------------------------------------------------------------------------
# Certified sup norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupEstimate:
    """Grid maximum with a certified upper end.

    The true supremum lies in [value, upper]: grid points are feasible
    (lower bound), and over each box the gradient bound caps the rise
    between neighboring grid points.
    """

    value: float
    upper: float


def _box_axis_grids(lo: np.ndarray, hi: np.ndarray, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples ``np.linspace(lo[b], hi[b], n[b] + 1)`` of every box b along
    one axis, concatenated, with n[b] = max(ceil((hi[b] - lo[b]) density[b]), 2),
    and the offset of each box's first sample.

    The samples follow np.linspace's own arithmetic: step = (hi - lo) / n,
    sample k = k step + lo, and the last sample set to hi, so each box's run
    equals its linspace bit for bit.
    """
    width = hi - lo
    n = np.maximum(np.ceil(width * density), 2).astype(int)
    first = np.cumsum(n + 1) - (n + 1)
    box = np.repeat(np.arange(len(n)), n + 1)
    t = (np.arange(box.size) - first[box]) * (width / n)[box] + lo[box]
    t[first + n] = hi
    return t, first


def _coefficient_tensor(freqs: np.ndarray, coefs: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values A_i of each column of the (n, d) integer array
    ``freqs``, and the dense (A_1, ..., A_d) tensor of the coefficients
    summed at their frequencies (repeated rows add up)."""
    axes = [np.unique(freqs[:, i], return_inverse=True) for i in range(freqs.shape[1])]
    tensor = np.zeros(tuple(len(a) for a, _ in axes), dtype=complex)
    np.add.at(tensor, tuple(inv for _, inv in axes), coefs)
    return [a for a, _ in axes], tensor


def _product_grid_values(tensor: np.ndarray, tables: list) -> np.ndarray:
    """sum_a c_a prod_i T_i[j_i, a_i] over the product grid, flattened in C
    order.

    ``tensor`` holds the coefficients over the distinct frequencies A_i of
    each axis, and ``tables[i]`` is the (N_i, A_i) table of exp(2 i pi t a)
    over the N_i samples t of axis i.  The sum factors axis by axis: the
    tensor is contracted one axis at a time, last axis first, so the last
    step is one (N_1, A_1) @ (A_1, N_2 ... N_d) product and the cost is
    about A_1 N_1 ... N_d.
    """
    out, later = tensor, 1
    for table in reversed(tables):
        out = table @ out.reshape(-1, table.shape[1], later)
        later *= table.shape[0]
    return out.reshape(-1)


def _sup_estimates(jobs: list) -> list:
    """Certified brackets for sup |p| over each region of each (p, regions)
    job; the jobs share one dimension.  Returns one list of SupEstimate per
    job, in the order of its regions.

    Each job keeps its own grid density, gradient bound and coefficient
    tensor.  Along each axis, the grid samples of every box of every job
    come from one ``_box_axis_grids`` call, and one elementwise exp covers
    every (sample, distinct frequency of the sample's job) pair, so each
    box's table holds the bits of an exp table built for that box alone.
    Each box's values come from its own ``_product_grid_values``
    call, and its window from the norm of its spacings; the value and the
    upper end of each region are the maxima over its run of boxes.
    """
    for p, regions in jobs:
        for region in regions:
            if region.dimension != p.dimension:
                raise ValueError(
                    f"polynomial and region dimensions differ: {p.dimension} and {region.dimension}"
                )
            if region.measure <= 0:
                raise ValueError("sup_norm region must have positive measure")
    d = jobs[0][0].dimension
    density, grad, tensors, values = [], [], [], []
    boxes, box_job, region_first = [], [], []
    for j, (p, regions) in enumerate(jobs):
        density.append(GRID_DENSITY_FACTOR * (int(np.max(np.abs(p.freqs))) + 1))
        grad.append(p.gradient_bound())
        a, tensor = _coefficient_tensor(p.freqs, p.coefs)
        values.append(a)
        tensors.append(tensor)
        for region in regions:
            region_first.append(len(boxes))
            boxes += region.pieces
            box_job += [j] * len(region.pieces)
    box_job = np.array(box_job)
    box_density = np.array(density)[box_job]
    lower = np.array([b.lower for b in boxes])
    upper = np.array([b.upper for b in boxes])
    spacings = np.empty((len(boxes), d))
    tables = []
    for i in range(d):
        t, first = _box_axis_grids(lower[:, i], upper[:, i], box_density)
        spacings[:, i] = t[first + 1] - t[first]
        # Pair each sample with the distinct frequencies of its job, sample
        # by sample, as the rows of each box's (samples, frequencies) table.
        counts = np.array([len(a[i]) for a in values])
        offsets = np.cumsum(counts) - counts
        samples = np.diff(first, append=t.size)
        job = np.repeat(box_job, samples)
        pair_first = np.cumsum(counts[job]) - counts[job]
        sample = np.repeat(np.arange(t.size), counts[job])
        freq = offsets[job[sample]] + np.arange(sample.size) - pair_first[sample]
        flat = np.exp(2j * math.pi * (t[sample] * np.concatenate([a[i] for a in values])[freq]))
        shapes = zip(pair_first[first].tolist(), samples.tolist(), counts[box_job].tolist())
        tables.append([flat[s : s + n * a].reshape(n, a) for s, n, a in shapes])
    box_max = np.empty(len(boxes))
    window = np.empty(len(boxes))
    for b, j in enumerate(box_job.tolist()):
        grid = _product_grid_values(tensors[j], [axis[b] for axis in tables])
        box_max[b] = np.max(np.abs(grid))
        window[b] = np.linalg.norm(spacings[b])
    box_upper = box_max + np.array(grad)[box_job] * 0.5 * window
    value = np.maximum.reduceat(box_max, region_first).tolist()
    upper = np.maximum.reduceat(box_upper, region_first).tolist()
    estimates = iter(SupEstimate(v, u) for v, u in zip(value, upper))
    return [[next(estimates) for _ in regions] for _, regions in jobs]


def sup_norm(p: TrigPolynomial, region: TorusSet | None = None) -> SupEstimate:
    """Certified bracket for sup |p| over a region (default: full torus).

    Each box of the region gets a grid of at least GRID_DENSITY_FACTOR times
    (max |frequency coordinate| + 1) points per unit length along each axis.
    The value is the largest |p| over the grid points.  Each box certifies
    its grid maximum plus the gradient bound times the half-diagonal of one
    of its grid cells, and the upper end is the largest of these, which need
    not come from the box that holds the value.  The grid values come from
    per-axis exp tables through ``_product_grid_values``, in the one-job
    call of the evaluator that ``turan_check`` and ``run_campaign`` use.
    A region whose dimension differs from the polynomial's is a ValueError.
    """
    return _sup_estimates([(p, [region or TorusSet.full(p.dimension)])])[0][0]


# ---------------------------------------------------------------------------
# Turan check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuranResult:
    lhs: float
    rhs: float
    factor: float
    holds: bool


def turan_check(p: TrigPolynomial, e: TorusSet) -> TuranResult:
    """sup_T |p| <= (14 d / |E|)^(m_1 + ... + m_d) sup_E |p|.

    In d = 1 the exponent is the term count minus one, so this is Nazarov's
    bound (14/|E|)^(m-1).  A violation needs the certified lower bound of
    the global sup to exceed the certified upper bound of the right-hand side.
    """
    return _turan_results([(p, e)])[0]


def _turan_results(pairs: list) -> list:
    """``turan_check`` on each (p, E) pair of one dimension, with one
    ``_sup_estimates`` call over the full torus and E of every pair.  The
    evaluator runs first, so a region it rejects (a dimension mismatch, or
    E of measure 0) is its ValueError before any factor divides by |E|."""
    full = TorusSet.full(pairs[0][0].dimension)
    sups = _sup_estimates([(p, [full, e]) for p, e in pairs])
    results = []
    for (p, e), (whole, region) in zip(pairs, sups):
        factor = (14.0 * p.dimension / e.measure) ** poly_order(p).fm_exponent
        lhs = whole.value
        rhs = factor * region.upper
        results.append(TuranResult(lhs, rhs, factor, bool(lhs <= rhs * (1.0 + 1e-12) + 1e-300)))
    return results


# ---------------------------------------------------------------------------
# Randomized campaigns
# ---------------------------------------------------------------------------


def random_polynomial(
    d: int,
    rng: np.random.Generator,
    max_terms: int = 8,
    max_freq: int = 16,
    max_per_axis: int | None = None,
) -> TrigPolynomial:
    """Random sparse polynomial with complex Gaussian coefficients.

    ``max_per_axis`` restricts the number of distinct frequency values per
    axis (spectra inside a small product set), as used in the 2-D campaigns.
    """
    if max_per_axis is not None:
        axes = [
            rng.choice(np.arange(-max_freq, max_freq + 1), size=max_per_axis, replace=False)
            for _ in range(d)
        ]
        grid = _grid_points(axes)
        n = int(rng.integers(1, len(grid) + 1))
        pick = rng.choice(len(grid), size=n, replace=False)
        freqs = grid[pick]
    else:
        n = int(rng.integers(1, max_terms + 1))
        pool = np.arange(-max_freq, max_freq + 1)
        if d == 1:
            vals = rng.choice(pool, size=n, replace=False)
            freqs = vals[:, None]
        else:
            seen = set()
            while len(seen) < n:
                seen.add(tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1, d)))
            freqs = np.array(sorted(seen), dtype=int)
    coefs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    return TrigPolynomial(d, dict(zip(map(tuple, freqs.tolist()), coefs)))


def random_torus_set(d: int, rng: np.random.Generator, min_measure: float = 0.1) -> TorusSet:
    """Random union of one to four boxes in [0,1)^d with measure at least min_measure.

    ``min_measure`` must lie in (0, 1].  Up to 256 unions are drawn; a
    ValueError reports that none reached the measure.
    """
    if not 0.0 < min_measure <= 1.0:
        raise ValueError(f"min_measure must lie in (0, 1], got {min_measure!r}")
    for _ in range(256):
        n = int(rng.integers(1, 5))
        boxes = []
        for _ in range(n):
            lo = rng.uniform(0.0, 0.9, d)
            width = rng.uniform(0.02, 0.5, d)
            hi = np.minimum(lo + width, 1.0)
            boxes.append(AxisBox(lo, hi))
        ts = TorusSet(d, boxes)
        if ts.measure >= min_measure:
            return ts
    raise ValueError(f"no torus set of measure at least {min_measure} in 256 draws")


# Campaign draws per dimension: (max_terms, max_freq, max_per_axis,
# min_measure).  Dimensions above 2 use the d = 2 row.
_CAMPAIGN_DRAWS = {1: (8, 16, None, 0.1), 2: (8, 4, 3, 0.05)}

# Campaign instances per ``_sup_estimates`` call.  With the draws above, one
# call on 16 instances peaks at about 1.0 MB of numpy memory in d = 1,
# 0.3 MB in d = 2 and 2.0 MB in d = 3 (tracemalloc, worst of 40 blocks).
_CAMPAIGN_BLOCK = 16


def run_campaign(d: int, count: int, seed: int = 0) -> list[dict]:
    """Randomized verification campaign; returns one row per instance.

    Instance i draws its polynomial and its set from trial_rng(seed, i) with
    the constants of ``_CAMPAIGN_DRAWS``: in d = 1 up to 8 terms with
    frequencies in [-16, 16] and sets of measure at least 0.1; in d >= 2
    spectra inside a product of 3 values per axis from [-4, 4] and sets of
    measure at least 0.05.

    The instances are checked in blocks of ``_CAMPAIGN_BLOCK``.  A block is
    drawn first, each instance as one instance at a time would draw it:
    trial_rng(seed, i), then the polynomial, then the set.  Then one
    ``_sup_estimates`` call evaluates the whole block, and each factor's
    ``poly_order`` is taken.  The rows
    equal those of ``turan_check`` on each instance bit for bit, whatever
    the block size.  The block size bounds the memory of one call: the
    block's grid samples and exp tables are held at once, the grid values
    one box at a time.  A d that is not an integer >= 1, or a count below
    1, is a ValueError before any draw.
    """
    if not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"a campaign needs an integer dimension >= 1, got {d!r}")
    if count < 1:
        raise ValueError(f"a campaign needs at least one instance, got {count}")
    max_terms, max_freq, max_per_axis, min_measure = _CAMPAIGN_DRAWS[min(d, 2)]
    rows = []
    for start in range(0, count, _CAMPAIGN_BLOCK):
        pairs = []
        for i in range(start, min(start + _CAMPAIGN_BLOCK, count)):
            rng = trial_rng(seed, i)
            p = random_polynomial(d, rng, max_terms=max_terms, max_freq=max_freq,
                                  max_per_axis=max_per_axis)
            pairs.append((p, random_torus_set(d, rng, min_measure=min_measure)))
        for i, res in enumerate(_turan_results(pairs), start):
            rows.append(
                {"seed": i, "lhs": res.lhs, "rhs": res.rhs, "factor": res.factor, "holds": res.holds}
            )
    return rows
