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
E) and ``run_campaign`` (a block of instances).  Each polynomial comes as
one ``_spectrum`` pass over its sorted frequencies (the distinct values of
each axis, the coefficient tensor, the order and its chain checks, the grid
density and the gradient bound), and each region as a ``TorusSet``: the
corner rows of its boxes, as tuples of floats, and their union's measure.
The evaluator builds the grid samples of every box of every polynomial in
the call, and each axis's exp tables, at once, contracts box by box, and
takes every box maximum from one reduction.  ``run_campaign`` draws each
instance with ``random_polynomial`` and ``random_torus_set`` and checks
them in blocks of ``_CAMPAIGN_BLOCK``, which bounds the memory of one call;
its rows equal those of ``turan_check`` instance by instance, bit for bit.
The pipeline's grid polynomial in ``annihilation`` passes its exact
n-th-root tables to the same contraction, ``_grid_row_blocks``, in blocks of
first-axis rows and only on the 8-row bands that hold the rows it asks for,
so that no n^d array of values exists; a box here is one block
(``_product_grid_values``).  ``TrigPolynomial.evaluate`` is the
evaluator at scattered points.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import merged_length
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
        self.__dict__.update(dimension=int(dimension), freqs=freqs, coefs=coefs)

    @classmethod
    def _sorted(cls, freqs: np.ndarray, coefs: np.ndarray) -> "TrigPolynomial":
        """The polynomial of distinct (n, d) integer frequencies already in
        lexicographic order and their nonzero coefficients, unchecked."""
        p = object.__new__(cls)
        freqs.setflags(write=False)
        coefs.setflags(write=False)
        p.__dict__.update(dimension=freqs.shape[1], freqs=freqs, coefs=coefs)
        return p

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
        # np.linalg.norm's own steps for the 2-norm of each row.
        k = self.freqs.astype(float)
        return 2.0 * math.pi * float((np.abs(self.coefs) * np.sqrt(np.add.reduce(k * k, axis=1))).sum())


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
    return _order(tuple(len(np.unique(p.freqs[:, i])) - 1 for i in range(p.dimension)), len(p.coefs))


def _order(per_axis: tuple, card: int) -> PolyOrder:
    """The order of a spectrum of ``card`` terms from its per-axis orders,
    after the spectrum-count chains that every valid spectrum satisfies."""
    fm = int(sum(per_axis))
    if fm > len(per_axis) * max(per_axis):
        raise AssertionError(f"order {fm} exceeds d * max per-axis order")
    if max(per_axis) > card - 1:
        raise AssertionError(f"per-axis order {max(per_axis)} exceeds term count - 1")
    if card > math.prod(m + 1 for m in per_axis):
        raise AssertionError(f"term count {card} exceeds the product of axis counts")
    return PolyOrder(per_axis=per_axis, fm_exponent=fm)


# ---------------------------------------------------------------------------
# Torus sets
# ---------------------------------------------------------------------------


def _slab_sweep(boxes) -> float:
    """Exact volume of a union of boxes, given as (lower, upper) coordinate
    rows: each slab of the first axis recurses on the remaining coordinates
    of the boxes that span it."""
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
    """Finite union of axis boxes inside the fundamental domain [0, 1]^d.

    ``lower`` and ``upper`` hold the lower and the upper corners of the
    boxes, one tuple of floats per box, ``dimension`` their length, and
    ``measure`` the exact measure of their union.  Every box must satisfy
    0 <= lower < upper <= 1 along each axis, compared on Python floats, so
    NaN fails.
    """

    lower: tuple
    upper: tuple
    dimension: int = field(init=False)
    measure: float = field(init=False)

    def __init__(self, lower, upper):
        lower, upper = (tuple([tuple(map(float, row)) for row in rows]) for rows in (lower, upper))
        if not lower or len(lower) != len(upper):
            raise ValueError("torus set needs at least one box, and one upper corner per lower one")
        d = len(lower[0])
        for lo, hi in zip(lower, upper):
            if not 1 <= d == len(lo) == len(hi):
                raise ValueError("torus set corners need one dimension d >= 1")
            if not all(map(_inside, lo, hi)):
                raise ValueError(f"torus set boxes must lie inside [0, 1]^d with lower < upper: {lo}, {hi}")
        measure = _slab_sweep(list(zip(lower, upper)))
        self.__dict__.update(lower=lower, upper=upper, dimension=d, measure=measure)

    @staticmethod
    def full(dimension: int) -> "TorusSet":
        return TorusSet([[0.0] * dimension], [[1.0] * dimension])

    @staticmethod
    def arcs(intervals) -> "TorusSet":
        intervals = list(intervals)
        return TorusSet([[lo] for lo, _ in intervals], [[hi] for _, hi in intervals])


def _inside(lo: float, hi: float) -> bool:
    return 0.0 <= lo < hi <= 1.0


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
    values = [np.unique(freqs[:, i]) for i in range(freqs.shape[1])]
    tensor = np.zeros(tuple(len(a) for a in values), dtype=complex)
    np.add.at(tensor, tuple(np.searchsorted(a, freqs[:, i]) for i, a in enumerate(values)), coefs)
    return values, tensor


def _grid_row_blocks(tensor: np.ndarray, tables: list, rows: int, keep: np.ndarray | None = None):
    """Yield (j, values): sum_a c_a prod_i T_i[j_i, a_i] over the product
    grid in blocks of about ``rows`` first-axis samples from j_1 = j on, each
    flattened in C order.  Without ``keep`` the blocks concatenate to the
    whole grid.

    ``tensor`` holds the coefficients over the distinct frequencies A_i of
    each axis, and ``tables[i]`` is the (N_i, A_i) table of exp(2 i pi t a)
    over the N_i samples t of axis i.  The sum factors axis by axis: the
    tensor is contracted once over every axis but the first, last axis
    first, into an (A_1, N_2 ... N_d) matrix, and each block is one
    (rows, A_1) @ (A_1, N_2 ... N_d) product.  The cost is about
    A_1 N_1 ... N_d, and a block holds rows N_2 ... N_d values.

    ``keep``, a bool per first-axis sample, names the rows to evaluate.  The
    first axis is cut into bands of 8 rows, a one-row last band joined to
    the band before it; the bands that hold a kept row are evaluated, and
    consecutive ones merge into one run of blocks.  So every block starts at
    a multiple of 8, and a block ends at a multiple of 8 or at N_1.

    A last block of one row joins the block before it, since numpy hands a
    one-row product to gemv or dot, not gemm.  With ``rows`` a multiple of
    8, each row then meets the BLAS kernel at the same offset as in the one
    block of ``rows >= N_1``, and the blocks equal that block bit for bit.
    In d = 1 every block is a gemv, which a multithreaded BLAS splits
    between threads at a row of its own choosing, so there a long grid's
    blocks can differ from one whole-grid block in the last bits.
    """
    tail, later = tensor, 1
    for table in reversed(tables[1:]):
        tail = table @ tail.reshape(-1, table.shape[1], later)
        later *= table.shape[0]
    first = tables[0]
    tail = tail.reshape(first.shape[1], later)
    n = first.shape[0]
    bands = [(0, n)]
    if keep is not None:
        cuts = np.append(np.arange(0, max(n - 1, 1), 8), n)
        hit = np.logical_or.reduceat(keep, cuts[:-1])
        edges = np.flatnonzero(np.diff(hit, prepend=False, append=False))
        bands = zip(cuts[edges[::2]].tolist(), cuts[edges[1::2]].tolist())
    for lo, hi in bands:
        for start in range(lo, max(hi - 1, lo + 1), rows):
            stop = start + rows if start + rows < hi - 1 else hi
            yield start, (first[start:stop] @ tail).reshape(-1)


def _product_grid_values(tensor: np.ndarray, tables: list) -> np.ndarray:
    """The whole product grid of ``_grid_row_blocks`` as its one block."""
    ((_, values),) = _grid_row_blocks(tensor, tables, len(tables[0]))
    return values


class _Spectrum(NamedTuple):
    """One polynomial as the evaluator and the Turan factor use it."""

    values: list  # the distinct frequencies of each axis, ascending
    tensor: np.ndarray  # the coefficients over the product of ``values``
    order: PolyOrder
    density: int  # grid samples per unit length along each axis
    grad: float  # the gradient bound 2 pi sum |c_k| ||k||_2


def _spectrum(p: TrigPolynomial) -> _Spectrum:
    """The one pass over the spectrum of p, whose frequencies are distinct
    and in lexicographic order.

    The distinct values of each axis serve both the coefficient tensor and
    the order's chain checks.  In d = 1 the sorted frequencies are already
    the axis's distinct values, and the coefficients are the tensor.
    """
    freqs, coefs = p.freqs, p.coefs
    if freqs.shape[1] == 1:
        values, tensor = [freqs[:, 0]], coefs
    else:
        values, tensor = _coefficient_tensor(freqs, coefs)
    order = _order(tuple(len(a) - 1 for a in values), len(coefs))
    density = GRID_DENSITY_FACTOR * (int(np.abs(freqs).max()) + 1)
    return _Spectrum(values, tensor, order, density, p.gradient_bound())


def _sup_estimates(spectra: list, regions: list) -> tuple[list, list]:
    """Certified brackets for sup |p| over regions: the value and the upper
    end of each region, in order.

    ``spectra`` holds one ``_Spectrum`` per polynomial, all of one
    dimension, and each region is (j, e): the index of its polynomial and a
    ``TorusSet``.  A region whose dimension differs from its polynomial's,
    or of measure 0, is a ValueError.

    Each polynomial keeps its own grid density, gradient bound and
    coefficient tensor.  Along each axis, the grid samples of every box come
    from one ``_box_axis_grids`` call, and each run of consecutive boxes of
    one polynomial gets one exp table over its samples and the polynomial's
    distinct frequencies, so each box's rows hold the bits of an exp table
    built for that box alone.  Each box's values come from its own
    ``_product_grid_values`` call, and one ``np.maximum.reduceat`` over the
    moduli of every box's values gives the box maxima; the norms of the
    boxes' spacings give their windows.  The value and the upper end of each
    region are the maxima over its run of boxes.
    """
    d = len(spectra[0].values)
    for _, e in regions:
        if e.dimension != d:
            raise ValueError(f"polynomial and region dimensions differ: {d} and {e.dimension}")
        if e.measure <= 0:
            raise ValueError("sup_norm region must have positive measure")
    pieces = np.array([len(e.lower) for _, e in regions])
    region_first = np.cumsum(pieces) - pieces
    box_job = np.repeat([j for j, _ in regions], pieces)
    lower = np.array([row for _, e in regions for row in e.lower])
    upper = np.array([row for _, e in regions for row in e.upper])
    box_density = np.array([s.density for s in spectra])[box_job]
    # Runs of consecutive boxes of one polynomial, as (first box, end box).
    runs = np.flatnonzero(np.diff(box_job, prepend=-1)).tolist()
    runs = list(zip(runs, runs[1:] + [len(box_job)]))
    spacings = np.empty(lower.shape)
    size = np.ones(len(box_job), dtype=int)
    tables = []
    for i in range(d):
        t, first = _box_axis_grids(lower[:, i], upper[:, i], box_density)
        spacings[:, i] = t[first + 1] - t[first]
        size *= np.diff(first, append=t.size)
        ends = first.tolist() + [t.size]
        # One exp table over the samples of each run and the distinct
        # frequencies of its polynomial; each box's table is its rows.
        axis = []
        for b0, b1 in runs:
            s0 = ends[b0]
            run = np.exp(2j * math.pi * np.multiply.outer(t[s0 : ends[b1]], spectra[box_job[b0]].values[i]))
            axis += [run[f - s0 : g - s0] for f, g in zip(ends[b0:b1], ends[b0 + 1 : b1 + 1])]
        tables.append(axis)
    # Each box's |grid| goes into one buffer, and one reduction over the
    # boxes' runs in it gives every box maximum.
    start = np.cumsum(size) - size
    grid_abs = np.empty(int(size.sum()))
    for b, j in enumerate(box_job.tolist()):
        grid = _product_grid_values(spectra[j].tensor, [axis[b] for axis in tables])
        np.abs(grid, out=grid_abs[start[b] : start[b] + size[b]])
    box_max = np.maximum.reduceat(grid_abs, start)
    # np.linalg.norm of each row: vecdot takes the same dot product per row.
    window = np.sqrt(np.vecdot(spacings, spacings))
    box_upper = box_max + np.array([s.grad for s in spectra])[box_job] * 0.5 * window
    return (
        np.maximum.reduceat(box_max, region_first).tolist(),
        np.maximum.reduceat(box_upper, region_first).tolist(),
    )


def sup_norm(p: TrigPolynomial, region: TorusSet | None = None) -> SupEstimate:
    """Certified bracket for sup |p| over a region (default: full torus).

    Each box of the region gets a grid of at least GRID_DENSITY_FACTOR times
    (max |frequency coordinate| + 1) points per unit length along each axis.
    The value is the largest |p| over the grid points.  Each box certifies
    its grid maximum plus the gradient bound times the half-diagonal of one
    of its grid cells, and the upper end is the largest of these, which need
    not come from the box that holds the value.  The grid values come from
    per-axis exp tables through ``_product_grid_values``, in the one-region
    call of the evaluator that ``turan_check`` and ``run_campaign`` use.
    A region whose dimension differs from the polynomial's is a ValueError.
    """
    (value,), (upper,) = _sup_estimates([_spectrum(p)], [(0, region or TorusSet.full(p.dimension))])
    return SupEstimate(value, upper)


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
    return _turan_results([_spectrum(p)], [e])[0]


def _turan_results(spectra: list, sets: list) -> list:
    """``turan_check`` on each polynomial of ``spectra`` and its set E, a
    ``TorusSet``, with one evaluator call over the full torus and E of every
    pair.  The evaluator runs first, so a region it rejects (a dimension
    mismatch, or E of measure 0) is its ValueError before any factor divides
    by |E|.  A factor past the float range is inf, and so is the right-hand
    side: the bound is vacuous and holds."""
    d = len(spectra[0].values)
    full = TorusSet.full(d)
    value, upper = _sup_estimates(spectra, [r for j, e in enumerate(sets) for r in ((j, full), (j, e))])
    results = []
    for j, (s, e) in enumerate(zip(spectra, sets)):
        try:
            factor = (14.0 * d / e.measure) ** s.order.fm_exponent
        except OverflowError:
            factor = math.inf
        lhs = value[2 * j]
        rhs = factor * upper[2 * j + 1] if factor < math.inf else math.inf
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
        # Row k of the C-order product grid of the axes.
        n = int(rng.integers(1, max_per_axis**d + 1))
        pick = np.unravel_index(rng.choice(max_per_axis**d, size=n, replace=False), (max_per_axis,) * d)
        freqs = np.stack([a[k] for a, k in zip(axes, pick)], axis=1)
    else:
        n = int(rng.integers(1, max_terms + 1))
        pool = np.arange(-max_freq, max_freq + 1)
        if d == 1:
            freqs = rng.choice(pool, size=n, replace=False)[:, None]
        else:
            seen = set()
            while len(seen) < n:
                seen.add(tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1, d)))
            freqs = np.array(sorted(seen), dtype=int)
    coefs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    order = np.lexsort(freqs.T[::-1])
    # The frequencies drawn are distinct, and the normals nonzero.
    return TrigPolynomial._sorted(freqs[order], coefs[order])


def random_torus_set(d: int, rng: np.random.Generator, min_measure: float = 0.1) -> TorusSet:
    """Random union of one to four boxes in [0, 1]^d with measure at least min_measure.

    ``min_measure`` must lie in (0, 1].  Up to 256 unions are drawn; a
    ValueError reports that none reached the measure.
    """
    if not 0.0 < min_measure <= 1.0:
        raise ValueError(f"min_measure must lie in (0, 1], got {min_measure!r}")
    for _ in range(256):
        lower, upper = [], []
        for _ in range(int(rng.integers(1, 5))):
            lo, width = rng.uniform(0.0, 0.9, d).tolist(), rng.uniform(0.02, 0.5, d).tolist()
            lower.append(lo)
            upper.append([min(a + w, 1.0) for a, w in zip(lo, width)])
        e = TorusSet(lower, upper)
        if e.measure >= min_measure:
            return e
    raise ValueError(f"no torus set of measure at least {min_measure} in 256 draws")


# Campaign draws per dimension: (max_terms, max_freq, max_per_axis,
# min_measure).  Dimensions above 2 use the d = 2 row.
_CAMPAIGN_DRAWS = {1: (8, 16, None, 0.1), 2: (8, 4, 3, 0.05)}

# Campaign instances per ``_sup_estimates`` call.  With the draws above, one
# block of 16 instances peaks at about 0.4 MB of numpy memory in d = 1,
# 0.5 MB in d = 2 and 11 MB in d = 3, most of it the moduli of the block's
# grid values (tracemalloc after a warm-up block, worst of 40 blocks).
_CAMPAIGN_BLOCK = 16


def run_campaign(d: int, count: int, seed: int = 0) -> list[dict]:
    """Randomized verification campaign; returns one row per instance.

    Instance i draws its polynomial and its set from trial_rng(seed, i) with
    the constants of ``_CAMPAIGN_DRAWS``: in d = 1 up to 8 terms with
    frequencies in [-16, 16] and sets of measure at least 0.1; in d >= 2
    spectra inside a product of 3 values per axis from [-4, 4] and sets of
    measure at least 0.05.

    The instances are checked in blocks of ``_CAMPAIGN_BLOCK``.  A block is
    drawn first, instance i from trial_rng(seed, i): ``random_polynomial``,
    then ``random_torus_set``, whose constructor checks each union to lie in
    [0, 1]^d.  Each polynomial gets its ``_spectrum`` pass (so its order's
    chain checks run), and one ``_sup_estimates`` call evaluates the whole
    block.  The rows equal those of ``turan_check`` on each instance bit for
    bit, whatever the block size.  The block size bounds the memory of one
    call: the block's grid samples, exp tables and the moduli of its grid
    values are held at once.  A d that is not an integer >= 1, or a count
    that is not an integer >= 1, is a ValueError before any draw.
    """
    if not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"a campaign needs an integer dimension >= 1, got {d!r}")
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"a campaign needs an integer count >= 1, got {count!r}")
    max_terms, max_freq, max_per_axis, min_measure = _CAMPAIGN_DRAWS[min(d, 2)]
    rows = []
    for start in range(0, count, _CAMPAIGN_BLOCK):
        spectra, sets = [], []
        for i in range(start, min(start + _CAMPAIGN_BLOCK, count)):
            rng = trial_rng(seed, i)
            spectra.append(_spectrum(random_polynomial(d, rng, max_terms, max_freq, max_per_axis)))
            sets.append(random_torus_set(d, rng, min_measure))
        rows += [{"seed": i, **vars(res)} for i, res in enumerate(_turan_results(spectra, sets), start)]
    return rows
