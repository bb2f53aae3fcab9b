"""Random periodization of a test function over a random lattice.

For a lattice draw (rho, v) the periodization is

    G(t) = v^{1/2 - d} * sum_{k in Z^d} f(rho^T(k + t) / v),   t in the torus,

whose Fourier coefficient at m in Z^d (analyzed against exp(+2 i pi <m, t>),
the same sign as the ambient transform) is exactly

    Ghat(m) = sqrt(v) * fhat(v rho^T(m))        for every d >= 1.

The prefactor v^{1/2 - d} reduces to the familiar 1/sqrt(v) in one
dimension; it is the unique normalization for which the coefficient formula
above holds verbatim in higher dimension.

Torus energies are computed exactly by unfolding the square of the defining
sum, which turns ||G||^2 into a closed-form lattice sum of the
autocorrelation of f; coefficient-side sums are then compared against that
independent spatial route (Parseval / Poisson summation).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .functions import Combination, Gaussian, Modulated, TestFunction, cross_correlation
from .geometry import _grid_points
from .lattice import ANNULUS_POINT_CAP, RandomLattice, _check_annulus, integer_vectors_in_annulus

__all__ = [
    "Periodization",
    "default_grid_size",
    "check_grid",
]

# Largest torus grid, in points n^d: 1024^2 and 128^3 fit.
GRID_POINT_BUDGET = 2**21


def default_grid_size(d: int) -> int:
    """Torus grid resolution per axis: 256 for d <= 2, 64 for d = 3."""
    if d <= 2:
        return 256
    if d == 3:
        return 64
    raise ValueError("torus grids are limited to d <= 3; use Monte Carlo beyond")


def check_grid(n: int, d: int) -> None:
    """Reject a grid that is not an integer n >= 1 per axis, or whose n^d
    points pass ``GRID_POINT_BUDGET``; only the size is computed."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"grid must be an integer >= 1, got {n!r}")
    if int(n) ** d > GRID_POINT_BUDGET:
        raise ValueError(f"grid {n}^{d} exceeds the budget of {GRID_POINT_BUDGET} torus points")


# delta / (1 + M) of Periodization.support_runs, derived in its docstring.
_ROW_MARGIN = 64 * np.finfo(float).eps

# Preimage cells per chunk of ``Periodization.support_runs`` rows: bounds the
# cells one chunk can send to a piece's ``contains``.
_RUN_CHUNK_POINTS = 1 << 18

# Grid points per block of ``grid_rows``: bounds the Python rows that exist at once.
_ROW_BLOCK = 1024


def _torus_grid(n: int, d: int) -> np.ndarray:
    return _grid_points([np.arange(n) / n] * d)


@dataclass(frozen=True, eq=False)
class Periodization:
    """Periodization of ``source`` over the lattice draw ``lattice``."""

    source: TestFunction
    lattice: RandomLattice

    def __post_init__(self):
        if self.source.dimension != self.lattice.dimension:
            raise ValueError("source dimension does not match lattice dimension")

    @property
    def dimension(self) -> int:
        return self.source.dimension

    # -- coefficients -----------------------------------------------------

    def coefficient(self, m) -> complex | np.ndarray:
        """Fourier coefficient(s) sqrt(v) * fhat(v rho^T(m))."""
        vals = math.sqrt(self.lattice.dilation) * self.source.hat(self.lattice.points(m))
        return complex(vals) if np.ndim(vals) == 0 else vals

    # -- values -------------------------------------------------------------

    def value(self, t) -> np.ndarray:
        """Torus values by the truncated defining sum.

        The truncation radius comes from the source's decay envelope with
        relative tail target 1e-9 (exact for compact support).
        """
        t = np.atleast_2d(np.asarray(t, dtype=float))
        v = self.lattice.dilation
        d = self.dimension
        mat = self.lattice.rotation.matrix  # row form of the transpose action
        ks = integer_vectors_in_annulus(0.0, self._value_radius(), d)
        out = np.zeros(t.shape[0], dtype=complex)
        base = t @ mat
        for k in ks:
            out += self.source.value((base + (k.astype(float) @ mat)) / v)
        return out * v ** (0.5 - d)

    def value_grid(self, n: int) -> np.ndarray:
        """Values on the uniform n^d torus grid (flattened, C order).

        Plain Gaussian sources factor into one-dimensional theta sums;
        other kinds use the generic sum.  The CSV export of ``grid_rows``
        goes through here, and at 64^3 in d = 3 the theta sums take a few
        milliseconds where the generic sum takes seconds.  A grid that
        ``check_grid`` rejects and theta sums of more than
        ``ANNULUS_POINT_CAP`` terms raise ValueError unallocated.
        """
        d = self.dimension
        check_grid(n, d)
        v = self.lattice.dilation
        if isinstance(self.source, Gaussian):
            a = self.source.a
            reach = self._theta_reach(n)
            s = np.arange(n) / n
            ks = np.arange(-reach, reach + 1)
            theta = np.exp(
                -math.pi * a * (ks[:, None] + s[None, :]) ** 2 / (v * v)
            ).sum(axis=0)
            grid = theta
            for _ in range(d - 1):
                grid = np.multiply.outer(grid, theta)
            return (grid * v ** (0.5 - d)).astype(complex).reshape(-1)
        return self.value(_torus_grid(n, d))

    def _value_radius(self) -> float:
        """Radius of the integer shifts k of the truncated defining sum."""
        return self.lattice.dilation * self.source.spatial_radius(1e-9) + math.sqrt(self.dimension) + 1.0

    def _theta_reach(self, n: int) -> int:
        """The reach K of a Gaussian source's theta sums on n points (shifts
        -K..K); ValueError, with nothing allocated, where their (2K + 1) n
        terms pass ``ANNULUS_POINT_CAP``."""
        a, v = self.source.a, self.lattice.dilation
        reach = math.ceil(v * math.sqrt(math.log(1e18) / (math.pi * a)) + 2.0)
        if (2 * reach + 1) * n > ANNULUS_POINT_CAP:
            raise ValueError(f"theta sums of a = {a:.6g} on {n} points pass {ANNULUS_POINT_CAP} terms")
        return reach

    def check_sums(self, grid_n: int | None = None) -> None:
        """Raise the ValueError that a lattice sum of this periodization past
        ``ANNULUS_POINT_CAP`` would raise, before anything is allocated:
        with ``grid_n``, the sums of ``value_grid(grid_n)``; without, those
        of ``parseval_gap``, whose cross energy's annulus holds the
        ``energy``'s."""
        d = self.dimension
        if grid_n is not None and isinstance(self.source, Gaussian):
            self._theta_reach(grid_n)
        elif grid_n is not None:
            _check_annulus(0.0, self._value_radius(), d)
        else:
            probe = self._parseval_probe()
            _check_annulus(0.0, probe.hat_radius(1e-18), d)
            _check_annulus(0.0, self._unfolded_radius(probe), d)

    # -- energies -----------------------------------------------------------

    def _unfolded_terms(self, probe: TestFunction) -> np.ndarray:
        """Terms C_{f,probe}(rho^T(j) / v) of the unfolded lattice sum, over
        every j whose term the two sources' 1e-12 radii can reach."""
        v = self.lattice.dilation
        ks = integer_vectors_in_annulus(0.0, self._unfolded_radius(probe), self.dimension)
        shifts = self.lattice.rotation.apply_transpose(ks.astype(float)) / v
        return cross_correlation(self.source, probe, shifts)

    def _unfolded_radius(self, probe: TestFunction) -> float:
        v = self.lattice.dilation
        return 2.0 * v * max(self.source.spatial_radius(1e-12), probe.spatial_radius(1e-12)) + 1.0

    def energy(self) -> float:
        """Exact torus energy ||G||^2_{L^2(T^d)}.

        Unfolding the defining sum gives
        ||G||^2 = v^{1-d} * sum_j C_ff(rho^T(j) / v),
        a finite/fast-decaying lattice sum of the closed-form
        autocorrelation of the source.
        """
        corr = self._unfolded_terms(self.source)
        return self.lattice.dilation ** (1 - self.dimension) * float(np.sum(np.real(corr)))

    def cross_energy(self, probe: TestFunction) -> complex:
        """Exact torus inner product with the periodization of ``probe``."""
        corr = self._unfolded_terms(probe)
        return self.lattice.dilation ** (1 - self.dimension) * complex(np.sum(corr))

    # -- support -----------------------------------------------------------

    def support_runs(self, grid_n: int) -> np.ndarray:
        """Exact support membership of G over the n^d torus grid, as runs.

        The result is an (m, 2) int array of half-open ranges [start, stop)
        of flat C-order grid indices.  The runs are sorted, disjoint and
        non-empty, no two of them touch within a row, and each lies inside
        one last-axis row (n consecutive indices).  A grid point t can have
        G(t) != 0 only if some translate rho^T(k + t)/v lands in the
        support of the source; the test uses set membership, never
        thresholded numeric values.

        Each support piece is rastered in its preimage j = n v rho(x): a
        bounding box of integer j in grid units, padded by one cell, where
        j splits per coordinate into the grid point t = j mod n and the
        shift k = j div n.  A preimage row is one value j' of the first
        d - 1 coordinates.  Along it, x(j) = x0 + j u with
        x0 = ((j'/n) @ rho[:-1])/v and u = rho^T(e_d)/(v n), j the last
        coordinate.  The piece is a box, so each pair of its faces bounds j
        to one interval per row (all or none of the row where u_i = 0).
        Shrinking the faces by a margin delta gives the row's certain run
        of j; growing them by delta gives its possible run.  The cells in
        the possible run but not in the certain one are tested with the
        piece's own ``contains`` on the floats of the direct sum over k,
        rho^T(t + k)/v computed as (t @ rho)/v + (k @ rho)/v.  A run of j
        is cut at the multiples of n into runs of its torus row (the whole
        row once it spans n cells), and the runs of every row and piece
        are merged into a disjoint union (``_merge_runs``).  Rows are taken
        in chunks of about ``_RUN_CHUNK_POINTS`` preimage cells, so a piece
        whose preimage spans many periods holds bounded arrays.

        The margin is delta = 64 eps (1 + M), with eps = 2^-52 the machine
        epsilon and M = max(F, (J + n) sqrt(d)/(n v)), where F is the
        largest |coordinate| of the box faces and J the largest |j_i| over
        the preimage box.  So M bounds |x_i| of every preimage point and
        the sums of |terms| of every dot product below: |j| sqrt(d)/(n v)
        for j' @ rho and j u, and (|j|/n + 1) sqrt(d)/v for k @ rho, since
        |k_i| <= |j_i|/n + 1.  Per coordinate, with h = eps/2 the unit
        roundoff, |t_i| < 1 and every column of rho a unit vector:

        - the direct floats: rounding t = j/n, the d-term dot product, the
          division by v and the addition of (k @ rho)/v, itself off by at
          most (d sqrt(d) + 1) h M, leaves x off by at most
          ((d + 2) sqrt(d) + 1) h (1 + M);
        - the row form: x0, from j'/n, a (d - 1)-term dot product and the
          division by v, is off by at most (d + 1) h M, no more than the
          direct floats; the step u, from two roundings, moves j u by at
          most 2h M, since |j u| <= M; the face lo +- delta rounds by
          h (M + delta); and a run end (face - x0)/u, from two roundings,
          puts the line x0 + j u within 2h |face - x0| <= 4h (1 + M) of
          the face.

        The sum, at most (2 (d + 2) sqrt(d) + 9) h (1 + M), is below
        27 h (1 + M) for d <= 3, a fifth of delta, and below delta for
        every d <= 13.  So a certain cell is inside on the direct floats, a
        cell outside the possible run is outside on them, and the runs hold
        the direct sum's grid points exactly.  No array spans the n^d grid.
        """
        d = self.dimension
        check_grid(grid_n, d)
        support = self.source.support_set()
        if support is None:
            raise ValueError("support testing requires a compactly supported source")
        v = self.lattice.dilation
        mat = self.lattice.rotation.matrix
        u = mat[-1] / (v * grid_n)
        found, pending = [], 0
        for piece in support.pieces:
            lo, hi = piece.lower - 1e-15, piece.upper + 1e-15
            # The preimage box: rho of the piece's center, +- |rho| of its half sides.
            center = (grid_n * v) * self.lattice.rotation.apply((lo + hi) / 2)
            half = (grid_n * v) * (np.abs(mat) @ ((hi - lo) / 2))
            first = np.floor(center - half).astype(int) - 1
            last = np.ceil(center + half).astype(int) + 1
            faces = float(np.max(np.abs([lo, hi])))
            reach = int(np.max(np.abs([first, last])))
            delta = _ROW_MARGIN * (1.0 + max(faces, (reach + grid_n) * math.sqrt(d) / (grid_n * v)))
            face_lo, face_hi = np.array([lo + delta, lo - delta]), np.array([hi - delta, hi + delta])
            shape = last[:-1] - first[:-1] + 1
            strides = np.cumprod(np.append(shape, 1)[::-1])[-2::-1]  # row-major, of j'
            rows = math.prod(shape.tolist())
            step = max(1, _RUN_CHUNK_POINTS // int(last[-1] - first[-1] + 1))
            for r0 in range(0, rows, step):
                heads = np.arange(r0, min(r0 + step, rows))[:, None] // strides % shape + first[:-1]
                x0 = ((heads / grid_n) @ mat[:-1]) / v
                # Row 0 of a and b bounds the certain runs of j, row 1 the possible runs.
                start, stop = _row_intervals(x0, u, face_lo, face_hi)
                a = np.maximum(np.ceil(start), first[-1])
                b = np.minimum(np.floor(stop), last[-1])
                sure = np.flatnonzero(a[0] <= b[0])
                parts = [_torus_runs(heads[sure], a[0, sure], b[0, sure], grid_n)]
                doubt = np.flatnonzero((a[1] <= b[1]) & ((a[0] != a[1]) | (b[0] != b[1])))
                if len(doubt):
                    hit_heads, cells = self._band_hits(piece, heads[doubt], a[:, doubt], b[:, doubt], grid_n)
                    parts.append(_torus_runs(hit_heads, cells, cells, grid_n))
                found += parts
                pending += sum(len(part[0]) for part in parts)
                if pending > grid_n**d:  # many periods: keep the union, not every run
                    found = [_merge_runs(found)]
                    pending = len(found[0][0])
        runs = np.column_stack(_merge_runs(found))
        return runs - runs // (grid_n + 1)

    def _band_hits(self, piece, heads, a, b, grid_n):
        """The preimage rows and last coordinates j of the cells of the rows
        ``heads`` that lie in their possible runs [a[1], b[1]] but outside
        their certain runs [a[0], b[0]] (empty where a[0] > b[0]), and at
        which the direct floats lie in ``piece``."""
        v, mat = self.lattice.dilation, self.lattice.rotation.matrix
        p0, p1 = a[1], b[1]
        sure = a[0] <= b[0]
        s0, s1 = np.where(sure, a[0], p1 + 1), np.where(sure, b[0], p1)
        # The doubtful cells of each row: [p0, s0) and (s1, p1].
        lengths = np.concatenate([s0 - p0, p1 - s1]).astype(int)
        firsts = np.concatenate([p0, s1 + 1]).astype(int)
        ends = np.cumsum(lengths)
        cells = np.repeat(firsts - ends + lengths, lengths) + np.arange(ends[-1])
        j = np.column_stack([np.repeat(np.concatenate([heads, heads]), lengths, axis=0), cells])
        t, k = j % grid_n / grid_n, (j // grid_n).astype(float)
        hit = piece.contains((t @ mat) / v + (k @ mat) / v)
        return j[hit, :-1], cells[hit]

    def support_mask(self, grid_n: int) -> np.ndarray:
        """The support runs of ``support_runs`` as a flat bool mask of the
        n^d torus grid: a run's start and stop toggle an edge, and a running
        exclusive or fills the runs, so only bool arrays are made."""
        runs = self.support_runs(grid_n)
        edges = np.zeros(grid_n**self.dimension + 1, dtype=bool)
        edges[runs[:, 0]] = True
        edges[runs[:, 1]] ^= True  # a stop that meets the next row's start cancels it
        return np.logical_xor.accumulate(edges)[:-1]

    def support_fraction(self, grid_n: int | None = None) -> float:
        grid_n = default_grid_size(self.dimension) if grid_n is None else grid_n
        runs = self.support_runs(grid_n)
        return int(np.sum(runs[:, 1] - runs[:, 0])) / grid_n**self.dimension

    # -- verification ---------------------------------------------------------

    def parseval_gap(self) -> float:
        """Relative gap between the two sides of Parseval's identity for the
        torus inner product of G with the periodization P of a probe.

        The coefficient side is v * sum_m fhat(lambda_m) conj(probe_hat(lambda_m))
        over the ball of radius probe.hat_radius(1e-18); the torus side is
        ``cross_energy(probe)``, the closed-form unfolded lattice sum.  The
        probe is a sum of unit-scale Gaussians, one modulated by each
        distinct modulation of the source's leaves.  Its transform decays
        like a Gaussian, so both sides converge fast for every kind of
        source, and it peaks where each leaf's transform does, so no leaf's
        part of the inner product is left at the vanishing overlap of two
        distant peaks.
        """
        d = self.dimension
        probe = self._parseval_probe()
        ms = integer_vectors_in_annulus(0.0, probe.hat_radius(1e-18), d).astype(float)
        lam = self.lattice.points(ms)
        coef_side = self.lattice.dilation * complex(
            np.sum(self.source.hat(lam) * np.conj(probe.hat(lam)))
        )
        torus_side = self.cross_energy(probe)
        return abs(coef_side - torus_side) / max(abs(coef_side), abs(torus_side), 1e-300)

    def _parseval_probe(self) -> TestFunction:
        ys = np.unique([leaf.modulation for leaf in self.source.leaves], axis=0)
        return Combination([(1.0, Modulated(Gaussian(1.0, self.dimension), y)) for y in ys])

    # -- export ---------------------------------------------------------------

    def grid_rows(self, n: int):
        """CSV-ready rows, one per point of the n^d torus grid: its t
        coordinates, the real part and the imaginary part.  The values are
        computed by the call, so its ValueError comes before any row; the
        rows are made as they are read, ``_ROW_BLOCK`` at a time."""
        vals = self.value_grid(n)
        table = np.column_stack([_torus_grid(n, self.dimension), vals.real, vals.imag])
        blocks = range(0, len(table), _ROW_BLOCK)
        return (row for start in blocks for row in table[start : start + _ROW_BLOCK].tolist())


def _row_intervals(x0: np.ndarray, u: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per face pair lo[m], hi[m] and row x0[r], the real interval of j
    with lo[m] <= x0[r] + j u <= hi[m], as (start, stop) arrays of shape
    (len(lo), len(x0)); start > stop is an empty run.

    Each coordinate bounds j to [(lo - x0)/u, (hi - x0)/u], the faces
    swapped where u has its sign bit set.  Where u = 0 the quotients are
    -inf and inf when lo < x0 < hi; otherwise one of them admits no finite
    j or is 0/0 = NaN, which np.maximum and np.minimum pass on and which
    compares false.  So such a coordinate keeps all of the row or none.  A
    face pair with lo > hi gives an empty run.  The coordinates are taken
    one at a time: a reduction over the short last axis is slower.
    """
    neg = np.signbit(u)
    start, stop = np.where(neg, hi, lo), np.where(neg, lo, hi)
    with np.errstate(all="ignore"):
        starts = [(start[:, i, None] - x0[:, i]) / u[i] for i in range(len(u))]
        stops = [(stop[:, i, None] - x0[:, i]) / u[i] for i in range(len(u))]
    return functools.reduce(np.maximum, starts), functools.reduce(np.minimum, stops)


def _torus_runs(heads: np.ndarray, first: np.ndarray, last: np.ndarray, n: int):
    """The runs j = first..last (inclusive) of the last coordinate in the
    preimage rows ``heads``, cut at the multiples of n into keyed runs
    [start, stop) of their torus rows; a run of n cells or more covers its
    row.  A cell c of the torus row r (flat C order over j' mod n) has the
    key r (n + 1) + c, so that the runs of two rows never meet."""
    keys = (heads % n) @ ((n + 1) * n ** np.arange(heads.shape[1] - 1, -1, -1))
    first, last = first.astype(int), last.astype(int)
    start = first % n
    stop = start + np.minimum(last - first + 1, n)
    wraps = stop > n
    return (
        np.concatenate([keys + start, keys[wraps]]),
        np.concatenate([keys + np.minimum(stop, n), keys[wraps] + stop[wraps] - n]),
    )


def _merge_runs(found: list):
    """The union of the keyed runs [start, stop) of ``found`` as sorted,
    disjoint runs, no two touching: after one sort by start, a run opens a
    new union where its start passes the running maximum of the stops
    before it."""
    start, stop = (np.concatenate(part) for part in zip(*found))
    order = np.argsort(start)
    start, stop = start[order], np.maximum.accumulate(stop[order])
    opens = np.ones(len(start), dtype=bool)
    opens[1:] = start[1:] > stop[:-1]
    return start[opens], stop[np.roll(opens, -1)]
