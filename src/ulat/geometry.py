"""Subsets of R^d as finite unions of closed balls and axis-aligned boxes.

The module provides exact membership, exact or Monte Carlo Lebesgue
measure, Haar-random rotations, widths of projections onto lines, the
rotation-averaged mean width by a fixed quadrature over directions, and
certified upper bounds for the ball-cover functional  sum_i min(r_i, r_i^d).

Rotations are drawn per trial, each from its own generator, and a block of
them is orthogonalised by one stacked QR.  The QR and the determinant call
numpy's LAPACK gufuncs (``qr_r_raw``, ``qr_reduced``, ``det``) without the
``np.linalg`` wrappers, whose fixed cost is most of a one-matrix draw.
Projection widths are merged row by row over a block of directions.
``sample_rotation`` and ``projection_width`` are the one-row case of the
same code, so the Monte Carlo width ``_mean_width_mc`` equals a loop over
one rotation at a time bit for bit.

All types are immutable values; operations are pure given a generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .mc import Estimate, check_trials, mean_stderr, trial_rng

__all__ = [
    "Ball",
    "AxisBox",
    "EuclideanSet",
    "Rotation",
    "CoverCandidate",
    "sample_rotation",
    "projection_width",
    "check_mean_width",
    "mean_width",
    "lebesgue_measure",
    "check_cover",
    "cover_measure_upper",
    "ball_volume",
    "merged_length",
]

ORTHOGONALITY_TOL = 1e-12

# Trials per stacked block in _mean_width_mc: bounds the temporaries of the
# Haar sampler and the interval merge whatever the trial count.
_WIDTH_BLOCK = 256

# Directions of the mean-width rule: midpoint angles on [0, pi) in d = 2,
# and Gauss-Legendre nodes in z on [0, 1] times equally spaced azimuths in
# d = 3 (4096 directions each).  Directions x pieces per merge block bound
# the rule's temporaries to a few MB.
_CIRCLE_ANGLES = 4096
_SPHERE_Z_NODES = 32
_SPHERE_AZIMUTHS = 128
_WIDTH_BLOCK_ENTRIES = 2**18

# Memory guard: a grid scale whose cells would outnumber this is skipped
# unbuilt.  A skipped scale may hold a better cover, so the result can be
# larger than with no cap, but it stays a certified upper bound: the self
# cover is always a candidate and every candidate covers the set.
_GRID_CELL_CAP = 200_000


@functools.lru_cache(maxsize=None)
def _magnitude_bound(d: int) -> float:
    """M(d) = 2^floor(min(40, 1000/d - 2 - log2(d)/2)), 2^40 for d <= 22: with
    (4 sqrt(d) M)^d <= 2^1000, every square, volume and self-cover radius^d is
    finite, and every cover-cell index at scale 2^-6 is below 2^47 < 2^53."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 ** math.floor(min(40.0, 1000.0 / d - 2.0 - math.log2(d) / 2.0))


def _check_range(values, d: int, what: str, scale: bool = False) -> None:
    """The input contract of the package, checked when an object is built:
    ValueError unless every one of ``values`` lies in [-M(d), M(d)], or in
    [1/M(d), M(d)] for a Gaussian ``scale``.  NaN fails the comparisons."""
    bound = _magnitude_bound(d)
    values = np.asarray(values, dtype=float)
    if not ((values >= (1.0 / bound if scale else -bound)) & (values <= bound)).all():
        e = int(math.log2(bound))
        span = f"[2^{-e}, 2^{e}]" if scale else f"[-2^{e}, 2^{e}]"
        raise ValueError(f"{what} must lie in {span} in dimension {d}, not {values.tolist()}")


def ball_volume(d: int, radius: float) -> float:
    """Volume of a d-dimensional Euclidean ball."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d


def _grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of 1-D axes as an (n, len(axes)) array in C order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, d) array in lexicographic order: one
    lexsort, then each row kept where it differs from its predecessor."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[keep]


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __init__(self, center, radius: float):
        # A copy, so that freezing it leaves the caller's array writable.
        center = np.array(center, dtype=float, ndmin=1)
        if center.ndim != 1:
            raise ValueError("ball center must be a vector")
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        # -M <= x <= M on Python floats, which also fails on NaN; only a
        # failing ball pays for the joined array of the message.
        bound = _magnitude_bound(len(center))
        if not (radius <= bound and all(-bound <= x <= bound for x in center.tolist())):
            _check_range(np.append(center, radius), len(center), "ball centre and radius")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(radius))

    @classmethod
    def _covering(cls, center: np.ndarray, radius: float) -> "Ball":
        """A cover ball of checked pieces, unchecked: its radius may reach sqrt(d) M(d)."""
        ball = object.__new__(cls)
        center.setflags(write=False)
        ball.__dict__.update(center=center, radius=float(radius))
        return ball

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        diff = points - self.center
        return np.einsum("...i,...i->...", diff, diff) <= self.radius**2 + 1e-15

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    def inner_radius(self) -> float:
        return max(0.0, float(np.linalg.norm(self.center)) - self.radius)

    def volume(self) -> float:
        return ball_volume(self.dimension, self.radius)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def translate(self, offset) -> "Ball":
        return Ball(self.center + np.asarray(offset, dtype=float), self.radius)

    def scale(self, factor: float) -> "Ball":
        return Ball(self.center * factor, self.radius * factor)


@dataclass(frozen=True, eq=False)
class AxisBox:
    """Closed axis-aligned box given by opposite corners."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        # Copies, so that freezing them leaves the caller's arrays writable.
        lower = np.array(lower, dtype=float, ndmin=1)
        upper = np.array(upper, dtype=float, ndmin=1)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box corners must be vectors of equal dimension")
        # One pass tests -M <= lower < upper <= M on Python floats, which
        # also fails on NaN.
        bound = _magnitude_bound(len(lower))
        if not all(-bound <= a < b <= bound for a, b in zip(lower.tolist(), upper.tolist())):
            _check_range(np.append(lower, upper), len(lower), "box corners")
            raise ValueError("box corners must satisfy lower < upper coordinatewise")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        # One coordinate at a time into one mask: no (..., d) temporaries
        # and no reduction over the short last axis.  NaN is outside.
        points = np.asarray(points)
        lo, hi = self.lower - 1e-15, self.upper + 1e-15
        x = points[..., 0]
        inside = (x >= lo[0]) & (x <= hi[0])
        for i in range(1, self.dimension):
            x = points[..., i]
            inside &= x >= lo[i]
            inside &= x <= hi[i]
        return inside

    def bounding_radius(self) -> float:
        far = np.maximum(np.abs(self.lower), np.abs(self.upper))
        return float(np.linalg.norm(far))

    def inner_radius(self) -> float:
        # Distance from the origin to the box.
        gap = np.maximum(np.maximum(self.lower - 0.0, 0.0 - self.upper), 0.0)
        return float(np.linalg.norm(gap))

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lower, self.upper

    def center(self) -> np.ndarray:
        return 0.5 * self.lower + 0.5 * self.upper

    def half_widths(self) -> np.ndarray:
        return 0.5 * self.upper - 0.5 * self.lower

    def translate(self, offset) -> "AxisBox":
        offset = np.asarray(offset, dtype=float)
        return AxisBox(self.lower + offset, self.upper + offset)

    def scale(self, factor: float) -> "AxisBox":
        a, b = self.lower * factor, self.upper * factor
        if factor < 0:
            a, b = b, a
        return AxisBox(a, b)


Piece = Ball | AxisBox


@dataclass(frozen=True, eq=False)
class EuclideanSet:
    """Finite union of closed balls and axis-aligned boxes in R^d."""

    dimension: int
    pieces: tuple

    def __init__(self, dimension: int, pieces: Iterable[Piece] = ()):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        pieces = tuple(pieces)
        for p in pieces:
            if p.dimension != dimension:
                raise ValueError(
                    f"piece of dimension {p.dimension} in a set of dimension {dimension}"
                )
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "pieces", pieces)

    # -- membership and extents ------------------------------------------

    def contains(self, x) -> bool | np.ndarray:
        """Membership in the closed union (boundary counts as inside)."""
        points = np.asarray(x, dtype=float)
        scalar = points.ndim == 1
        if points.shape[-1] != self.dimension:
            raise ValueError(
                f"point dimension {points.shape[-1]} does not match set dimension {self.dimension}"
            )
        if not self.pieces:
            out = np.zeros(points.shape[:-1], dtype=bool)
            return bool(out) if scalar else out
        mask = self.pieces[0].contains(points)
        for p in self.pieces[1:]:
            mask = mask | p.contains(points)
        return bool(mask) if scalar else mask

    def is_empty(self) -> bool:
        return not self.pieces

    # The pieces never change, so each radius and the disjointness test are
    # computed on first use and kept in the instance dict.
    @functools.cached_property
    def _bounding_radius(self) -> float:
        return max((p.bounding_radius() for p in self.pieces), default=0.0)

    @functools.cached_property
    def _inner_radius(self) -> float:
        return min((p.inner_radius() for p in self.pieces), default=math.inf)

    def bounding_radius(self) -> float:
        return self._bounding_radius

    def inner_radius(self) -> float:
        """Lower bound for inf{||x|| : x in the set} (0 if the origin is inside)."""
        return self._inner_radius

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.pieces:
            z = np.zeros(self.dimension)
            return z, z
        los, his = zip(*(p.bounds() for p in self.pieces))
        return np.min(np.array(los), axis=0), np.max(np.array(his), axis=0)

    # -- structure --------------------------------------------------------

    def translate(self, offset) -> "EuclideanSet":
        return EuclideanSet(self.dimension, [p.translate(offset) for p in self.pieces])

    def scale(self, factor: float) -> "EuclideanSet":
        return EuclideanSet(self.dimension, [p.scale(factor) for p in self.pieces])

    @functools.cached_property
    def _pairwise_disjoint(self) -> bool:
        return all(
            _surely_disjoint(a, b)
            for i, a in enumerate(self.pieces)
            for b in self.pieces[i + 1 :]
        )

    def pairwise_disjoint(self) -> bool:
        """Conservative disjointness test used by the exact-measure fast path."""
        return self._pairwise_disjoint

    # -- serialization ------------------------------------------------------

    @staticmethod
    def from_dict(doc: dict) -> "EuclideanSet":
        pieces: list[Piece] = []
        for item in doc.get("pieces", []):
            kind = item.get("kind")
            if kind == "ball":
                pieces.append(Ball(item["center"], item["radius"]))
            elif kind == "box":
                pieces.append(AxisBox(item["lower"], item["upper"]))
            else:
                raise ValueError(f"unknown piece kind: {kind!r}")
        return EuclideanSet(doc["dimension"], pieces)


def _surely_disjoint(a: Piece, b: Piece) -> bool:
    if isinstance(a, Ball) and isinstance(b, Ball):
        return float(np.linalg.norm(a.center - b.center)) > a.radius + b.radius
    if isinstance(a, AxisBox) and isinstance(b, AxisBox):
        return bool(np.any(a.upper < b.lower) or np.any(b.upper < a.lower))
    if isinstance(a, AxisBox):
        a, b = b, a
    # a: Ball, b: AxisBox.  Exact point-to-box distance.
    gap = np.maximum(np.maximum(b.lower - a.center, a.center - b.upper), 0.0)
    return float(np.linalg.norm(gap)) > a.radius


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Rotation:
    """Orthogonal matrix acting on R^d.

    For d >= 2 the determinant must be +1.  In one dimension the two-element
    orthogonal group {+1, -1} is used so that averaging over rotations sweeps
    the whole line rather than a half-line, hence |det| = 1 is accepted.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("rotation matrix must be square")
        _check_rotations(m, np.linalg.det(m))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _checked(cls, m: np.ndarray) -> "Rotation":
        """Wrap a matrix that ``_check_rotations`` has passed and no one else holds."""
        rot = object.__new__(cls)
        m.setflags(write=False)
        object.__setattr__(rot, "matrix", m)
        return rot

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """rho(x) for one point or an (n, d) array of points."""
        return np.asarray(points, dtype=float) @ self.matrix.T

    def apply_transpose(self, points: np.ndarray) -> np.ndarray:
        """Transpose action (the inverse rotation)."""
        return np.asarray(points, dtype=float) @ self.matrix

    def first_axis_image(self) -> np.ndarray:
        """Unit vector rho(e_1)."""
        return self.matrix[:, 0].copy()


@functools.lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    """The d x d identity of _check_rotations, built once per dimension."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _check_rotations(m: np.ndarray, det: np.ndarray) -> None:
    """Raise ValueError unless every (d, d) matrix of the stack ``m``, with
    determinants ``det``, is a rotation: orthogonal within 1e-12 and of
    determinant +1 within 1e-9 (for d = 1, +1 or -1 within 1e-12).  The
    tests read ``not err <= tol``, so that a NaN fails them."""
    d = m.shape[-1]
    if not np.abs(m.mT @ m - _identity(d)).max() <= ORTHOGONALITY_TOL:
        raise ValueError("matrix is not orthogonal within tolerance 1e-12")
    if d == 1:
        if not np.abs(np.abs(det) - 1.0).max() <= ORTHOGONALITY_TOL:
            raise ValueError("1-D rotation must be +1 or -1")
    elif not np.abs(det - 1.0).max() <= 1e-9:
        raise ValueError("rotation matrix must have determinant +1")


def _haar_stack(d: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One checked Haar rotation per generator, as a (len(rngs), d, d) stack.

    Each generator draws a d x d matrix of independent standard normals
    (for d = 1, one uniform for the sign).  One QR orthogonalises the whole
    stack; the signs of each triangular factor's diagonal are normalised,
    which is exactly Haar on the orthogonal group, and a matrix with
    determinant -1 gets its first column negated.  Negating a column negates
    the LU determinant exactly, so the check reads |det| of the unflipped
    stack instead of factorising it again; orthogonality is measured anew.

    The QR and the determinant call numpy's LAPACK gufuncs
    ``numpy.linalg._umath_linalg.qr_r_raw``, ``qr_reduced`` and ``det``
    directly, which ``np.linalg.qr`` and ``np.linalg.det`` call with the
    same float64 loops, so the results are the same bits.  On one 2 x 2
    matrix the wrappers take about 18 us and the gufuncs about 3 us (numpy
    2.4.6, 2-vCPU Xeon): the rest is ``errstate``, type resolution, a copy
    of the input, ``triu`` and the result tuple, paid once per call, and
    most lattice draws are one matrix.  Nothing is lost by skipping them:
    the normals are finite, so LAPACK has no failure to signal, and a
    failed factorisation would leave NaN, which ``_check_rotations``
    rejects.
    """
    if d == 1:
        q = np.array([[[1.0 if rng.random() < 0.5 else -1.0]] for rng in rngs])
        det = q[:, 0, 0]
    else:
        a = np.array([rng.standard_normal((d, d)) for rng in rngs])
        # In place: a's upper triangle becomes R, the Householder vectors below it.
        tau = _umath_linalg.qr_r_raw(a)
        q = _umath_linalg.qr_reduced(a, tau)
        q *= np.where(a.diagonal(0, -2, -1) < 0, -1.0, 1.0)[:, None, :]
        det = _umath_linalg.det(q)
        q[:, :, 0] *= np.sign(det)[:, None]
        det = np.abs(det)
    _check_rotations(q, det)
    return q


def sample_rotation(d: int, rng: np.random.Generator) -> Rotation:
    """Haar-distributed rotation: the one-matrix case of the stacked sampler.

    For d >= 2 this orthogonalizes a matrix of standard normals with
    sign-normalized QR and negates one column if the determinant is -1; for
    d = 1 the two reflections +1 and -1 are drawn with equal probability.
    The QR and the determinant are LAPACK's, through the gufuncs behind
    ``np.linalg.qr`` and ``np.linalg.det`` without those wrappers (see
    ``_haar_stack``); the matrix equals theirs bit for bit.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return Rotation._checked(_haar_stack(d, [rng])[0])


# ---------------------------------------------------------------------------
# Measure
# ---------------------------------------------------------------------------


def lebesgue_measure(
    s: EuclideanSet, trials: int = 100_000, seed: int = 0
) -> Estimate:
    """Lebesgue measure of the union.

    Pairwise disjoint pieces are summed analytically (exact, stderr 0).
    Otherwise the measure is estimated by uniform sampling in the bounding
    box of the union.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if s.is_empty():
        return Estimate(0.0, 0.0, exact=True)
    if s.pairwise_disjoint():
        return Estimate(sum(p.volume() for p in s.pieces), 0.0, exact=True)
    lo, hi = s.bounding_box()
    box_vol = float(np.prod(hi - lo))
    rng = trial_rng(seed, 0)
    hits = 0
    remaining = trials
    chunk = min(trials, 1_000_000)
    while remaining > 0:
        n = min(chunk, remaining)
        pts = rng.uniform(lo, hi, size=(n, s.dimension))
        hits += int(np.count_nonzero(s.contains(pts)))
        remaining -= n
    p = hits / trials
    return Estimate(box_vol * p, box_vol * math.sqrt(max(p * (1 - p), 0.0) / trials))


# ---------------------------------------------------------------------------
# Projections and widths
# ---------------------------------------------------------------------------


def _merged_lengths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row-wise total length of unions of closed intervals.

    Row i holds the intervals [lo[i, j], hi[i, j]].  Each row is sorted by
    (lo, hi) and swept left to right: an interval that starts past the
    current union closes it and opens a new one, any other extends it.
    """
    # One complex key per interval sorts by (lo, hi), as a lexsort would.
    # The parts are assigned, not computed, so signed zeros survive; ties
    # are equal pairs, so their order does not change the sweep.
    key = np.empty(lo.shape, dtype=complex)
    key.real, key.imag = lo, hi
    key.sort(axis=-1)
    lo, hi = key.real, key.imag
    total = np.zeros(lo.shape[0])
    cur_lo, cur_hi = lo[:, 0], hi[:, 0]
    for j in range(1, lo.shape[1]):
        gap = lo[:, j] > cur_hi
        total = np.where(gap, total + (cur_hi - cur_lo), total)
        cur_lo = np.where(gap, lo[:, j], cur_lo)
        cur_hi = np.where(gap, hi[:, j], np.maximum(cur_hi, hi[:, j]))
    return total + (cur_hi - cur_lo)


def merged_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of a union of closed intervals (sweep merge).

    The scalar form of ``_merged_lengths`` with the same steps, kept for
    one short list: the Turan box-union sweep calls it hundreds of times
    per campaign, where the array form costs about 25 us a call against
    under 1 us.
    """
    if not intervals:
        return 0.0
    pairs = sorted(intervals)
    total = 0.0
    cur_lo, cur_hi = pairs[0]
    for lo, hi in pairs[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


def _projection_widths(s: EuclideanSet, u: np.ndarray) -> np.ndarray:
    """Width of the projection of the set onto each line spanned by a row of
    the (n, d) array of unit vectors ``u``.

    Each ball projects to an interval of length 2r around <c, u>; each box
    projects to the interval between its extreme corner support values.
    ``np.vecdot`` gives the bits of the scalar product ``c @ u`` row by row,
    which ``u @ c`` does not.
    """
    if s.is_empty():
        raise ValueError("projection width requires a nonempty set")
    lo = np.empty((u.shape[0], len(s.pieces)))
    hi = np.empty_like(lo)
    for j, p in enumerate(s.pieces):
        if isinstance(p, Ball):
            c = np.vecdot(u, p.center)
            reach = p.radius
        else:
            c = np.vecdot(u, p.center())
            reach = np.vecdot(np.abs(u), p.half_widths())
        lo[:, j], hi[:, j] = c - reach, c + reach
    return _merged_lengths(lo, hi)


def projection_width(s: EuclideanSet, rho: Rotation) -> float:
    """Length of the projection of the set onto the line spanned by rho(e_1);
    the projected intervals are merged exactly."""
    if rho.dimension != s.dimension:
        raise ValueError("rotation dimension does not match set dimension")
    return float(_projection_widths(s, rho.first_axis_image()[None])[0])


def _mean_width_mc(s: EuclideanSet, trials: int = 2048, seed: int = 0) -> Estimate:
    """Monte Carlo average of projection widths over Haar rotations.

    Trial i draws its rotation from ``trial_rng(seed, i)``, as
    ``sample_rotation`` would; blocks of ``_WIDTH_BLOCK`` trials are
    orthogonalised in one stacked QR and their widths merged together, so
    the value and stderr equal those of a loop of ``projection_width`` over
    ``sample_rotation`` draws bit for bit.  ``mean_width`` replaces it
    everywhere but ``annihilation.disc_ring_experiment``, whose callers
    choose its trial count; the tests use it as an oracle.
    """
    check_trials(trials)
    widths = np.empty(trials)
    for start in range(0, trials, _WIDTH_BLOCK):
        stop = min(start + _WIDTH_BLOCK, trials)
        q = _haar_stack(s.dimension, [trial_rng(seed, i) for i in range(start, stop)])
        widths[start:stop] = _projection_widths(s, q[:, :, 0])
    return Estimate(*mean_stderr(widths))


@functools.lru_cache(maxsize=None)
def _quad_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n, computed once per n and
    returned read-only, since every caller shares them."""
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


@functools.lru_cache(maxsize=None)
def _direction_rule(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors and weights of the mean-width rule in dimension d (1 to
    3), read-only.

    The width is even in u, so each rule covers half the directions.  In
    d = 2 the angles are the midpoints of equal cells of [0, pi).  In d = 3,
    z = cos(phi) is uniform on [-1, 1] for a uniform direction
    (Archimedes), so z runs over [0, 1] with Gauss-Legendre nodes and each z
    carries equally spaced azimuths.
    """
    if d == 1:
        u, w = np.ones((1, 1)), np.ones(1)
    elif d == 2:
        t = math.pi * (np.arange(_CIRCLE_ANGLES) + 0.5) / _CIRCLE_ANGLES
        u = np.column_stack([np.cos(t), np.sin(t)])
        w = np.full(_CIRCLE_ANGLES, 1.0 / _CIRCLE_ANGLES)
    else:
        xs, ws = _quad_nodes(_SPHERE_Z_NODES)
        z, wz = 0.5 * (xs + 1.0), 0.5 * ws
        t = 2.0 * math.pi * (np.arange(_SPHERE_AZIMUTHS) + 0.5) / _SPHERE_AZIMUTHS
        ring = np.sqrt(1.0 - z * z)[:, None]
        height = np.broadcast_to(z[:, None], (len(z), len(t)))
        u = np.stack([ring * np.cos(t), ring * np.sin(t), height], axis=-1).reshape(-1, 3)
        w = np.repeat(wz / _SPHERE_AZIMUTHS, _SPHERE_AZIMUTHS)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def check_mean_width(s: EuclideanSet) -> None:
    """Raise ValueError unless ``mean_width`` can run on the set: a
    dimension from 1 to 3 and at least one piece."""
    if s.dimension > 3:
        raise ValueError(f"mean_width supports dimensions 1 to 3, not {s.dimension}")
    if s.is_empty():
        raise ValueError("mean width requires a nonempty set")


def mean_width(s: EuclideanSet) -> Estimate:
    """Mean width: the average over Haar rotations rho of the length of the
    projection of the set onto the line spanned by rho(e_1), by a fixed
    rule over directions (``_direction_rule``) with stderr 0 that draws no
    random numbers.  The cost is linear in the number of pieces.

    d = 1: rho(e_1) is +1 or -1, and both give the same width (exact).
    d = 2: 4096 midpoint angles (not exact).  The width is smooth between
    the angles where two projected endpoints cross, so the error falls like
    1/angles^2 per crossing: an a x b box gives (a + b) / (4096
    sin(pi / 8192)), 2.5e-8 relative above 2(a + b)/pi; measured at most
    1.1e-7 relative over 300 random unions of up to three balls and boxes
    and 2.1e-5 on a ring of 16 discs, against the exact integral over the
    arcs between crossings.  The error grows with the number of crossings
    (8e-3 on a ring of 256 discs).  Balls are exact to rounding.
    d = 3: 32 Gauss-Legendre nodes in z = cos(phi) times 128 azimuths (not
    exact).  The width has kinks in the azimuth, so the error falls like
    1/azimuths^2: at most 1.1e-4 relative over 200 random boxes against
    (a + b + c)/2 and over 40 random unions of up to three balls and boxes
    against a 512 x 2048 rule; balls are exact to rounding.
    d >= 4: ValueError, before anything is allocated (``check_mean_width``).
    """
    check_mean_width(s)
    d = s.dimension
    u, w = _direction_rule(d)
    step = max(1, _WIDTH_BLOCK_ENTRIES // len(s.pieces))
    value = sum(
        float(w[k : k + step] @ _projection_widths(s, u[k : k + step]))
        for k in range(0, len(w), step)
    )
    return Estimate(value, 0.0, exact=d == 1)


# ---------------------------------------------------------------------------
# Cover functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoverCandidate:
    """A ball cover of a target set with value sum_i min(r_i, r_i^d)."""

    balls: tuple
    value: float


def _grid_cover_cells(s: EuclideanSet, side: float) -> np.ndarray | None:
    """Integer grid cells (side-aligned cubes) intersecting the set, as the
    rows of an (n, d) integer array in lexicographic order, without repeats.

    None when the cells would pass ``_GRID_CELL_CAP``.
    """
    pieces = []
    for p in s.pieces:
        lo, hi = p.bounds()
        lo_idx, hi_idx = np.floor(lo / side).astype(int), np.ceil(hi / side).astype(int) - 1
        counts = hi_idx - lo_idx + 1
        if np.prod(counts, dtype=float) > _GRID_CELL_CAP:
            return None
        ranges = [np.arange(a, b + 1) for a, b in zip(lo_idx, hi_idx)]
        mesh = _grid_points(ranges)
        if isinstance(p, Ball):
            cell_lo = mesh * side
            cell_hi = cell_lo + side
            gap = np.maximum(np.maximum(cell_lo - p.center, p.center - cell_hi), 0.0)
            keep = np.einsum("ij,ij->i", gap, gap) <= p.radius**2
            mesh = mesh[keep]
        pieces.append(mesh)
    cells = _distinct_rows(np.concatenate(pieces))
    # Pieces only add cells, so the union's count caps every running count.
    if len(cells) > _GRID_CELL_CAP:
        return None
    return cells


def check_cover(s: EuclideanSet) -> None:
    """Raise ValueError unless ``cover_measure_upper`` can run on the set:
    at least one piece."""
    if s.is_empty():
        raise ValueError("cover_measure_upper requires a nonempty set")


def cover_measure_upper(s: EuclideanSet) -> CoverCandidate:
    """Certified upper bound for the cover functional inf sum min(r_i, r_i^d).

    Candidates: the set's own balls plus circumscribed balls of its boxes
    (the self cover), and dyadic cube-grid covers at scales 2^-j for
    j = 0..6 with each cube replaced by its circumscribed ball.
    The candidates are compared by value, the earliest wins a tie, and only
    the winner's balls are built; they cover the set by construction.

    A scale is skipped before its cells are built when a volume bound rules
    it out.  Side-s cells that cover the set number at least |Σ|/s^d, so
    scale s can win only if ceil(|Σ|_low / s^d) · min(r, r^d) < best, with
    r = s√d/2 and best the value of the earliest candidate so far.
    |Σ|_low is the sum of the piece volumes when `pairwise_disjoint()`
    holds and the largest piece volume otherwise; both are lower bounds
    for |Σ|.  It is shrunk by a relative 1e-12 before the ceiling, so that
    a piece volume a few ulps too high cannot lift the count bound past the
    true count.  Skipping at equality keeps the result exact, because a tie
    goes to the earlier candidate anyway.
    """
    check_cover(s)
    d = s.dimension
    self_balls = tuple(
        p if isinstance(p, Ball) else Ball._covering(p.center(), float(np.linalg.norm(p.half_widths())))
        for p in s.pieces
    )
    radii = np.array([b.radius for b in self_balls])
    best_value = float(np.sum(np.minimum(radii, radii**d)))
    volumes = [p.volume() for p in s.pieces]
    volume_low = (sum(volumes) if s.pairwise_disjoint() else max(volumes)) * (1.0 - 1e-12)
    best_cells, best_side = None, 0.0
    for j in range(7):
        side = 2.0**-j
        r = side * math.sqrt(d) / 2.0
        ball_value = min(r, r**d)
        if np.ceil(volume_low / side**d) * ball_value >= best_value:
            continue
        cells = _grid_cover_cells(s, side)
        if cells is None:
            continue
        value = len(cells) * ball_value
        if value < best_value:
            best_value, best_cells, best_side = value, cells, side
    if best_cells is None:
        return CoverCandidate(self_balls, best_value)
    r = best_side * math.sqrt(d) / 2.0
    balls = tuple(Ball._covering((c + 0.5) * best_side, r) for c in best_cells.astype(float))
    return CoverCandidate(balls, best_value)
