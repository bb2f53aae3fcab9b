"""Random lattices v * rho^T(Z^d), their intersections with sets, and
Monte Carlo verification of lattice-averaging estimates.

A lattice draw is a Haar-random rotation together with a dilation drawn
uniformly from (1, 2).  The module enumerates lattice points inside
bounded sets exactly, computes the order statistic of the resulting index
sets, and estimates the expectations that control point counts and orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ball,
    EuclideanSet,
    Rotation,
    _distinct_rows,
    _haar_stack,
    ball_volume,
    cover_measure_upper,
    lebesgue_measure,
    mean_width,
    sample_rotation,
)
from .mc import ExpectationReport, mean_stderr, run_trials, trial_rng

__all__ = [
    "RandomLattice",
    "sample_lattice",
    "intersect",
    "order_of",
    "polar_constant",
    "averaging_setup",
    "check_lattice_averaging",
    "estimate_card",
    "estimate_order",
    "integer_vectors_in_annulus",
    "AnnulusIndicator",
    "GaussianProfile",
]


@dataclass(frozen=True, eq=False)
class RandomLattice:
    """Lattice {v * rho^T(j) : j in Z^d} for a rotation rho and v in (1, 2)."""

    rotation: Rotation
    dilation: float

    def __post_init__(self) -> None:
        if not (1.0 < self.dilation < 2.0):
            raise ValueError("lattice dilation must lie in the open interval (1, 2)")

    @property
    def dimension(self) -> int:
        return self.rotation.dimension

    def points(self, indices: np.ndarray) -> np.ndarray:
        """Embed integer index vectors: k -> v * rho^T(k)."""
        return self.dilation * self.rotation.apply_transpose(np.asarray(indices, dtype=float))


def _draw_dilation(rng: np.random.Generator) -> float:
    """v uniform on (1, 2), drawn after the rotation's normals."""
    v = float(rng.uniform(1.0, 2.0))
    if v <= 1.0 or v >= 2.0:  # measure-zero edge under floating point
        v = 1.5
    return v


def sample_lattice(d: int, rng: np.random.Generator) -> RandomLattice:
    """Draw (rho, v) with rho Haar and v uniform on (1, 2)."""
    rho = sample_rotation(d, rng)
    return RandomLattice(rho, _draw_dilation(rng))


def order_of(indices) -> int:
    """Order of a finite subset of Z^d: sum of distinct-coordinate counts.

    The empty set has order 0, which keeps the statistic monotone.
    """
    arr = np.asarray(indices, dtype=int)
    if arr.size == 0:
        return 0
    if arr.ndim != 2:
        raise ValueError("indices must be an (n, d) array")
    return int(sum(len(np.unique(arr[:, i])) for i in range(arr.shape[1])))


# ---------------------------------------------------------------------------
# Integer point enumeration
# ---------------------------------------------------------------------------


# Largest point-count bound integer_vectors_in_annulus accepts (about 100 MB
# of output in d = 3).  The largest bound the test suite and perfbench reach
# is 87 172, the thin annulus of radius 6667 behind `ulat sharpness --n 1000`.
ANNULUS_POINT_CAP = 1 << 22

# integer_vectors_in_annulus memoises the enumerations whose bounding cube
# (2 kmax + 1)^d holds at most _MEMO_CUBE points, in at most _MEMO_ENTRIES
# entries.
_MEMO_CUBE = 1024
_MEMO_ENTRIES = 128


def _annulus_point_bound(r_lo: float, r_hi: float, d: int) -> float:
    """Volume of the shell max(r_lo - p, 0) <= ||x|| <= r_hi + p with
    p = sqrt(d)/2 + 1e-4, which holds the unit cube around every k in Z^d
    that integer_vectors_in_annulus returns (the 1e-4 covers its 1e-9
    tolerance on squared norms and the rounding here).

    The caller keeps r_hi below 2^26, where the plain difference of the two
    volumes keeps a thin shell's width to about 1e-8 relative; inf where a
    volume overflows (large d).
    """
    pad = math.sqrt(d) / 2.0 + 1e-4
    try:
        return max(ball_volume(d, r_hi + pad) - ball_volume(d, max(r_lo - pad, 0.0)), 0.0)
    except OverflowError:
        return math.inf


def _check_annulus(r_lo: float, r_hi: float, d: int) -> None:
    """Raise ``ValueError`` where integer_vectors_in_annulus cannot
    enumerate the annulus: r_hi^2 >= 2^52 (or NaN), or a point bound above
    ``ANNULUS_POINT_CAP``.  Nothing is allocated."""
    if not r_hi * r_hi < 2.0**52:
        raise ValueError(f"the annulus radius {r_hi:.6g} squares to 2^52 or more, past exact squares")
    if (2 * int(r_hi) + 3) ** d > ANNULUS_POINT_CAP:
        bound = _annulus_point_bound(r_lo, r_hi, d)
        if not bound <= ANNULUS_POINT_CAP:
            raise ValueError(
                f"the annulus {r_lo:.6g} <= ||k|| <= {r_hi:.6g} in dimension {d} may hold "
                f"{bound:.3g} integer points, above the cap of {ANNULUS_POINT_CAP}"
            )


def integer_vectors_in_annulus(r_lo: float, r_hi: float, d: int) -> np.ndarray:
    """All k in Z^d with r_lo <= ||k|| <= r_hi, as a read-only (n, d) array
    in C order.

    Every dimension takes one path: the rows of the first d - 1 coordinates
    over the cube |k_i| <= kmax = floor(r_hi + 1e-9) are taken at once, and
    each row's last coordinates c are read off exactly with an int64
    integer square root from lo2 <= s + c^2 <= hi2, with lo2 =
    ceil(r_lo^2 - 1e-9), hi2 = floor(r_hi^2 + 1e-9) and s the row's squared
    norm.  This is the bounding-cube filter's predicate in integer form, so
    the output equals that filter's, while the memory is (2 kmax + 1)^(d-1)
    rows plus the output.  Float and int64 squares are exact only below
    2^52, so an r_hi with r_hi^2 >= 2^52 (or NaN) raises ``ValueError``.

    The integers (lo2, hi2, kmax, d) determine the output, and the walks
    whose cube holds (2 kmax + 1)^d <= 1024 points are memoised on that
    key, in at most 128 entries (``functools.lru_cache``).  A memoised
    array holds at most 1024 rows of d int64s, so the memo pins at most
    128 * 1024 * 8 * d bytes: 1 MiB per dimension, 3 MiB in d = 3.  Larger
    cubes, such as thin rings far out whose keys never repeat, are walked
    on every call.  Every result is read-only, since a memoised one is
    shared between callers.

    Before the walk, the output is bounded by the cube count
    (2 floor(r_hi) + 3)^d and, where that exceeds ``ANNULUS_POINT_CAP``, by
    the volume of the annulus padded by about sqrt(d)/2 on both sides, which
    holds the unit cube around every point; if both bounds exceed the cap,
    ``ValueError`` is raised.  The cube count is exact integer arithmetic,
    so small radii, the common case, skip the float bound.
    """
    if r_hi < 0:
        out = np.empty((0, d), dtype=int)
        out.setflags(write=False)
        return out
    lo2, hi2, kmax = _annulus_key(r_lo, r_hi, d)
    walk = _annulus_memo if (2 * kmax + 1) ** d <= _MEMO_CUBE else _annulus_walk
    return walk(lo2, hi2, kmax, d)


def _annulus_key(r_lo: float, r_hi: float, d: int) -> tuple[int, int, int]:
    """The integers (lo2, hi2, kmax) of integer_vectors_in_annulus for
    r_hi >= 0, after ``_check_annulus``."""
    _check_annulus(r_lo, r_hi, d)
    # Every r_lo past r_hi + 1 gives the same empty annulus; the clamp keeps lo2 in int64.
    r_lo = min(max(r_lo, 0.0), r_hi + 1.0)
    return math.ceil(r_lo**2 - 1e-9), math.floor(r_hi**2 + 1e-9), int(math.floor(r_hi + 1e-9))


def _isqrt(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) of an int64 array with 0 <= m < 2^52: the float root,
    within 1 of it there, corrected by +-1."""
    r = np.sqrt(m).astype(np.int64)
    r -= r * r > m
    r += (r + 1) * (r + 1) <= m
    return r


def _annulus_walk(lo2: int, hi2: int, kmax: int, d: int) -> np.ndarray:
    """The rows of integer_vectors_in_annulus over |k_i| <= kmax, read-only.
    Each head (the first d - 1 coordinates, squared norm s) holds the runs
    -h..-low and max(low, 1)..h of its last coordinate, either possibly
    empty: h is the largest c <= kmax with s + c^2 <= hi2 (-1 if none) and
    low the smallest c >= 0 with s + c^2 >= lo2."""
    m = 2 * kmax + 1
    heads = np.indices((m,) * (d - 1)).reshape(d - 1, m ** (d - 1)).T - kmax
    s = np.einsum("ij,ij->i", heads, heads)
    h = np.where(s <= hi2, np.minimum(_isqrt(np.maximum(hi2 - s, 0)), kmax), -1)
    low = np.where(s < lo2, _isqrt(np.maximum(lo2 - s - 1, 0)) + 1, 0)
    starts = np.stack([-h, np.maximum(low, 1)], axis=1)
    counts = np.maximum(h[:, None] + 1 - np.stack([low, starts[:, 1]], axis=1), 0)
    # Row i of the output is its head followed by i + shift for its run.
    runs = counts.ravel()
    shifts = starts.ravel() - (np.cumsum(runs) - runs)
    last = np.arange(runs.sum()) + np.repeat(shifts, runs)
    out = np.column_stack([np.repeat(heads, counts.sum(axis=1), axis=0), last])
    out.setflags(write=False)
    return out


_annulus_memo = functools.lru_cache(maxsize=_MEMO_ENTRIES)(_annulus_walk)


def intersect(lat: RandomLattice, sigma: EuclideanSet) -> np.ndarray:
    """Exact enumeration of {k : v * rho^T(k) in sigma} for bounded sigma,
    as a read-only (n, d) integer array of distinct rows in C order.

    Since the embedding is an isometry up to the dilation, candidates are
    restricted to ||k|| <= bounding_radius(sigma) / v before the exact
    membership test.
    """
    if sigma.dimension != lat.dimension:
        raise ValueError("set dimension does not match lattice dimension")
    if sigma.is_empty():
        out = np.empty((0, lat.dimension), dtype=int)
    else:
        r_hi = sigma.bounding_radius() / lat.dilation + 1e-9
        r_lo = max(sigma.inner_radius() / lat.dilation - 1e-9, 0.0)
        cand = integer_vectors_in_annulus(r_lo, r_hi, lat.dimension)
        # The enumeration's rows are distinct, so a masked subset is too.
        out = cand[sigma.contains(lat.points(cand))]
    out.setflags(write=False)
    return out


def _preimage_frames(sigma: EuclideanSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Centres (p, d), box half-widths (p, d; 0 for a ball) and ball radii
    (p,; 0 for a box) of the set's pieces, and the pad of their preimages
    in _block_hits: 1e-7, above the sqrt(1e-15) < 3.2e-8 by which
    Ball.contains may pass a point outside a ball (and the 1e-15 of
    AxisBox.contains), plus 1e-12 d (1 + R), R the set's bounding radius,
    above the rounding of the points and of the preimages (a few d^1.5 ulps
    of R)."""
    d = sigma.dimension
    centre = np.array([p.center if isinstance(p, Ball) else p.center() for p in sigma.pieces])
    half = np.array([np.zeros(d) if isinstance(p, Ball) else p.half_widths() for p in sigma.pieces])
    radius = np.array([p.radius if isinstance(p, Ball) else 0.0 for p in sigma.pieces])
    pad = 1e-7 + 1e-12 * d * (1.0 + sigma.bounding_radius())
    return centre.reshape(-1, d), half.reshape(-1, d), radius, pad


def _block_hits(sigma: EuclideanSet, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``intersect`` on a block of lattices at once: lattice t has the
    rotation matrix q[t] and the dilation v[t].  Returns (trial, rows), the
    rows in trial order, where rows[trial == t] equals ``intersect``'s rows
    for lattice t in values, order and dtype.

    A point x = v q^T k lies in a piece exactly when k lies in the piece's
    preimage q(piece)/v: for a ball, the ball of centre q c / v and radius
    r / v; for a box, inside the bounding box of its rotated corners, of
    half-widths |q| h / v.  The candidates of each (trial, piece) are the
    integer points of that box, padded as ``_preimage_frames`` says and cut
    to |k_i| <= kmax.  They keep what passes intersect's integer
    annulus test lo2 <= ||k||^2 <= hi2, become points v * (k @ q[t]) one
    trial at a time, as ``RandomLattice.points`` computes them, and are
    tested against their own piece's ``contains``; the hits of each trial
    are merged into distinct rows in C order.  ``ValueError`` comes, before
    anything is allocated, on exactly the inputs where ``intersect`` raises,
    with the message of the first such trial.
    """
    d = sigma.dimension
    if q.shape[-1] != d:
        raise ValueError("set dimension does not match lattice dimension")
    if sigma.is_empty():
        return np.empty(0, dtype=int), np.empty((0, d), dtype=int)
    outer, inner = sigma.bounding_radius(), sigma.inner_radius()
    lo2, hi2, kmax = np.array(
        [_annulus_key(max(inner / s - 1e-9, 0.0), outer / s + 1e-9, d) for s in v.tolist()]
    ).T
    centre, half, radius, pad = _preimage_frames(sigma)
    scale = v[:, None, None]
    mid = np.einsum("tij,pj->tpi", q, centre) / scale
    reach = (np.einsum("tij,pj->tpi", np.abs(q), half) + radius[:, None]) / scale + pad
    cap = kmax[:, None, None]
    lo = np.clip(np.ceil(mid - reach), -cap, cap + 1).astype(np.int64).reshape(-1, d)
    hi = np.clip(np.floor(mid + reach), -cap - 1, cap).astype(np.int64).reshape(-1, d)
    # Each (trial, piece) pair's box in C order, its last axis fastest.
    width = np.maximum(hi - lo + 1, 0)
    counts = width.prod(axis=1)
    pair = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.empty((len(pair), d), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        j, rows[:, i] = np.divmod(j, width[pair, i])
        rows[:, i] += lo[pair, i]
    trial, piece = np.divmod(pair, len(sigma.pieces))
    norm2 = np.einsum("ij,ij->i", rows, rows)
    keep = (norm2 >= lo2[trial]) & (norm2 <= hi2[trial])
    rows, trial, piece = rows[keep], trial[keep], piece[keep]
    points = rows.astype(float)
    edges = np.searchsorted(trial, np.arange(len(v) + 1))
    for t in range(len(v)):
        block = slice(edges[t], edges[t + 1])
        points[block] = v[t] * (points[block] @ q[t])
    inside = np.empty(len(rows), dtype=bool)
    order = np.argsort(piece, kind="stable")
    cuts = np.searchsorted(piece[order], np.arange(len(sigma.pieces) + 1))
    for p, a, b in zip(sigma.pieces, cuts[:-1], cuts[1:]):
        inside[order[a:b]] = p.contains(points[order[a:b]])
    hits = _distinct_rows(np.column_stack([trial[inside], rows[inside]]))
    return hits[:, 0], hits[:, 1:]


def _hit_blocks(sigma: EuclideanSet, trials: int, seed: int):
    """Yield (n, trial, rows) for the blocks of ``_lattice_blocks``: the n
    trials of a block and ``_block_hits`` on their lattices.  A trial's
    points are bounded by its candidates: each piece's padded preimage box
    at v = 1, no wider than the kmax cube.  A bound past the float range is
    inf, a block of one trial, on which ``_block_hits`` raises."""
    d, outer = sigma.dimension, sigma.bounding_radius()
    _, half, radius, pad = _preimage_frames(sigma)
    side = np.minimum(2.0 * (np.linalg.norm(half, axis=1) + radius + pad) + 1.0, 2.0 * outer + 3.0)
    with np.errstate(over="ignore"):
        bound = float(np.sum(side**d))
    for q, v in _lattice_blocks(d, trials, seed, bound):
        yield (len(v), *_block_hits(sigma, q, v))


def _distinct_per_trial(trial: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The number of distinct values of each trial 0..n-1 among the pairs
    (trial[i], values[i])."""
    return np.bincount(_distinct_rows(np.column_stack([trial, values]))[:, 0], minlength=n)


# ---------------------------------------------------------------------------
# Polar constant
# ---------------------------------------------------------------------------


def polar_constant(d: int) -> float:
    """Constant C(d) in the rotation-average polar identity.

    Averaging f(v * rho(u)) with weight v^(d-1) over Haar rotations and
    v in (0, inf) integrates f against C(d) times Lebesgue measure, with
    C(d) = 1 / area(S^{d-1}) = Gamma(d/2) / (2 pi^{d/2}).  In one dimension
    the two-point rotation group gives C(1) = 1/2.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.gamma(d / 2.0) / (2.0 * math.pi ** (d / 2.0))


# ---------------------------------------------------------------------------
# Nonnegative radial-profile functions for the averaging checks
# ---------------------------------------------------------------------------


class AnnulusIndicator:
    """Indicator of {r_inner <= ||x|| <= r_outer}; r_inner = 0 gives a ball."""

    def __init__(self, dimension: int, r_inner: float, r_outer: float):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not (0 <= r_inner < r_outer):
            raise ValueError("need 0 <= r_inner < r_outer")
        self.dimension = int(dimension)
        self.r_inner = float(r_inner)
        self.r_outer = float(r_outer)
        self.support_radius = float(r_outer)

    def value(self, points: np.ndarray) -> np.ndarray:
        n2 = np.einsum("...i,...i->...", points, points)
        return ((n2 >= self.r_inner**2 - 1e-15) & (n2 <= self.r_outer**2 + 1e-15)).astype(float)

    def integral_outside(self, c: float) -> float:
        lo = max(c, self.r_inner)
        if lo >= self.r_outer:
            return 0.0
        d = self.dimension
        return ball_volume(d, self.r_outer) - ball_volume(d, lo)


class GaussianProfile:
    """The radial Gaussian exp(-pi * a * ||x||^2)."""

    def __init__(self, dimension: int, a: float = 1.0):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        a = float(a)
        if not 0 < a < math.inf:
            raise ValueError(f"Gaussian scale must be positive and finite, got {a}")
        dimension = int(dimension)
        try:
            a ** (-dimension / 2.0)
        except OverflowError:
            raise ValueError(
                f"Gaussian scale {a} is too small: its integral a^(-d/2) overflows in d = {dimension}"
            ) from None
        self.dimension = dimension
        self.a = a
        self.support_radius = math.inf

    def value(self, points: np.ndarray) -> np.ndarray:
        n2 = np.einsum("...i,...i->...", points, points)
        return np.exp(-math.pi * self.a * n2)

    def integral_outside(self, c: float) -> float:
        from scipy.special import gammaincc

        d, a = self.dimension, self.a
        return a ** (-d / 2.0) * float(gammaincc(d / 2.0, math.pi * a * c * c))

    def tail_radius(self, eps_abs: float) -> float:
        """A radius r with integral_outside(r) <= eps_abs (eps_abs > 0).

        The loop ends: the regularised tail underflows to 0 once pi a r^2
        passes about 750, long before r can overflow.
        """
        r = 1.0
        while self.integral_outside(r) > eps_abs:
            r *= 1.25
        return r


def _profile_truncation_radius(phi, scale_min: float, reference: float) -> float:
    """Index radius beyond which the lattice sum tail is negligible.

    Compact support truncates exactly; otherwise the profile must declare a
    decay envelope through ``tail_radius``.  The target absolute tail is
    1e-6 of the reference integral.
    """
    if math.isfinite(phi.support_radius):
        return phi.support_radius / scale_min + 1e-9
    if not hasattr(phi, "tail_radius"):
        raise ValueError(
            "profile has neither compact support nor a declared decay bound"
        )
    d = phi.dimension
    eps = 1e-6 * max(reference, 1e-12)
    # Shell-count correction: points k at radius u contribute at most the
    # envelope integral over {||x|| >= u - sqrt(d)} scaled by cell volume 1.
    r = phi.tail_radius(eps / (2.0**d))
    return r / scale_min + math.sqrt(d) + 1.0


# Trials per block of _lattice_blocks, and the points one block may hold:
# bounds the temporaries of its callers however far a truncation radius or
# a set reaches.
_BLOCK_TRIALS = 256
_BLOCK_POINTS = 1 << 18


def _lattice_blocks(d: int, trials: int, seed: int, points_per_trial: float):
    """Yield (q, v) for trials 0..trials-1 of ``seed`` in blocks: q stacks
    the trials' rotation matrices and v their dilations.  Trial i draws its
    normals and then v from ``trial_rng(seed, i)``, as ``sample_lattice``
    does, and a block's rotations come from one stacked QR, so each trial's
    lattice equals ``sample_lattice``'s bit for bit.  A block holds at most
    _BLOCK_TRIALS trials and, at ``points_per_trial`` each, at most
    _BLOCK_POINTS points, but at least one trial; ``ValueError`` for
    trials < 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    block = int(min(_BLOCK_TRIALS, max(_BLOCK_POINTS // max(points_per_trial, 1), 1)))
    for start in range(0, trials, block):
        rngs = [trial_rng(seed, i) for i in range(start, min(start + block, trials))]
        q = _haar_stack(d, rngs)
        yield q, np.array([_draw_dilation(rng) for rng in rngs])


def averaging_setup(phi) -> tuple[float, float, float, float]:
    """The reference integrals and index truncation radii of the two
    lattice-averaging sums, (ref_a, ref_b, rad_a, rad_b), after checking
    that ``check_lattice_averaging`` can run on ``phi``.

    Both reference integrals must be positive, since each report carries
    the estimate's ratio to its reference, and both index annuli
    1 <= ||k|| <= rad must pass the enumeration bound of
    ``integer_vectors_in_annulus``; otherwise ``ValueError`` is raised
    before any point is enumerated.
    """
    ref_a = phi.integral_outside(1.0)
    ref_b = phi.integral_outside(0.5)
    for ref, c in ((ref_a, "1"), (ref_b, "1/2")):
        if not ref > 0:
            raise ValueError(
                f"the reference integral of phi over ||x|| >= {c} is {ref}, "
                "so the ratio to it is undefined"
            )
    rad_a = _profile_truncation_radius(phi, 1.0, ref_a)  # v >= 1
    rad_b = _profile_truncation_radius(phi, 0.5, ref_b)  # 1/v >= 1/2
    for rad in (rad_a, rad_b):
        _check_annulus(1.0, rad, phi.dimension)
    return ref_a, ref_b, rad_a, rad_b


def check_lattice_averaging(
    phi, trials: int = 10_000, seed: int = 0
) -> tuple[ExpectationReport, ExpectationReport]:
    """Monte Carlo check of the two lattice-averaging estimates.

    Returns reports for

    (a)  E[ sum_{k != 0} phi(v * rho(k)) ]   against  int_{||x|| >= 1} phi,
    (b)  E[ sum_{k != 0} phi(rho(k) / v) ]   against  int_{||x|| >= 1/2} phi.

    The inner sums are truncated where the declared decay of phi makes the
    tail below 1e-6 of the reference scale.  The lattices come from
    ``_lattice_blocks``, a block's rotated candidates at most its point
    budget, and the sums equal those of a loop over ``sample_lattice``
    draws bit for bit.  ``averaging_setup`` checks the profile first.
    """
    d = phi.dimension
    ref_a, ref_b, rad_a, rad_b = averaging_setup(phi)
    # r_lo = 1 leaves out k = 0.
    cand_a = integer_vectors_in_annulus(1.0, rad_a, d).astype(float)
    cand_b = integer_vectors_in_annulus(1.0, rad_b, d).astype(float)
    sums = []
    for q, v in _lattice_blocks(d, trials, seed, len(cand_a) + len(cand_b)):
        v = v[:, None, None]
        sum_a = np.sum(phi.value(v * (cand_a @ q.mT)), axis=-1)
        sums.append([sum_a, np.sum(phi.value((cand_b @ q.mT) / v), axis=-1)])
    values = np.concatenate(sums, axis=1)
    est_a, err_a = mean_stderr(values[0])
    est_b, err_b = mean_stderr(values[1])
    extras_a = {"reference": ref_a, "ratio": est_a / ref_a}
    extras_b = {"reference": ref_b, "ratio": est_b / ref_b}
    rep_a = ExpectationReport(est_a, err_a, trials, ref_a, seed, extras=extras_a)
    rep_b = ExpectationReport(est_b, err_b, trials, ref_b, seed, extras=extras_b)
    return rep_a, rep_b


# ---------------------------------------------------------------------------
# Expectation estimates for intersections
# ---------------------------------------------------------------------------


def _require_origin(sigma: EuclideanSet) -> None:
    if not sigma.contains(np.zeros(sigma.dimension)):
        raise ValueError("the target set must contain the origin")


def estimate_card(
    sigma: EuclideanSet, trials: int = 2000, seed: int = 0
) -> ExpectationReport:
    """Estimate E[card(lattice points in sigma) - 1] over random lattices.

    The report's bound field carries polar_constant(d) * |sigma| as the
    analytic reference scale.
    """
    _require_origin(sigma)
    d = sigma.dimension
    measure = lebesgue_measure(sigma, seed=seed + 1)
    values = run_trials(
        lambda rng: float(len(intersect(sample_lattice(d, rng), sigma)) - 1),
        trials,
        seed,
    )
    est, err = mean_stderr(values)
    bound = polar_constant(d) * measure.value
    extras = {
        "sigma_measure": measure.value,
        "ratio_to_measure": est / measure.value if measure.value > 0 else 0.0,
    }
    return ExpectationReport(est, err, trials, bound, seed, extras=extras)


def estimate_order(
    sigma: EuclideanSet, trials: int = 2000, seed: int = 0
) -> ExpectationReport:
    """Estimate E[order of the index set - d] over random lattices.

    The report carries the cover-functional upper bound and the mean width
    as reference scales; the bound field is polar_constant(d) times their
    minimum.  The trials' index sets come in blocks from ``_hit_blocks``,
    and the orders equal those of a loop of ``order_of`` over
    ``sample_lattice`` and ``intersect`` bit for bit.
    """
    _require_origin(sigma)
    d = sigma.dimension
    # The width first: it takes d <= 3 and rejects more before the trials.
    width = mean_width(sigma).value
    # order_of of each trial: the distinct coordinates of each axis.
    values = np.concatenate(
        [
            sum(_distinct_per_trial(trial, col, size) for col in rows.T) - d
            for size, trial, rows in _hit_blocks(sigma, trials, seed)
        ]
    ).astype(float)
    est, err = mean_stderr(values)
    mu_up = cover_measure_upper(sigma).value
    nu = min(mu_up, width)
    extras = {
        "cover_upper": mu_up,
        "mean_width": width,
        "nu": nu,
        "ratio_to_nu": est / nu if nu > 0 else 0.0,
    }
    return ExpectationReport(est, err, trials, polar_constant(d) * nu, seed, extras=extras)
