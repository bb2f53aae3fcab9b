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
    EuclideanSet,
    Rotation,
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
    "axis_hit_count",
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
    _check_annulus(r_lo, r_hi, d)
    # Every r_lo past r_hi + 1 gives the same empty annulus; the clamp keeps lo2 in int64.
    r_lo = min(max(r_lo, 0.0), r_hi + 1.0)
    kmax = int(math.floor(r_hi + 1e-9))
    hi2 = math.floor(r_hi**2 + 1e-9)
    lo2 = math.ceil(r_lo**2 - 1e-9)
    walk = _annulus_memo if (2 * kmax + 1) ** d <= _MEMO_CUBE else _annulus_walk
    return walk(lo2, hi2, kmax, d)


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


def axis_hit_count(lat: RandomLattice, sigma: EuclideanSet) -> int:
    """Number of nonzero first coordinates k such that some index (k, k')
    embeds into sigma."""
    first = intersect(lat, sigma)[:, 0]
    return int(len(np.unique(first[first != 0])))


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


# Trials per block of check_lattice_averaging, and the rotated candidate
# points one block may hold: bounds its temporaries however far the
# truncation radius reaches.
_LAL_BLOCK = 256
_LAL_POINT_BUDGET = 1 << 18


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
    tail below 1e-6 of the reference scale.  Trial i draws its lattice from
    ``trial_rng(seed, i)`` as ``sample_lattice`` would; blocks of trials are
    orthogonalised in one stacked QR and summed together, sized so that a
    block holds at most ``_LAL_POINT_BUDGET`` rotated points (and at least
    one trial), and the sums equal those of a loop over ``sample_lattice``
    draws bit for bit.  ``averaging_setup`` checks the profile first.
    """
    d = phi.dimension
    ref_a, ref_b, rad_a, rad_b = averaging_setup(phi)
    # r_lo = 1 leaves out k = 0.
    cand_a = integer_vectors_in_annulus(1.0, rad_a, d).astype(float)
    cand_b = integer_vectors_in_annulus(1.0, rad_b, d).astype(float)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    block = min(_LAL_BLOCK, max(_LAL_POINT_BUDGET // max(len(cand_a) + len(cand_b), 1), 1))
    values = np.empty((trials, 2))
    for start in range(0, trials, block):
        rngs = [trial_rng(seed, i) for i in range(start, min(start + block, trials))]
        q = _haar_stack(d, rngs)
        v = np.array([_draw_dilation(rng) for rng in rngs])[:, None, None]
        values[start : start + len(rngs), 0] = np.sum(phi.value(v * (cand_a @ q.mT)), axis=-1)
        values[start : start + len(rngs), 1] = np.sum(phi.value((cand_b @ q.mT) / v), axis=-1)
    est_a, err_a = mean_stderr(values[:, 0])
    est_b, err_b = mean_stderr(values[:, 1])
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
    minimum.
    """
    _require_origin(sigma)
    d = sigma.dimension
    # The width first: it takes d <= 3 and rejects more before the trials.
    width = mean_width(sigma).value
    values = run_trials(
        lambda rng: float(order_of(intersect(sample_lattice(d, rng), sigma)) - d),
        trials,
        seed,
    )
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
