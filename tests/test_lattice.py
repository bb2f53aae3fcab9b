"""Lattices: enumeration exactness, order statistics, averaging estimates."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from ulat import geometry, lattice, mc
from ulat.annihilation import disc_ring
from ulat.geometry import AxisBox, Ball, EuclideanSet, Rotation, _distinct_rows, sample_rotation
from ulat.lattice import (
    ANNULUS_POINT_CAP,
    AnnulusIndicator,
    GaussianProfile,
    RandomLattice,
    averaging_setup,
    check_lattice_averaging,
    estimate_card,
    estimate_order,
    integer_vectors_in_annulus,
    intersect,
    order_of,
    polar_constant,
    sample_lattice,
    _annulus_point_bound,
    _annulus_walk,
    _isqrt,
    _profile_truncation_radius,
)
from ulat.mc import mean_stderr, run_trials, trial_rng

# Mean of card - 1 for the radius-3 disc over 1e5 lattice draws (frozen
# high-trial self-consistency oracle; its standard error was 0.018).
CARD_BALL3_ORACLE = 12.975
CARD_BALL3_ORACLE_STDERR = 0.019


def loop_lattice_sums(phi, trials: int, seed: int) -> np.ndarray:
    """Reference: the two lattice sums of check_lattice_averaging, one
    sample_lattice draw per trial through run_trials."""
    d = phi.dimension
    cands = []
    for scale, ref in ((1.0, phi.integral_outside(1.0)), (0.5, phi.integral_outside(0.5))):
        cand = integer_vectors_in_annulus(1.0, _profile_truncation_radius(phi, scale, ref), d)
        cands.append(cand[np.any(cand != 0, axis=1)])
    cand_a, cand_b = cands

    def one(rng):
        lat = sample_lattice(d, rng)
        rho, v = lat.rotation, lat.dilation
        sum_a = float(np.sum(phi.value(v * rho.apply(cand_a)))) if len(cand_a) else 0.0
        sum_b = float(np.sum(phi.value(rho.apply(cand_b) / v))) if len(cand_b) else 0.0
        return np.array([sum_a, sum_b])

    return run_trials(one, trials, seed)


def axis_hit_count(lat: RandomLattice, sigma: EuclideanSet) -> int:
    """Reference: the number of nonzero first coordinates k such that some
    index (k, k') embeds into sigma."""
    first = intersect(lat, sigma)[:, 0]
    return int(len(np.unique(first[first != 0])))


def loop_axis_hits(sigma: EuclideanSet, trials: int, seed: int) -> np.ndarray:
    """Reference: disc_ring_experiment's per-trial values, one sample_lattice
    draw and one axis_hit_count per trial through run_trials."""
    d = sigma.dimension
    return run_trials(lambda rng: float(axis_hit_count(sample_lattice(d, rng), sigma)), trials, seed)


def loop_orders(sigma: EuclideanSet, trials: int, seed: int) -> np.ndarray:
    """Reference: estimate_order's per-trial values, order_of the intersect
    of one sample_lattice draw per trial through run_trials."""
    d = sigma.dimension
    return run_trials(
        lambda rng: float(order_of(intersect(sample_lattice(d, rng), sigma)) - d), trials, seed
    )


def identity_lattice(d: int, v: float) -> RandomLattice:
    return RandomLattice(Rotation(np.eye(d)), v)


def cube_filter_annulus(r_lo: float, r_hi: float, d: int) -> np.ndarray:
    """Oracle: filter the whole bounding cube by the squared norm."""
    if r_hi < 0:
        return np.empty((0, d), dtype=int)
    r_lo = max(r_lo, 0.0)
    kmax = int(math.floor(r_hi + 1e-9))
    axes = [np.arange(-kmax, kmax + 1)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norm2 = np.einsum("ij,ij->i", mesh, mesh)
    keep = (norm2 <= r_hi**2 + 1e-9) & (norm2 >= r_lo**2 - 1e-9)
    return mesh[keep].astype(int)


def loop_annulus_walk(lo2: int, hi2: int, kmax: int, d: int) -> np.ndarray:
    """Oracle: the annulus walk as a per-row Python loop.  Each head of the
    first d - 1 coordinates is skipped, or emits one run -h..h, or the two
    runs -h..-low and low..h, read off with ``math.isqrt``."""
    heads, shifts, counts = [], [], []
    total = 0
    for head in itertools.product(range(-kmax, kmax + 1), repeat=d - 1):
        s = sum(map(operator.mul, head, head))
        if s > hi2:
            continue
        h = min(math.isqrt(hi2 - s), kmax)
        low = math.isqrt(lo2 - s - 1) + 1 if lo2 > s else 0
        if low == 0:
            runs = ((-h, 2 * h + 1),)
        elif low <= h:
            runs = ((-h, h - low + 1), (low, h - low + 1))
        else:
            continue
        for start, count in runs:
            heads.append(head)
            shifts.append(start - total)
            counts.append(count)
            total += count
    last = np.arange(total) + np.repeat(np.array(shifts, dtype=int), counts)
    head_cols = np.array(heads, dtype=int).reshape(len(counts), d - 1)
    out = np.column_stack([np.repeat(head_cols, counts, axis=0), last])
    out.setflags(write=False)
    return out


def annulus_radius_pairs(d: int, count: int) -> list[tuple[float, float]]:
    """Seeded (r_lo, r_hi) pairs: a third uniform, and a third each of
    sqrt(m) + e and sqrt(m + e) for integers m and e in +-{5e-10, 1e-9, 2e-9},
    which put the squared radii on both sides of the 1e-9 tolerance."""
    rng = trial_rng(31, d)
    top = {1: 30, 2: 12, 3: 6}[d]
    offsets = (-2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9)

    def near(m: int, inside: bool) -> float:
        e = float(rng.choice(offsets))
        return math.sqrt(max(m + e, 0.0)) if inside else math.sqrt(m) + e

    pairs = []
    for i in range(count):
        if i % 3 == 0:
            r_lo, r_hi = sorted(rng.uniform(-0.5, top, 2))
        else:
            m_hi = int(rng.integers(0, top * top))
            m_lo = int(rng.integers(0, m_hi + 1))
            r_lo, r_hi = near(m_lo, i % 3 == 2), near(m_hi, i % 3 == 2)
        pairs.append((float(r_lo), float(r_hi)))
    return pairs


def checked_intersect(lat: RandomLattice, sigma: EuclideanSet) -> np.ndarray:
    """Reference: every candidate of the set's annulus (the cube filter, with
    radii taken piece by piece), masked by membership, with its rows checked
    to be distinct."""
    d = lat.dimension
    if sigma.is_empty():
        return np.empty((0, d), dtype=int)
    r_hi = max(p.bounding_radius() for p in sigma.pieces) / lat.dilation + 1e-9
    r_lo = max(min(p.inner_radius() for p in sigma.pieces) / lat.dilation - 1e-9, 0.0)
    cand = cube_filter_annulus(r_lo, r_hi, d)
    out = cand[sigma.contains(lat.points(cand))]
    assert len(_distinct_rows(out)) == len(out)
    return out


INTERSECT_SETS = {
    "disc-R2": EuclideanSet(2, [Ball([0.0, 0.0], 2.0)]),
    "disc-R4": EuclideanSet(2, [Ball([0.0, 0.0], 4.0)]),
    "disc-R8": EuclideanSet(2, [Ball([0.0, 0.0], 8.0)]),
    "ring-16": disc_ring(16, 160.0),
    "box-and-ball": EuclideanSet(2, [AxisBox([-1.0, -0.5], [3.0, 2.0]), Ball([-2.0, 1.0], 1.5)]),
    "union-d1": EuclideanSet(1, [AxisBox([-4.0], [-2.5]), AxisBox([1.0], [6.0]), Ball([0.0], 0.7)]),
    "union-d3": EuclideanSet(
        3, [Ball([0.0, 0.0, 0.0], 2.5), AxisBox([1.0, -1.0, 0.0], [4.0, 1.0, 2.0])]
    ),
    "empty": EuclideanSet(2, []),
}


class TestLatticePoint:
    def test_zero_vector(self):
        lat = identity_lattice(3, 1.5)
        assert np.allclose(lat.points([0, 0, 0]), 0.0)

    def test_identity_rotation(self):
        lat = identity_lattice(2, 1.5)
        assert np.allclose(lat.points([1, 0]), [1.5, 0.0])

    def test_norm_scales_by_dilation(self):
        rng = trial_rng(0, 0)
        for _ in range(20):
            lat = sample_lattice(3, rng)
            k = rng.integers(-5, 6, 3)
            if not np.any(k):
                continue
            ratio = np.linalg.norm(lat.points(k)) / np.linalg.norm(k)
            assert ratio == pytest.approx(lat.dilation, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity_lattice(2, 1.5).points([1, 2, 3])


class TestIntersect:
    def test_small_ball_only_origin(self):
        rng = trial_rng(1, 0)
        sigma = EuclideanSet(2, [Ball([0, 0], 0.5)])
        for _ in range(10):
            m = intersect(sample_lattice(2, rng), sigma)
            assert not m.flags.writeable
            assert sorted(map(tuple, m.tolist())) == [(0, 0)]

    def test_identity_radius_16(self):
        m = intersect(identity_lattice(2, 1.5), EuclideanSet(2, [Ball([0, 0], 1.6)]))
        assert not m.flags.writeable
        got = sorted(map(tuple, m.tolist()))
        assert got == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_empty_set(self):
        m = intersect(identity_lattice(2, 1.5), EuclideanSet(2, []))
        assert m.shape == (0, 2) and m.dtype == int and not m.flags.writeable
        assert order_of(m) == 0

    def test_exact_against_brute_force(self):
        # Enumeration must agree element for element with a full cube scan.
        for trial in range(200):
            rng = trial_rng(2, trial)
            lat = sample_lattice(2, rng)
            center = rng.uniform(-3, 3, 2)
            radius = float(rng.uniform(0.3, 4.0))
            sigma = EuclideanSet(2, [Ball(center, radius)])
            m = intersect(lat, sigma)
            assert not m.flags.writeable
            got = set(map(tuple, m.tolist()))
            bound = sigma.bounding_radius() / lat.dilation
            k = int(math.floor(bound)) + 1
            grid = np.stack(
                np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1), indexing="ij"),
                axis=-1,
            ).reshape(-1, 2)
            inside = sigma.contains(lat.points(grid))
            expected = set(map(tuple, grid[inside].tolist()))
            assert got == expected

    @pytest.mark.parametrize("name", list(INTERSECT_SETS))
    def test_equals_the_checked_route(self, name):
        # Values, order and dtype of the indices, the count and the order
        # statistic, against the checked route on seeded lattices.
        sigma = INTERSECT_SETS[name]
        draws = 12 if name == "ring-16" else 60
        for i in range(draws):
            lat = sample_lattice(sigma.dimension, trial_rng(41, i))
            got, want = intersect(lat, sigma), checked_intersect(lat, sigma)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), (name, i)
            assert order_of(got) == order_of(want)
            assert not got.flags.writeable


@st.composite
def block_hit_cases(draw):
    """A block of 1-6 lattices and a set of 0-4 pieces: balls and boxes of
    sizes down to 1e-9, balls whose sphere passes through a lattice point
    of the first lattice (so the point touches the annulus bounds when the
    ball is centred on its ray), boxes with a face within 1e-9 of such a
    point, tiny balls next to one, and, with a cap of 2000 points, pieces
    whose annulus ``intersect`` rejects for some or all dilations."""
    d = draw(st.integers(1, 3))
    q, v = next(lattice._lattice_blocks(d, draw(st.integers(1, 6)), draw(st.integers(0, 2**20)), 1))
    coord = st.floats(-5.0, 5.0)
    size = st.floats(-9.0, 0.6).map(lambda e: 10.0**e)
    near = st.sampled_from([0.0, 1e-15, -1e-15, 1e-9, -1e-9, 3e-8, -3e-8, 1e-7])
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["ball", "box", "sphere", "face", "dot", "far"]))
        k = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
        x = v[0] * (k @ q[0])
        if kind == "ball":
            pieces.append(Ball([draw(coord) for _ in range(d)], draw(size)))
        elif kind == "box":
            lower = np.array([draw(coord) for _ in range(d)])
            pieces.append(AxisBox(lower, lower + np.array([draw(size) for _ in range(d)])))
        elif kind == "sphere":
            # Centre on the ray through x (at the origin, or past x) or anywhere.
            stretch = draw(st.sampled_from([0.0, 0.5, 2.0, None]))
            centre = np.array([draw(coord) for _ in range(d)]) if stretch is None else stretch * x
            radius = float(np.linalg.norm(x - centre)) + draw(near)
            if radius > 0:
                pieces.append(Ball(centre, radius))
        elif kind == "face":
            axis = draw(st.integers(0, d - 1))
            lower = x - np.array([draw(size) for _ in range(d)])
            upper = x + np.array([draw(size) for _ in range(d)])
            if draw(st.booleans()):
                lower[axis] = x[axis] + draw(near)
            else:
                upper[axis] = x[axis] + draw(near)
            if np.all(lower < upper):
                pieces.append(AxisBox(lower, upper))
        elif kind == "dot":
            # Along x's ray the slack of a tiny ball reaches past the annulus
            # bounds: Ball.contains passes x, and the annulus leaves it out.
            if np.any(x) and draw(st.booleans()):
                direction = x / np.linalg.norm(x)
            else:
                direction = np.eye(d)[draw(st.integers(0, d - 1))]
            pieces.append(Ball(x + draw(near) * direction, draw(st.sampled_from([1e-9, 1e-12, 2e-8]))))
        else:
            pieces.append(Ball(np.zeros(d), draw(st.sampled_from([20.0, 30.0, 45.0, 1e8]))))
    return EuclideanSet(d, pieces), q, v


class TestBlockHits:
    @settings(max_examples=300, deadline=None)
    @given(block_hit_cases())
    def test_rows_equal_intersect_per_trial(self, case):
        sigma, q, v = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "ANNULUS_POINT_CAP", 2000)
            want, error = [], None
            for t in range(len(v)):
                try:
                    want.append(intersect(RandomLattice(Rotation(q[t]), float(v[t])), sigma))
                except ValueError as exc:
                    error = str(exc)
                    break
            if error is not None:
                # Rejected before anything is allocated, with the first
                # rejected trial's message.
                mp.setattr(lattice, "_preimage_frames", lambda s: pytest.fail("built after a rejection"))
                with pytest.raises(ValueError) as info:
                    lattice._block_hits(sigma, q, v)
                assert str(info.value) == error
                return
            trial, rows = lattice._block_hits(sigma, q, v)
        assert np.all(np.diff(trial) >= 0)
        assert rows.dtype == want[0].dtype
        for t, expected in enumerate(want):
            assert np.array_equal(rows[trial == t], expected), t

    @pytest.mark.parametrize("shift", [-3e-8, 3e-8])
    def test_contains_slack_past_the_annulus(self, shift):
        # A ball of radius 1e-9 whose centre lies 3e-8 from the lattice point
        # x on x's ray: Ball.contains passes x (9e-16 <= 1e-18 + 1e-15), but
        # ||x|| lies outside the set's radii, so intersect leaves it out.
        q, v = next(lattice._lattice_blocks(2, 1, 4, 1))
        x = v[0] * (np.array([3.0, -2.0]) @ q[0])
        sigma = EuclideanSet(2, [Ball(x * (1.0 + shift / np.linalg.norm(x)), 1e-9)])
        assert sigma.contains(x)
        lat = RandomLattice(Rotation(q[0]), float(v[0]))
        assert len(intersect(lat, sigma)) == 0
        assert len(lattice._block_hits(sigma, q, v)[1]) == 0

    def test_dimension_mismatch_rejected(self):
        q, v = next(lattice._lattice_blocks(2, 3, 0, 1))
        with pytest.raises(ValueError, match="does not match"):
            lattice._block_hits(INTERSECT_SETS["union-d3"], q, v)

    @pytest.mark.parametrize("seed", [1, 4000])
    @pytest.mark.parametrize("budget", [1, 1000])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, budget, seed):
        # A budget of 1 point gives one trial per block; one of 1000 gives
        # blocks of 1000 // bound trials.
        from ulat.annihilation import disc_ring_experiment

        ring = disc_ring(8, 80.0)
        runs = []
        for cut in (False, True):
            if cut:
                monkeypatch.setattr(lattice, "_BLOCK_POINTS", budget)
            sigma = EuclideanSet(2, list(ring.pieces) + [Ball([0.0, 0.0], 1.3)])
            averaging = check_lattice_averaging(AnnulusIndicator(2, 1.0, 3.0), 70, seed)
            runs.append(
                (
                    disc_ring_experiment(8, trials=70, seed=seed, width_trials=16),
                    estimate_order(sigma, trials=70, seed=seed).to_dict(),
                    [rep.to_dict() for rep in averaging],
                )
            )
        assert runs[0] == runs[1]


class TestSetRadii:
    @pytest.mark.parametrize("name", list(INTERSECT_SETS))
    def test_cached_radii_equal_the_per_piece_extremes(self, name):
        sigma = INTERSECT_SETS[name]
        pieces = sigma.pieces
        outer = max((p.bounding_radius() for p in pieces), default=0.0)
        inner = min((p.inner_radius() for p in pieces), default=math.inf)
        for _ in range(2):
            assert sigma.bounding_radius() == outer
            assert sigma.inner_radius() == inner
        assert (
            EuclideanSet(sigma.dimension, pieces).inner_radius(),
            EuclideanSet(sigma.dimension, pieces).bounding_radius(),
        ) == (inner, outer)

    def test_empty_set_radii(self):
        empty = EuclideanSet(3, [])
        assert empty.bounding_radius() == 0.0
        assert empty.inner_radius() == math.inf


class TestOrder:
    def test_two_column_example(self):
        assert order_of([(0, 0), (1, 2), (1, 3)]) == 5

    def test_singleton(self):
        for d in (1, 2, 3):
            assert order_of(np.zeros((1, d), dtype=int)) == d

    def test_full_grid(self):
        a, b = 3, 4
        grid = np.stack(
            np.meshgrid(np.arange(a + 1), np.arange(b + 1), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        assert order_of(grid) == (a + 1) + (b + 1)

    def test_empty_is_zero(self):
        assert order_of(np.empty((0, 2), dtype=int)) == 0

    @given(
        arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 3)),
               elements=st.integers(-6, 6))
    )
    @settings(max_examples=60, deadline=None)
    def test_order_chains(self, indices):
        indices = np.unique(indices, axis=0)
        d = indices.shape[1]
        card = len(indices)
        order = order_of(indices)
        per_axis = [len(np.unique(indices[:, i])) for i in range(d)]
        assert order == sum(per_axis)
        assert order <= d * card
        assert card <= int(np.prod(per_axis))


class TestPolarConstant:
    @pytest.mark.parametrize("d,expected", [(1, 0.5), (2, 1 / (2 * math.pi)), (3, 1 / (4 * math.pi))])
    def test_known_values(self, d, expected):
        assert polar_constant(d) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_gaussian_radial_identity(self, d):
        # The unit Gaussian integrates to 1, so the weighted radial integral
        # must reproduce the constant itself.
        quad_val, _ = integrate.quad(lambda v: math.exp(-math.pi * v * v) * v ** (d - 1), 0, np.inf)
        assert quad_val == pytest.approx(polar_constant(d), rel=1e-9)


class TestLatticeAveraging:
    def test_annulus_ratio_window(self):
        phi = AnnulusIndicator(2, 1.0, 3.0)
        rep_a, rep_b = check_lattice_averaging(phi, trials=2000, seed=0)
        assert rep_a.bound == pytest.approx(8 * math.pi)
        assert 1 / 50 <= rep_a.extras["ratio"] <= 50
        assert 1 / 50 <= rep_b.extras["ratio"] <= 50

    def test_zero_reference_is_rejected_before_any_trial(self, monkeypatch):
        # The ball of radius 0.9 has no mass in ||x|| >= 1, and the tail of
        # the Gaussian with a = 2^40, at the edge of the input range,
        # underflows to 0: no ratio is defined.  a = 1e300 is past the range.
        monkeypatch.setattr(lattice, "trial_rng", lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="must lie in"):
            GaussianProfile(2, 1e300)
        for phi in (AnnulusIndicator(2, 0.0, 0.9), GaussianProfile(2, 2.0**40)):
            with pytest.raises(ValueError, match="reference integral .* is 0.0"):
                check_lattice_averaging(phi, trials=500, seed=1)

    def test_annuli_past_the_cap_are_rejected_before_any_enumeration(self, monkeypatch):
        # Index radii of about 30000 (d = 2) and 3000 (d = 3) pass the point cap.
        forbid_walks(monkeypatch)
        for phi in (AnnulusIndicator(2, 1.0, 30000.0), AnnulusIndicator(3, 0.0, 1500.0)):
            with pytest.raises(ValueError, match="above the cap"):
                averaging_setup(phi)
            with pytest.raises(ValueError, match="above the cap"):
                check_lattice_averaging(phi, trials=5, seed=0)

    def test_setup_gives_the_references_and_radii(self):
        phi = AnnulusIndicator(2, 1.0, 3.0)
        ref_a, ref_b, rad_a, rad_b = averaging_setup(phi)
        assert (ref_a, ref_b) == (phi.integral_outside(1.0), phi.integral_outside(0.5))
        assert (rad_a, rad_b) == (3.0 + 1e-9, 6.0 + 1e-9)

    def test_gaussian_both_positive_finite(self):
        phi = GaussianProfile(2, 1.0)
        rep_a, rep_b = check_lattice_averaging(phi, trials=500, seed=2)
        assert 0 < rep_a.estimate < math.inf
        assert 0 < rep_b.estimate < math.inf

    def test_profile_without_decay_rejected(self):
        class Bare:
            dimension = 2
            support_radius = math.inf

            def value(self, pts):
                return np.ones(len(pts))

            def integral_outside(self, c):
                return 1.0

        with pytest.raises(ValueError):
            check_lattice_averaging(Bare(), trials=10, seed=0)

    @pytest.mark.parametrize("trials", [2, 255, 256, 257, 600])
    def test_stacked_draws_equal_the_per_trial_loop(self, trials, monkeypatch):
        profiles = [
            AnnulusIndicator(1, 1.0, 3.0),
            AnnulusIndicator(2, 1.0, 3.0),
            AnnulusIndicator(3, 0.0, 2.5),
            GaussianProfile(2, 1.0),
            # About 8000 candidates: the point budget cuts blocks of 31 trials.
            GaussianProfile(2, 0.01),
        ]
        seen = []
        monkeypatch.setattr(
            lattice, "mean_stderr", lambda x: seen.append(np.array(x)) or mean_stderr(x)
        )
        for phi in profiles:
            for seed in (0, 9173):
                seen.clear()
                rep_a, rep_b = check_lattice_averaging(phi, trials=trials, seed=seed)
                want = loop_lattice_sums(phi, trials, seed)
                assert np.array_equal(seen[0], want[:, 0])
                assert np.array_equal(seen[1], want[:, 1])
                assert (rep_a.estimate, rep_a.stderr) == mean_stderr(want[:, 0])
                assert (rep_b.estimate, rep_b.stderr) == mean_stderr(want[:, 1])

    @pytest.mark.parametrize(
        "trials,message", [(0, "trials must be >= 1"), (-3, "trials must be >= 1"),
                           (1, "requires trials >= 2")]
    )
    def test_trial_count_errors(self, trials, message):
        with pytest.raises(ValueError, match=message):
            check_lattice_averaging(AnnulusIndicator(2, 1.0, 3.0), trials=trials, seed=0)

    @pytest.mark.parametrize("trials", [1, 0, -3])
    @pytest.mark.parametrize(
        "estimate",
        [
            lambda trials: check_lattice_averaging(AnnulusIndicator(2, 1.0, 3.0), trials=trials),
            lambda trials: estimate_card(EuclideanSet(2, [Ball([0.0, 0.0], 2.0)]), trials=trials),
            lambda trials: estimate_order(EuclideanSet(2, [Ball([0.0, 0.0], 2.0)]), trials=trials),
        ],
        ids=["check_lattice_averaging", "estimate_card", "estimate_order"],
    )
    def test_too_few_trials_rejected_before_any_draw(self, monkeypatch, estimate, trials):
        # Every estimator that returns an ExpectationReport checks its trial
        # count first; each used to draw all its trials before the report
        # rejected a single one.
        for module in (geometry, lattice, mc):
            monkeypatch.setattr(module, "trial_rng", lambda *a: pytest.fail("drew a trial"))
        with pytest.raises(ValueError, match="requires trials >= 2"):
            estimate(trials)

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one_rejected(self, d):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            AnnulusIndicator(d, 1.0, 3.0)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            GaussianProfile(d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_tail_radius_meets_its_target(self, d):
        for a in np.logspace(-4, 2, 13):
            phi = GaussianProfile(d, float(a))
            for eps in (1e-3, 1e-6 * phi.integral_outside(1.0) / 2**d, 1e-12):
                assert phi.integral_outside(phi.tail_radius(eps)) <= eps

    def test_gaussian_scale_whose_integral_overflows_is_rejected(self):
        # a^(-d/2) overflows at a = 1e-300 in d = 3; the scale is past the
        # input range [2^-40, 2^40] in every dimension, and at its edge the
        # integral, 2^60 in d = 3, is finite.
        for d in (1, 3):
            with pytest.raises(ValueError, match=r"must lie in \[2\^-40, 2\^40\]"):
                GaussianProfile(d, 1e-300)
        assert GaussianProfile(3, 2.0**-40).integral_outside(0.0) == 2.0**60

    def test_gaussian_tail_integral_closed_form(self):
        phi = GaussianProfile(2, 1.0)
        val, _ = integrate.quad(
            lambda r: 2 * math.pi * r * math.exp(-math.pi * r * r), 1.0, 20.0
        )
        assert phi.integral_outside(1.0) == pytest.approx(val, rel=1e-9)


class TestEstimateCard:
    def test_small_ball_zero(self):
        rep = estimate_card(EuclideanSet(2, [Ball([0, 0], 0.5)]), trials=200, seed=0)
        assert rep.estimate == 0.0

    def test_growth_follows_area(self):
        means = {}
        for radius in (2.0, 4.0, 8.0):
            rep = estimate_card(
                EuclideanSet(2, [Ball([0, 0], radius)]), trials=1200, seed=3
            )
            means[radius] = rep.estimate
        slope = np.polyfit(np.log([2, 4, 8]), np.log([means[2], means[4], means[8]]), 1)[0]
        assert 1.85 <= slope <= 2.25

    def test_self_consistency_against_frozen_oracle(self):
        rep = estimate_card(EuclideanSet(2, [Ball([0, 0], 3.0)]), trials=4000, seed=5)
        assert abs(rep.estimate - CARD_BALL3_ORACLE) <= 3 * (rep.stderr + CARD_BALL3_ORACLE_STDERR)

    def test_rotation_invariance(self):
        pieces = [Ball([1.2, 0.0], 1.4), Ball([0.0, 0.0], 0.8)]
        q = Rotation(np.array([[0.0, -1.0], [1.0, 0.0]])).matrix
        rotated = [Ball(q @ b.center, b.radius) for b in pieces]
        a = estimate_card(EuclideanSet(2, pieces), trials=1500, seed=6)
        b = estimate_card(EuclideanSet(2, rotated), trials=1500, seed=7)
        assert abs(a.estimate - b.estimate) <= 3 * (a.stderr + b.stderr)

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            estimate_card(EuclideanSet(2, [Ball([5, 5], 0.5)]), trials=10, seed=0)


class TestEstimateOrder:
    def test_small_ball_zero(self):
        rep = estimate_order(EuclideanSet(2, [Ball([0, 0], 0.5)]), trials=200, seed=0)
        assert rep.estimate == 0.0

    def test_empty_set_fails_the_origin_check(self):
        # An empty set never holds the origin, so no separate emptiness
        # check is needed.
        with pytest.raises(ValueError, match="must contain the origin"):
            estimate_order(EuclideanSet(2, []), trials=10)

    def test_four_dimensions_rejected_before_any_trial(self, monkeypatch):
        # The mean width takes d <= 3, and it is computed before the trials.
        def forbidden(*args, **kwargs):
            raise AssertionError("a trial ran on a 4-D set")

        monkeypatch.setattr(lattice, "_lattice_blocks", forbidden)
        with pytest.raises(ValueError, match="dimensions 1 to 3"):
            estimate_order(EuclideanSet(4, [Ball(np.zeros(4), 1.0)]), trials=10)

    def test_radius_past_exact_squares_rejected(self):
        # A radius of 1e120 is past the input range.  At its edge, 2^40, the
        # candidate bound of about 2^123 gives a block of one trial, whose
        # annulus check raises as intersect's does.
        with pytest.raises(ValueError, match="must lie in"):
            Ball([0.0, 0.0, 0.0], 1e120)
        with pytest.raises(ValueError, match="past exact squares"):
            estimate_order(EuclideanSet(3, [Ball([0.0, 0.0, 0.0], 2.0**40)]), trials=5)

    @pytest.mark.parametrize(
        "name, trials",
        [("ring-16", 50), ("disc-R4", 300), ("box-and-ball", 257), ("union-d1", 300), ("union-d3", 257)],
    )
    def test_values_equal_the_per_trial_loop(self, monkeypatch, name, trials):
        sigma = INTERSECT_SETS[name]
        if name == "ring-16":
            sigma = EuclideanSet(2, list(sigma.pieces) + [Ball([0.0, 0.0], 0.4)])
        seen = []
        monkeypatch.setattr(lattice, "mean_stderr", lambda x: seen.append(np.array(x)) or mean_stderr(x))
        for seed in (0, 8, 9173):
            seen.clear()
            rep = estimate_order(sigma, trials=trials, seed=seed)
            want = loop_orders(sigma, trials, seed)
            assert np.array_equal(seen[0], want)
            assert (rep.estimate, rep.stderr) == mean_stderr(want)

    def test_disc_ring_grows_linearly(self):
        # Width-driven growth: doubling the disc count roughly doubles the
        # order excess (an origin disc is added to satisfy the origin
        # precondition; it contributes a constant offset).
        from ulat.annihilation import disc_ring

        means = {}
        for n in (8, 16):
            ring = disc_ring(n, 10.0 * n)
            sigma = EuclideanSet(2, list(ring.pieces) + [Ball([0.0, 0.0], 0.4)])
            means[n] = estimate_order(sigma, trials=600, seed=8).estimate
        assert 1.4 <= means[16] / means[8] <= 2.6

    def test_order_grows_slower_than_card(self):
        ratios = []
        for radius in (4.0, 8.0, 16.0):
            sigma = EuclideanSet(2, [Ball([0, 0], radius)])
            o = estimate_order(sigma, trials=400, seed=9)
            c = estimate_card(sigma, trials=400, seed=9)
            ratios.append(o.estimate / c.estimate)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_order_below_card_for_unit_and_larger_balls(self):
        for seed in range(3):
            for radius in (1.0, 1.5, 2.0, 4.0):
                sigma = EuclideanSet(2, [Ball([0, 0], radius)])
                o = estimate_order(sigma, trials=300, seed=seed)
                c = estimate_card(sigma, trials=300, seed=seed)
                assert o.estimate <= c.estimate + 1e-12

    def test_report_carries_reference_scales(self):
        rep = estimate_order(EuclideanSet(2, [Ball([0, 0], 2.0)]), trials=100, seed=0)
        assert rep.extras["cover_upper"] == pytest.approx(2.0)
        assert rep.extras["mean_width"] == pytest.approx(4.0)
        assert rep.extras["nu"] == pytest.approx(2.0)


class TestAxisHitCount:
    def test_small_ball_zero(self):
        rng = trial_rng(10, 0)
        sigma = EuclideanSet(2, [Ball([0, 0], 0.5)])
        for _ in range(5):
            lat = sample_lattice(2, rng)
            assert axis_hit_count(lat, sigma) == 0

    def test_subadditive_over_unions(self):
        violations = 0
        for trial in range(100):
            rng = trial_rng(11, trial)
            lat = sample_lattice(2, rng)
            b1 = Ball(rng.uniform(-4, 4, 2), float(rng.uniform(0.3, 1.5)))
            b2 = Ball(rng.uniform(-4, 4, 2), float(rng.uniform(0.3, 1.5)))
            u = EuclideanSet(2, [b1, b2])
            m_union = axis_hit_count(lat, u)
            m_1 = axis_hit_count(lat, EuclideanSet(2, [b1]))
            m_2 = axis_hit_count(lat, EuclideanSet(2, [b2]))
            if m_union > m_1 + m_2:
                violations += 1
        assert violations == 0

    def test_monotone_under_inclusion(self):
        for trial in range(50):
            rng = trial_rng(12, trial)
            lat = sample_lattice(2, rng)
            center = rng.uniform(-2, 2, 2)
            small = EuclideanSet(2, [Ball(center, 1.0)])
            large = EuclideanSet(2, [Ball(center, 2.5)])
            assert axis_hit_count(lat, small) <= axis_hit_count(lat, large)


class TestAnnulusMemo:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_repeat_calls_equal_the_cube_filter(self, d):
        for r_lo, r_hi in annulus_radius_pairs(d, count=300):
            expected = cube_filter_annulus(r_lo, r_hi, d)
            for _ in range(2):
                got = integer_vectors_in_annulus(r_lo, r_hi, d)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (r_lo, r_hi)

    @pytest.mark.parametrize(
        "r_lo, r_hi, d", [(0.0, 3.5, 2), (1.0, 2.0, 3), (0.0, 40.0, 1), (159.5 / 1.3, 160.5 / 1.3, 2),
                          (0.0, -1.0, 2)]
    )
    def test_results_are_read_only(self, r_lo, r_hi, d):
        for _ in range(2):
            pts = integer_vectors_in_annulus(r_lo, r_hi, d)
            assert not pts.flags.writeable
            if len(pts):
                with pytest.raises(ValueError, match="read-only"):
                    pts[0, 0] = 7
        assert np.array_equal(integer_vectors_in_annulus(r_lo, r_hi, d), cube_filter_annulus(r_lo, r_hi, d))

    def test_ring_sized_annulus_is_not_kept(self):
        # The disc ring at v = 1.3: a cube of 247^2 points, above the gate.
        before = lattice._annulus_memo.cache_info()
        assert len(integer_vectors_in_annulus(159.5 / 1.3, 160.5 / 1.3, 2)) > 0
        assert lattice._annulus_memo.cache_info() == before

    def test_keys_are_the_integer_radii(self):
        lattice._annulus_memo.cache_clear()
        first = integer_vectors_in_annulus(1.0, 3.2, 2)
        # r_hi^2 in [10, 11) and r_lo^2 in (0, 1] give the same key.
        assert integer_vectors_in_annulus(0.3, 3.3, 2) is first
        assert lattice._annulus_memo.cache_info().misses == 1
        assert integer_vectors_in_annulus(0.3, 3.4, 2) is not first

    def test_card_trials_walk_each_annulus_once(self):
        # With v in (1, 2) the R = 8 disc has at most 49 keys (r_hi^2 in
        # (16, 64]); 600 trials must not walk 600 annuli.
        lattice._annulus_memo.cache_clear()
        estimate_card(EuclideanSet(2, [Ball([0.0, 0.0], 8.0)]), trials=600, seed=0)
        info = lattice._annulus_memo.cache_info()
        assert info.hits + info.misses == 600
        assert info.misses <= 64


def forbid_walks(monkeypatch):
    """Make every call that reaches the annulus walk, memoised or not, fail."""
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(lattice, "_annulus_walk", walk)
    monkeypatch.setattr(lattice, "_annulus_memo", walk)


@st.composite
def walk_keys(draw):
    """(lo2, hi2, kmax, d) with hi2 and lo2 at, or 1 off, perfect squares
    around the cube's reach (an occasional lo2 past hi2 or below 0)."""
    d = draw(st.integers(1, 3))
    kmax = draw(st.integers(0, {1: 10**5, 2: 300, 3: 40}[d]))
    top = math.isqrt(d * kmax * kmax) + 2
    m_hi = draw(st.integers(0, top))
    m_lo = draw(st.integers(0, m_hi + 1))
    hi2 = m_hi * m_hi + draw(st.integers(-1, 1))
    lo2 = m_lo * m_lo + draw(st.integers(-1, 1))
    return lo2, hi2, kmax, d


class TestAnnulusRows:
    @given(walk_keys())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_loop(self, key):
        got, expected = _annulus_walk(*key), loop_annulus_walk(*key)
        assert got.dtype == expected.dtype == np.dtype(int)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert not got.flags.writeable

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_and_single_point_keys(self, d):
        for key in ((0, -1, 0, d), (2, 1, 3, d), (0, 0, 0, d), (1, 0, 5, d), (5, 4, 2, d)):
            got, expected = _annulus_walk(*key), loop_annulus_walk(*key)
            assert got.shape == expected.shape and np.array_equal(got, expected), key

    def test_isqrt_is_exact_next_to_squares(self):
        m = np.unique(np.concatenate([
            np.arange(0, 5000), np.geomspace(1, 2**26 - 1, 4000).astype(np.int64), [2**26 - 1],
        ]))
        sq = m * m
        near = np.concatenate([sq - 1, sq, sq + 1])
        near = near[(near >= 0) & (near < 2**52)]
        expected = np.array([math.isqrt(int(x)) for x in near], dtype=np.int64)
        assert np.array_equal(_isqrt(near), expected)
        assert _isqrt(np.array([2**52 - 1]))[0] == 2**26 - 1


class TestEnumeration:
    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_annulus_matches_cube_filter(self, seed):
        rng = trial_rng(13, seed)
        d = int(rng.integers(1, 4))
        r_lo, r_hi = sorted(rng.uniform(0, 7, 2))
        pts = integer_vectors_in_annulus(r_lo, r_hi, d)
        k = int(r_hi) + 1
        grid = np.stack(
            np.meshgrid(*[np.arange(-k, k + 1)] * d, indexing="ij"), axis=-1
        ).reshape(-1, d)
        n2 = np.einsum("ij,ij->i", grid, grid)
        expected = grid[(n2 <= r_hi**2 + 1e-9) & (n2 >= r_lo**2 - 1e-9)]
        assert set(map(tuple, pts.tolist())) == set(map(tuple, expected.tolist()))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_annulus_equals_cube_filter_oracle(self, d):
        # Values, order and dtype, on random radii and within 2e-9 of integer norms.
        for r_lo, r_hi in annulus_radius_pairs(d, count=400 if d == 3 else 1500):
            got = integer_vectors_in_annulus(r_lo, r_hi, d)
            expected = cube_filter_annulus(r_lo, r_hi, d)
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape, (r_lo, r_hi)
            assert np.array_equal(got, expected), (r_lo, r_hi)

    @pytest.mark.parametrize("d", [2, 3])
    def test_annulus_closed_under_swaps_and_sign_flips(self, d):
        pairs = [(0.0, 1.0 - 1e-9), (1.0 - 1e-9, 2.0 - 1e-9), (0.0, math.sqrt(5) - 1e-9)]
        pairs += annulus_radius_pairs(d, count=60)
        for r_lo, r_hi in pairs:
            pts = set(map(tuple, integer_vectors_in_annulus(r_lo, r_hi, d).tolist()))
            for perm in itertools.permutations(range(d)):
                for signs in itertools.product((1, -1), repeat=d):
                    image = {tuple(s * k[i] for s, i in zip(signs, perm)) for k in pts}
                    assert image == pts, (r_lo, r_hi, perm, signs)

    def test_annulus_just_below_the_unit_circle_is_the_origin(self):
        assert integer_vectors_in_annulus(0.0, 1.0 - 1e-9, 2).tolist() == [[0, 0]]

    def test_large_thin_annulus(self):
        # The radii of `ulat sharpness --n 1000`: ring radius 10^4 at v = 1.5.
        r_lo, r_hi = 9999.5 / 1.5, 10000.5 / 1.5
        pts = integer_vectors_in_annulus(r_lo, r_hi, 2)
        assert pts.dtype == np.dtype(int) and pts.ndim == 2 and pts.shape[1] == 2
        keys = pts[:, 0] * (1 << 20) + pts[:, 1]
        assert np.all(np.diff(keys) > 0)  # sorted lexicographically, hence unique
        n2 = np.einsum("ij,ij->i", pts, pts)
        assert np.all(n2 <= r_hi**2 + 1e-9) and np.all(n2 >= r_lo**2 - 1e-9)
        # Each row a holds every b with lo <= a^2 + b^2 <= hi: count the b with
        # b^2 <= x as 2 floor(sqrt x) + 1, corrected from the float root.
        hi = math.floor(r_hi**2 + 1e-9)
        lo = math.ceil(r_lo**2 - 1e-9)
        kmax = int(r_hi)
        a = np.arange(-kmax, kmax + 1)

        def squares_at_most(x):
            root = np.floor(np.sqrt(np.maximum(x, 0))).astype(int)
            root -= root * root > x
            root += (root + 1) * (root + 1) <= x
            return np.where(x >= 0, 2 * root + 1, 0)

        expected = squares_at_most(hi - a * a) - squares_at_most(lo - 1 - a * a)
        rows, counts = np.unique(pts[:, 0], return_counts=True)
        got = dict(zip(rows.tolist(), counts.tolist()))
        assert {int(k): int(c) for k, c in zip(a, expected) if c} == got
        assert len(pts) == int(expected.sum())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_point_bound_dominates_the_count(self, d):
        pairs = annulus_radius_pairs(d, count=300) + [(0.0, 0.0), (3.0, 3.0), (2.5, 1.0)]
        for r_lo, r_hi in pairs:
            count = len(integer_vectors_in_annulus(r_lo, r_hi, d))
            assert count <= _annulus_point_bound(r_lo, r_hi, d), (r_lo, r_hi)

    def test_point_bound_is_the_padded_shell_volume(self):
        # d = 2: pi ((r_hi + s)^2 - (r_lo - s)^2) with s = sqrt(2)/2 + 1e-4.
        s = math.sqrt(2) / 2 + 1e-4
        assert _annulus_point_bound(3.0, 7.0, 2) == pytest.approx(math.pi * ((7 + s) ** 2 - (3 - s) ** 2))
        assert _annulus_point_bound(0.2, 7.0, 2) == pytest.approx(math.pi * (7 + s) ** 2)
        assert _annulus_point_bound(0.0, 7.0, 3) == pytest.approx(
            4 / 3 * math.pi * (7 + math.sqrt(3) / 2 + 1e-4) ** 3
        )
        # A thin shell just inside the radius guard (r^2 < 2^52) keeps its
        # width to about 1e-8 relative.
        r = 0.99 * 2.0**26
        assert _annulus_point_bound(r, r, 2) == pytest.approx(2 * math.pi * r * 2 * s, rel=3e-8)
        assert _annulus_point_bound(0.0, 1e300, 40) == math.inf

    def test_guard_cuts_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(lattice, "ANNULUS_POINT_CAP", _annulus_point_bound(2.0, 5.0, 2))
        assert len(integer_vectors_in_annulus(2.0, 5.0, 2)) > 0
        # Both calls below share that call's memoised key; the guard runs first.
        memo = lattice._annulus_memo.cache_info()
        with pytest.raises(ValueError, match="above the cap"):
            integer_vectors_in_annulus(2.0, 5.0 + 1e-9, 2)
        with pytest.raises(ValueError, match="above the cap"):
            integer_vectors_in_annulus(2.0 - 1e-9, 5.0, 2)
        assert lattice._annulus_memo.cache_info() == memo

    @pytest.mark.parametrize("r_lo, r_hi, d", [(1.0, 30000.0, 2), (0.0, 400.0, 3)])
    def test_guard_rejects_before_the_walk(self, monkeypatch, r_lo, r_hi, d):
        assert not _annulus_point_bound(r_lo, r_hi, d) <= ANNULUS_POINT_CAP
        forbid_walks(monkeypatch)
        with pytest.raises(ValueError, match="above the cap"):
            integer_vectors_in_annulus(r_lo, r_hi, d)

    @pytest.mark.parametrize(
        "r_lo, r_hi, d",
        [(1e16, 1e16, 2), (1e16, 1e16 + 0.5, 1), (1e300, 1e300, 1), (0.0, 2.0**26, 1),
         (0.0, math.inf, 2), (0.0, math.nan, 1)],
    )
    def test_radius_past_exact_squares_rejected_before_the_walk(self, monkeypatch, r_lo, r_hi, d):
        # From r^2 = 2^52 on, float and int64 squares stop being exact: the
        # 1-D shell at 1e16 used to come back empty, missing +-1e16, and the
        # one at 1e300 ended in an OverflowError.
        forbid_walks(monkeypatch)
        with pytest.raises(ValueError, match=r"2\^52"):
            integer_vectors_in_annulus(r_lo, r_hi, d)

    @pytest.mark.parametrize("r_lo", [4.0, 1e10, 1e300])
    def test_inner_radius_past_the_outer_gives_no_points(self, r_lo):
        pts = integer_vectors_in_annulus(r_lo, 3.0, 2)
        assert pts.shape == (0, 2) and pts.dtype == np.dtype(int)

    def test_largest_radius_below_the_squares_guard(self):
        r = 2.0**26 - 1.0
        assert integer_vectors_in_annulus(r - 0.5, r, 1).tolist() == [[-(2**26 - 1)], [2**26 - 1]]

    def test_dilation_validation(self):
        with pytest.raises(ValueError):
            RandomLattice(Rotation(np.eye(2)), 2.5)
