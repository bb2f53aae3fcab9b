"""Geometry: membership, measure, rotations, widths, cover bounds."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ulat.geometry import (
    AxisBox,
    Ball,
    CoverCandidate,
    EuclideanSet,
    Rotation,
    cover_measure_upper,
    lebesgue_measure,
    mean_width,
    merged_length,
    projection_width,
    sample_rotation,
    _WIDTH_BLOCK,
    _check_rotations,
    _cover_value,
    _merged_lengths,
    _projection_widths,
    _grid_cover_cells,
)
from ulat.lattice import sample_lattice
from ulat.mc import mean_stderr, run_trials, trial_rng

# Union area of two unit discs with centers one apart, evaluated by hand
# from the lens-overlap formula before the build.
TWO_DISC_UNION = 2 * math.pi - 2 * math.acos(0.5) + math.sqrt(3) / 2

# Deterministic 2e5-angle sweep oracle for the mean width of the ring of
# 16 half-radius discs on a circle of radius 100.
DISC_RING_16_100_WIDTH = 15.624187


def rotation_2d(angle: float) -> Rotation:
    c, s = math.cos(angle), math.sin(angle)
    return Rotation(np.array([[c, -s], [s, c]]))


class TestContains:
    def test_ball_center(self):
        s = EuclideanSet(3, [Ball([0, 0, 0], 1.0)])
        assert s.contains(np.zeros(3))

    def test_outside_radius(self):
        s = EuclideanSet(3, [Ball([0, 0, 0], 1.0)])
        assert not s.contains(np.array([2.0, 0.0, 0.0]))

    def test_union_second_piece(self):
        d = 4
        s = EuclideanSet(
            d,
            [AxisBox([0.0] * d, [1.0] * d), AxisBox([3.0] * d, [4.0] * d)],
        )
        assert s.contains(np.full(d, 3.5))

    def test_boundary_counts_inside(self):
        s = EuclideanSet(2, [Ball([0, 0], 1.0)])
        assert s.contains(np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        s = EuclideanSet(2, [Ball([0, 0], 1.0)])
        with pytest.raises(ValueError):
            s.contains(np.zeros(3))


class TestMeasure:
    def test_disc_exact(self):
        est = lebesgue_measure(EuclideanSet(2, [Ball([0, 0], 1.0)]))
        assert est.exact and est.stderr == 0.0
        assert est.value == pytest.approx(math.pi, abs=1e-14)

    def test_unit_cube_exact(self):
        for d in (1, 2, 3, 4):
            est = lebesgue_measure(EuclideanSet(d, [AxisBox([0.0] * d, [1.0] * d)]))
            assert est.exact and est.value == pytest.approx(1.0)

    def test_empty_set(self):
        est = lebesgue_measure(EuclideanSet(2, []))
        assert est.value == 0.0 and est.exact

    def test_two_overlapping_discs_vs_lens_oracle(self):
        s = EuclideanSet(2, [Ball([0, 0], 1.0), Ball([1, 0], 1.0)])
        est = lebesgue_measure(s, trials=200_000, seed=42)
        assert not est.exact
        assert abs(est.value - TWO_DISC_UNION) <= 3 * est.stderr

    def test_monotone_under_piece_inclusion(self):
        small = EuclideanSet(2, [Ball([0, 0], 1.0), Ball([0.5, 0], 0.8)])
        big = EuclideanSet(2, list(small.pieces) + [Ball([-0.5, 0.3], 0.7)])
        a = lebesgue_measure(small, trials=100_000, seed=0)
        b = lebesgue_measure(big, trials=100_000, seed=1)
        assert a.value <= b.value + 3 * (a.stderr + b.stderr)


class TestRotationSampling:
    def test_one_dimensional_signs_balanced(self):
        rng = trial_rng(0, 0)
        draws = [sample_rotation(1, rng).matrix[0, 0] for _ in range(10_000)]
        freq = np.mean(np.array(draws) > 0)
        assert abs(freq - 0.5) <= 0.02
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_two_dimensional_angle_uniform(self):
        rng = trial_rng(1, 0)
        angles = []
        for _ in range(10_000):
            m = sample_rotation(2, rng).matrix
            angles.append(math.atan2(m[1, 0], m[0, 0]) % (2 * math.pi))
        stat = stats.kstest(np.array(angles) / (2 * math.pi), "uniform").statistic
        assert stat < 1.63 / math.sqrt(10_000)  # 1% critical value

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_orthogonality_and_determinant(self, d):
        rng = trial_rng(2, d)
        for _ in range(25):
            rho = sample_rotation(d, rng)
            m = rho.matrix
            assert np.max(np.abs(m.T @ m - np.eye(d))) <= 1e-12
            det = np.linalg.det(m)
            if d == 1:
                assert abs(abs(det) - 1.0) <= 1e-12
            else:
                assert abs(det - 1.0) <= 1e-9


class TestProjectionWidth:
    def test_ball_any_rotation_gives_diameter(self):
        s = EuclideanSet(2, [Ball([0.3, -0.7], 1.0)])
        rng = trial_rng(3, 0)
        for _ in range(10):
            assert projection_width(s, sample_rotation(2, rng)) == pytest.approx(2.0)

    def test_disjoint_intervals_add(self):
        s = EuclideanSet(2, [Ball([0, 0], 0.5), Ball([5, 0], 0.5)])
        assert projection_width(s, rotation_2d(0.0)) == pytest.approx(2.0)

    def test_unit_square_diagonal(self):
        s = EuclideanSet(2, [AxisBox([0, 0], [1, 1])])
        assert projection_width(s, rotation_2d(math.pi / 4)) == pytest.approx(math.sqrt(2))

    def test_merged_length(self):
        assert merged_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_twice_bounding_radius(self, seed):
        rng = trial_rng(4, seed)
        d = int(rng.integers(1, 4))
        pieces = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.5:
                pieces.append(Ball(rng.uniform(-2, 2, d), float(rng.uniform(0.1, 2))))
            else:
                lo = rng.uniform(-2, 2, d)
                pieces.append(AxisBox(lo, lo + rng.uniform(0.1, 2, d)))
        s = EuclideanSet(d, pieces)
        rho = sample_rotation(d, rng)
        assert projection_width(s, rho) <= 2 * s.bounding_radius() + 1e-12


class TestMeanWidth:
    def test_unit_ball_constant_integrand(self):
        est = mean_width(EuclideanSet(2, [Ball([0, 0], 1.0)]), trials=64, seed=0)
        assert est.value == pytest.approx(2.0) and est.stderr == 0.0

    def test_scaling(self):
        est = mean_width(EuclideanSet(3, [Ball([0, 0, 0], 2.5)]), trials=64, seed=0)
        assert est.value == pytest.approx(5.0)

    def test_disc_ring_against_angle_sweep_oracle(self):
        from ulat.annihilation import disc_ring

        est = mean_width(disc_ring(16, 100.0), trials=4096, seed=9)
        assert abs(est.value - DISC_RING_16_100_WIDTH) <= 3 * est.stderr

    def test_rotation_invariance_of_ball_union(self):
        pieces = [Ball([1.0, 0.0], 0.6), Ball([-0.4, 0.8], 0.3)]
        s = EuclideanSet(2, pieces)
        q = rotation_2d(1.1).matrix
        rotated = EuclideanSet(2, [Ball(q @ b.center, b.radius) for b in pieces])
        a = mean_width(s, trials=4096, seed=5)
        b = mean_width(rotated, trials=4096, seed=6)
        assert abs(a.value - b.value) <= 3 * (a.stderr + b.stderr)


class TestCoverUpper:
    def test_small_ball_self_cover(self):
        cover = cover_measure_upper(EuclideanSet(2, [Ball([0, 0], 0.5)]))
        assert cover.value <= 0.25 + 1e-12

    def test_large_ball_linear_term(self):
        cover = cover_measure_upper(EuclideanSet(2, [Ball([0, 0], 3.0)]))
        assert cover.value <= 3.0 + 1e-12

    def test_disc_ring_self_cover(self):
        from ulat.annihilation import disc_ring

        n = 12
        cover = cover_measure_upper(disc_ring(n, 10.0 * n))
        assert cover.value <= n / 4 + 1e-12

    def test_never_worse_than_self_cover(self):
        s = EuclideanSet(2, [Ball([0.2, 0.1], 0.7), AxisBox([-1, -1], [-0.2, 0.5])])
        self_cover = sum(
            min(r, r**2)
            for r in (0.7, float(np.linalg.norm([0.4, 0.75])))
        )
        assert cover_measure_upper(s).value <= self_cover + 1e-12

    def test_thin_box_benefits_from_grid(self):
        s = EuclideanSet(2, [AxisBox([0.0, 0.0], [1.0, 0.01])])
        cover = cover_measure_upper(s)
        half_diag = float(np.linalg.norm([0.5, 0.005]))
        assert cover.value < min(half_diag, half_diag**2)

    def test_cover_actually_covers(self):
        s = EuclideanSet(2, [Ball([0.4, -0.2], 0.9), AxisBox([1.0, 1.0], [2.0, 1.7])])
        cover = cover_measure_upper(s)
        assert cover.verify_covers(s, samples=2000, seed=0)

    @pytest.mark.parametrize(
        "upper",
        [[1 + 1e-13, 1 + 1e-13], [0.5 + 1e-14, 2.0], [1.0, 0.25 + 1e-15], [3 + 2e-12, 1 + 4e-16]],
    )
    def test_box_just_past_a_grid_line_keeps_its_top_cells(self, upper):
        # An upper bound a sliver above a grid line still lies in the cell
        # above that line, and the certified cover reaches the far corner.
        box = AxisBox([0.0, 0.0], upper)
        s = EuclideanSet(2, [box])
        for j in range(7):
            side = 2.0**-j
            top = tuple(math.ceil(u / side) - 1 for u in upper)
            assert top in _grid_cover_cells(s, side)
        cover = cover_measure_upper(s)
        corner = np.array(upper)
        assert any(b.contains(corner) for b in cover.balls)


def eight_candidate_cover(s: EuclideanSet, max_level: int = 6) -> CoverCandidate:
    """Oracle: build every candidate cover in full and return the minimum."""
    d = s.dimension
    self_balls = []
    for p in s.pieces:
        if isinstance(p, Ball):
            self_balls.append(p)
        else:
            self_balls.append(Ball(p.center(), float(np.linalg.norm(p.half_widths()))))
    radii = np.array([b.radius for b in self_balls])
    candidates = [CoverCandidate(tuple(self_balls), _cover_value(radii, d))]
    for j in range(max_level + 1):
        side = 2.0**-j
        cells = _grid_cover_cells(s, side)
        if cells is None:
            continue
        r = side * math.sqrt(d) / 2.0
        balls = tuple(Ball((np.array(c, dtype=float) + 0.5) * side, r) for c in sorted(cells))
        candidates.append(CoverCandidate(balls, len(cells) * min(r, r**d)))
    return min(candidates, key=lambda c: c.value)


def cover_oracle_sets() -> list[EuclideanSet]:
    from ulat.annihilation import disc_ring

    sets = [disc_ring(n, 10.0 * n) for n in (1, 4, 8, 16)]
    # The four frequency-set templates of the sweep benchmark, at three scales.
    templates = [
        [Ball([0.0, 0.0], 1.0)],
        [Ball([0.0, 0.0], 0.8), Ball([1.5, 0.0], 0.5)],
        [AxisBox([-0.7, -0.5], [0.7, 0.5]), Ball([0.0, 1.0], 0.35)],
        [Ball([0.0, 0.0], 0.7), AxisBox([0.9, -0.4], [1.6, 0.4])],
    ]
    sets += [EuclideanSet(2, t).scale(k) for t in templates for k in (0.9, 1.0, 1.1)]
    sets += [
        EuclideanSet(2, [AxisBox([0.0, 0.0], [1.0, 0.01])]),
        EuclideanSet(2, [Ball([0.0, 0.0], 40.0)]),  # finest grids exceed the cell cap
        EuclideanSet(1, [Ball([0.0], 0.3), AxisBox([1.0], [2.5])]),
        EuclideanSet(1, [Ball([0.0], 3.0)]),
        EuclideanSet(1, [AxisBox([0.0], [1.0])]),  # the self cover ties every grid
        EuclideanSet(1, [Ball([0.0], 0.5), Ball([0.25], 0.25)]),  # grid levels 1-6 tie
        EuclideanSet(3, [Ball([0.0, 0.0, 0.0], 0.6), AxisBox([1, 0, 0], [1.5, 0.2, 0.1])]),
        EuclideanSet(3, [AxisBox([0, 0, 0], [2.0, 0.05, 0.05])]),
    ]
    rng = trial_rng(77, 0)
    for _ in range(12):
        d = int(rng.integers(1, 4))
        pieces = []
        for _ in range(int(rng.integers(1, 4))):
            c = rng.uniform(-2, 2, d)
            if rng.random() < 0.5:
                pieces.append(Ball(c, float(rng.uniform(0.05, 1.5))))
            else:
                pieces.append(AxisBox(c, c + rng.uniform(0.01, 1.5, d)))
        sets.append(EuclideanSet(d, pieces))
    return sets


class TestCoverOracle:
    @pytest.mark.parametrize("index", range(len(cover_oracle_sets())))
    def test_winner_only_cover_equals_full_candidate_minimum(self, index):
        s = cover_oracle_sets()[index]
        got, expected = cover_measure_upper(s), eight_candidate_cover(s)
        assert got.value == expected.value
        assert isinstance(got.balls, tuple)
        assert len(got.balls) == len(expected.balls)
        for a, b in zip(got.balls, expected.balls):
            assert np.array_equal(a.center, b.center) and a.radius == b.radius


def per_matrix_rotation(d: int, rng) -> np.ndarray:
    """Oracle: one Haar matrix by its own QR, as the sampler drew it per trial."""
    if d == 1:
        return np.array([[1.0 if rng.random() < 0.5 else -1.0]])
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def scalar_projection_width(s: EuclideanSet, u: np.ndarray) -> float:
    """Oracle: one scalar product per piece, then the scalar sweep merge."""
    intervals = []
    for p in s.pieces:
        if isinstance(p, Ball):
            c = float(p.center @ u)
            intervals.append((c - p.radius, c + p.radius))
        else:
            c = float(p.center() @ u)
            reach = float(np.abs(u) @ p.half_widths())
            intervals.append((c - reach, c + reach))
    return merged_length(intervals)


def per_trial_mean_width(s: EuclideanSet, trials: int, seed: int) -> tuple[float, float]:
    """Oracle: one rotation, one projection and one merge per trial."""
    widths = run_trials(
        lambda rng: scalar_projection_width(s, per_matrix_rotation(s.dimension, rng)[:, 0].copy()),
        trials,
        seed,
    )
    return mean_stderr(widths)


def width_oracle_sets() -> dict[str, EuclideanSet]:
    from ulat.annihilation import disc_ring

    return {
        "interval": EuclideanSet(1, [AxisBox([-0.3], [1.2])]),
        "d1-mixed": EuclideanSet(1, [Ball([0.0], 0.3), AxisBox([1.0], [2.5]), Ball([2.4], 0.2)]),
        "disc": EuclideanSet(2, [Ball([0.3, -0.7], 1.0)]),
        "overlapping-discs": EuclideanSet(2, [Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)]),
        "boxes": EuclideanSet(2, [AxisBox([0, 0], [1, 2]), AxisBox([0.5, 1.5], [3, 2.5])]),
        "sweep-mixed": EuclideanSet(2, [AxisBox([-0.7, -0.5], [0.7, 0.5]), Ball([0.0, 1.0], 0.35)]),
        "ring-16": disc_ring(16, 160.0),
        "ball-3d": EuclideanSet(3, [Ball([0.0, 0.0, 0.0], 2.5)]),
        "mixed-3d": EuclideanSet(
            3, [Ball([0.0, 0.0, 0.0], 0.6), AxisBox([1, 0, 0], [1.5, 0.2, 0.1]), Ball([1, 1, 1], 0.4)]
        ),
    }


class TestStackedSamplerOracle:
    @pytest.mark.parametrize("name", sorted(width_oracle_sets()))
    @pytest.mark.parametrize("trials", [_WIDTH_BLOCK - 1, _WIDTH_BLOCK, _WIDTH_BLOCK + 1])
    def test_mean_width_equals_per_trial_loop(self, name, trials):
        s = width_oracle_sets()[name]
        est = mean_width(s, trials=trials, seed=trials + 7)
        value, stderr = per_trial_mean_width(s, trials, trials + 7)
        assert est.value == value and est.stderr == stderr

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sample_rotation_equals_per_matrix_draws(self, d):
        rng, ref = trial_rng(31, d), trial_rng(31, d)
        for _ in range(200):
            assert np.array_equal(sample_rotation(d, rng).matrix, per_matrix_rotation(d, ref))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sample_lattice_equals_per_matrix_draws(self, d):
        for i in range(100):
            lat = sample_lattice(d, trial_rng(5, i))
            ref = trial_rng(5, i)
            assert np.array_equal(lat.rotation.matrix, per_matrix_rotation(d, ref))
            assert lat.dilation == float(ref.uniform(1.0, 2.0))

    def test_projection_widths_equal_scalar_oracle_row_by_row(self):
        for s in width_oracle_sets().values():
            rng = trial_rng(8, s.dimension)
            u = np.array([per_matrix_rotation(s.dimension, rng)[:, 0] for _ in range(1000)])
            expected = [scalar_projection_width(s, row) for row in u]
            assert _projection_widths(s, u).tolist() == expected
            rho = sample_rotation(s.dimension, rng)
            assert projection_width(s, rho) == scalar_projection_width(s, rho.first_axis_image())

    def test_row_wise_merge_equals_scalar_merge(self):
        rng = trial_rng(9, 0)
        for n in range(1, 13):
            lo = np.round(rng.uniform(-3, 3, (200, n)), 1)  # rounded, so that ends tie
            hi = lo + np.round(rng.uniform(0, 2, (200, n)), 1)
            expected = [merged_length(list(zip(a, b))) for a, b in zip(lo.tolist(), hi.tolist())]
            assert _merged_lengths(lo, hi).tolist() == expected

    def test_stacked_check_rejects_a_bad_matrix_anywhere_in_the_stack(self):
        good = np.stack([rotation_2d(a).matrix for a in (0.1, 0.7, 2.0)])
        _check_rotations(good, np.linalg.det(good))
        skewed = good.copy()
        skewed[1] = [[1.0, 0.1], [0.0, 1.0]]
        with pytest.raises(ValueError, match="orthogonal"):
            _check_rotations(skewed, np.linalg.det(skewed))
        reflected = good.copy()
        reflected[2, :, 0] *= -1.0
        with pytest.raises(ValueError, match="determinant"):
            _check_rotations(reflected, np.linalg.det(reflected))
        signs = np.array([1.0, -1.0, 1.0 + 1e-9]).reshape(-1, 1, 1)
        with pytest.raises(ValueError):
            _check_rotations(signs, signs[:, 0, 0])


class TestSerialization:
    def test_round_trip(self):
        s = EuclideanSet(2, [Ball([0.5, -1.0], 2.0), AxisBox([0, 0], [1, 2])])
        back = EuclideanSet.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back.dimension == 2
        assert isinstance(back.pieces[0], Ball)
        assert back.pieces[0].radius == 2.0
        assert np.allclose(back.pieces[1].upper, [1, 2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EuclideanSet.from_dict({"dimension": 2, "pieces": [{"kind": "torus"}]})


class TestValidation:
    def test_bad_radius(self):
        with pytest.raises(ValueError):
            Ball([0, 0], 0.0)

    def test_bad_corners(self):
        with pytest.raises(ValueError):
            AxisBox([0, 0], [1, 0])

    def test_dimension_mismatch_piece(self):
        with pytest.raises(ValueError):
            EuclideanSet(2, [Ball([0, 0, 0], 1.0)])

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            Rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_reflection_rejected_above_one_dimension(self):
        with pytest.raises(ValueError):
            Rotation(np.diag([1.0, -1.0]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nan_matrix_rejected(self, d):
        with pytest.raises(ValueError, match="orthogonal"):
            Rotation(np.full((d, d), np.nan))
        stack = np.stack([np.eye(d)] * 3)
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="orthogonal"):
            _check_rotations(stack, np.ones(3))
        with pytest.raises(ValueError):
            _check_rotations(np.stack([np.eye(d)] * 3), np.array([1.0, np.nan, 1.0]))
