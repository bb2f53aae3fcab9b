"""Geometry: membership, measure, rotations, widths, cover bounds."""

import itertools
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
    _GRID_CELL_CAP,
    _WIDTH_BLOCK,
    _check_rotations,
    _magnitude_bound,
    _mean_width_mc,
    _merged_lengths,
    _projection_widths,
    _grid_cover_cells,
)
from ulat import geometry
from ulat.lattice import sample_lattice
from ulat.mc import mean_stderr, run_trials, trial_rng


def piece_cells(p, side: float) -> np.ndarray:
    """The side-s grid cells that a piece meets, as the rows of an (n, d)
    int array: a box's bounding cell range, or the cells of a ball's
    bounding range within its radius."""
    lo, hi = p.bounds()
    axes = map(np.arange, np.floor(lo / side).astype(int), np.ceil(hi / side).astype(int))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p.dimension)
    if isinstance(p, Ball):
        gap = np.maximum(np.maximum(mesh * side - p.center, p.center - (mesh * side + side)), 0)
        mesh = mesh[np.sum(gap * gap, axis=1) <= p.radius**2]
    return mesh


def certify_self_cover(cover: CoverCandidate, target: EuclideanSet) -> bool:
    """Exact check of a self cover: ball i is piece i where that piece is a
    ball, and holds all 2^d corners of piece i where it is a box."""
    if len(cover.balls) != len(target.pieces):
        return False
    for b, p in zip(cover.balls, target.pieces):
        if isinstance(p, Ball):
            if not (np.array_equal(b.center, p.center) and b.radius == p.radius):
                return False
        else:
            corners = np.array(list(itertools.product(*zip(p.lower, p.upper))))
            if not bool(np.all(b.contains(corners))):
                return False
    return True


def certify_grid_cover(cover: CoverCandidate, target: EuclideanSet) -> bool:
    """Exact check of a grid cover: every ball is the circumscribed ball of a
    dyadic side-s cell and holds that cell's corners, and every cell that a
    piece meets is among those cells."""
    d = target.dimension
    r = cover.balls[0].radius
    side = 2.0 ** round(math.log2(2.0 * r / math.sqrt(d)))
    if side * math.sqrt(d) / 2.0 != r or any(b.radius != r for b in cover.balls):
        return False
    centers = np.array([b.center for b in cover.balls])
    cells = np.rint(centers / side - 0.5)
    if not np.array_equal((cells + 0.5) * side, centers):
        return False
    # Each cell's corners against its ball, as Ball.contains tests them.
    corners = cells[:, None, :] * side + np.array(list(itertools.product((0.0, side), repeat=d)))
    diff = corners - centers[:, None, :]
    if not bool(np.all(np.einsum("bci,bci->bc", diff, diff) <= r**2 + 1e-15)):
        return False
    winner = cells.astype(int)
    needed = np.concatenate([piece_cells(p, side) for p in target.pieces])
    # Rows as keys of one mixed-radix code over the joint index range.
    both = np.concatenate([winner, needed])
    lo = both.min(axis=0)
    keys = [np.ravel_multi_index(tuple((x - lo).T), both.max(axis=0) - lo + 1) for x in (winner, needed)]
    return bool(np.all(np.isin(keys[1], keys[0])))


def certify_cover(cover: CoverCandidate, target: EuclideanSet) -> bool:
    """Exact check that the cover's balls cover the target, as a self cover
    or as a grid cover."""
    if not cover.balls:
        return target.is_empty()
    return certify_self_cover(cover, target) or certify_grid_cover(cover, target)


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


def reduction_contains(box: AxisBox, points: np.ndarray) -> np.ndarray:
    """Reference: the (..., d) comparison and all-reduction form of
    AxisBox.contains."""
    return np.all((points >= box.lower - 1e-15) & (points <= box.upper + 1e-15), axis=-1)


@st.composite
def box_and_points(draw):
    """A box in d = 1-3 and points of shape (d,), (n, d) or (a, b, d) whose
    coordinates sit on the box's faces, on either side of the 1e-15
    tolerance edge, inside, outside or at NaN."""
    d = draw(st.integers(1, 3))
    lower = np.array(draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 10), min_size=d, max_size=d)))
    box = AxisBox(lower, lower + width)
    lo, hi = box.lower - 1e-15, box.upper + 1e-15
    table = np.stack(
        [
            box.lower, box.upper, box.lower - 1e-15, box.lower + 1e-15,
            box.upper - 1e-15, box.upper + 1e-15, np.nextafter(lo, -np.inf),
            np.nextafter(hi, np.inf), box.center(), box.lower - 1.0, box.upper + 1.0,
            np.full(d, np.nan),
        ]
    )
    shape = draw(st.sampled_from([(), (7,), (2, 3)])) + (d,)
    n = math.prod(shape)
    rows = draw(st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n))
    points = table[np.array(rows), np.arange(n) % d].reshape(shape)
    return box, points


class TestAxisBoxContains:
    @given(box_and_points())
    @settings(max_examples=300, deadline=None)
    def test_equals_reduction_form(self, case):
        box, points = case
        got, want = box.contains(points), reduction_contains(box, points)
        assert np.shape(got) == np.shape(want) == points.shape[:-1]
        assert np.array_equal(got, want)
        assert isinstance(got, np.ndarray if points.ndim > 1 else np.bool_)

    def test_edges_and_nan(self):
        box = AxisBox([0.0, -1.0], [1.0, 2.0])
        pts = np.array(
            [[1.0, 2.0], [-1e-15, -1.0 - 1e-15], [1.0 + 1e-15, 0.0], [np.nan, 0.0],
             [0.5, np.nan], [1.0 + 3e-15, 0.0]]
        )
        assert box.contains(pts).tolist() == [True, True, True, False, False, False]


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

    def test_disjointness_is_tested_once_per_set(self, monkeypatch):
        from ulat.functions import Gaussian, band_energy

        pairs = []
        surely_disjoint = geometry._surely_disjoint
        monkeypatch.setattr(
            geometry, "_surely_disjoint", lambda a, b: pairs.append(1) or surely_disjoint(a, b)
        )
        pieces = [Ball([0.0, 0.0], 0.5), Ball([3.0, 0.0], 0.5), AxisBox([0.0, 2.0], [1.0, 3.0])]
        s = EuclideanSet(2, pieces)
        lebesgue_measure(s)
        band_energy(Gaussian(1.0, 2), s, "hat")
        cover_measure_upper(s)
        assert s.pairwise_disjoint() and len(pairs) == 3
        assert EuclideanSet(2, pieces).pairwise_disjoint() and len(pairs) == 6

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


# Largest relative errors of the width rule, as its docstring states: d = 2
# on random unions of up to three pieces and on the 16-disc ring, and d = 3.
CIRCLE_RULE_REL_ERROR = 1.1e-7
CIRCLE_RULE_RING_REL_ERROR = 2.1e-5
SPHERE_RULE_REL_ERROR = 1.1e-4


def random_width_set(d: int, rng, pieces: int | None = None) -> EuclideanSet:
    """One to three balls and boxes in [-2, 2]^d with sides and radii up to 2."""
    out = []
    for _ in range(pieces or int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            out.append(Ball(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 2))))
        else:
            lo = rng.uniform(-2, 2, d)
            out.append(AxisBox(lo, lo + rng.uniform(0.05, 2, d)))
    return EuclideanSet(d, out)


class TestMeanWidth:
    def test_unit_ball_constant_integrand(self):
        est = mean_width(EuclideanSet(2, [Ball([0, 0], 1.0)]))
        assert est.value == pytest.approx(2.0, rel=1e-15)
        assert est.stderr == 0.0 and not est.exact

    def test_scaling(self):
        est = mean_width(EuclideanSet(3, [Ball([0, 0, 0], 2.5)]))
        assert est.value == pytest.approx(5.0, rel=1e-14)
        assert est.stderr == 0.0 and not est.exact

    def test_disc_ring_against_angle_sweep_oracle(self):
        from ulat.annihilation import disc_ring

        value = mean_width(disc_ring(16, 100.0)).value
        assert value == pytest.approx(DISC_RING_16_100_WIDTH, rel=CIRCLE_RULE_RING_REL_ERROR)

    def test_rotation_invariance_of_ball_union(self):
        pieces = [Ball([1.0, 0.0], 0.6), Ball([-0.4, 0.8], 0.3)]
        s = EuclideanSet(2, pieces)
        q = rotation_2d(1.1).matrix
        rotated = EuclideanSet(2, [Ball(q @ b.center, b.radius) for b in pieces])
        # The rule's angles are fixed, so the two values differ by its error.
        assert mean_width(rotated).value == pytest.approx(
            mean_width(s).value, rel=2 * CIRCLE_RULE_REL_ERROR
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_width_is_the_diameter(self, d):
        est = mean_width(EuclideanSet(d, [Ball(np.linspace(-1, 1, d), 0.7)]))
        assert est.value == pytest.approx(1.4, rel=1e-14)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.01, 3.0), (5.0, 5.0), (1e-3, 1e-3)])
    def test_box_in_the_plane(self, a, b):
        # The midpoint sum of |cos t| over n angles of [0, pi) is
        # 1 / sin(pi / 2n), so the rule gives exactly (a + b) / (n sin(pi / 2n)),
        # 2.5e-8 relative above 2 (a + b) / pi at n = 4096.
        n = geometry._CIRCLE_ANGLES
        est = mean_width(EuclideanSet(2, [AxisBox([0.3, -1.0], [0.3 + a, -1.0 + b])]))
        assert est.value == pytest.approx((a + b) / (n * math.sin(math.pi / (2 * n))), rel=1e-12)
        assert est.value == pytest.approx(2 * (a + b) / math.pi, rel=2.5e-8)
        assert not est.exact

    @pytest.mark.parametrize("sides", [(1.0, 2.0, 3.0), (0.1, 1.0, 5.0), (1.0, 1.0, 1.0), (4.0, 1e-6, 1e-6)])
    def test_box_in_space(self, sides):
        lo = np.array([-0.5, 0.2, 1.0])
        est = mean_width(EuclideanSet(3, [AxisBox(lo, lo + np.array(sides))]))
        assert est.value == pytest.approx(sum(sides) / 2, rel=SPHERE_RULE_REL_ERROR)

    @pytest.mark.parametrize("gap", [1.5, 4.0, 50.0])
    def test_two_separated_discs(self, gap):
        # Two discs of radius r with centres D apart (D > 2r): the width at
        # angle t to the centre line is 2r + min(2r, D |cos t|), whose mean
        # is 2r + (4 r alpha + 2 D (1 - sin alpha)) / pi, alpha = arccos(2r/D).
        r, dist = 0.5, gap
        s = EuclideanSet(2, [Ball([0.2, 0.1], r), Ball([0.2 + dist * 0.6, 0.1 + dist * 0.8], r)])
        alpha = math.acos(2 * r / dist)
        want = 2 * r + (4 * r * alpha + 2 * dist * (1 - math.sin(alpha))) / math.pi
        assert mean_width(s).value == pytest.approx(want, rel=CIRCLE_RULE_REL_ERROR)

    def test_disjoint_projections_add(self):
        # Only on the line can projections be disjoint in every direction:
        # in the plane and in space two pieces overlap when projected onto a
        # direction orthogonal to the segment between two of their points.
        pieces = [AxisBox([-3.0], [-2.5]), Ball([0.0], 0.4), AxisBox([1.0], [2.25])]
        assert mean_width(EuclideanSet(1, pieces)).value == pytest.approx(0.5 + 0.8 + 1.25, rel=1e-15)

    def test_dimension_four_rejected_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the rule ran on a 4-D set")

        monkeypatch.setattr(geometry, "_projection_widths", forbidden)
        monkeypatch.setattr(geometry, "_direction_rule", forbidden)
        with pytest.raises(ValueError, match="dimensions 1 to 3"):
            mean_width(EuclideanSet(4, [Ball(np.zeros(4), 1.0)]))

    def test_many_pieces_in_the_plane(self):
        # The rule's cost is linear in the pieces, so a ring of 300 discs
        # takes no cap; its error grows with the crossings, yet stays far
        # inside the Monte Carlo window.
        from ulat.annihilation import disc_ring

        s = disc_ring(300, 3000.0)
        mc = _mean_width_mc(s, trials=512, seed=3)
        assert abs(mean_width(s).value - mc.value) <= 4 * mc.stderr

    @pytest.mark.parametrize("d", [2, 3])
    def test_merge_blocks_do_not_change_the_value(self, d, monkeypatch):
        from ulat.annihilation import disc_ring

        s = disc_ring(16, 160.0) if d == 2 else width_oracle_sets()["mixed-3d"]
        whole = mean_width(s).value
        monkeypatch.setattr(geometry, "_WIDTH_BLOCK_ENTRIES", 1000)
        assert mean_width(s).value == pytest.approx(whole, rel=1e-13)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mean_width(EuclideanSet(2, []))

    @pytest.mark.parametrize("d", [2, 3])
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.05, 20.0))
    @settings(max_examples=25, deadline=None)
    def test_translation_and_scaling(self, d, seed, scale):
        rng = trial_rng(61, seed)
        s = random_width_set(d, rng)
        w = mean_width(s).value
        shifted = mean_width(s.translate(rng.uniform(-50, 50, d))).value
        assert shifted == pytest.approx(w, rel=1e-11)
        assert mean_width(s.scale(scale)).value == pytest.approx(scale * w, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_adding_a_piece_never_lowers_the_width(self, d, seed):
        rng = trial_rng(62, seed)
        s = random_width_set(d, rng)
        bigger = EuclideanSet(d, s.pieces + random_width_set(d, rng, pieces=1).pieces)
        w = mean_width(s).value
        assert mean_width(bigger).value >= w * (1 - 1e-13)

    @pytest.mark.parametrize("d", [2, 3])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_agrees_with_monte_carlo_within_four_standard_errors(self, d, seed):
        s = random_width_set(d, trial_rng(63, seed))
        rule = mean_width(s).value
        mc = _mean_width_mc(s, trials=2048, seed=seed)
        assert abs(rule - mc.value) <= 4 * mc.stderr + 1e-12 * rule


def assert_halving_keeps_the_plain_bits(method, plain_form):
    """``method(box)`` has the bits of ``plain_form(box)`` on random boxes
    in d = 1-3 with coordinates inside the input range, below 1e12 < 2^40,
    wherever the halvings are exact, that is for coordinates of magnitude 0
    or at least 2^-1021."""
    def exact(x):
        return (x == 0) | (np.abs(x) >= 2.0**-1021)

    rng = trial_rng(42, 0)
    checked = 0
    for d in (1, 2, 3):
        for _ in range(300):
            ends = rng.uniform(-1, 1, (2, d)) * 10.0 ** rng.integers(-300, 12, (2, d))
            ends[rng.random((2, d)) < 0.1] = 0.0
            lower = np.min(ends, axis=0)
            upper = np.maximum(np.max(ends, axis=0), np.nextafter(lower, np.inf))
            box = AxisBox(lower, upper)
            plain = plain_form(box)
            keep = exact(box.lower) & exact(box.upper)
            assert method(box)[keep].tobytes() == plain[keep].tobytes()
            checked += int(np.count_nonzero(keep))
    assert checked > 1000


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
        assert certify_cover(cover, s)

    def test_certificate_rejects_broken_covers(self):
        thin = EuclideanSet(2, [AxisBox([0.0, 0.0], [1.0, 0.01])])
        grid = cover_measure_upper(thin)
        assert certify_grid_cover(grid, thin)
        assert not certify_cover(CoverCandidate(grid.balls[:-1], grid.value), thin)
        # One cell up: still a cell's circumscribed ball, but not the box's cell.
        side = grid.balls[1].center[0] - grid.balls[0].center[0]
        moved = Ball(grid.balls[0].center + [0.0, side], grid.balls[0].radius)
        assert not certify_cover(CoverCandidate((moved,) + grid.balls[1:], grid.value), thin)
        s = EuclideanSet(2, [Ball([0.4, -0.2], 0.9), AxisBox([1.0, 1.0], [2.0, 1.7])])
        own = cover_measure_upper(s)
        assert certify_self_cover(own, s)
        box_ball = own.balls[1]
        shrunk = Ball(box_ball.center, box_ball.radius * (1 - 1e-9))
        assert not certify_cover(CoverCandidate((own.balls[0], shrunk), own.value), s)
        assert not certify_cover(CoverCandidate((), 0.0), s)

    @pytest.mark.parametrize(
        "piece",
        [lambda: Ball([0.0], 1e17), lambda: AxisBox([1e18, 0.0], [1e18 + 256, 0.01]),
         lambda: Ball([0.0], 1e300)],
        ids=["ball-1e17", "box-at-1e18", "ball-1e300"],
    )
    def test_cell_indices_past_two_to_the_53_skip_their_scale(self, piece):
        # Cell indices past 2^53, where the int cast and the per-axis count
        # would wrap, need numbers past the input range, which no piece
        # takes.  At the range's edge the grid scales pass the cell cap and
        # the self cover stands.
        with pytest.raises(ValueError, match="must lie in"):
            piece()
        s = EuclideanSet(1, [Ball([0.0], 2.0**40)])
        assert all(_grid_cover_cells(s, 2.0**-j) is None for j in range(7))
        cover = cover_measure_upper(s)
        assert certify_cover(cover, s)
        assert cover.balls == s.pieces

    def test_wide_box_self_cover_is_finite(self):
        # A box of width 1e200 is past the range.  At its edge, 2^40, the
        # self cover's ball has the plain norm of the half widths (2^39,
        # 0.5, 0.5), 2^39, as radius and value min(r, r^3) = r.
        with pytest.raises(ValueError, match="must lie in"):
            AxisBox([0.0, 0.0, 0.0], [1e200, 1.0, 1.0])
        s = EuclideanSet(3, [AxisBox([0.0, 0.0, 0.0], [2.0**40, 1.0, 1.0])])
        cover = cover_measure_upper(s)
        assert cover.value == 2.0**39
        assert cover.balls[0].radius == 2.0**39

    def test_box_wider_than_the_float_range(self, monkeypatch):
        # [-1e308, 1e308] is past the range.  A box of the widest range,
        # [-2^40, 2^40] x [0, 2], has a finite volume that rules out every
        # grid scale, and its self cover's radius is its half-diagonal.
        with pytest.raises(ValueError, match="must lie in"):
            AxisBox([-1e308, 0.0], [1e308, 1.0])
        box = AxisBox([-(2.0**40), 0.0], [2.0**40, 2.0])
        assert box.half_widths().tolist() == [2.0**40, 1.0]
        sides = TestCoverPrune.count_grid_builds(monkeypatch)
        cover = cover_measure_upper(EuclideanSet(2, [box]))
        assert sides == []
        assert cover.value == 2.0**40 and cover.balls[0].radius == 2.0**40

    def test_half_widths_halve_the_plain_difference(self):
        # 0.5 * upper - 0.5 * lower has the bits of 0.5 * (upper - lower)
        # wherever the difference is finite and the halvings are exact.
        assert_halving_keeps_the_plain_bits(AxisBox.half_widths, lambda box: 0.5 * (box.upper - box.lower))

    def test_center_halves_the_plain_sum(self):
        # 0.5 * lower + 0.5 * upper has the bits of 0.5 * (lower + upper)
        # wherever the sum is finite and the halvings are exact.
        assert_halving_keeps_the_plain_bits(AxisBox.center, lambda box: 0.5 * (box.lower + box.upper))

    def test_box_whose_ends_add_past_the_float_range(self):
        # [1e308, 1.5e308] is past the range.  At its edge, the box
        # [2^39, 2^40] x [0, 1] has its self cover's ball at the centre
        # (1.5 2^39, 0.5), and mean width 2 (2^39 + 1) / pi.
        with pytest.raises(ValueError, match="must lie in"):
            AxisBox([1e308, 0.0], [1.5e308, 1.0])
        box = AxisBox([2.0**39, 0.0], [2.0**40, 1.0])
        assert box.center().tolist() == [1.5 * 2.0**39, 0.5]
        cover = cover_measure_upper(EuclideanSet(2, [box]))
        assert cover.value == 2.0**38 and len(cover.balls) == 1
        assert cover.balls[0].center.tolist() == [1.5 * 2.0**39, 0.5]
        assert mean_width(EuclideanSet(2, [box])).value == pytest.approx(2.0**40 / math.pi, rel=1e-7)

    def test_disc_whose_square_overflows(self):
        # The square of 1e300 overflows, so the disc is past the range; a
        # disc of radius 2^40 is its own cover.
        with pytest.raises(ValueError, match="must lie in"):
            Ball([0.0, 0.0], 1e300)
        s = EuclideanSet(2, [Ball([0.0, 0.0], 2.0**40)])
        cover = cover_measure_upper(s)
        assert cover.value == 2.0**40 and cover.balls[0] is s.pieces[0]

    def test_half_diagonal_keeps_the_plain_norm_where_it_is_finite(self):
        # Boxes of every width from 1e3 to 1e11 in range: the self cover
        # wins, and its ball has the box's centre and, as radius, the plain
        # norm of the half widths.
        rng = trial_rng(41, 0)
        for d in (1, 2, 3):
            for _ in range(200):
                lower = rng.uniform(-10, 10, d) * 10.0 ** rng.integers(-12, 10, d)
                box = AxisBox(lower, lower + 10.0 ** rng.uniform(3, 11, d))
                cover = cover_measure_upper(EuclideanSet(d, [box]))
                assert len(cover.balls) == 1
                assert cover.balls[0].radius == float(np.linalg.norm(box.half_widths()))
                assert cover.balls[0].center.tobytes() == box.center().tobytes()

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
            assert top in map(tuple, _grid_cover_cells(s, side).tolist())
        cover = cover_measure_upper(s)
        corner = np.array(upper)
        assert any(b.contains(corner) for b in cover.balls)


def set_grid_cover_cells(s: EuclideanSet, side: float) -> list[tuple[int, ...]] | None:
    """Oracle: each piece's cells added to a set of tuples, the running
    count checked after each piece."""
    cells: set[tuple[int, ...]] = set()
    for p in s.pieces:
        lo, hi = p.bounds()
        lo_idx = np.floor(lo / side).astype(int)
        hi_idx = np.ceil(hi / side).astype(int) - 1
        if np.prod(hi_idx - lo_idx + 1, dtype=float) > _GRID_CELL_CAP:
            return None
        cells.update(map(tuple, piece_cells(p, side).tolist()))
        if len(cells) > _GRID_CELL_CAP:
            return None
    return sorted(cells)


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
    candidates = [CoverCandidate(tuple(self_balls), float(np.sum(np.minimum(radii, radii**d))))]
    for j in range(max_level + 1):
        side = 2.0**-j
        cells = set_grid_cover_cells(s, side)
        if cells is None:
            continue
        r = side * math.sqrt(d) / 2.0
        balls = tuple(Ball((np.array(c, dtype=float) + 0.5) * side, r) for c in sorted(cells))
        candidates.append(CoverCandidate(balls, len(cells) * min(r, r**d)))
    return min(candidates, key=lambda c: c.value)


# The four frequency-set templates of the sweep benchmark.
SWEEP_TEMPLATES = [
    [Ball([0.0, 0.0], 1.0)],
    [Ball([0.0, 0.0], 0.8), Ball([1.5, 0.0], 0.5)],
    [AxisBox([-0.7, -0.5], [0.7, 0.5]), Ball([0.0, 1.0], 0.35)],
    [Ball([0.0, 0.0], 0.7), AxisBox([0.9, -0.4], [1.6, 0.4])],
]


def cover_oracle_sets() -> list[EuclideanSet]:
    from ulat.annihilation import disc_ring

    sets = [disc_ring(n, 10.0 * n) for n in (1, 4, 8, 16)]
    sets += [EuclideanSet(2, t).scale(k) for t in SWEEP_TEMPLATES for k in (0.9, 1.0, 1.1)]
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
    def test_array_cells_equal_the_set_of_tuples(self, index):
        s = cover_oracle_sets()[index]
        for j in range(7):
            side = 2.0**-j
            got, expected = _grid_cover_cells(s, side), set_grid_cover_cells(s, side)
            if expected is None:
                assert got is None
            else:
                assert got.tolist() == [list(c) for c in expected]

    @pytest.mark.parametrize("index", range(len(cover_oracle_sets())))
    def test_winner_only_cover_equals_full_candidate_minimum(self, index):
        s = cover_oracle_sets()[index]
        got, expected = cover_measure_upper(s), eight_candidate_cover(s)
        assert got.value == expected.value
        assert isinstance(got.balls, tuple)
        assert_same_balls(got, expected)
        assert certify_cover(got, s)


def assert_same_balls(got: CoverCandidate, expected: CoverCandidate) -> None:
    assert len(got.balls) == len(expected.balls)
    for a, b in zip(got.balls, expected.balls):
        assert np.array_equal(a.center, b.center) and a.radius == b.radius


@st.composite
def cover_test_sets(draw):
    """Unions of one to four balls and boxes in d = 1-3: thin boxes (where a
    grid cover wins), pieces centred inside the previous piece (overlap),
    boxes sharing a face or a corner with the previous one and balls at the
    touching distance (`pairwise_disjoint` fails for touching pieces), and
    coordinates on the 1/64 grid (whole cell counts)."""
    d = draw(st.integers(1, 3))
    reach = (2.0, 1.0, 0.5)[d - 1]  # keeps the oracle's finest meshes small
    coord = st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
        st.integers(-128, 128).map(lambda k: k / 64),
    )
    size = st.floats(0.01, reach)
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        c = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
        placement = draw(st.sampled_from(["free", "overlap", "touch"])) if pieces else "free"
        if placement == "overlap":
            lo, hi = pieces[-1].bounds()
            c = (lo + hi) / 2
        kind = draw(st.sampled_from(["ball", "box", "thin"]))
        if kind == "ball":
            r = draw(size) / 2
            if placement == "touch" and isinstance(pieces[-1], Ball):
                c = pieces[-1].center.copy()
                c[0] += pieces[-1].radius + r
            pieces.append(Ball(c, r))
            continue
        if kind == "box":
            widths = np.array(draw(st.lists(size, min_size=d, max_size=d)))
        else:
            widths = np.array(draw(st.lists(st.floats(0.001, 0.05), min_size=d, max_size=d)))
            widths[draw(st.integers(0, d - 1))] = draw(st.floats(0.5, 2.0))
        if placement == "touch" and isinstance(pieces[-1], AxisBox):
            c = pieces[-1].upper.copy()
            c[0] = pieces[-1].upper[0] if draw(st.booleans()) else pieces[-1].lower[0] - widths[0]
        pieces.append(AxisBox(c, c + widths))
    return EuclideanSet(d, pieces)


class TestCoverPrune:
    @given(s=cover_test_sets())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_pruned_cover_equals_the_full_candidate_minimum(self, s):
        got, expected = cover_measure_upper(s), eight_candidate_cover(s)
        assert got.value == expected.value
        assert_same_balls(got, expected)
        assert certify_cover(got, s)

    # |Σ|/s^d is a whole number at every scale; a grid ties the self cover
    # ([0,1]^d) or beats it at s = 1/2 with exactly 2 cells ([0,0.5]x[0,1]).
    UNIT_CUBES = [
        ([1.0], 0.5, [[0.5]], 0.5),
        ([1.0, 1.0], 0.5000000000000001, [[0.5, 0.5]], 0.7071067811865476),
        ([1.0, 1.0, 1.0], 0.6495190528383289, [[0.5, 0.5, 0.5]], 0.8660254037844386),
        ([0.5, 1.0], 0.25000000000000006, [[0.25, 0.25], [0.25, 0.75]], 0.3535533905932738),
    ]

    @pytest.mark.parametrize("upper, value, centers, radius", UNIT_CUBES)
    def test_whole_cell_counts_keep_their_cover(self, upper, value, centers, radius):
        s = EuclideanSet(len(upper), [AxisBox(np.zeros(len(upper)), upper)])
        cover = cover_measure_upper(s)
        assert cover.value == value
        assert [b.center.tolist() for b in cover.balls] == centers
        assert all(b.radius == radius for b in cover.balls)
        assert_same_balls(cover, eight_candidate_cover(s))

    @pytest.mark.parametrize("ulps", [1, 4, 64])
    def test_volume_a_few_ulps_high_keeps_the_grid_winner(self, monkeypatch, ulps):
        # Without the 1e-12 shrink, an area of 0.5 plus one ulp over a cell
        # area of 1/4 gives a count bound of 3 > 2 cells and skips the
        # winning scale.
        exact = AxisBox.volume
        monkeypatch.setattr(
            AxisBox, "volume", lambda box: float(exact(box) * (1.0 + ulps * 2.0**-52))
        )
        s = EuclideanSet(2, [AxisBox([0.0, 0.0], [0.5, 1.0])])
        cover = cover_measure_upper(s)
        assert cover.value == 0.25000000000000006 and len(cover.balls) == 2

    @staticmethod
    def count_grid_builds(monkeypatch) -> list[float]:
        sides: list[float] = []
        build = geometry._grid_cover_cells

        def counted(s, side):
            sides.append(side)
            return build(s, side)

        monkeypatch.setattr(geometry, "_grid_cover_cells", counted)
        return sides

    @pytest.mark.parametrize("name", ["disc-ring-16", "sweep-0", "sweep-1", "two-balls-3d"])
    def test_disjoint_balls_build_no_scale(self, monkeypatch, name):
        from ulat.annihilation import disc_ring

        s = {
            "disc-ring-16": disc_ring(16, 160.0),
            "sweep-0": EuclideanSet(2, SWEEP_TEMPLATES[0]),
            "sweep-1": EuclideanSet(2, SWEEP_TEMPLATES[1]),
            "two-balls-3d": EuclideanSet(3, [Ball([0.0, 0.0, 0.0], 0.3), Ball([2.0, 0.0, 0.0], 1.5)]),
        }[name]
        sides = self.count_grid_builds(monkeypatch)
        cover = cover_measure_upper(s)
        assert sides == []
        assert all(b is p for b, p in zip(cover.balls, s.pieces))

    def test_thin_box_builds_the_scales_that_can_win(self, monkeypatch):
        # |Σ| = 0.01: side 1 is ruled out (one cell, value 1/2 against the
        # self cover's 0.25), every finer side is built.
        s = EuclideanSet(2, [AxisBox([0.0, 0.0], [1.0, 0.01])])
        sides = self.count_grid_builds(monkeypatch)
        cover_measure_upper(s)
        assert sides == [2.0**-j for j in range(1, 7)]

    def test_ball_volume_past_the_float_range_rules_out_every_scale(self, monkeypatch):
        # The volume of a 3-D ball of radius 1e120 overflows, so the ball is
        # past the range; at its edge, 2^40, the volume rules out every scale.
        with pytest.raises(ValueError, match="must lie in"):
            Ball([0.0, 0.0, 0.0], 1e120)
        s = EuclideanSet(3, [Ball([0.0, 0.0, 0.0], 2.0**40)])
        sides = self.count_grid_builds(monkeypatch)
        cover = cover_measure_upper(s)
        assert sides == [] and cover.value == 2.0**40 and cover.balls[0] is s.pieces[0]


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


def lexsort_merged_lengths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Oracle: the row-wise sweep merge after a lexsort by (lo, hi) and two
    gathers, the order the complex-key sort must reproduce."""
    order = np.lexsort((hi, lo), axis=-1)
    lo, hi = np.take_along_axis(lo, order, -1), np.take_along_axis(hi, order, -1)
    total = np.zeros(lo.shape[0])
    cur_lo, cur_hi = lo[:, 0], hi[:, 0]
    for j in range(1, lo.shape[1]):
        gap = lo[:, j] > cur_hi
        total = np.where(gap, total + (cur_hi - cur_lo), total)
        cur_lo = np.where(gap, lo[:, j], cur_lo)
        cur_hi = np.where(gap, hi[:, j], np.maximum(cur_hi, hi[:, j]))
    return total + (cur_hi - cur_lo)


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
        est = _mean_width_mc(s, trials=trials, seed=trials + 7)
        value, stderr = per_trial_mean_width(s, trials, trials + 7)
        assert est.value == value and est.stderr == stderr

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sample_rotation_equals_per_matrix_draws(self, d):
        rng, ref = trial_rng(31, d), trial_rng(31, d)
        for _ in range(200):
            assert np.array_equal(sample_rotation(d, rng).matrix, per_matrix_rotation(d, ref))
        assert rng.random() == ref.random()

    @given(
        d=st.integers(1, 6),
        streams=st.lists(
            st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**32 - 1)), min_size=1, max_size=64
        ),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_haar_stack_equals_public_linalg_per_matrix(self, d, streams):
        # The stack calls LAPACK's gufuncs directly; the oracle goes through
        # np.linalg.qr and np.linalg.det, so a numpy that parts the two
        # routes fails here.
        rngs = [trial_rng(seed, trial) for seed, trial in streams]
        refs = [trial_rng(seed, trial) for seed, trial in streams]
        q = geometry._haar_stack(d, rngs)
        expected = np.stack([per_matrix_rotation(d, ref) for ref in refs])
        assert q.dtype == expected.dtype and q.shape == expected.shape
        assert q.tobytes() == expected.tobytes()
        assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]

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
            # Some ends at -0.0 or +0.0, which tie with each other in the sort.
            zero_lo = rng.random((200, n)) < 0.15
            lo[zero_lo] = np.copysign(0.0, rng.uniform(-1, 1, zero_lo.sum()))
            hi = np.where(hi < lo, lo, hi)
            zero_hi = (lo <= 0) & (rng.random((200, n)) < 0.3)
            hi[zero_hi] = np.copysign(0.0, rng.uniform(-1, 1, zero_hi.sum()))
            got = _merged_lengths(lo, hi)
            expected = [merged_length(list(zip(a, b))) for a, b in zip(lo.tolist(), hi.tolist())]
            assert got.tolist() == expected
            assert got.tobytes() == lexsort_merged_lengths(lo, hi).tobytes()

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
        doc = {
            "dimension": 2,
            "pieces": [
                {"kind": "ball", "center": [0.5, -1.0], "radius": 2.0},
                {"kind": "box", "lower": [0, 0], "upper": [1, 2]},
            ],
        }
        back = EuclideanSet.from_dict(json.loads(json.dumps(doc)))
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

    def test_caller_arrays_stay_writable_and_pieces_frozen(self):
        center, lower, upper = np.zeros(2), np.zeros(2), np.ones(2)
        ball, box = Ball(center, 1.0), AxisBox(lower, upper)
        center[0] = lower[0] = 0.5
        upper[1] = 2.0
        assert ball.center.tolist() == [0.0, 0.0]
        assert (box.lower.tolist(), box.upper.tolist()) == ([0.0, 0.0], [1.0, 1.0])
        for frozen in (ball.center, box.lower, box.upper):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 3.0

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


class TestInputRange:
    def test_bound_keeps_every_power_finite(self):
        # (4 sqrt(d) M)^d <= 2^1000 for M = 2^e: d (2 + log2(d)/2 + e) <=
        # 1000, with e the largest such exponent up to 40.
        for d in range(1, 400):
            e = math.log2(_magnitude_bound(d))
            assert e == int(e) and d * (2 + math.log2(d) / 2 + e) <= 1000
            assert e == 40 or d * (3 + math.log2(d) / 2 + e) > 1000
        assert [_magnitude_bound(d) for d in (1, 3, 22, 23)] == [2.0**40] * 3 + [2.0**39]
        with pytest.raises(ValueError, match="dimension"):
            _magnitude_bound(0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**40 * (1 + 2**-52), -1e300])
    def test_pieces_reject_numbers_past_the_range(self, bad):
        with pytest.raises(ValueError, match="must lie in"):
            Ball([bad, 0.0], 1.0)
        with pytest.raises(ValueError, match=r"must lie in \[-2\^40, 2\^40\] in dimension 2"):
            AxisBox([0.0, min(bad, 0.0)], [1.0, max(bad, 1.0)])
        if bad > 0:
            with pytest.raises(ValueError, match="must lie in"):
                Ball([0.0, 0.0], bad)

    def test_pieces_at_the_edge_of_the_range(self):
        m = 2.0**40
        assert Ball([-m, m], m).radius == m
        assert AxisBox([-m, -m], [m, m]).volume() == 4 * m * m
        with pytest.raises(ValueError, match="lower < upper"):
            AxisBox([m, 0.0], [m, 1.0])
        with pytest.raises(ValueError, match="must lie in"):
            AxisBox([0.0] * 23, [2.0**39 * 1.5] + [1.0] * 22)
