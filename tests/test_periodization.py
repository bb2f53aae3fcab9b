"""Periodization: coefficient formula, Parseval, support, expectations."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulat.functions import (
    BoxIndicator,
    Combination,
    Gaussian,
    Modulated,
    TestFunction,
    Translated,
    norm_sq,
    tail_energy,
)
from ulat.geometry import AxisBox, Ball, EuclideanSet, Rotation
from ulat.lattice import (
    RandomLattice,
    integer_vectors_in_annulus,
    intersect,
    polar_constant,
    sample_lattice,
)
from ulat.mc import ExpectationReport, mean_stderr, run_trials, trial_rng
from ulat import periodization
from ulat.periodization import GRID_POINT_BUDGET, Periodization, _torus_grid, check_grid, default_grid_size


def eighth_box(d: int) -> BoxIndicator:
    side = 2.0 ** (-(d + 1) / d)
    return BoxIndicator(AxisBox([-side / 2] * d, [side / 2] * d))


def random_compact(d: int, rng) -> BoxIndicator:
    lo = rng.uniform(-0.4, 0.0, d)
    side = rng.uniform(0.3, 0.8)
    return BoxIndicator(AxisBox(lo, lo + side))


class TestCoefficients:
    def test_zero_coefficient_scaling(self):
        # |Ghat(0)|^2 = v |fhat(0)|^2.
        for seed in range(5):
            lat = sample_lattice(2, trial_rng(seed, 0))
            f = eighth_box(2)
            gamma = Periodization(f, lat)
            c0 = gamma.coefficient(np.zeros(2))
            assert abs(c0) ** 2 == pytest.approx(
                lat.dilation * abs(f.hat(np.zeros(2))) ** 2, rel=1e-12
            )

    def test_formula_exactness_100_random(self):
        # Accessor against the formula recomputed from raw matrix algebra.
        for trial in range(100):
            rng = trial_rng(10, trial)
            d = int(rng.integers(1, 4))
            f = Gaussian(float(rng.uniform(0.5, 2.0)), d) if rng.random() < 0.5 else random_compact(d, rng)
            lat = sample_lattice(d, rng)
            m = rng.integers(-6, 7, d).astype(float)
            got = Periodization(f, lat).coefficient(m)
            lam = lat.dilation * (lat.rotation.matrix.T @ m)
            expected = math.sqrt(lat.dilation) * complex(f.hat(lam))
            assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_fourier_series_reconstructs_spatial_sum(self):
        # Independent check of the coefficient formula: the series built
        # from closed-form coefficients must reproduce the defining sum.
        lat = sample_lattice(2, trial_rng(11, 0))
        gamma = Periodization(Gaussian(1.0, 2), lat)
        ms = np.stack(
            np.meshgrid(np.arange(-6, 7), np.arange(-6, 7), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        coeffs = gamma.coefficient(ms.astype(float))
        t = np.array([0.37, 0.81])
        series = np.sum(coeffs * np.exp(2j * math.pi * (ms @ t)))
        direct = gamma.value(t[None, :])[0]
        assert abs(series - direct) <= 1e-10


class TestValues:
    def test_periodic_in_each_axis(self):
        lat = sample_lattice(2, trial_rng(12, 0))
        for f in (Gaussian(1.0, 2), eighth_box(2)):
            gamma = Periodization(f, lat)
            t = np.array([[0.21, 0.68]])
            for shift in (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])):
                assert np.max(np.abs(gamma.value(t) - gamma.value(t + shift))) <= 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_separable_gaussian_grid_matches_generic(self, d):
        lat = sample_lattice(d, trial_rng(13, 0))
        gamma = Periodization(Gaussian(1.3, d), lat)
        n = 12
        assert np.max(np.abs(gamma.value_grid(n) - gamma.value(_torus_grid(n, d)))) <= 1e-12

    def test_theta_sums_past_the_cap_raise_before_allocating(self):
        # At a = 2^-40, the low end of the input range, the theta sums on a
        # 256 grid hold about 4e9 terms, some 31 GB per float64 temporary.
        gamma = Periodization(Gaussian(2.0**-40, 2), sample_lattice(2, trial_rng(13, 0)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="pass 4194304 terms"):
                gamma.value_grid(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# Grids that no torus grid may take: below one point per axis, one side past
# the 2-D budget, and a side whose grid would take about 9 GiB.
BAD_GRIDS = [0, -3, math.isqrt(GRID_POINT_BUDGET) + 1, 10**5]


class TestGridBudget:
    @pytest.mark.parametrize("n", BAD_GRIDS)
    @pytest.mark.parametrize(
        "make", ["support_mask", "support_runs", "value_grid-box", "value_grid-gaussian"]
    )
    def test_grids_past_the_rule_raise_before_allocating(self, n, make):
        # A grid of 0 or -3 points per axis used to reach numpy, and one of
        # 10^5 a MemoryError.
        name, _, kind = make.partition("-")
        source = Gaussian(1.0, 2) if kind == "gaussian" else eighth_box(2)
        gamma = Periodization(source, sample_lattice(2, trial_rng(13, 0)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid must be an integer >= 1|exceeds the budget"):
                getattr(gamma, name)(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_budget_boundary_in_each_dimension(self, d):
        side = 1
        while (side + 1) ** d <= GRID_POINT_BUDGET:
            side += 1
        check_grid(side, d)
        check_grid(np.int64(side), d)
        for n in (side + 1, np.int64(10**7)):
            with pytest.raises(ValueError, match="exceeds the budget"):
                check_grid(n, d)

    @pytest.mark.parametrize("n", [2.0, 8.5, "8"])
    def test_grid_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="grid must be an integer >= 1"):
            check_grid(n, 2)

    def test_support_fraction_takes_no_zero_grid_as_the_default(self):
        gamma = Periodization(eighth_box(2), sample_lattice(2, trial_rng(13, 0)))
        assert gamma.support_fraction() == gamma.support_fraction(default_grid_size(2))
        with pytest.raises(ValueError, match="grid must be an integer >= 1"):
            gamma.support_fraction(0)


GAUSSIAN_KINDS = [
    "plain", "translated", "modulated-2", "modulated-6", "modulated-8",
    "modulated-12", "combined", "combined-modulated-first",
]


class TestParseval:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.2, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("kind", GAUSSIAN_KINDS)
    def test_gaussian_gap(self, d, a, kind):
        # Both sides of the probe's Parseval identity agree for every kind
        # of Gaussian source; the combinations mix a zero and a |y| = 8
        # modulation, in both leaf orders.  At d = 2, a = 0.5 the |y| = 6
        # source overlaps an unmodulated probe only at the scale
        # exp(-pi |y|^2 / (1 + a)) ~ 1e-33, so a probe that dropped the
        # modulation would read a gap of order 1 there.
        rng = np.random.default_rng([d, round(10 * a), GAUSSIAN_KINDS.index(kind)])
        for t in range(3):
            f = gaussian_of_kind(kind, a, d, rng)
            lat = sample_lattice(d, trial_rng(20 + d, t))
            assert Periodization(f, lat).parseval_gap() <= 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["box", "modulated", "union"])
    def test_box_gap(self, d, kind):
        for t in range(3):
            rng = trial_rng(30 + d, t)
            lat = sample_lattice(d, rng)
            f = random_compact(d, rng)
            if kind == "modulated":
                f = Modulated(f, modulation(6.0, d, rng))
            elif kind == "union":
                f = Combination([(1.0, f), (1.0, Translated(random_compact(d, rng), [1.5] * d))])
            assert Periodization(f, lat).parseval_gap() <= 1e-6

    def test_three_energy_routes_agree_for_gaussian(self):
        # The closed-form lattice sum against two oracles: grid quadrature
        # of |G|^2, spectrally accurate for a smooth source, and the
        # coefficient sum v sum |fhat(lambda_m)|^2 over the ball outside of
        # which |fhat| < 1e-18.
        lat = sample_lattice(2, trial_rng(14, 0))
        f = Gaussian(1.0, 2)
        gamma = Periodization(f, lat)
        exact = gamma.energy()
        quadrature = float(np.mean(np.abs(gamma.value_grid(256)) ** 2))
        ms = integer_vectors_in_annulus(0.0, f.hat_radius(1e-18), 2).astype(float)
        coefficients = lat.dilation * float(np.sum(np.abs(f.hat(lat.points(ms))) ** 2))
        assert quadrature == pytest.approx(exact, rel=1e-10)
        assert coefficients == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_wide_gaussian_gap(self, d):
        # a = 0.05: the source is wide in space and narrow in frequency.
        for t in range(3):
            lat = sample_lattice(d, trial_rng(70 + d, t))
            assert Periodization(Gaussian(0.05, d), lat).parseval_gap() <= 1e-6


class TestSupportFraction:
    def test_bound_with_grid_tolerance(self):
        for d in (1, 2):
            f = eighth_box(d)
            for t in range(10):
                lat = sample_lattice(d, trial_rng(40 + d, t))
                frac = Periodization(f, lat).support_fraction(256)
                assert frac <= 2.0**d * 2.0 ** (-d - 1) + 2.0 * d / 256

    def test_tiny_support_tiny_fraction(self):
        tiny = BoxIndicator(AxisBox([-5e-4, -5e-4], [5e-4, 5e-4]))
        lat = sample_lattice(2, trial_rng(16, 0))
        assert Periodization(tiny, lat).support_fraction(256) <= 1e-2

    def test_translation_of_source_preserves_fraction_scale(self):
        # The support translate is another box union; its periodized
        # support fraction obeys the same dilation bound.
        f = Translated(eighth_box(2), [0.2, -0.1])
        lat = sample_lattice(2, trial_rng(17, 0))
        frac = Periodization(f, lat).support_fraction(256)
        assert frac <= 0.5 + 4.0 / 256

    def test_gaussian_rejected(self):
        lat = sample_lattice(2, trial_rng(18, 0))
        with pytest.raises(ValueError):
            Periodization(Gaussian(1.0, 2), lat).support_fraction(64)

    def test_default_grid_sizes(self):
        assert default_grid_size(1) == 256
        assert default_grid_size(2) == 256
        assert default_grid_size(3) == 64
        with pytest.raises(ValueError):
            default_grid_size(4)


def modulation(norm: float, d: int, rng) -> np.ndarray:
    y = rng.normal(size=d)
    return norm * y / np.linalg.norm(y)


def gaussian_of_kind(kind: str, a: float, d: int, rng) -> TestFunction:
    """A Gaussian of scale a: plain, translated, modulated by |y| = 2, 6, 8
    or 12, or a combination of a translated Gaussian and one modulated by
    |y| = 8, with either leaf first."""
    g = Gaussian(a, d)
    if kind == "plain":
        return g
    if kind == "translated":
        return Translated(g, rng.uniform(-2.0, 2.0, d))
    if kind.startswith("modulated"):
        return Modulated(g, modulation(float(kind.split("-")[1]), d, rng))
    terms = [(1.0, Translated(g, rng.uniform(-1.0, 1.0, d))), (0.5, Modulated(g, modulation(8.0, d, rng)))]
    return Combination(terms if kind == "combined" else terms[::-1])


def check_energy_expectation(f, trials: int = 1000, seed: int = 0) -> ExpectationReport:
    """Estimate E[||G||^2] over lattice draws against its analytic bound.

    The bound field carries 2 |fhat(0)|^2 + 2 S(d) ||f||^2 with S(d) the
    sphere-area scale 1/polar_constant(d), which dominates the averaging
    constant of the lattice sums.
    """
    support = f.support_set()
    if support is None:
        raise ValueError("energy expectation check requires a compactly supported source")
    d = f.dimension
    values = run_trials(
        lambda rng: Periodization(f, sample_lattice(d, rng)).energy(),
        trials,
        seed,
    )
    est, err = mean_stderr(values)
    fhat0_sq = float(np.abs(f.hat(np.zeros(d))) ** 2)
    total = norm_sq(f)
    bound = 2.0 * fhat0_sq + 2.0 * total / polar_constant(d)
    extras = {
        "fhat0_sq": fhat0_sq,
        "norm_sq": total,
        "respects_bound": bool(est <= bound),
    }
    return ExpectationReport(est, err, trials, bound, seed, extras=extras)


def check_tail_coeff_expectation(
    f,
    sigma: EuclideanSet,
    trials: int = 1000,
    seed: int = 0,
) -> ExpectationReport:
    """Estimate E[ sum_{m outside the intersection index set} |Ghat(m)|^2 ].

    The out-of-set coefficient mass is the exact torus energy minus the
    finite in-set sum.  The reference right side is twice the hat-side
    tail energy of f outside sigma (the averaging constant itself is not
    asserted, only reported).
    """
    if not sigma.contains(np.zeros(sigma.dimension)):
        raise ValueError("the frequency set must contain the origin")
    d = f.dimension

    def one(rng: np.random.Generator) -> float:
        lat = sample_lattice(d, rng)
        gamma = Periodization(f, lat)
        inside = intersect(lat, sigma)
        assert not inside.flags.writeable
        in_set = lat.dilation * float(np.sum(np.abs(f.hat(lat.points(inside.astype(float)))) ** 2))
        return max(gamma.energy() - in_set, 0.0)

    values = run_trials(one, trials, seed)
    est, err = mean_stderr(values)
    tail_hat = tail_energy(f, sigma, side="hat").value
    extras = {"tail_hat": tail_hat, "right_side": 2.0 * tail_hat}
    return ExpectationReport(est, err, trials, 2.0 * tail_hat, seed, extras=extras)


class TestEnergyExpectation:
    def test_eighth_cube_respects_bound_every_seed(self):
        f = eighth_box(2)
        for seed in range(5):
            rep = check_energy_expectation(f, trials=200, seed=seed)
            assert rep.extras["respects_bound"]
            assert rep.estimate <= rep.bound

    def test_pointwise_doubling_quadruples(self):
        f = eighth_box(2)
        doubled = Combination([(2.0, f)])
        a = check_energy_expectation(f, trials=150, seed=3)
        b = check_energy_expectation(doubled, trials=150, seed=3)
        assert b.estimate == pytest.approx(4.0 * a.estimate, rel=1e-12)

    def test_indicator_zero_coefficient_inequality(self):
        # |fhat(0)|^2 <= |S| ||f||^2, with equality for plain indicators.
        f = eighth_box(2)
        fhat0_sq = abs(f.hat(np.zeros(2))) ** 2
        support_measure = 0.125
        assert fhat0_sq == pytest.approx(support_measure * norm_sq(f), rel=1e-12)
        g = Combination([(1.0, f), (0.5, Translated(f, [0.9, 0.9]))])
        assert abs(g.hat(np.zeros(2))) ** 2 <= 0.25 * norm_sq(g) + 1e-12

    def test_gaussian_rejected(self):
        with pytest.raises(ValueError):
            check_energy_expectation(Gaussian(1.0, 2), trials=10, seed=0)


class TestTailCoefficientExpectation:
    def test_huge_sigma_negligible(self):
        f = Gaussian(1.0, 2)
        sigma = EuclideanSet(2, [Ball([0.0, 0.0], 8.0)])
        rep = check_tail_coeff_expectation(f, sigma, trials=100, seed=0)
        assert rep.estimate <= 1e-6 * norm_sq(f)

    def test_window_against_reference(self):
        f = Gaussian(1.0, 2)
        sigma = EuclideanSet(2, [Ball([0.0, 0.0], 2.0)])
        rep = check_tail_coeff_expectation(f, sigma, trials=400, seed=1)
        assert rep.estimate <= 50.0 * rep.extras["right_side"]

    def test_monotone_decreasing_in_radius(self):
        f = Gaussian(1.0, 2)
        values = []
        for radius in (1.0, 2.0, 4.0):
            rep = check_tail_coeff_expectation(
                f, EuclideanSet(2, [Ball([0.0, 0.0], radius)]), trials=250, seed=2
            )
            values.append((rep.estimate, rep.stderr))
        for (a, sa), (b, sb) in zip(values, values[1:]):
            assert b <= a + 3 * (sa + sb)

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            check_tail_coeff_expectation(
                Gaussian(1.0, 2), EuclideanSet(2, [Ball([9.0, 9.0], 1.0)]), trials=10, seed=0
            )


def loop_support_mask(gamma: Periodization, grid_n: int, ks=None) -> np.ndarray:
    """Reference mask: every grid point against every integer shift k.

    By default the shifts are every k with |k| <= v R + sqrt(d), R the
    support's bounding radius; ``ks`` replaces them by a given superset of
    the shifts that can reach the support.
    """
    support = gamma.source.support_set()
    d = gamma.dimension
    v = gamma.lattice.dilation
    grid = _torus_grid(grid_n, d)
    mat = gamma.lattice.rotation.matrix
    base = (grid @ mat) / v
    if ks is None:
        radius = v * support.bounding_radius() + math.sqrt(d) + 1e-9
        ks = integer_vectors_in_annulus(0.0, radius, d)
    mask = np.zeros(grid.shape[0], dtype=bool)
    for k in ks:
        offset = (k.astype(float) @ mat) / v
        mask |= support.contains(base + offset)
    return mask


def reaching_shifts(gamma: Periodization) -> np.ndarray:
    """Every integer k whose torus cell k + [0, 1)^d meets the preimage
    v rho(piece) of some support piece: the integer points of each preimage's
    bounding box, padded by one.  Far from the origin this is much smaller
    than the default ball of shifts."""
    rot, v = gamma.lattice.rotation, gamma.lattice.dilation
    blocks = []
    for piece in gamma.source.support_set().pieces:
        u = v * rot.apply(np.array(list(itertools.product(*zip(*piece.bounds())))))
        lo = np.floor(u.min(axis=0)).astype(int) - 1
        hi = np.ceil(u.max(axis=0)).astype(int) + 1
        axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
        blocks.append(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes)))
    return np.concatenate(blocks)


def fallback_points(monkeypatch, gamma: Periodization, grid_n: int):
    """The mask and the number of points it sent to ``AxisBox.contains``:
    only cells within the margin of a face reach the box test."""
    tested = []
    contains = AxisBox.contains

    def spy(self, points):
        tested.append(len(points))
        return contains(self, points)

    with monkeypatch.context() as m:
        m.setattr(AxisBox, "contains", spy)
        mask = gamma.support_mask(grid_n)
    return mask, sum(tested)


def two_boxes(d: int, rng) -> Combination:
    a, b = random_compact(d, rng), random_compact(d, rng)
    return Combination([(1.0, a), (-0.5, Translated(b, rng.uniform(-0.6, 0.6, d)))])


class TestSupportRaster:
    """The rastered support mask equals the shift-by-shift loop bit for bit."""

    def test_criterion_9_draws(self):
        f = eighth_box(2)
        for seed in range(12):
            gamma = Periodization(f, sample_lattice(2, trial_rng(seed, 0)))
            assert np.array_equal(gamma.support_mask(512), loop_support_mask(gamma, 512))

    @pytest.mark.parametrize("d,grid_n", [(1, 997), (2, 96), (3, 24)])
    @pytest.mark.parametrize("kind", ["box", "combination", "translated"])
    def test_sources_and_dimensions(self, d, grid_n, kind):
        rng = np.random.default_rng(100 * d + len(kind))
        for _ in range(6):
            if kind == "box":
                f = random_compact(d, rng)
            elif kind == "combination":
                f = two_boxes(d, rng)
            else:
                f = Translated(eighth_box(d), rng.uniform(-2.0, 2.0, d))
            gamma = Periodization(f, sample_lattice(d, rng))
            mask = gamma.support_mask(grid_n)
            assert mask.shape == (grid_n**d,)
            assert np.array_equal(mask, loop_support_mask(gamma, grid_n))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("grid_n", [2, 3, 5, 7])
    def test_coarse_grids_cut_axes_into_many_shift_runs(self, d, grid_n):
        # On coarse grids a piece's raster spans several periods per axis,
        # so each axis splits into three or more runs of one shift k.
        rng = np.random.default_rng(10 * d + grid_n)
        most_runs = 0
        for _ in range(5):
            side = rng.uniform(0.5, 2.5)
            f = Translated(BoxIndicator(AxisBox([0.0] * d, [side] * d)), rng.uniform(-2, 2, d))
            gamma = Periodization(f, sample_lattice(d, rng))
            assert np.array_equal(gamma.support_mask(grid_n), loop_support_mask(gamma, grid_n))
            box = f.support_set().pieces[0]
            corners = np.array(list(itertools.product(*zip(*box.bounds()))))
            u = grid_n * gamma.lattice.dilation * gamma.lattice.rotation.apply(corners)
            lo = np.floor(u.min(axis=0)).astype(int) - 1
            hi = np.ceil(u.max(axis=0)).astype(int) + 1
            most_runs = max(most_runs, int(np.max(hi // grid_n - lo // grid_n + 1)))
        assert most_runs >= 3

    def test_single_point_grid(self):
        gamma = Periodization(eighth_box(2), sample_lattice(2, trial_rng(5, 0)))
        assert np.array_equal(gamma.support_mask(1), loop_support_mask(gamma, 1))

    @given(
        d=st.integers(1, 3),
        grid_n=st.sampled_from([1, 2, 3, 5, 7, 16, 64]),
        kind=st.sampled_from(["box", "combination", "translated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_sources_far_and_near(self, d, grid_n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "box":
            lo = rng.uniform(-1.0, 1.0, d)
            f = BoxIndicator(AxisBox(lo, lo + rng.uniform(1e-3, 1.5, d)))
        elif kind == "combination":
            f = two_boxes(d, rng)
        else:
            f = Translated(two_boxes(d, rng), rng.uniform(-1e3, 1e3, d))
        gamma = Periodization(f, sample_lattice(d, rng))
        expected = loop_support_mask(gamma, grid_n, reaching_shifts(gamma))
        assert np.array_equal(gamma.support_mask(grid_n), expected)

    @pytest.mark.parametrize("v", [1.25, 1.5, 1.75, 4 / 3])
    @pytest.mark.parametrize(
        "d,turn",
        [
            (1, "none"),
            (2, "none"),
            (2, "quarter"),
            (2, "half"),
            (3, "none"),
            (3, "quarter"),
            (3, "half"),
        ],
    )
    def test_faces_on_grid_points_use_the_exact_fallback(self, monkeypatch, d, turn, v):
        # With rho the identity or a quarter or half turn of the last two
        # axes, a face at j / (n v) holds grid points up to rounding, so
        # those cells fall in the band between the certain and the possible
        # run.  The half turn's zeros are -0.0, so u carries a signed zero.
        mat = np.eye(d)
        if turn == "quarter":
            mat[-2:, -2:] = [[0.0, -1.0], [1.0, 0.0]]
        elif turn == "half":
            mat[-2:, -2:] = -np.eye(2)
        lattice = RandomLattice(Rotation(mat), v)
        n = 12 if d == 3 else 16
        rng = np.random.default_rng(round(100 * v) + 10 * d + len(turn))
        for _ in range(4):
            j = rng.integers(-2 * n, 2 * n, d)
            box = AxisBox(j / (n * v), (j + rng.integers(1, n, d)) / (n * v))
            gamma = Periodization(BoxIndicator(box), lattice)
            mask, tested = fallback_points(monkeypatch, gamma, n)
            assert tested > 0
            assert np.array_equal(mask, loop_support_mask(gamma, n))

    @pytest.mark.parametrize("far", [1e4, 1e6, 1e8])
    def test_margin_grows_with_the_coordinates(self, monkeypatch, far):
        # Far from the origin a coordinate's rounding passes 1e-9, so only a
        # margin that grows with the coordinates keeps the band exact.
        v, n = 1.25, 16
        lattice = RandomLattice(Rotation(np.eye(2)), v)
        rng = np.random.default_rng(int(math.log10(far)))
        for _ in range(4):
            j = rng.integers(-2 * n, 2 * n, 2) + round(far * n * v)
            box = AxisBox(j / (n * v), (j + rng.integers(1, n, 2)) / (n * v))
            gamma = Periodization(BoxIndicator(box), lattice)
            mask, tested = fallback_points(monkeypatch, gamma, n)
            assert tested > 0
            assert np.array_equal(mask, loop_support_mask(gamma, n, reaching_shifts(gamma)))

    def test_far_source_keeps_the_band_thin(self, monkeypatch):
        # The criterion-9 box at (1e8, 1e8), where a coordinate's ulp is
        # about 1.5e-8: the margin 64 eps (1 + M), about 1.4e-6, keeps the
        # band of tested cells at the faces, where 1e-9 (1 + M) sent 88 827
        # cells per mask to the box test.
        f = Translated(eighth_box(2), [1e8, 1e8])
        for i in range(10):
            gamma = Periodization(f, sample_lattice(2, trial_rng(7, i)))
            mask, tested = fallback_points(monkeypatch, gamma, 512)
            assert np.array_equal(mask, loop_support_mask(gamma, 512, reaching_shifts(gamma)))
            assert tested < 0.01 * 88_827

    def test_row_constant_coordinate(self, monkeypatch):
        # A turn in the plane of axes 0 and 2 leaves x_1 = (t_1 + k_1)/v
        # constant along each row, so u_1 = 0 exactly and axis 1's faces
        # keep or drop whole rows; faces at j / (n v) put rows in the band.
        c, s = math.cos(0.3), math.sin(0.3)
        lattice = RandomLattice(Rotation([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]]), 1.5)
        n = 16
        assert lattice.rotation.matrix[-1][1] == 0.0
        box = AxisBox([-0.3, 3 / (n * 1.5), -0.2], [0.25, 11 / (n * 1.5), 0.35])
        gamma = Periodization(BoxIndicator(box), lattice)
        mask, tested = fallback_points(monkeypatch, gamma, n)
        assert tested >= n
        assert np.array_equal(mask, loop_support_mask(gamma, n))
        rows = mask.reshape(n, n, n).any(axis=(0, 2))
        assert rows.any() and not rows.all()


def random_source(kind: str, d: int, rng) -> TestFunction:
    """A box of side 1e-3 to 1.5 near the origin, two boxes, or two boxes
    translated by up to 1e3."""
    if kind == "box":
        lo = rng.uniform(-1.0, 1.0, d)
        return BoxIndicator(AxisBox(lo, lo + rng.uniform(1e-3, 1.5, d)))
    if kind == "combination":
        return two_boxes(d, rng)
    return Translated(two_boxes(d, rng), rng.uniform(-1e3, 1e3, d))


def runs_mask(runs: np.ndarray, size: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    for start, stop in runs:
        mask[start:stop] = True
    return mask


def check_runs(runs: np.ndarray, n: int) -> None:
    """Sorted, disjoint, non-empty runs, each inside one row of n points,
    no two of them touching within a row."""
    start, stop = runs[:, 0], runs[:, 1]
    assert runs.ndim == 2 and runs.shape[1] == 2
    assert np.all(start < stop)
    assert np.all(start // n == (stop - 1) // n)
    assert np.all((start[1:] > stop[:-1]) | ((start[1:] == stop[:-1]) & (start[1:] % n == 0)))


class TestSupportRuns:
    """The runs are a canonical form of the support mask."""

    @given(
        d=st.integers(1, 3),
        grid_n=st.sampled_from([1, 2, 3, 5, 7, 16, 64]),
        kind=st.sampled_from(["box", "combination", "translated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_runs_equal_the_loop_oracle_property(self, d, grid_n, kind, seed):
        rng = np.random.default_rng(seed)
        gamma = Periodization(random_source(kind, d, rng), sample_lattice(d, rng))
        runs = gamma.support_runs(grid_n)
        check_runs(runs, grid_n)
        expected = loop_support_mask(gamma, grid_n, reaching_shifts(gamma))
        assert np.array_equal(runs_mask(runs, grid_n**d), expected)
        assert int(np.sum(runs[:, 1] - runs[:, 0])) == np.count_nonzero(expected)

    @pytest.mark.parametrize(
        "d,grid_n,partial", [(1, 5, False), (2, 3, True), (2, 64, False), (3, 4, True), (3, 16, True)]
    )
    def test_chunks_of_rows_and_partial_unions(self, monkeypatch, d, grid_n, partial):
        # One preimage row per chunk.  On coarse grids the preimages span
        # many periods, so the runs are merged before the last chunk too.
        merges = []
        merge = periodization._merge_runs

        def spy(found):
            merges.append(len(found))
            return merge(found)

        rng = np.random.default_rng(10 * d + grid_n)
        for _ in range(4):
            side = rng.uniform(0.5, 2.5)
            f = Translated(BoxIndicator(AxisBox([0.0] * d, [side] * d)), rng.uniform(-2, 2, d))
            gamma = Periodization(f, sample_lattice(d, rng))
            whole = gamma.support_runs(grid_n)
            with monkeypatch.context() as patch:
                patch.setattr(periodization, "_RUN_CHUNK_POINTS", 1)
                patch.setattr(periodization, "_merge_runs", spy)
                runs = gamma.support_runs(grid_n)
            assert np.array_equal(runs, whole)
            check_runs(runs, grid_n)
            assert np.array_equal(runs_mask(runs, grid_n**d), loop_support_mask(gamma, grid_n))
        assert (len(merges) > 4) == partial

    def test_mask_and_fraction_come_from_the_runs(self):
        f = eighth_box(2)
        for seed in range(4):
            gamma = Periodization(f, sample_lattice(2, trial_rng(seed, 0)))
            runs = gamma.support_runs(128)
            mask = gamma.support_mask(128)
            assert mask.dtype == bool and np.array_equal(mask, runs_mask(runs, 128**2))
            assert gamma.support_fraction(128) == np.count_nonzero(mask) / mask.size
