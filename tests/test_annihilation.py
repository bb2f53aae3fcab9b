"""Annihilating-pair machinery: bounds, ratios, pipeline, sweep, sharpness."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ulat.annihilation import (
    AnnihilationInstance,
    _poly_on_grid,
    build_pipeline_context,
    disc_ring,
    disc_ring_experiment,
    observed_ratio,
    pair_exponent,
    pipeline_trace,
    translated_sweep,
)
from ulat.functions import BoxIndicator, Gaussian, Translated, norm_sq
from ulat import annihilation, geometry
from ulat.geometry import AxisBox, Ball, EuclideanSet, cover_measure_upper
from ulat.lattice import estimate_order, sample_lattice
from ulat.mc import mean_stderr, trial_rng
from ulat.periodization import Periodization

from test_lattice import loop_axis_hits
from test_periodization import loop_support_mask


def _pair_bound_value(c: float, exponent: float) -> float:
    """C exp(C m), or inf where it is past the largest float.

    exp(C m) alone overflows first when C < 1, so that case is retried on
    the log scale.
    """
    try:
        return c * math.exp(c * exponent)
    except OverflowError:
        pass
    try:
        return math.exp(math.log(c) + c * exponent)
    except OverflowError:
        return math.inf


def annihilation_bound(
    s_set: EuclideanSet,
    sigma_set: EuclideanSet,
    c: float,
    seed: int = 0,
) -> dict:
    """Exponential pair bound C exp(C min(|S||Sigma|, |S|^{1/d} w(Sigma),
    w(S) |Sigma|^{1/d})) for a caller-supplied constant C.

    The exponent comes from ``pair_exponent``; the report names which of
    the three terms achieved the min.  A bound past the largest float is
    reported as ``inf``.
    """
    if c <= 0:
        raise ValueError("the bound constant must be positive")
    terms, which = pair_exponent(s_set, sigma_set, seed=seed)
    exponent = terms[which]
    return {
        "value": _pair_bound_value(c, exponent),
        "exponent_term": exponent,
        "which": which,
        "terms": terms,
        "constant": c,
    }


def eighth_box_instance(sigma_radius: float = 2.0) -> AnnihilationInstance:
    side = 2.0 ** (-3 / 2)
    box = AxisBox([-side / 2] * 2, [side / 2] * 2)
    return AnnihilationInstance(
        BoxIndicator(box),
        EuclideanSet(2, [box]),
        EuclideanSet(2, [Ball([0.0, 0.0], sigma_radius)]),
    )


def gaussian_interval_instance(radius: float) -> AnnihilationInstance:
    s = EuclideanSet(1, [Ball([0.0], radius)])
    return AnnihilationInstance(Gaussian(1.0, 1), s, s)


def calibrate_pair_constant(ratios, exponent_terms) -> float:
    """Smallest C with C exp(C m_i) >= r_i for every instance of a family."""
    ratios = np.asarray(ratios, dtype=float)
    terms = np.asarray(exponent_terms, dtype=float)
    finite = np.isfinite(ratios)
    ratios, terms = ratios[finite], terms[finite]
    if len(ratios) == 0:
        return 0.0

    def ok(c: float) -> bool:
        return bool(np.all(c * np.exp(c * terms) >= ratios))

    hi = 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e9:
            return math.inf
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestAnnihilationBound:
    def test_mixed_term_wins_for_balls(self):
        for radius in (1.0, 2.0):
            s = EuclideanSet(2, [Ball([0.0, 0.0], radius)])
            rep = annihilation_bound(s, s, 1.0, seed=0)
            assert rep["which"] in ("s_measure_sigma_width", "s_width_sigma_measure")
            area = math.pi * radius**2
            assert rep["terms"]["measure_product"] == pytest.approx(area**2)
            assert rep["terms"]["s_measure_sigma_width"] == pytest.approx(
                math.sqrt(area) * 2 * radius, rel=1e-9
            )

    def test_vanishing_support_gives_constant(self):
        tiny = EuclideanSet(2, [Ball([0.0, 0.0], 1e-6)])
        sigma = EuclideanSet(2, [Ball([0.0, 0.0], 1.0)])
        rep = annihilation_bound(tiny, sigma, 2.5, seed=0)
        assert rep["value"] == pytest.approx(2.5, rel=1e-4)

    def test_scaling_keeps_measure_product_invariant(self):
        s = EuclideanSet(2, [Ball([0.0, 0.0], 1.0)])
        base = annihilation_bound(s, s, 1.0, seed=0)
        for lam in (2.0, 4.0):
            rep = annihilation_bound(s.scale(lam), s.scale(1.0 / lam), 1.0, seed=0)
            assert rep["terms"]["measure_product"] == pytest.approx(
                base["terms"]["measure_product"], rel=1e-9
            )
            assert rep["exponent_term"] <= rep["terms"]["measure_product"] * (1 + 1e-9)

    def test_rejects_nonpositive_constant(self):
        s = EuclideanSet(2, [Ball([0.0, 0.0], 1.0)])
        with pytest.raises(ValueError):
            annihilation_bound(s, s, 0.0)

    def test_huge_exponent_reports_inf(self):
        # The mixed terms are sqrt(1800 pi) * w with w > 60, far past e^709.
        s = EuclideanSet(2, [Ball([0.0, 0.0], 30.0), Ball([100.0, 0.0], 30.0)])
        rep = annihilation_bound(s, s, 1.0)
        assert rep["value"] == math.inf and rep["constant"] == 1.0
        assert math.isfinite(rep["exponent_term"]) and rep["exponent_term"] > 709.0

    def test_bound_is_finite_until_the_float_range_ends(self):
        # C m = 705: exp is finite and the product is taken as before.
        assert _pair_bound_value(0.5, 1410.0) == 0.5 * math.exp(705.0)
        # C m = 709.9: exp(C m) alone overflows, C exp(C m) = exp(709.207) does not.
        value = _pair_bound_value(0.5, 1419.8)
        assert math.isfinite(value)
        assert value == pytest.approx(math.exp(math.log(0.5) + 709.9), rel=1e-12)
        assert _pair_bound_value(0.5, 1422.0) == math.inf
        assert _pair_bound_value(2.0, 400.0) == math.inf

    def test_four_dimensions_rejected_before_any_measure(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a measure ran on a 4-D pair")

        monkeypatch.setattr(annihilation, "lebesgue_measure", forbidden)
        s = EuclideanSet(4, [Ball(np.zeros(4), 1.0)])
        with pytest.raises(ValueError, match="dimensions 1 to 3"):
            pair_exponent(s, s)


class TestWidthsDrawNoRandomNumbers:
    @pytest.fixture(autouse=True)
    def no_geometry_streams(self, monkeypatch):
        def forbidden(seed, i):
            raise AssertionError("a width drew random numbers")

        monkeypatch.setattr(geometry, "trial_rng", forbidden)

    def test_pipeline_context(self):
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst, grid_n=32)
        assert ctx.nu == min(cover_measure_upper(inst.freq_set).value, geometry.mean_width(inst.freq_set).value)

    def test_estimate_order_width(self):
        rep = estimate_order(EuclideanSet(2, [Ball([0.0, 0.0], 2.0)]), trials=4, seed=1)
        assert rep.extras["mean_width"] == pytest.approx(4.0, rel=1e-15)

    def test_annihilation_bound(self):
        s = EuclideanSet(2, [Ball([0.0, 0.0], 1.0), AxisBox([2.0, 2.0], [3.0, 2.5])])
        assert annihilation_bound(s, s, 1.0, seed=5) == annihilation_bound(s, s, 1.0, seed=6)


class TestObservedRatio:
    def test_huge_sets_hit_sentinel(self):
        s = EuclideanSet(1, [Ball([0.0], 40.0)])
        inst = AnnihilationInstance(Gaussian(1.0, 1), s, s)
        rep = observed_ratio(inst)
        assert rep["annihilated"] and rep["ratio"] == math.inf

    def test_gaussian_interval_against_quadrature(self):
        inst = gaussian_interval_instance(1.0)
        rep = observed_ratio(inst)
        # Dense-grid quadrature oracle for both tails.
        xs = np.linspace(1.0, 12.0, 1_000_001)
        xs = 0.5 * (xs[1:] + xs[:-1])
        tail = 2.0 * float(np.sum(np.exp(-2 * math.pi * xs**2))) * (xs[1] - xs[0])
        oracle = (2.0 ** -0.5) / (2.0 * tail)
        assert rep["ratio"] == pytest.approx(oracle, rel=0.01)

    def test_log_ratio_grows_like_radius_squared(self):
        radii = np.arange(0.6, 2.01, 0.2)
        ratios = [observed_ratio(gaussian_interval_instance(float(r)))["ratio"] for r in radii]
        res = stats.linregress(radii**2, np.log(ratios))
        assert res.slope > 0
        assert res.rvalue**2 >= 0.99

    def test_translation_invariance(self):
        # Shift the function and the time set; the frequency set keeps its
        # tail mass because translation only changes the transform's phase.
        inst = gaussian_interval_instance(1.0)
        x0 = np.array([0.35])
        shifted = AnnihilationInstance(
            Translated(Gaussian(1.0, 1), x0),
            inst.time_support.translate(x0),
            inst.freq_set,
        )
        a = observed_ratio(inst)
        b = observed_ratio(shifted)
        assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-9)

    def test_family_constant_finite_and_stable(self):
        radii = np.arange(0.6, 2.01, 0.2)
        ratios, terms = [], []
        for r in radii:
            inst = gaussian_interval_instance(float(r))
            rep = observed_ratio(inst)
            bound = annihilation_bound(inst.time_support, inst.freq_set, 1.0, seed=1)
            ratios.append(rep["ratio"])
            terms.append(bound["exponent_term"])
        c_star = calibrate_pair_constant(ratios, terms)
        assert math.isfinite(c_star)
        # The widths draw no random numbers and the intervals are measured
        # exactly, so another seed gives the same exponent terms.
        terms_b = [
            annihilation_bound(
                gaussian_interval_instance(float(r)).time_support,
                gaussian_interval_instance(float(r)).freq_set,
                1.0,
                seed=77,
            )["exponent_term"]
            for r in radii
        ]
        assert terms_b == terms
        c_star_b = calibrate_pair_constant(ratios, terms_b)
        assert abs(c_star_b - c_star) <= 0.1 * c_star


class TestPipeline:
    @pytest.mark.parametrize("grid_n", [None, 8])
    def test_context_rejects_four_dimensions_before_any_work(self, monkeypatch, grid_n):
        # The mean width takes d <= 3, so d = 4 fails first, grid or not.
        def forbidden(*args, **kwargs):
            raise AssertionError("the context did work on a 4-D instance")

        for name in ("lebesgue_measure", "tail_energy", "cover_measure_upper", "mean_width"):
            monkeypatch.setattr(annihilation, name, forbidden)
        box = AxisBox([-0.1] * 4, [0.1] * 4)
        inst = AnnihilationInstance(
            BoxIndicator(box), EuclideanSet(4, [box]), EuclideanSet(4, [Ball(np.zeros(4), 1.0)])
        )
        with pytest.raises(ValueError, match="limited to d <= 3"):
            build_pipeline_context(inst, grid_n=grid_n)

    def test_context_precondition_support_measure(self):
        side = 0.9
        box = AxisBox([-side / 2] * 2, [side / 2] * 2)
        inst = AnnihilationInstance(
            BoxIndicator(box),
            EuclideanSet(2, [box]),
            EuclideanSet(2, [Ball([0.0, 0.0], 2.0)]),
        )
        with pytest.raises(ValueError):
            build_pipeline_context(inst)

    def test_origin_required_in_sigma(self):
        side = 2.0 ** (-3 / 2)
        box = AxisBox([-side / 2] * 2, [side / 2] * 2)
        inst = AnnihilationInstance(
            BoxIndicator(box),
            EuclideanSet(2, [box]),
            EuclideanSet(2, [Ball([9.0, 9.0], 1.0)]),
        )
        with pytest.raises(ValueError):
            build_pipeline_context(inst)

    def test_huge_sigma_forces_trivial_remainder(self):
        inst = eighth_box_instance(sigma_radius=24.0)
        ctx = build_pipeline_context(inst)
        for seed in range(5):
            trace = pipeline_trace(inst, seed, context=ctx)
            assert trace.events["remainder_small"]
            assert trace.r_energy <= 4.0 * ctx.c_ref * ctx.tail_hat + 1e-12

    def test_zero_coefficient_domination_every_trace(self):
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst)
        for seed in range(20):
            trace = pipeline_trace(inst, seed, context=ctx)
            assert trace.events["zero_coeff_dominated"]

    def test_partition_energies_add_up(self):
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst)
        trace = pipeline_trace(inst, 3, context=ctx)
        assert trace.p_energy + trace.r_energy == pytest.approx(
            trace.total_energy, rel=1e-9
        )
        # No index may appear outside the in-set support of P.
        assert len(np.unique(trace.indices, axis=0)) == len(trace.indices)

    def test_chain_holds_when_all_events_fire(self):
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst)
        fired = 0
        for seed in range(30):
            trace = pipeline_trace(inst, seed, context=ctx)
            if trace.all_events:
                fired += 1
                assert trace.chain_holds
        assert fired > 0

    def test_trace_serializes(self):
        inst = eighth_box_instance()
        trace = pipeline_trace(inst, 0, context=build_pipeline_context(inst))
        doc = trace.to_dict()
        assert set(doc["events"]) == {
            "remainder_small",
            "order_small",
            "zero_set_large",
            "zero_coeff_dominated",
        }
        assert doc["exponent"] == doc["order"] - 2

    def test_fractions_equal_the_loop_oracles(self):
        # Criterion-9 draws at 512^2: the raster mask and the per-axis P give
        # the same fractions as the shift-by-shift mask and the direct sum.
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst)
        threshold = 4.0 * math.sqrt(ctx.c_ref * ctx.tail_hat)
        for seed in range(20):
            trace = pipeline_trace(inst, seed, context=ctx)
            lat = sample_lattice(2, trial_rng(seed, 0))
            assert lat.rotation.matrix.tolist() == trace.rotation
            mask = loop_support_mask(Periodization(inst.f, lat), 512)
            p_vals = loop_poly_on_grid(trace.indices, trace.p_coefficients, 512, 2)
            assert trace.zero_fraction == 1.0 - float(np.mean(mask))
            assert trace.tilde_fraction == float(np.mean(~mask & (np.abs(p_vals) <= threshold)))


def loop_poly_on_grid(indices, coeffs, n: int, d: int) -> np.ndarray:
    """Reference: the direct sum of one outer-product phase per coefficient."""
    t = np.arange(n) / n
    out = np.zeros(n**d, dtype=complex)
    for m, c in zip(indices, coeffs):
        phase = np.exp(2j * math.pi * m[0] * t)
        for mi in m[1:]:
            phase = np.multiply.outer(phase, np.exp(2j * math.pi * mi * t))
        out += c * phase.reshape(-1)
    return out


def root_table_loop(indices, coeffs, n: int, d: int) -> np.ndarray:
    """Reference: _poly_on_grid as a loop over the (A_i, n) root tables,
    before the contraction moved into turan."""
    residues = np.mod(indices, n)
    axes = [np.unique(residues[:, i], return_inverse=True) for i in range(d)]
    out = np.zeros(tuple(len(a) for a, _ in axes), dtype=complex)
    np.add.at(out, tuple(inv for _, inv in axes), coeffs)
    j = np.arange(n)
    for i in reversed(range(d)):
        a = axes[i][0]
        table = np.exp((2j * math.pi / n) * ((a[:, None] * j) % n))
        out = table.T @ out.reshape(-1, len(a), n ** (d - 1 - i))
    return out.reshape(-1)


@st.composite
def grid_polynomials(draw):
    """(d, n, indices, coefficients) with |m| up to 3n + 2 and repeated rows."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    m = st.integers(-3 * n - 2, 3 * n + 2)
    rows = draw(st.lists(st.tuples(*[m] * d), min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    part = st.floats(-1.0, 1.0)
    coeffs = [complex(draw(part), draw(part)) for _ in rows]
    return d, n, np.array(rows, dtype=int), np.array(coeffs)


class TestPolyOnGrid:
    @given(grid_polynomials())
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_sum_property(self, case):
        d, n, indices, coeffs = case
        got = _poly_on_grid(indices, coeffs, n, d)
        assert got.shape == (n**d,)
        assert np.max(np.abs(got - loop_poly_on_grid(indices, coeffs, n, d))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_repeated_and_aliased_indices_are_summed(self, n):
        indices = np.array([[1, -2], [1, -2], [1 + n, -2 - 3 * n], [0, 0]])
        coeffs = np.array([1.0, 2.0j, -0.5, 0.25])
        merged = _poly_on_grid(np.array([[1, -2], [0, 0]]), np.array([0.5 + 2.0j, 0.25]), n, 2)
        assert np.max(np.abs(_poly_on_grid(indices, coeffs, n, 2) - merged)) <= 1e-12

    @pytest.mark.parametrize("d,n", [(1, 64), (1, 7), (2, 32), (2, 5), (3, 12)])
    def test_fft_matches_direct_sum(self, d, n):
        # Named for the inverse FFT that the per-axis evaluator replaced.
        rng = np.random.default_rng(10 * d + n)
        indices = rng.integers(-3 * n, 3 * n + 1, size=(40, d))
        indices[0] = 0
        indices[1] = n
        indices[2] = -n - 1
        assert np.any(np.abs(indices) >= n)
        coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
        got = _poly_on_grid(indices, coeffs, n, d)
        want = loop_poly_on_grid(indices, coeffs, n, d)
        assert got.shape == (n**d,)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_equals_the_root_table_loop_bit_for_bit(self):
        # Criterion-9 draws at 512^2: the shared product-grid contraction,
        # fed the transposed root tables, repeats the old loop's matmuls.
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst)
        for seed in range(12):
            trace = pipeline_trace(inst, seed, context=ctx)
            got = _poly_on_grid(trace.indices, trace.p_coefficients, 512, 2)
            want = root_table_loop(trace.indices, trace.p_coefficients, 512, 2)
            assert got.tobytes() == want.tobytes()

    def test_pipeline_indices(self):
        inst = eighth_box_instance()
        trace = pipeline_trace(inst, seed=4, context=build_pipeline_context(inst, grid_n=64))
        got = _poly_on_grid(trace.indices, trace.p_coefficients, 64, 2)
        want = loop_poly_on_grid(trace.indices, trace.p_coefficients, 64, 2)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestTranslatedSweep:
    @pytest.mark.parametrize("per_axis", [0, -1])
    def test_empty_modulation_grid_rejected(self, per_axis):
        with pytest.raises(ValueError, match="per_axis must be >= 1"):
            translated_sweep(eighth_box_instance(), per_axis=per_axis)

    def test_zero_modulation_matches_plain_trace(self):
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst)
        sweep = translated_sweep(inst, per_axis=3, seed=5)
        rows0 = [r for r in sweep["rows"] if all(abs(c) < 1e-12 for c in r["y"])]
        assert rows0
        trace = pipeline_trace(inst, seed=5 + 100_003 * 0 + 0, context=ctx)
        # The y = 0 row with the same draw index reproduces the plain chain
        # value bit for bit when the first attempt already fires.
        y_index = next(
            i for i, r in enumerate(sweep["rows"]) if all(abs(c) < 1e-12 for c in r["y"])
        )
        direct = pipeline_trace(inst, seed=5 + 100_003 * y_index, context=ctx)
        if direct.all_events:
            assert rows0[0]["bound"] == direct.chain_value

    def test_bound_field_symmetric_under_reflection(self):
        inst = eighth_box_instance()
        sweep = translated_sweep(inst, per_axis=3, seed=9)
        by_key = {tuple(np.round(r["y"], 9)): r["direct"] for r in sweep["rows"]}
        for key, val in by_key.items():
            mirror = tuple(-c for c in key)
            assert mirror in by_key
            assert by_key[mirror] == pytest.approx(val, rel=1e-9)

    def test_aggregate_dominates_direct_quadrature(self):
        inst = eighth_box_instance()
        sweep = translated_sweep(inst, per_axis=3, seed=11)
        assert sweep["solved_fraction"] == 1.0
        assert sweep["pointwise_dominated"]
        assert sweep["bound_integral"] >= sweep["direct_integral"]


class TestDiscRing:
    def test_single_disc_floor(self):
        rep = disc_ring_experiment(1, ring_radius=12.0, trials=200, seed=0, width_trials=128)
        assert rep["m_estimate"] >= 0.0
        assert rep["measure"] == pytest.approx(math.pi / 4)

    def test_crowded_ring_rejected(self):
        with pytest.raises(ValueError):
            disc_ring_experiment(16, ring_radius=30.0, trials=10, seed=0)

    def test_unbounded_ring_rejected_without_an_overflow_warning(self):
        # The set caches its bounding radius on the first call, which must
        # come inside the experiment's np.errstate(over="ignore").
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no finite bounding radius"):
                disc_ring_experiment(4, ring_radius=1e308, trials=10, seed=0)

    def test_discs_are_disjoint_and_measured_exactly(self):
        from ulat.geometry import lebesgue_measure

        ring = disc_ring(8, 80.0)
        est = lebesgue_measure(ring)
        assert est.exact
        assert est.value == pytest.approx(8 * math.pi / 4)

    @pytest.mark.parametrize("n, ring_radius, trials", [(16, None, 100), (3, 7.0, 300), (1, 12.0, 257)])
    def test_hit_counts_equal_the_per_trial_loop(self, monkeypatch, n, ring_radius, trials):
        seen = []
        monkeypatch.setattr(
            annihilation, "mean_stderr", lambda x: seen.append(np.array(x)) or mean_stderr(x)
        )
        for seed in (0, 5, 9173):
            seen.clear()
            rep = disc_ring_experiment(n, ring_radius, trials=trials, seed=seed, width_trials=8)
            want = loop_axis_hits(disc_ring(n, rep["ring_radius"]), trials, seed)
            assert np.array_equal(seen[0], want)
            assert (rep["m_estimate"], rep["m_stderr"]) == mean_stderr(want)

    def test_report_schema_complete(self):
        rep = disc_ring_experiment(4, trials=60, seed=3, width_trials=128)
        for key in ("m_estimate", "m_stderr", "n", "measure", "mean_width", "cover_upper"):
            assert key in rep
        assert rep["cover_upper"] <= 4 / 4 + 1e-12
