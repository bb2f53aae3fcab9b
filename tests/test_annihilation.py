"""Annihilating-pair machinery: bounds, ratios, pipeline, sweep, sharpness."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ulat.annihilation import (
    AnnihilationInstance,
    _GRID_BLOCK_POINTS,
    _poly_grid_blocks,
    _poly_grid_tables,
    _thinned_count,
    build_pipeline_context,
    check_modulation_grid,
    disc_ring,
    disc_ring_experiment,
    observed_ratio,
    pair_exponent,
    pipeline_trace,
    translated_sweep,
)
from ulat.functions import BoxIndicator, Gaussian, Translated, norm_sq
from ulat import annihilation, geometry, lattice
from ulat.geometry import AxisBox, Ball, EuclideanSet, cover_measure_upper
from ulat.lattice import estimate_order, sample_lattice
from ulat.mc import mean_stderr, trial_rng
from ulat.periodization import GRID_POINT_BUDGET, Periodization
from ulat.turan import _grid_row_blocks, _product_grid_values

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

    @pytest.mark.parametrize("grid_n", [0, -3, math.isqrt(GRID_POINT_BUDGET) + 1, 10**5])
    def test_context_rejects_a_bad_grid_before_any_work(self, monkeypatch, grid_n):
        # grid_n = 0 used to select the default, -3 reached numpy at the
        # first trace and 10^5 ended in a MemoryError there.
        def forbidden(*args, **kwargs):
            raise AssertionError("the context did work on a bad grid")

        for name in ("lebesgue_measure", "tail_energy", "cover_measure_upper", "mean_width"):
            monkeypatch.setattr(annihilation, name, forbidden)
        inst = eighth_box_instance()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid must be an integer >= 1|exceeds the budget"):
                build_pipeline_context(inst, grid_n=grid_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_context_checks_the_support_the_mask_rasters(self):
        # The source [-0.5, 0.5]^2 has measure 1, eight times the cap, while
        # the declared S has measure 0.01; its trace read zero_fraction 0.
        s = AxisBox([-0.05, -0.05], [0.05, 0.05])
        inst = AnnihilationInstance(
            BoxIndicator(AxisBox([-0.5, -0.5], [0.5, 0.5])),
            EuclideanSet(2, [s]),
            EuclideanSet(2, [Ball([0.0, 0.0], 2.0)]),
        )
        with pytest.raises(ValueError, match="source support measure 1.000000 exceeds"):
            build_pipeline_context(inst, grid_n=32)

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

    def test_chain_failure_is_an_assertion(self, monkeypatch):
        # Every draw of this instance fires all four events; a floor far
        # above 1 shrinks the chain bound below |fhat(0)|^2.
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst, grid_n=32)
        assert pipeline_trace(inst, 0, context=ctx).all_events
        monkeypatch.setattr(annihilation, "_TILDE_FLOOR", 1e6)
        with pytest.raises(AssertionError, match="chain bound failed although all four events fired"):
            pipeline_trace(inst, 0, context=ctx)
        with pytest.raises(AssertionError, match="chain bound failed although all four events fired"):
            translated_sweep(inst, per_axis=1, grid_n=32)
        # The chain is owed only once every event fires: this draw's order
        # is too large, and its failed chain is reported, not raised.
        wide = eighth_box_instance(sigma_radius=4.0)
        trace = pipeline_trace(wide, 1, context=build_pipeline_context(wide, grid_n=32))
        assert not trace.events["order_small"] and not trace.chain_holds

    def test_thinned_set_below_the_chebyshev_floor_is_an_assertion(self, monkeypatch):
        # With the remainder small and the zero set large, Chebyshev leaves
        # at least 1/4 - grid_tol of the grid in the thinned set (grid_tol
        # = 2d/n = 1/8 at 32^2).  A count at that floor passes, and one
        # point fewer raises, though the chain itself holds.
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst, grid_n=32)
        trace = pipeline_trace(inst, 0, context=ctx)
        assert trace.events["remainder_small"] and trace.events["zero_set_large"]
        assert trace.tilde_fraction >= 0.5
        floor = (32**2) // 8
        monkeypatch.setattr(annihilation, "_thinned_count", lambda *args: floor)
        assert pipeline_trace(inst, 0, context=ctx).chain_holds
        monkeypatch.setattr(annihilation, "_thinned_count", lambda *args: floor - 1)
        with pytest.raises(AssertionError, match=r"holds 0\.124023 of the grid, below the Chebyshev floor"):
            pipeline_trace(inst, 0, context=ctx)

    def test_zero_coefficient_failure_is_an_assertion(self):
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst, grid_n=32)
        inflated = dataclasses.replace(ctx, fhat0_sq=2.0 * ctx.fhat0_sq)
        with pytest.raises(AssertionError, match="zero-coefficient domination failed"):
            pipeline_trace(inst, 0, context=inflated)

    def test_origin_coefficient_is_read_from_the_in_set_row(self, monkeypatch):
        # |Phat(0)|^2 comes from the origin row of the in-set coefficients,
        # so the trace calls the coefficient once, on the whole index set.
        calls = []
        coefficient = Periodization.coefficient

        def spy(self, m):
            calls.append(np.shape(m))
            return coefficient(self, m)

        monkeypatch.setattr(Periodization, "coefficient", spy)
        inst = eighth_box_instance()
        trace = pipeline_trace(inst, 3, context=build_pipeline_context(inst, grid_n=32))
        assert calls == [trace.indices.shape]

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

    def test_fractions_equal_the_loop_oracles(self, monkeypatch):
        # Criterion-9 draws at 512^2: the raster mask and the per-axis P give
        # the same fractions as the shift-by-shift mask and the direct sum,
        # on draws that the coefficient bound settles and on draws whose P
        # is evaluated on the grid.  There, every row with a point off the
        # mask above the threshold lies in an evaluated band.
        evaluated = spy_grid_blocks(monkeypatch)
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst)
        threshold = 4.0 * math.sqrt(ctx.c_ref * ctx.tail_hat)
        settled = []
        for seed in range(20):
            evaluated.clear()
            trace = pipeline_trace(inst, seed, context=ctx)
            if not evaluated:
                settled.append(seed)
            lat = sample_lattice(2, trial_rng(seed, 0))
            assert lat.rotation.matrix.tolist() == trace.rotation
            mask = loop_support_mask(Periodization(inst.f, lat), 512)
            p_vals = loop_poly_on_grid(trace.indices, trace.p_coefficients, 512, 2)
            assert trace.zero_fraction == 1.0 - float(np.mean(mask))
            assert trace.tilde_fraction == float(np.mean(~mask & (np.abs(p_vals) <= threshold)))
            above = (~mask & (np.abs(p_vals) > threshold + 1e-12)).reshape(512, 512).any(axis=1)
            assert evaluated or not above.any()
            assert all(band_rows(bands, 512)[above].all() for bands in evaluated)
        assert 0 < len(settled) < 20, settled

    @pytest.mark.parametrize("n,limit_mb", [(512, 1.5), (1024, 3.0)])
    def test_trace_keeps_no_whole_grid_of_values(self, monkeypatch, n, limit_mb):
        # The grid polynomial comes in row blocks, so a trace holds the bool
        # mask and one block; P and |P| over the whole grid peaked at
        # 7.08 MB at 512^2 and 28.3 MB at 1024^2.  The coefficient bound
        # does not settle seed 1, so its P is evaluated on the grid, but
        # only on the bands of rows near t_1 = 0 (mod 1) that the row bound
        # leaves: under a quarter of the rows.
        evaluated = spy_grid_blocks(monkeypatch)
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst, grid_n=n)
        pipeline_trace(inst, 0, context=ctx)  # fills the memoised annulus walks
        evaluated.clear()
        tracemalloc.start()
        try:
            pipeline_trace(inst, 1, context=ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (bands,) = evaluated
        assert bands[0][0] == 0 and bands[-1][1] == n
        assert 0 < int(np.sum(band_rows(bands, n))) < n // 4
        assert peak <= limit_mb * 1e6


    def test_settled_draw_holds_no_grid_mask(self, monkeypatch):
        # A draw that the coefficient bound settles counts its zero set
        # from the support runs, so it allocates less than the n^d bytes of
        # a bool mask of the grid.
        n = 1024
        evaluated = spy_grid_blocks(monkeypatch)
        inst = eighth_box_instance()
        ctx = build_pipeline_context(inst, grid_n=n)
        pipeline_trace(inst, 0, context=ctx)  # fills the memoised annulus walks
        evaluated.clear()
        tracemalloc.start()
        try:
            trace = pipeline_trace(inst, 2, context=ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert evaluated == []
        assert 0.5 <= trace.zero_fraction == trace.tilde_fraction
        assert peak < n**2


def spy_grid_blocks(monkeypatch) -> list:
    """The first-axis row bands [lo, hi) that each ``_poly_grid_blocks`` call
    made from now on evaluates, one list per call, with consecutive blocks
    merged into one band."""
    calls = []
    real = annihilation._poly_grid_blocks

    def spy(tensor, tables, keep=None):
        bands = []
        calls.append(bands)
        row = math.prod(len(table) for table in tables[1:])

        def blocks():
            for j, values in real(tensor, tables, keep):
                stop = j + len(values) // row
                if bands and bands[-1][1] == j:
                    bands[-1] = (bands[-1][0], stop)
                else:
                    bands.append((j, stop))
                yield j, values

        return blocks()

    monkeypatch.setattr(annihilation, "_poly_grid_blocks", spy)
    return calls


def band_rows(bands, n: int) -> np.ndarray:
    """The first-axis rows that the row bands [lo, hi) cover, as a bool per row."""
    rows = np.zeros(n, dtype=bool)
    for lo, hi in bands:
        rows[lo:hi] = True
    return rows


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


def poly_on_grid(indices, coeffs, n: int, d: int) -> np.ndarray:
    """The pipeline's grid polynomial over the whole grid: its row blocks,
    concatenated."""
    return np.concatenate([values for _, values in _poly_grid_blocks(*_poly_grid_tables(indices, coeffs, n))])


def root_table_loop(indices, coeffs, n: int, d: int) -> np.ndarray:
    """Reference: the pipeline's grid polynomial as a loop over the (A_i, n)
    root tables, before the contraction moved into turan."""
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
def grid_polynomials(draw, max_n: int = 40, sizes=None, part=st.floats(-1.0, 1.0)):
    """(d, n, indices, coefficients) with |m| up to 3n + 2 and repeated rows;
    n is drawn from ``sizes``, or from 1 to ``max_n``, and each real and
    imaginary part from ``part``."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n) if sizes is None else sizes)
    m = st.integers(-3 * n - 2, 3 * n + 2)
    rows = draw(st.lists(st.tuples(*[m] * d), min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    coeffs = [complex(draw(part), draw(part)) for _ in rows]
    return d, n, np.array(rows, dtype=int), np.array(coeffs)


def rounding_margin(k: int, d: int) -> float:
    """The relative margin gamma of ``_thinned_count``'s coefficient bound."""
    return 2.0 * (d + 1) * (k + 2) * np.finfo(float).eps


def loop_row_bounds(indices, coeffs, n: int) -> np.ndarray:
    """Reference: B_j = sum over the residues a' of the later axes of
    |sum_m c_m exp(2 i pi m_1 j / n)| over the terms m with residues a', a
    bound on |P| over first-axis row j."""
    t = np.arange(n) / n
    rows = {}
    for m, c in zip(np.mod(indices, n), coeffs):
        key = tuple(m[1:])
        rows[key] = rows.get(key, 0) + c * np.exp(2j * math.pi * m[0] * t)
    return np.sum(np.abs(list(rows.values())), axis=0)


def counted(mask, values, threshold) -> int:
    return int(np.count_nonzero(~mask & (np.abs(values) <= threshold)))


def mask_runs(mask, n: int) -> np.ndarray:
    """The [start, stop) runs of a flat C-order mask, cut at the end of each
    row of n points, as ``Periodization.support_runs`` gives them."""
    edges = np.diff(np.pad(mask.reshape(-1, n).astype(int), ((0, 0), (1, 1))), axis=1)
    rows, cells = np.nonzero(edges)
    return (rows * n + cells).reshape(-1, 2)


class TestThinnedCount:
    @given(
        grid_polynomials(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([-1.0, 1.0]) | st.floats(-0.5, 0.5),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_block_count_and_the_loop_count_property(
        self, case, mask_seed, offset, in_margins, small_blocks
    ):
        # Thresholds around S = sum |c_m|: at S (1 +- gamma), or a relative
        # offset of up to 1/2.  The count equals the blocks' exactly and the
        # direct sum's but for values within its 1e-12 of the threshold.
        # With small blocks, a block is 8 first-axis rows, so runs end at
        # block boundaries inside the grid (and cross them in d = 1).
        d, n, indices, coeffs = case
        rng = np.random.default_rng(mask_seed)
        mask = rng.random(n**d) < rng.random()
        total = math.fsum(np.abs(coeffs))
        gamma = rounding_margin(len(coeffs), d)
        threshold = total * (1.0 + (offset * gamma if in_margins else offset))
        with pytest.MonkeyPatch.context() as patch:
            if small_blocks:
                patch.setattr(annihilation, "_GRID_BLOCK_POINTS", 1)
            got = _thinned_count(mask_runs(mask, n), indices, coeffs, n, d, threshold)
        assert got == counted(mask, poly_on_grid(indices, coeffs, n, d), threshold)
        loop = loop_poly_on_grid(indices, coeffs, n, d)
        assert counted(mask, loop, threshold - 1e-12) <= got <= counted(mask, loop, threshold + 1e-12)

    @given(
        grid_polynomials(
            sizes=st.sampled_from([7, 9]) | st.integers(1, 40),
            part=st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 2.0**-500),
        ),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_row_bound_equals_the_block_count_property(self, case, mask_seed, place, small_blocks):
        # Thresholds between min_j B_j and S, the row bounds' least value
        # and the coefficient bound: below max_j B_j some rows settle and
        # some do not, above it every row settles though S does not.  The
        # count equals the whole grid's exactly; the evaluated bands start
        # at multiples of 8 rows, end at one or at n, hold every row with a
        # point above the threshold, and hold no band of 8 rows whose
        # bounds all settle.  n = 7 is one band, and at n = 9 the last row
        # joins the first band.  The parts of the coefficients are 0 or of
        # normal size: the rounding margins do not cover underflow.
        d, n, indices, coeffs = case
        rng = np.random.default_rng(mask_seed)
        mask = rng.random(n**d) < rng.random()
        total = math.fsum(np.abs(coeffs))
        gamma = rounding_margin(len(coeffs), d)
        bounds = loop_row_bounds(indices, coeffs, n)
        threshold = bounds.min() + place * (total - bounds.min())
        with pytest.MonkeyPatch.context() as patch:
            if small_blocks:
                patch.setattr(annihilation, "_GRID_BLOCK_POINTS", 1)
            evaluated = spy_grid_blocks(patch)
            got = _thinned_count(mask_runs(mask, n), indices, coeffs, n, d, threshold)
        assert got == counted(mask, poly_on_grid(indices, coeffs, n, d), threshold)
        loop = loop_poly_on_grid(indices, coeffs, n, d)
        assert counted(mask, loop, threshold - 1e-12) <= got <= counted(mask, loop, threshold + 1e-12)
        above = (np.abs(loop) > threshold + 1e-12).reshape(n, -1).any(axis=1)
        cuts = np.append(np.arange(0, max(n - 1, 1), 8), n)
        for bands in evaluated:
            rows = band_rows(bands, n)
            assert rows[above].all()
            assert all(lo in cuts and hi in cuts for lo, hi in bands)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                unsettled = bounds[lo:hi] * (1.0 + gamma) + gamma * total > threshold * (1.0 - 1e-9)
                assert not rows[lo:hi].any() or unsettled.any()
        assert evaluated or not above.any()

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 40), (2, 512), (3, 16)])
    def test_bound_reached_at_the_origin(self, monkeypatch, d, n):
        # Positive real coefficients: P(0) = sum c_m = S, the maximum, is a
        # grid value.  At S (1 + gamma) the bound settles the count, and
        # every point off the mask qualifies; at S (1 - gamma) the grid is
        # evaluated, and the origin, kept off the mask, does not qualify.
        rng = np.random.default_rng(7 * d + n)
        indices = rng.integers(-3 * n, 3 * n + 1, size=(30, d))
        indices[1] = indices[0] + n  # an alias of row 0
        indices[2] = indices[0]  # a repeat of row 0
        coeffs = rng.uniform(0.1, 1.0, size=30).astype(complex)
        mask = rng.random(n**d) < 0.4
        mask[0] = False
        total = math.fsum(np.abs(coeffs))
        gamma = rounding_margin(30, d)
        loop = loop_poly_on_grid(indices, coeffs, n, d)
        evaluated = spy_grid_blocks(monkeypatch)
        for sign, settles in ((1.0, True), (-1.0, False)):
            evaluated.clear()
            threshold = total * (1.0 + sign * gamma)
            got = _thinned_count(mask_runs(mask, n), indices, coeffs, n, d, threshold)
            assert (not evaluated) == settles
            assert settles or evaluated[0][0][0] == 0  # the origin's row is evaluated
            assert got == counted(mask, loop, threshold)
        assert got <= n**d - np.count_nonzero(mask) - 1

    @pytest.mark.parametrize("d,n", [(1, 1), (1, 9), (2, 8), (3, 5)])
    def test_single_term_and_an_all_zero_mask(self, monkeypatch, d, n):
        # |P| = |c| everywhere.  With no point in the support, the count is
        # the grid, or 0 below |c|.
        indices, coeffs = np.array([[2 * n + 1] * d]), np.array([0.6 - 0.8j])
        mask = np.zeros(n**d, dtype=bool)
        evaluated = spy_grid_blocks(monkeypatch)
        size, gamma = abs(coeffs[0]), rounding_margin(1, d)
        runs = mask_runs(mask, n)
        assert runs.shape == (0, 2)
        assert _thinned_count(runs, indices, coeffs, n, d, size * (1.0 + gamma)) == n**d
        assert evaluated == []
        assert _thinned_count(runs, indices, coeffs, n, d, size * (1.0 - gamma)) == 0
        assert evaluated == [[(0, n)]]

    @pytest.mark.parametrize("d,n", [(1, 40), (2, 16), (3, 10)])
    def test_runs_ending_at_row_ends_and_block_boundaries(self, monkeypatch, d, n):
        # Blocks of 8 first-axis rows.  The runs cover the last cell of
        # every row, so each row's run ends at the row's end; one of those
        # ends is the end of the first block, and another the grid's end.
        # In d = 1 a block is 8 points of the one row: a run crosses the
        # boundary at 8 and another ends at the boundary at 16.
        monkeypatch.setattr(annihilation, "_GRID_BLOCK_POINTS", 1)
        rng = np.random.default_rng(n)
        indices = rng.integers(-n, n + 1, size=(6, d))
        coeffs = rng.uniform(0.2, 1.0, 6) * np.exp(2j * math.pi * rng.random(6))
        mask = rng.random(n**d) < 0.3
        mask.reshape(-1, n)[:, -3:] = True
        if d == 1:
            mask[5:16], mask[16] = True, False
        runs = mask_runs(mask, n)
        block = 16 if d == 1 else 8 * n ** (d - 1)
        assert block in runs[:, 1] and n**d in runs[:, 1]
        assert d > 1 or np.any((runs[:, 0] < 8) & (runs[:, 1] > 8))
        values = poly_on_grid(indices, coeffs, n, d)
        evaluated = spy_grid_blocks(monkeypatch)
        for threshold in np.quantile(np.abs(values), [0.2, 0.5, 0.9]):
            assert _thinned_count(runs, indices, coeffs, n, d, threshold) == counted(mask, values, threshold)
        # The two lower thresholds settle no band of 8 rows; at the 0.9
        # quantile in d = 1 the row bound, there |P| itself, settles the two
        # bands of points 8 to 23.
        assert evaluated[:2] == [[(0, n)]] * 2
        assert evaluated[2] == ([(0, 8), (24, 40)] if d == 1 else [(0, n)])


class TestPolyOnGrid:
    @given(grid_polynomials())
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_sum_property(self, case):
        d, n, indices, coeffs = case
        got = poly_on_grid(indices, coeffs, n, d)
        assert got.shape == (n**d,)
        assert np.max(np.abs(got - loop_poly_on_grid(indices, coeffs, n, d))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_repeated_and_aliased_indices_are_summed(self, n):
        indices = np.array([[1, -2], [1, -2], [1 + n, -2 - 3 * n], [0, 0]])
        coeffs = np.array([1.0, 2.0j, -0.5, 0.25])
        merged = poly_on_grid(np.array([[1, -2], [0, 0]]), np.array([0.5 + 2.0j, 0.25]), n, 2)
        assert np.max(np.abs(poly_on_grid(indices, coeffs, n, 2) - merged)) <= 1e-12

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
        got = poly_on_grid(indices, coeffs, n, d)
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
            got = poly_on_grid(trace.indices, trace.p_coefficients, 512, 2)
            want = root_table_loop(trace.indices, trace.p_coefficients, 512, 2)
            assert got.tobytes() == want.tobytes()

    def test_pipeline_indices(self):
        inst = eighth_box_instance()
        trace = pipeline_trace(inst, seed=4, context=build_pipeline_context(inst, grid_n=64))
        got = poly_on_grid(trace.indices, trace.p_coefficients, 64, 2)
        want = loop_poly_on_grid(trace.indices, trace.p_coefficients, 64, 2)
        assert np.max(np.abs(got - want)) <= 1e-12

    @given(grid_polynomials(max_n=70), st.sampled_from([8, 16, 24, 32]))
    @settings(max_examples=120, deadline=None)
    def test_row_blocks_equal_the_whole_grid_bit_for_bit(self, case, rows):
        # Any n, n = 1 included, against blocks of 8 to 32 rows.  In d = 1
        # these grids stay below the size at which OpenBLAS splits a gemv
        # between threads (turan._grid_row_blocks).
        d, n, indices, coeffs = case
        tensor, tables = _poly_grid_tables(indices, coeffs, n)
        starts, blocks = zip(*_grid_row_blocks(tensor, tables, rows))
        row = n ** (d - 1)
        assert starts == tuple(range(0, rows * len(blocks), rows))
        assert [len(b) for b in blocks[:-1]] == [rows * row] * (len(blocks) - 1)
        assert len(blocks[-1]) >= min(n, 2) * row
        got = np.concatenate(blocks)
        assert got.tobytes() == _product_grid_values(tensor, tables).tobytes()

    @given(grid_polynomials(max_n=70), st.sampled_from([8, 16, 24, 32]), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_kept_rows_equal_the_whole_grid_bit_for_bit(self, case, rows, keep_seed):
        # Any set of kept rows: the blocks evaluate exactly the 8-row bands
        # that hold a kept row (a one-row last band joined to the one
        # before), each block at most rows + 1 rows and none a lone row
        # unless n = 1, and each equals its rows of the whole grid bit for
        # bit.
        d, n, indices, coeffs = case
        tensor, tables = _poly_grid_tables(indices, coeffs, n)
        rng = np.random.default_rng(keep_seed)
        keep = rng.random(n) < rng.random() ** 2
        whole = _product_grid_values(tensor, tables).reshape(n, -1)
        done = np.zeros(n, dtype=int)
        for j, values in _grid_row_blocks(tensor, tables, rows, keep):
            block = values.reshape(-1, whole.shape[1])
            assert j % 8 == 0 and min(n, 2) <= len(block) <= rows + 1
            assert block.tobytes() == whole[j : j + len(block)].tobytes()
            done[j : j + len(block)] += 1
        assert done.max(initial=0) <= 1
        cuts = np.append(np.arange(0, max(n - 1, 1), 8), n)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            assert set(done[lo:hi]) == {int(keep[lo:hi].any())}

    @pytest.mark.parametrize(
        "d,n,blocks", [(1, 512, 1), (2, 128, 1), (2, 177, 2), (2, 200, 3), (2, 512, 16), (3, 40, 5), (3, 64, 8)]
    )
    def test_pipeline_blocks_equal_the_whole_grid_bit_for_bit(self, d, n, blocks):
        # The module's block size: 2^14 points in multiples of 8 rows.  At
        # 177^2 the blocks are 88 rows, and the last row joins the second.
        rng = np.random.default_rng(100 * d + n)
        indices = rng.integers(-3 * n, 3 * n + 1, size=(40, d))
        indices[1] = indices[0] + n  # an alias of row 0
        coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
        got = [values for _, values in _poly_grid_blocks(*_poly_grid_tables(indices, coeffs, n))]
        assert len(got) == blocks
        assert max(len(b) for b in got) <= max(_GRID_BLOCK_POINTS, 8 * n ** (d - 1)) + n ** (d - 1)
        want = _product_grid_values(*_poly_grid_tables(indices, coeffs, n))
        assert np.concatenate(got).tobytes() == want.tobytes()


class TestTranslatedSweep:
    @pytest.mark.parametrize("per_axis", [0, -1])
    def test_empty_modulation_grid_rejected(self, per_axis):
        with pytest.raises(ValueError, match="per_axis must be >= 1"):
            translated_sweep(eighth_box_instance(), per_axis=per_axis)

    @pytest.mark.parametrize("grid_n", [0, -3, 1449])
    def test_bad_grid_rejected_before_the_modulation_grid(self, grid_n):
        # The 1000^2 modulation grid and the measure of Sigma peaked at
        # 41 MB before the first context rejected the grid.
        inst = eighth_box_instance()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid must be an integer >= 1|exceeds the budget"):
                translated_sweep(inst, per_axis=1000, grid_n=grid_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_y_grid_past_the_budget_rejected_before_allocating(self):
        # 10^6 points per axis is 10^12 values of y in d = 2, for which
        # _sigma_grid asked numpy for 7.28 TiB.  The size alone is checked,
        # so the largest y grid within the budget passes the check.
        inst = eighth_box_instance()
        side = math.isqrt(GRID_POINT_BUDGET)
        check_modulation_grid(side, 2)
        tracemalloc.start()
        try:
            for per_axis in (side + 1, 10**6):
                with pytest.raises(ValueError, match=f"y grid {per_axis}\\^2 exceeds the budget"):
                    translated_sweep(inst, per_axis=per_axis, grid_n=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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

    @pytest.mark.parametrize("trials", [1, 0, -3])
    def test_too_few_trials_rejected_before_any_draw(self, monkeypatch, trials):
        # One trial has no standard error; it used to report m_stderr 0.0.
        for name in ("_hit_blocks", "_mean_width_mc"):
            monkeypatch.setattr(annihilation, name, lambda *a, **k: pytest.fail("drew a trial"))
        with pytest.raises(ValueError, match="requires trials >= 2"):
            disc_ring_experiment(4, trials=trials, seed=0)

    def test_one_width_trial_rejected_before_any_draw(self, monkeypatch):
        # It used to fail only after every lattice trial and the cover, with
        # a message naming mean_width.
        drawn = []
        for module in (lattice, geometry):
            monkeypatch.setattr(module, "trial_rng", lambda seed, i: drawn.append(i))
        with pytest.raises(ValueError, match="a standard error requires trials >= 2"):
            disc_ring_experiment(16, trials=1500, width_trials=1)
        assert drawn == []

    def test_crowded_ring_rejected(self):
        with pytest.raises(ValueError):
            disc_ring_experiment(16, ring_radius=30.0, trials=10, seed=0)

    def test_unbounded_ring_rejected_without_an_overflow_warning(self):
        # The discs' centres reach the ring radius, so a radius past the
        # input range is rejected when the discs are built, before any norm.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radius in (1e308, math.inf, math.nan, 2.0**41):
                with pytest.raises(ValueError, match="must lie in"):
                    disc_ring_experiment(4, ring_radius=radius, trials=10, seed=0)

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
