"""Turan-type inequalities: evaluation, order, certified sup norms, campaigns."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ulat import turan
from ulat.cli import EXIT_ASSERTION, main
from ulat.geometry import AxisBox, _grid_points, merged_length
from ulat.mc import trial_rng
from ulat.turan import (
    _CAMPAIGN_DRAWS,
    GRID_DENSITY_FACTOR,
    SupEstimate,
    TorusSet,
    TrigPolynomial,
    _box_axis_grids,
    _coefficient_tensor,
    _product_grid_values,
    poly_order,
    random_polynomial,
    random_torus_set,
    run_campaign,
    sup_norm,
    turan_check,
)


class TestEvaluate:
    def test_constant(self):
        p = TrigPolynomial(2, {(0, 0): 1.0})
        assert p.evaluate(np.array([0.3, 0.9])) == pytest.approx(1.0)

    def test_unit_frequency_quarter_turn(self):
        p = TrigPolynomial(1, {(1,): 1.0})
        assert p.evaluate(np.array([0.25])) == pytest.approx(1j)

    def test_real_when_conjugate_symmetric(self):
        rng = trial_rng(0, 0)
        coefs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        terms = {(0,): complex(coefs[0].real)}
        for k, c in ((1, coefs[1]), (3, coefs[2])):
            terms[(k,)] = c
            terms[(-k,)] = np.conj(c)
        p = TrigPolynomial(1, terms)
        ts = rng.uniform(0, 1, (100, 1))
        assert np.max(np.abs(p.evaluate(ts).imag)) <= 1e-12

    def test_spectrum_sorted_once(self):
        p = TrigPolynomial(2, {(1, 0): 2.0, (-1, 3): 1j, (0, 0): 0.0, (-1, -2): 3.0})
        assert p.freqs.tolist() == [[-1, -2], [-1, 3], [1, 0]]
        assert p.coefs.tolist() == [3.0, 1j, 2.0]
        assert not p.freqs.flags.writeable and not p.coefs.flags.writeable

    def test_zero_coefficients_dropped(self):
        p = TrigPolynomial(1, {(0,): 1.0, (4,): 0.0})
        assert len(p.coefs) == 1
        with pytest.raises(ValueError):
            TrigPolynomial(1, {(2,): 0.0})


class TestOrder:
    def test_monomial(self):
        o = poly_order(TrigPolynomial(2, {(3, -2): 1.0}))
        assert o.per_axis == (0, 0) and o.fm_exponent == 0

    def test_three_frequencies_one_dimension(self):
        o = poly_order(TrigPolynomial(1, {(0,): 1, (3,): 1, (7,): 1}))
        assert o.per_axis == (2,)

    def test_spectrum_count_inequality(self):
        o = poly_order(TrigPolynomial(2, {(0, 0): 1, (1, 2): 1, (1, 3): 1}))
        assert o.per_axis == (1, 2)
        assert o.fm_exponent == 3
        assert 3 <= (o.per_axis[0] + 1) * (o.per_axis[1] + 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_order_chains_random(self, seed):
        rng = trial_rng(1, seed)
        d = int(rng.integers(1, 4))
        p = random_polynomial(d, rng, max_terms=10, max_freq=6)
        o = poly_order(p)
        card = len(p.coefs)
        assert o.fm_exponent <= d * max(o.per_axis)
        assert max(o.per_axis) <= card - 1
        assert card <= int(np.prod([m + 1 for m in o.per_axis]))


class TestSupNorm:
    def test_constant_exact(self):
        p = TrigPolynomial(2, {(0, 0): 3.0 - 4.0j})
        assert sup_norm(p).value == pytest.approx(5.0)

    def test_cosine_peak(self):
        p = TrigPolynomial(1, {(1,): 1.0, (-1,): 1.0})
        est = sup_norm(p)
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_dense_grid_within_certified_window(self):
        # The certified bracket at default density must contain the value
        # found on a much denser grid.
        for trial in range(10):
            rng = trial_rng(2, trial)
            p = random_polynomial(1, rng, max_terms=5, max_freq=8)
            est = sup_norm(p)
            ts = np.linspace(0, 1, 8192, endpoint=False)[:, None]
            dense = float(np.max(np.abs(p.evaluate(ts))))
            assert dense <= est.upper + 1e-9
            assert est.value <= dense + 1e-9
        # d = 2 with the campaign's draws, over the full torus and over a
        # random campaign region.  Each box's grid is refined 12-fold, so the
        # dense grid holds every point of the coarse one.
        for trial in range(10):
            rng = trial_rng(12, trial)
            p = random_polynomial(2, rng, max_freq=4, max_per_axis=3)
            e = random_torus_set(2, rng, min_measure=0.05)
            density = GRID_DENSITY_FACTOR * (int(np.max(np.abs(p.freqs))) + 1)
            for region in (None, e):
                est = sup_norm(p, region)
                dense = 0.0
                region_or_full = region or TorusSet.full(2)
                for lo, hi in zip(region_or_full.lower, region_or_full.upper):
                    axes = [box_axis_grid(lo[i], hi[i], density) for i in range(2)]
                    fine = [np.linspace(ax[0], ax[-1], 12 * (len(ax) - 1) + 1) for ax in axes]
                    dense = max(dense, float(np.max(np.abs(p.evaluate(_grid_points(fine))))))
                assert dense <= est.upper + 1e-9
                assert est.value <= dense + 1e-9

    def test_union_upper_covers_every_box(self):
        # |1 + e(2t)| = 2|cos 2 pi t| peaks at t = 1/2, midway between two grid
        # points of the long arc, whose grid maximum (1.984) is below that of
        # the short arc near t = 0 (1.990).  The short arc's fine window stops
        # short of 2, so only the long arc's coarser window certifies the union.
        p = TrigPolynomial(1, {(0,): 1.0, (2,): 1.0})
        e = TorusSet.arcs([(0.0159, 0.0169), (0.32, 0.72)])
        short, long = (sup_norm(p, TorusSet([lo], [hi])) for lo, hi in zip(e.lower, e.upper))
        assert long.value < short.value and short.upper < 2.0
        est = sup_norm(p, e)
        assert est.value == short.value
        assert est.upper == long.upper
        assert est.upper >= 2.0

    def test_region_sup_below_global_with_window(self):
        rng = trial_rng(3, 0)
        for _ in range(10):
            p = random_polynomial(2, rng, max_freq=4, max_per_axis=3)
            e = random_torus_set(2, rng, min_measure=0.05)
            full = sup_norm(p)
            region = sup_norm(p, e)
            assert region.value <= full.upper + 1e-9

    def test_zero_measure_region_rejected(self):
        # The box has positive sides, but their product underflows to 0.0.
        p = TrigPolynomial(2, {(0, 0): 1.0, (1, 0): 1.0})
        e = TorusSet([[0.0, 0.0]], [[5e-324, 5e-324]])
        assert e.measure == 0.0
        with pytest.raises(ValueError, match="positive measure"):
            sup_norm(p, e)
        with pytest.raises(ValueError, match="positive measure"):
            turan_check(p, e)

    def test_empty_torus_set_rejected(self):
        with pytest.raises(ValueError, match="at least one box"):
            TorusSet([], [])


class TestTuranOneDimensional:
    def test_constant_equality(self):
        p = TrigPolynomial(1, {(2,): 1.5})
        e = TorusSet.arcs([(0.1, 0.3)])
        res = turan_check(p, e)
        assert res.factor == pytest.approx(1.0)
        assert res.holds
        assert res.lhs == pytest.approx(1.5)

    def test_cosine_half_torus(self):
        p = TrigPolynomial(1, {(1,): 1.0, (-1,): 1.0})
        e = TorusSet.arcs([(0.0, 0.5)])
        res = turan_check(p, e)
        assert res.factor == pytest.approx(28.0)
        assert res.lhs == pytest.approx(2.0, abs=1e-9)
        assert res.holds

    def test_campaign_no_violations(self):
        rows = run_campaign(1, 200, seed=0)
        assert all(r["holds"] for r in rows)

    def test_factor_past_the_float_range_is_vacuous(self):
        # (14 / 1e-200)^2 overflows a float: the factor and the bound are
        # inf, and the inequality holds.
        p = TrigPolynomial(1, {(0,): 1.0, (3,): 1.0, (5,): 1.0})
        res = turan_check(p, TorusSet.arcs([(0.0, 1e-200)]))
        assert res.factor == math.inf
        assert res.rhs == math.inf
        assert res.holds
        assert res.lhs == pytest.approx(3.0, abs=1e-9)
        # A factor inside the range keeps its bits.
        assert turan_check(p, TorusSet.arcs([(0.0, 1e-100)])).factor == (14.0 / 1e-100) ** 2

    def test_dimension_guard(self):
        p = TrigPolynomial(2, {(0, 0): 1.0})
        with pytest.raises(ValueError, match="dimensions differ"):
            turan_check(p, TorusSet.full(1))
        with pytest.raises(ValueError, match="dimensions differ"):
            turan_check(TrigPolynomial(1, {(0,): 1.0}), TorusSet.full(2))


class TestTuranMultidimensional:
    def test_monomial_equality(self):
        p = TrigPolynomial(2, {(2, -1): 1.0 + 1.0j})
        e = TorusSet([[0.1, 0.1]], [[0.4, 0.3]])
        res = turan_check(p, e)
        assert res.factor == pytest.approx(1.0)
        assert res.holds

    def test_product_cosine_quarter_square(self):
        p = TrigPolynomial(
            2, {(1, 1): 1.0, (1, -1): 1.0, (-1, 1): 1.0, (-1, -1): 1.0}
        )
        e = TorusSet([[0.0, 0.0]], [[0.5, 0.5]])
        res = turan_check(p, e)
        assert res.lhs == pytest.approx(4.0, abs=1e-9)
        assert res.factor == pytest.approx((14.0 * 2 / 0.25) ** 2)
        assert res.holds

    def test_one_dimensional_consistency(self):
        # With d = 1 the factor is Nazarov's (14/|E|)^(m-1), bit for bit.
        rng = trial_rng(4, 0)
        for _ in range(20):
            p = random_polynomial(1, rng, max_terms=5)
            e = random_torus_set(1, rng)
            assert turan_check(p, e).factor == (14.0 / e.measure) ** (len(p.coefs) - 1)

    def test_campaign_no_violations(self):
        rows = run_campaign(2, 200, seed=0)
        assert all(r["holds"] for r in rows)

    def test_factor_monotone_in_measure(self):
        p = TrigPolynomial(1, {(0,): 1, (2,): 1, (5,): 1})
        small = TorusSet.arcs([(0.0, 0.2)])
        large = TorusSet.arcs([(0.0, 0.6)])
        assert turan_check(p, large).factor < turan_check(p, small).factor


class TestTorusSet:
    def test_union_measure_overlapping(self):
        assert TorusSet([[0, 0], [0.25, 0.25]], [[0.5, 0.5], [0.75, 0.75]]).measure == pytest.approx(0.4375)

    def test_union_measure_arcs(self):
        ts = TorusSet.arcs([(0.0, 0.3), (0.2, 0.5), (0.9, 1.0)])
        assert ts.measure == pytest.approx(0.6)

    def test_three_dimensional_union(self):
        e = TorusSet([[0, 0, 0], [0.25, 0.25, 0.25]], [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        assert e.measure == pytest.approx(0.125)

    def test_corners_are_tuples_of_python_floats(self):
        e = TorusSet(np.array([[0, 0.25]]), [(np.float64(0.5), 1)])
        assert e.lower == ((0.0, 0.25),) and e.upper == ((0.5, 1.0),) and e.dimension == 2
        assert all(type(x) is float for row in e.lower + e.upper for x in row)

    def test_pieces_outside_fundamental_domain_rejected(self):
        with pytest.raises(ValueError):
            TorusSet([[-0.5]], [[0.5]])

    @pytest.mark.parametrize(
        "lower, upper",
        [([-1e-12], [0.5]), ([0.5], [1.0 + 1e-12]), ([0.5], [0.5]), ([0.6], [0.5]), ([math.nan], [0.5])],
    )
    def test_boxes_checked_inside_the_unit_cube(self, lower, upper):
        # One range rule: 0 <= lower < upper <= 1, with no slack at 0 and 1.
        with pytest.raises(ValueError, match=r"inside \[0, 1\]\^d"):
            TorusSet([[0.1], lower], [[0.9], upper])

    @pytest.mark.parametrize(
        "lower, upper", [([[0.1]], [[0.5], [0.6]]), ([[0.1, 0.2]], [[0.5]]), ([[]], [[]])]
    )
    def test_corner_rows_of_one_dimension(self, lower, upper):
        with pytest.raises(ValueError):
            TorusSet(lower, upper)

    def test_random_set_respects_min_measure(self):
        rng = trial_rng(5, 0)
        for _ in range(20):
            ts = random_torus_set(2, rng, min_measure=0.05)
            assert ts.measure >= 0.05

    @pytest.mark.parametrize("min_measure", [0.0, -0.1, 1.5, float("nan")])
    def test_min_measure_outside_unit_interval_rejected_before_drawing(self, min_measure):
        rng = trial_rng(5, 0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="min_measure"):
            random_torus_set(1, rng, min_measure=min_measure)
        assert rng.bit_generator.state == before

    def test_unreachable_measure_is_a_value_error(self):
        # Every box starts below 0.9 and is at most 0.5 wide, so no union
        # covers the whole square.
        with pytest.raises(ValueError, match="256 draws"):
            random_torus_set(2, trial_rng(5, 1), min_measure=1.0)


def axis_tables(p: TrigPolynomial, axes) -> tuple[np.ndarray, list]:
    """The coefficient tensor of p and its (N_i, A_i) exp tables on the axes."""
    values, tensor = _coefficient_tensor(p.freqs, p.coefs)
    tables = [np.exp(2j * math.pi * (ax[:, None] * a)) for ax, a in zip(axes, values)]
    return tensor, tables


@st.composite
def polynomials_on_axes(draw):
    """(p, axes): up to 10 terms with |k_i| <= 8 in d = 1-3, and one array
    of 1-12 samples in [0, 1] per axis, repeats and unsorted allowed."""
    d = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-8, 8)] * d), min_size=1, max_size=10, unique=True))
    part = st.floats(-1.0, 1.0)
    coefs = [complex(draw(part), draw(part)) for _ in keys]
    assume(any(c != 0 for c in coefs))
    sample = st.floats(0.0, 1.0)
    axes = [draw(arrays(float, draw(st.integers(1, 12)), elements=sample)) for _ in range(d)]
    return TrigPolynomial(d, dict(zip(keys, coefs))), axes


class TestProductGrid:
    @given(polynomials_on_axes())
    @settings(max_examples=150, deadline=None)
    def test_equals_pointwise_evaluation(self, case):
        p, axes = case
        got = _product_grid_values(*axis_tables(p, axes))
        want = p.evaluate(_grid_points(axes))
        assert got.shape == want.shape == (math.prod(len(ax) for ax in axes),)
        assert np.max(np.abs(got - want)) <= 1e-13 * float(np.sum(np.abs(p.coefs)))

    def test_sup_norm_and_turan_check_never_evaluate_pointwise(self, monkeypatch):
        monkeypatch.setattr(TrigPolynomial, "evaluate", lambda *a: pytest.fail("evaluate ran"))
        rng = trial_rng(8, 0)
        for d in (1, 2, 3):
            p = random_polynomial(d, rng, max_terms=6, max_freq=4)
            e = random_torus_set(d, rng, min_measure=0.05)
            assert sup_norm(p).value > 0
            assert turan_check(p, e).holds


def box_axis_grid(lo: float, hi: float, density: float) -> np.ndarray:
    """Reference: one box's samples along one axis, from np.linspace."""
    n = max(int(math.ceil((hi - lo) * density)), 2)
    return np.linspace(lo, hi, n + 1)


def reference_sup_estimates(p: TrigPolynomial, regions: list) -> list:
    """Reference: the per-instance evaluator that the block evaluator
    replaced, one exp table per axis over the boxes of one polynomial's
    regions and one linspace per box and axis."""
    for region in regions:
        if region.measure <= 0:
            raise ValueError("sup_norm region must have positive measure")
    density = GRID_DENSITY_FACTOR * (int(np.max(np.abs(p.freqs))) + 1)
    grad = p.gradient_bound()
    values, tensor = _coefficient_tensor(p.freqs, p.coefs)
    grids = [
        [
            [box_axis_grid(lo[i], hi[i], density) for i in range(p.dimension)]
            for lo, hi in zip(region.lower, region.upper)
        ]
        for region in regions
    ]
    boxes = [axes for region in grids for axes in region]
    tables = [
        np.exp(2j * math.pi * (np.concatenate([axes[i] for axes in boxes])[:, None] * values[i]))
        for i in range(p.dimension)
    ]
    start = [0] * p.dimension
    estimates = []
    for region in grids:
        value = upper = -1.0
        for axes in region:
            box_tables = []
            for i, ax in enumerate(axes):
                box_tables.append(tables[i][start[i] : start[i] + len(ax)])
                start[i] += len(ax)
            box_max = float(np.max(np.abs(_product_grid_values(tensor, box_tables))))
            spacings = np.array([ax[1] - ax[0] for ax in axes])
            value = max(value, box_max)
            upper = max(upper, box_max + grad * 0.5 * float(np.linalg.norm(spacings)))
        estimates.append(SupEstimate(value, upper))
    return estimates


def reference_turan_check(p: TrigPolynomial, e: TorusSet) -> dict:
    """Reference: turan_check on ``reference_sup_estimates``."""
    factor = (14.0 * p.dimension / e.measure) ** poly_order(p).fm_exponent
    full, region = reference_sup_estimates(p, [TorusSet.full(p.dimension), e])
    lhs, rhs = full.value, factor * region.upper
    return {"lhs": lhs, "rhs": rhs, "factor": factor, "holds": bool(lhs <= rhs * (1.0 + 1e-12) + 1e-300)}


def oracle_random_polynomial(
    d: int,
    rng: np.random.Generator,
    max_terms: int = 8,
    max_freq: int = 16,
    max_per_axis: int | None = None,
) -> TrigPolynomial:
    """Reference: random_polynomial as it drew before the array draws, a
    product grid of the axes and a dict through the constructor."""
    if max_per_axis is not None:
        axes = [
            rng.choice(np.arange(-max_freq, max_freq + 1), size=max_per_axis, replace=False)
            for _ in range(d)
        ]
        grid = _grid_points(axes)
        n = int(rng.integers(1, len(grid) + 1))
        pick = rng.choice(len(grid), size=n, replace=False)
        freqs = grid[pick]
    else:
        n = int(rng.integers(1, max_terms + 1))
        pool = np.arange(-max_freq, max_freq + 1)
        if d == 1:
            vals = rng.choice(pool, size=n, replace=False)
            freqs = vals[:, None]
        else:
            seen = set()
            while len(seen) < n:
                seen.add(tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1, d)))
            freqs = np.array(sorted(seen), dtype=int)
    coefs = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    return TrigPolynomial(d, dict(zip(map(tuple, freqs.tolist()), coefs)))


def oracle_random_torus_set(d: int, rng: np.random.Generator, min_measure: float = 0.1) -> TorusSet:
    """Reference: random_torus_set as it drew with one AxisBox per box,
    measured by ``oracle_box_union_measure``."""
    if not 0.0 < min_measure <= 1.0:
        raise ValueError(f"min_measure must lie in (0, 1], got {min_measure!r}")
    for _ in range(256):
        n = int(rng.integers(1, 5))
        boxes = []
        for _ in range(n):
            lo = rng.uniform(0.0, 0.9, d)
            width = rng.uniform(0.02, 0.5, d)
            hi = np.minimum(lo + width, 1.0)
            boxes.append(AxisBox(lo, hi))
        if oracle_box_union_measure(boxes) >= min_measure:
            return TorusSet([b.lower for b in boxes], [b.upper for b in boxes])
    raise ValueError(f"no torus set of measure at least {min_measure} in 256 draws")


def reference_campaign(d: int, count: int, seed: int) -> list[dict]:
    """Reference: run_campaign's rows, one instance at a time."""
    max_terms, max_freq, max_per_axis, min_measure = _CAMPAIGN_DRAWS[min(d, 2)]
    rows = []
    for i in range(count):
        rng = trial_rng(seed, i)
        p = oracle_random_polynomial(d, rng, max_terms=max_terms, max_freq=max_freq,
                                     max_per_axis=max_per_axis)
        e = oracle_random_torus_set(d, rng, min_measure=min_measure)
        rows.append({"seed": i, **reference_turan_check(p, e)})
    return rows


class TestBlockEvaluator:
    @staticmethod
    def assert_same_bytes(rows, want):
        for row, ref in zip(rows, want, strict=True):
            assert json.dumps(row) == json.dumps(ref)

    @pytest.mark.parametrize("d, seed", [(1, 101), (1, 7), (1, 3), (1, 0), (2, 202), (2, 7), (2, 3), (2, 0)])
    def test_campaign_rows_byte_identical(self, d, seed):
        self.assert_same_bytes(run_campaign(d, 1000, seed=seed), reference_campaign(d, 1000, seed))

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_rows_do_not_depend_on_the_blocks(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(turan, "_CAMPAIGN_BLOCK", block)
        size = turan._CAMPAIGN_BLOCK
        for d in (1, 2, 3):
            want = reference_campaign(d, 200, seed=11)
            for count in sorted({1, max(size - 1, 1), size, size + 1, 200}):
                self.assert_same_bytes(run_campaign(d, count, seed=11), want[:count])

    def test_turan_check_and_sup_norm_equal_the_reference(self):
        rng = trial_rng(13, 0)
        for d in (1, 2, 3):
            for _ in range(30):
                p = random_polynomial(d, rng, max_terms=6, max_freq=7)
                e = random_torus_set(d, rng, min_measure=0.05)
                res = turan_check(p, e)
                assert vars(res) == reference_turan_check(p, e)
                full, region = reference_sup_estimates(p, [TorusSet.full(d), e])
                assert sup_norm(p) == full
                assert sup_norm(p, e) == region
        # A region whose upper end and value come from different boxes.
        p = TrigPolynomial(1, {(0,): 1.0, (2,): 1.0})
        e = TorusSet.arcs([(0.0159, 0.0169), (0.32, 0.72)])
        assert sup_norm(p, e) == reference_sup_estimates(p, [e])[0]

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(8, 2000)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_axis_grids_equal_linspace_bit_for_bit(self, boxes):
        boxes = [(min(a, b), max(a, b), k) for a, b, k in boxes]
        assume(all(lo < hi for lo, hi, _ in boxes))
        lo, hi, density = (np.array(c) for c in zip(*boxes))
        t, first = _box_axis_grids(lo, hi, density)
        want = [box_axis_grid(a, b, k) for a, b, k in boxes]
        assert first.tolist() == np.cumsum([0] + [len(w) for w in want[:-1]]).tolist()
        assert t.tobytes() == np.concatenate(want).tobytes()

    def test_axis_grids_at_the_two_interval_floor(self):
        # (hi - lo) * density <= 2 gives n = 2, down to denormal widths.
        lo = np.array([0.25, 0.5, 0.0, 0.1])
        hi = np.array([0.25 + 2 / 8, 0.5 + 1e-9, 5e-324, 0.1 + 1 / 2000])
        t, first = _box_axis_grids(lo, hi, np.array([8, 2000, 2000, 2000]))
        assert first.tolist() == [0, 3, 6, 9]
        want = np.concatenate([np.linspace(a, b, 3) for a, b in zip(lo, hi)])
        assert t.tobytes() == want.tobytes()

    def test_region_dimension_must_match_the_polynomial(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            sup_norm(TrigPolynomial(1, {(1,): 1.0}), TorusSet.full(2))
        with pytest.raises(ValueError, match="dimensions differ"):
            sup_norm(TrigPolynomial(2, {(1, 0): 1.0}), TorusSet.arcs([(0.0, 0.5)]))

    @pytest.mark.parametrize("d", [0, -1, 1.5, "1"])
    def test_campaign_dimension_rejected_before_any_draw(self, monkeypatch, d):
        monkeypatch.setattr(turan, "trial_rng", lambda *a: pytest.fail("drew an instance"))
        with pytest.raises(ValueError, match="integer dimension"):
            run_campaign(d, 3)

    @pytest.mark.parametrize("count", [0, -2, 2.5, 3.0, "3"])
    def test_campaign_count_rejected_before_any_draw(self, monkeypatch, count):
        monkeypatch.setattr(turan, "trial_rng", lambda *a: pytest.fail("drew an instance"))
        with pytest.raises(ValueError, match="integer count"):
            run_campaign(1, count)

    @pytest.mark.parametrize(
        "counts, message",
        [
            (lambda per_axis, card: tuple(0 for _ in per_axis), "exceeds the product of axis counts"),
            (lambda per_axis, card: tuple(card for _ in per_axis), "exceeds term count - 1"),
        ],
    )
    def test_chain_checks_fire_inside_the_campaign(self, monkeypatch, capsys, counts, message):
        # Per-axis counts that no spectrum has reach the order's chain
        # checks, in the library and through the CLI.
        order = turan._order
        monkeypatch.setattr(turan, "_order", lambda per_axis, card: order(counts(per_axis, card), card))
        for d in (1, 2):
            with pytest.raises(AssertionError, match=message):
                run_campaign(d, 40, seed=1)
            assert main(["turan", "--dim", str(d), "--random", "40"]) == EXIT_ASSERTION
            assert message in capsys.readouterr().err


def needs_redraw(d: int, rng: np.random.Generator, min_measure: float) -> bool:
    """Whether the first union that rng would draw falls below min_measure."""
    return oracle_random_torus_set(d, copy.deepcopy(rng), min_measure=5e-324).measure < min_measure


class TestDraws:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("max_per_axis", [None, 3])
    def test_draws_equal_the_oracles(self, d, max_per_axis):
        # The draws equal the oracles' object draws, built through the
        # checked constructors, and leave the generator in the same state.
        # Measures that a third or more of the first unions miss, so that
        # redraws occur.
        min_measure = {1: 0.3, 2: 0.1, 3: 0.05}[d]
        kw = dict(max_terms=8, max_freq=16 if max_per_axis is None else 4, max_per_axis=max_per_axis)
        redraws = 0
        for i in range(60):
            objects, oracle = trial_rng(29, i), trial_rng(29, i)
            want = oracle_random_polynomial(d, oracle, **kw)
            p = random_polynomial(d, objects, **kw)
            assert p.dimension == want.dimension == d
            assert (p.freqs.dtype, p.freqs.shape) == (want.freqs.dtype, want.freqs.shape)
            assert p.coefs.dtype == want.coefs.dtype
            assert p.freqs.tobytes() == want.freqs.tobytes()
            assert p.coefs.tobytes() == want.coefs.tobytes()
            assert not p.freqs.flags.writeable and not p.coefs.flags.writeable
            assert objects.bit_generator.state == oracle.bit_generator.state
            redraws += needs_redraw(d, oracle, min_measure)
            want = oracle_random_torus_set(d, oracle, min_measure)
            e = random_torus_set(d, objects, min_measure)
            assert np.array(e.lower).tobytes() == np.array(want.lower).tobytes()
            assert np.array(e.upper).tobytes() == np.array(want.upper).tobytes()
            boxes = [AxisBox(lo, hi) for lo, hi in zip(want.lower, want.upper)]
            assert e.measure.hex() == oracle_box_union_measure(boxes).hex()
            assert objects.bit_generator.state == oracle.bit_generator.state
        assert redraws > 0


def oracle_sup_norm(p: TrigPolynomial, region: TorusSet | None = None) -> SupEstimate:
    """Reference: the bracket from ``TrigPolynomial.evaluate`` on every grid
    point of every box, as sup_norm computed it before the per-axis tables."""
    region = region or TorusSet.full(p.dimension)
    density = GRID_DENSITY_FACTOR * (int(np.max(np.abs(p.freqs))) + 1)
    grad = p.gradient_bound()
    value = upper = -1.0
    for lo, hi in zip(region.lower, region.upper):
        axes = [box_axis_grid(lo[i], hi[i], density) for i in range(p.dimension)]
        box_max = float(np.max(np.abs(p.evaluate(_grid_points(axes)))))
        spacings = np.array([ax[1] - ax[0] for ax in axes])
        value = max(value, box_max)
        upper = max(upper, box_max + grad * 0.5 * float(np.linalg.norm(spacings)))
    return SupEstimate(value, upper)


def oracle_campaign(d: int, count: int, seed: int) -> list[dict]:
    """Reference: run_campaign's rows with turan_check on ``oracle_sup_norm``."""
    max_terms, max_freq, max_per_axis, min_measure = _CAMPAIGN_DRAWS[min(d, 2)]
    rows = []
    for i in range(count):
        rng = trial_rng(seed, i)
        p = oracle_random_polynomial(d, rng, max_terms=max_terms, max_freq=max_freq,
                                     max_per_axis=max_per_axis)
        e = oracle_random_torus_set(d, rng, min_measure=min_measure)
        factor = (14.0 * d / e.measure) ** poly_order(p).fm_exponent
        lhs = oracle_sup_norm(p).value
        rhs = factor * oracle_sup_norm(p, e).upper
        holds = bool(lhs <= rhs * (1.0 + 1e-12) + 1e-300)
        rows.append({"seed": i, "lhs": lhs, "rhs": rhs, "factor": factor, "holds": holds})
    return rows


class TestCampaignAgainstPointwiseOracle:
    @pytest.mark.parametrize("seed", [101, 7, 3])
    def test_one_dimensional_rows_byte_identical(self, seed):
        # In d = 1 each table entry is the oracle's exp of the same product,
        # and the contraction is the same matrix-vector product.
        assert json.dumps(run_campaign(1, 1000, seed=seed)) == json.dumps(oracle_campaign(1, 1000, seed))

    @pytest.mark.parametrize("seed", [101, 7, 3])
    def test_two_dimensional_rows_within_rounding(self, seed):
        # A product of per-axis exps rounds differently from the exp of the
        # summed phase.  Across 3000 rows on these seeds the largest move
        # is 10 ulps (1.7e-15 relative); the bound is 16 ulps.
        rows, want = run_campaign(2, 1000, seed=seed), oracle_campaign(2, 1000, seed)
        for row, ref in zip(rows, want, strict=True):
            assert (row["seed"], row["factor"], row["holds"]) == (ref["seed"], ref["factor"], ref["holds"])
            for key in ("lhs", "rhs"):
                assert abs(row[key] - ref[key]) <= 16 * np.spacing(ref[key]), (row, ref)


def oracle_box_union_measure(boxes: list[AxisBox]) -> float:
    """Reference: the slab sweep that built an AxisBox per active slab."""
    if not boxes:
        return 0.0
    if boxes[0].dimension == 1:
        return merged_length([(float(b.lower[0]), float(b.upper[0])) for b in boxes])
    cuts = sorted({float(b.lower[0]) for b in boxes} | {float(b.upper[0]) for b in boxes})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        active = [AxisBox(b.lower[1:], b.upper[1:]) for b in boxes if b.lower[0] <= mid <= b.upper[0]]
        if active:
            total += (hi - lo) * oracle_box_union_measure(active)
    return total


@st.composite
def box_unions(draw):
    """One to six boxes in [0, 1]^d, d = 1-3; half of the draws put their
    corners on the 1/8 lattice, so that faces coincide and boxes nest."""
    d = draw(st.integers(1, 3))
    snap = draw(st.booleans())
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        if snap:
            lo = [draw(st.integers(0, 7)) / 8 for _ in range(d)]
            hi = [a + draw(st.integers(1, 8 - int(8 * a))) / 8 for a in lo]
        else:
            lo = [draw(st.floats(0.0, 0.9)) for _ in range(d)]
            hi = [min(a + draw(st.floats(0.02, 0.5)), 1.0) for a in lo]
        boxes.append(AxisBox(lo, hi))
    return boxes


@given(box_unions())
@settings(max_examples=200, deadline=None)
def test_box_union_measure_equals_the_box_sweep_bit_for_bit(boxes):
    e = TorusSet([b.lower for b in boxes], [b.upper for b in boxes])
    assert e.measure.hex() == oracle_box_union_measure(boxes).hex()
