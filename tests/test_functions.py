"""Test functions: closed forms for both transform sides, correlations,
tail energies.  Numerical quadrature is the independent oracle throughout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erfc

from ulat.functions import (
    BoxIndicator,
    Combination,
    Gaussian,
    Modulated,
    Translated,
    _grid_tail,
    _piece_energy,
    cross_correlation,
    function_from_dict,
    norm_sq,
    tail_energy,
)
from ulat.geometry import AxisBox, Ball, EuclideanSet, _grid_points, _quad_nodes
from ulat.lattice import GaussianProfile
from ulat.mc import trial_rng


def numeric_hat_1d(f, xi: float, lo: float, hi: float) -> complex:
    """Quadrature oracle for the forward transform in one dimension."""
    re, _ = integrate.quad(
        lambda x: (f.value(np.array([[x]]))[0] * np.exp(2j * math.pi * x * xi)).real,
        lo, hi, limit=400,
    )
    im, _ = integrate.quad(
        lambda x: (f.value(np.array([[x]]))[0] * np.exp(2j * math.pi * x * xi)).imag,
        lo, hi, limit=400,
    )
    return complex(re, im)


class TestClosedForms:
    def test_gaussian_normalization(self):
        g = Gaussian(1.0, 3)
        assert g.value(np.zeros(3)) == pytest.approx(1.0)
        assert g.hat(np.zeros(3)) == pytest.approx(1.0)

    def test_gaussian_self_dual(self):
        g = Gaussian(1.0, 2)
        pts = trial_rng(0, 0).uniform(-2, 2, (20, 2))
        assert np.allclose(g.value(pts), g.hat(pts))

    def test_box_hat_is_sinc_product(self):
        d = 3
        box = BoxIndicator(AxisBox([-0.5] * d, [0.5] * d))
        assert box.hat(np.zeros(d)) == pytest.approx(1.0)
        xi = np.array([0.25, -1.5, 0.8])
        manual = np.prod(np.sin(math.pi * xi) / (math.pi * xi))
        assert box.hat(xi) == pytest.approx(manual, abs=1e-14)

    def test_box_hat_against_quadrature(self):
        box = BoxIndicator(AxisBox([0.2], [1.1]))
        for xi in (0.0, 0.37, -2.2):
            oracle = numeric_hat_1d(box, xi, 0.2, 1.1)
            assert box.hat(np.array([xi])) == pytest.approx(oracle, abs=1e-9)

    def test_modulated_hat_peak(self):
        y = np.array([0.7, -0.3])
        mod = Modulated(Gaussian(1.0, 2), y)
        assert mod.hat(-y) == pytest.approx(1.0)

    def test_modulation_rule_against_quadrature(self):
        # hat of f(x) exp(2 i pi x y) must equal base hat shifted to xi + y.
        rng = trial_rng(1, 0)
        for _ in range(5):
            y = float(rng.uniform(-2, 2))
            xi = float(rng.uniform(-2, 2))
            mod = Modulated(Gaussian(1.0, 1), [y])
            oracle = numeric_hat_1d(mod, xi, -6, 6)
            assert mod.hat(np.array([xi])) == pytest.approx(oracle, abs=1e-6)

    def test_translation_rule_against_quadrature(self):
        # The nested kind is supported on [0.4, 0.9]: a box modulated, then translated.
        nested = Translated(Modulated(BoxIndicator(AxisBox([0.0], [0.5])), [1.7]), [0.4])
        for tr, lo, hi in ((Translated(Gaussian(2.0, 1), [0.4]), -6, 6), (nested, 0.4, 0.9)):
            for xi in (0.0, 1.3, -0.6):
                oracle = numeric_hat_1d(tr, xi, lo, hi)
                assert tr.hat(np.array([xi])) == pytest.approx(oracle, abs=1e-8)

    def test_translated_value_is_shifted_base(self):
        x0 = np.array([0.3, -0.2])
        pts = trial_rng(4, 0).uniform(-1, 1, (200, 2))
        for base in (
            Modulated(BoxIndicator(AxisBox([-0.4, -0.1], [0.2, 0.6])), [1.3, -0.7]),
            Modulated(Gaussian(1.2, 2), [-0.4, 0.9]),
        ):
            tr = Translated(base, x0)
            assert np.allclose(tr.value(pts), base.value(pts - x0), atol=1e-14)

    def test_combination_linearity(self):
        g, b = Gaussian(1.0, 1), BoxIndicator(AxisBox([-1.0], [1.0]))
        comb = Combination([(2.0, g), (-1.0j, b)])
        xi = np.array([0.3])
        assert comb.hat(xi) == pytest.approx(2.0 * g.hat(xi) - 1.0j * b.hat(xi))
        x = np.array([0.1])
        assert comb.value(x) == pytest.approx(2.0 * g.value(x) - 1.0j * b.value(x))


class TestCrossCorrelation:
    def test_box_autocorrelation_is_triangle(self):
        box = BoxIndicator(AxisBox([0.0], [0.7]))
        zs = np.array([[0.0], [0.2], [-0.5], [0.9]])
        got = cross_correlation(box, box, zs)
        expected = np.maximum(0.7 - np.abs(zs[:, 0]), 0.0)
        assert np.allclose(got, expected, atol=1e-14)

    def test_gauss_autocorrelation_closed_form(self):
        a, d = 1.5, 2
        g = Gaussian(a, d)
        zs = trial_rng(2, 0).uniform(-2, 2, (10, d))
        got = cross_correlation(g, g, zs)
        n2 = np.einsum("ij,ij->i", zs, zs)
        expected = (2 * a) ** (-d / 2) * np.exp(-math.pi * a * n2 / 2)
        assert np.allclose(got, expected, atol=1e-14)

    def test_mixed_pair_against_quadrature(self):
        f = BoxIndicator(AxisBox([-0.3], [0.5]))
        g = Gaussian(2.0, 1)
        for z in (0.0, 0.4, -1.1):
            got = cross_correlation(f, g, np.array([z]))
            oracle, _ = integrate.quad(
                lambda x: math.exp(-2 * math.pi * (x + z) ** 2), -0.3, 0.5
            )
            assert got == pytest.approx(oracle, abs=1e-12)

    def test_modulated_pair_against_quadrature(self):
        f = Modulated(BoxIndicator(AxisBox([-0.4], [0.6])), [1.2])
        g = Modulated(Gaussian(1.0, 1), [-0.5])
        z = 0.3

        def integrand(x):
            return (f.value(np.array([[x]]))[0] * np.conj(g.value(np.array([[x + z]]))[0]))

        re, _ = integrate.quad(lambda x: integrand(x).real, -0.4, 0.6, limit=200)
        im, _ = integrate.quad(lambda x: integrand(x).imag, -0.4, 0.6, limit=200)
        got = cross_correlation(f, g, np.array([z]))
        assert got == pytest.approx(complex(re, im), abs=1e-10)

    def test_hermitian_symmetry(self):
        f = Combination(
            [(1.0, BoxIndicator(AxisBox([-0.2, -0.2], [0.4, 0.3]))), (0.5j, Gaussian(1.0, 2))]
        )
        zs = trial_rng(3, 0).uniform(-1, 1, (8, 2))
        assert np.allclose(
            cross_correlation(f, f, zs), np.conj(cross_correlation(f, f, -zs)), atol=1e-13
        )

    def test_norm_sq_gaussian(self):
        for d in (1, 2, 3):
            assert norm_sq(Gaussian(1.0, d)) == pytest.approx(2.0 ** (-d / 2))

    def test_norm_sq_box_is_volume(self):
        box = BoxIndicator(AxisBox([0, 0], [0.5, 0.25]))
        assert norm_sq(box) == pytest.approx(0.125)


class TestTailEnergy:
    def test_huge_ball_no_tail(self):
        s = EuclideanSet(1, [Ball([0.0], 50.0)])
        est = tail_energy(Gaussian(1.0, 1), s)
        assert est.value <= 1e-12

    def test_interval_tail_matches_dense_quadrature(self):
        # Independent oracle: 1e6-point midpoint rule on |f|^2 far out.
        T = 1.0
        xs = np.linspace(T, 12.0, 1_000_001)
        xs = 0.5 * (xs[1:] + xs[:-1])
        dense = 2.0 * np.sum(np.exp(-2 * math.pi * xs**2)) * (xs[1] - xs[0])
        est = tail_energy(Gaussian(1.0, 1), EuclideanSet(1, [Ball([0.0], T)]))
        assert est.value == pytest.approx(dense, abs=1e-8)
        assert est.value == pytest.approx((1 / math.sqrt(2)) * erfc(math.sqrt(2 * math.pi) * T), rel=1e-12)

    def test_empty_set_gives_total_energy(self):
        for d in (1, 2):
            est = tail_energy(Gaussian(1.0, d), EuclideanSet(d, []))
            assert est.value == pytest.approx(2.0 ** (-d / 2))

    def test_hat_side_complement_route_for_box(self):
        box = BoxIndicator(AxisBox([-0.25, -0.25], [0.25, 0.25]))
        s = EuclideanSet(2, [Ball([0.0, 0.0], 2.0)])
        est = tail_energy(box, s, side="hat")
        assert 0.0 < est.value < norm_sq(box)

    def test_grid_and_closed_form_agree(self):
        s = EuclideanSet(1, [Ball([0.0], 0.8)])
        closed = tail_energy(Gaussian(1.0, 1), s)
        assert closed.exact
        grid = _grid_tail(Gaussian(1.0, 1), s, "space", 0.01)
        assert grid.value == pytest.approx(closed.value, abs=5 * grid.stderr + 1e-6)


def test_quadrature_nodes_are_computed_once_and_shared_read_only():
    xs, ws = _quad_nodes(48)
    assert _quad_nodes(48)[0] is xs
    assert not xs.flags.writeable and not ws.flags.writeable
    want_xs, want_ws = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(xs, want_xs) and np.array_equal(ws, want_ws)


@pytest.mark.parametrize(
    "build", [lambda a: Gaussian(a, 2), lambda a: GaussianProfile(2, a)],
    ids=["Gaussian", "GaussianProfile"],
)
@pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
def test_gaussian_scale_must_be_positive_and_finite(build, a):
    with pytest.raises(ValueError):
        build(a)


class TestSerialization:
    def test_round_trip_all_kinds(self):
        f = Combination(
            [
                (1.5, Translated(Modulated(BoxIndicator(AxisBox([0.0], [0.5])), [2.0]), [0.1])),
                (-2.0j, Gaussian(0.7, 1)),
            ]
        )
        # The same nested function, written out by hand as a document.
        box = {"kind": "box", "lower": [0.0], "upper": [0.5]}
        modulated = {"kind": "modulated", "y": [2.0], "children": [box]}
        doc = {
            "kind": "combination",
            "children": [
                {"coef": [1.5, 0.0],
                 "function": {"kind": "translated", "x0": [0.1], "children": [modulated]}},
                {"coef": [0.0, -2.0], "function": {"kind": "gaussian", "a": 0.7, "dimension": 1}},
            ],
        }
        back = function_from_dict(doc)
        pts = trial_rng(5, 0).uniform(-1, 1, (10, 1))
        assert np.allclose(back.value(pts), f.value(pts))
        assert np.allclose(back.hat(pts), f.hat(pts))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            function_from_dict({"kind": "wavelet"})


def _all_kinds() -> dict:
    """The five kinds in d = 2, plus two nested ones."""
    box = BoxIndicator(AxisBox([-0.3, -0.2], [0.4, 0.5]))
    g = Gaussian(1.7, 2)
    return {
        "gaussian": g,
        "box": box,
        "combination": Combination([(2.0, g), (-1.0j, box)]),
        "modulated": Modulated(box, [0.9, -1.4]),
        "translated": Translated(g, [1.1, -0.6]),
        "translated_modulated_box": Translated(Modulated(box, [-0.8, 1.3]), [0.7, 1.2]),
        "combination_of_combination": Combination(
            [
                (0.5 - 1.5j, Combination([(1.0, box), (2.0j, Translated(box, [0.5, 0.5]))])),
                (-0.7, Modulated(Translated(box, [-1.0, 0.3]), [0.3, 0.4])),
            ]
        ),
    }


KINDS = _all_kinds()


class TestEnvelopes:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_envelopes_majorize(self, kind):
        f = KINDS[kind]
        pts = trial_rng(8, 0).uniform(-4, 4, (400, 2))
        r = np.linalg.norm(pts, axis=1)
        assert np.all(np.abs(f.value(pts)) <= f.envelope(r) + 1e-12)
        assert np.all(np.abs(f.hat(pts)) <= f.envelope_hat(r) + 1e-12)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_support_set_contains_nonzero_values(self, kind):
        f = KINDS[kind]
        s = f.support_set()
        if s is None:
            assert f.support_radius == math.inf
            return
        # Half the points are drawn from the support's bounding box, so both
        # sides of every box face are hit.
        lo, hi = s.bounding_box()
        rng = trial_rng(9, 0)
        pts = np.vstack([rng.uniform(lo - 0.1, hi + 0.1, (400, 2)), rng.uniform(-3, 3, (400, 2))])
        nonzero = np.abs(f.value(pts)) > 0
        assert np.any(nonzero)
        assert np.all(s.contains(pts[nonzero]))

    def test_gaussian_envelope_majorizes(self):
        g = Gaussian(1.0, 2)
        pts = trial_rng(6, 0).uniform(-3, 3, (50, 2))
        r = np.linalg.norm(pts, axis=1)
        assert np.all(np.abs(g.value(pts)) <= g.envelope(r) + 1e-15)

    def test_box_hat_envelope_majorizes(self):
        box = BoxIndicator(AxisBox([-0.3, -0.2], [0.4, 0.5]))
        pts = trial_rng(7, 0).uniform(-8, 8, (200, 2))
        r = np.linalg.norm(pts, axis=1)
        assert np.all(np.abs(box.hat(pts)) <= box.envelope_hat(r) + 1e-12)

    def test_support_set_through_wrappers(self):
        f = Translated(BoxIndicator(AxisBox([0.0, 0.0], [0.5, 0.5])), [1.0, -1.0])
        s = f.support_set()
        assert s.contains(np.array([1.2, -0.8]))
        assert not s.contains(np.array([0.2, 0.2]))
        assert Gaussian(1.0, 2).support_set() is None


# ---------------------------------------------------------------------------
# Per-axis forms against the short-axis forms they replace, bit for bit
# ---------------------------------------------------------------------------


def reduction_box_hat(f, xi) -> np.ndarray:
    """Oracle: each box leaf's hat as one product over the last axis, times
    the centre phase whether or not the centre is zero."""
    xi = np.asarray(xi, dtype=float)
    terms = []
    for leaf in f.leaves:
        x = xi + leaf.modulation if np.any(leaf.modulation) else xi
        widths = leaf.box.upper - leaf.box.lower
        prod = np.prod(widths * np.sinc(widths * x), axis=-1)
        out = prod * np.exp(2j * math.pi * (x @ leaf.box.center()))
        terms.append(out if leaf.coef == 1 else leaf.coef * out)
    return terms[0] if len(terms) == 1 else sum(terms)


# Coordinates with signed zeros, negatives and values on sinc's zeros; a
# frequency may also be so large that a product of sinc factors underflows
# to a signed zero.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 0.25, -0.75]), st.floats(-6.0, 6.0)
)
FREQS = st.one_of(COORDS, st.sampled_from([1e200, -1e200]))


@st.composite
def box_functions(draw):
    d = draw(st.integers(1, 3))

    def vector(coords=COORDS):
        return draw(st.lists(coords, min_size=d, max_size=d))

    def box():
        widths = np.array(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 0.7, 3.0]),
                                        min_size=d, max_size=d)))
        if draw(st.booleans()):  # centre exactly zero
            return BoxIndicator(AxisBox(-widths / 2, widths / 2))
        lower = np.array(vector())
        return BoxIndicator(AxisBox(lower, lower + widths))

    kind = draw(st.sampled_from(["plain", "modulated", "translated", "combination"]))
    if kind == "plain":
        f = box()
    elif kind == "modulated":
        f = Modulated(box(), vector(FREQS))
    elif kind == "translated":
        f = Translated(box(), vector())
    else:
        f = Combination([(1.0, box()), (-0.5 + 2j, Modulated(box(), vector())),
                         (0.25, Translated(box(), vector()))])
    lead = draw(st.sampled_from([(), (1,), (7,), (2, 3)]))
    xi = np.array(draw(st.lists(FREQS, min_size=d * math.prod(lead),
                                max_size=d * math.prod(lead)))).reshape(lead + (d,))
    return f, xi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(box_functions())
def test_box_hat_equals_the_reduction_form(case):
    f, xi = case
    got, want = np.asarray(f.hat(xi)), np.asarray(reduction_box_hat(f, xi))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def mesh_piece_energy(fn, piece, d: int, level: int) -> float:
    """Oracle: the piece quadrature with nodes as centre + r * direction
    rows and box weights as the product over each row of the weight mesh."""
    n = 24 * 2**level
    xs, ws = _quad_nodes(n)
    if isinstance(piece, AxisBox):
        half = 0.5 * (piece.upper - piece.lower)
        mid = 0.5 * (piece.upper + piece.lower)
        axes = [half[i] * xs + mid[i] for i in range(d)]
        weights = [half[i] * ws for i in range(d)]
        mesh = _grid_points(axes)
        wmesh = np.prod(_grid_points(weights), axis=1)
        return float(np.sum(wmesh * np.abs(fn(mesh)) ** 2))
    if d == 1:
        vals = np.abs(fn((piece.center[0] + piece.radius * xs)[:, None])) ** 2
        return float(piece.radius * np.sum(ws * vals))
    r = 0.5 * piece.radius * (xs + 1.0)
    m = 2 * n
    theta = 2.0 * math.pi * np.arange(m) / m
    if d == 2:
        wr = 0.5 * piece.radius * ws * r
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        pts = piece.center + r[:, None, None] * dirs[None, :, :]
        vals = np.abs(fn(pts.reshape(-1, 2)).reshape(len(r), m)) ** 2
        return float((2.0 * math.pi / m) * np.sum(wr * np.sum(vals, axis=1)))
    wr = 0.5 * piece.radius * ws * r * r
    sin_phi = np.sqrt(1.0 - xs**2)
    dirs = np.stack(
        [
            sin_phi[:, None] * np.cos(theta)[None, :],
            sin_phi[:, None] * np.sin(theta)[None, :],
            np.broadcast_to(xs[:, None], (n, m)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    pts = piece.center + r[:, None, None] * dirs[None, :, :]
    vals = np.abs(fn(pts.reshape(-1, 3))).reshape(len(r), len(dirs)) ** 2
    ang_w = np.repeat(ws, m) * (2.0 * math.pi / m)
    return float(np.sum(wr * (vals @ ang_w)))


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["ball", "box"])
def test_piece_nodes_and_weights_equal_the_mesh_builders(kind, d, level):
    piece = {
        "ball": Ball([0.3, -1.7, 0.55][:d], 1.3),
        "box": AxisBox([-0.4, 1.1, -2.0][:d], [0.9, 1.35, -0.6][:d]),
    }[kind]
    f = Modulated(Translated(Gaussian(0.8, d), [0.2, -0.1, 0.4][:d]), [1.5, -0.5, 0.25][:d])
    seen = {"got": [], "want": []}

    def recorded(key):
        return lambda x: seen[key].append(x.copy()) or f.hat(x)

    got = _piece_energy(recorded("got"), piece, d, level)
    want = mesh_piece_energy(recorded("want"), piece, d, level)
    assert got.hex() == want.hex()
    (nodes,), (ref,) = seen["got"], seen["want"]
    assert nodes.shape == ref.shape and nodes.tobytes() == ref.tobytes()
