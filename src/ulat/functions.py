"""Closed-form test functions with exact Fourier transforms.

The transform convention is  fhat(xi) = integral f(x) exp(+2 i pi <x, xi>) dx.
A test function is a finite sum of separable leaves, each a Gaussian bump
or a box indicator with a coefficient and a modulation.  Closed forms for
both sides, radial decay envelopes and support sets are written once, on
the leaves.  The kinds -- Gaussians exp(-pi a ||x||^2), box indicators,
finite linear combinations, modulations and translations -- are
constructors: each validates its parameters and builds its leaves.

Cross-correlations  C_{f,g}(z) = integral f(x) conj(g(x + z)) dx  are
evaluated in closed form leaf by leaf; they power exact torus energies of
periodizations and the tail-energy routines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erf, gammaincc

from .geometry import AxisBox, Ball, EuclideanSet, _grid_points, _quad_nodes
from .mc import Estimate

__all__ = [
    "TestFunction",
    "Gaussian",
    "BoxIndicator",
    "Combination",
    "Modulated",
    "Translated",
    "cross_correlation",
    "norm_sq",
    "tail_energy",
    "function_from_dict",
]

_TWO_PI_I = 2j * math.pi


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Leaf:
    """Separable atom: coef * shape(x) * exp(2 i pi <x, modulation>).

    shape is either a Gaussian bump exp(-pi a ||x - center||^2) or the
    indicator of ``box``.
    """

    coef: complex
    modulation: np.ndarray
    a: float | None = None
    center: np.ndarray | None = None
    box: AxisBox | None = None

    @property
    def is_gauss(self) -> bool:
        return self.box is None

    @property
    def dimension(self) -> int:
        return self.modulation.shape[0]

    def scaled(self, c: complex) -> "_Leaf":
        return replace(self, coef=self.coef * c)

    def modulated(self, y: np.ndarray) -> "_Leaf":
        return replace(self, modulation=self.modulation + y)

    def translated(self, t: np.ndarray) -> "_Leaf":
        # value(x - t): shift the shape and absorb the constant phase.
        coef = self.coef * np.exp(-_TWO_PI_I * float(t @ self.modulation))
        if self.is_gauss:
            return replace(self, coef=coef, center=self.center + t)
        return replace(self, coef=coef, box=self.box.translate(t))

    # A unit coefficient or a zero modulation is skipped rather than
    # multiplied in, which keeps signed zeros of the plain kinds intact.

    def _finish(self, out: np.ndarray) -> np.ndarray:
        return out if self.coef == 1 else self.coef * out

    def value(self, x: np.ndarray) -> np.ndarray:
        if self.is_gauss:
            diff = x - self.center
            n2 = np.einsum("...i,...i->...", diff, diff)
            out = np.exp(-math.pi * self.a * n2).astype(complex)
        else:
            out = self.box.contains(x).astype(complex)
        if np.any(self.modulation):
            out = out * np.exp(_TWO_PI_I * (x @ self.modulation))
        return self._finish(out)

    def hat(self, xi: np.ndarray) -> np.ndarray:
        shift = self.modulation if np.any(self.modulation) else None
        if self.is_gauss:
            if shift is not None:
                xi = xi + shift
            n2 = np.einsum("...i,...i->...", xi, xi)
            out = (self.a ** (-self.dimension / 2.0) * np.exp(-math.pi * n2 / self.a)).astype(
                complex
            )
            if np.any(self.center):
                out = out * np.exp(_TWO_PI_I * (xi @ self.center))
            return self._finish(out)
        # The sinc factors multiply one axis column at a time, left to right:
        # the bits of a product over the last axis, far cheaper when that
        # axis is only d long.  Each column takes its own modulation, so the
        # shifted (..., d) array is built only for a nonzero centre's phase.
        widths = self.box.upper - self.box.lower
        prod = None
        for i, w in enumerate(widths):
            x = xi[..., i] if shift is None else xi[..., i] + shift[i]
            term = w * np.sinc(w * x)
            prod = term if prod is None else prod * term
        center = self.box.center()
        if np.any(center):
            if shift is not None:
                xi = xi + shift
            out = prod * np.exp(_TWO_PI_I * (xi @ center))
        else:
            # A real p times exp(0j) = 1 + 0j is p - 0*0 + (p*0 + 0*1)j, which
            # is (p, +0.0) for every finite p: the bits astype gives.
            out = prod.astype(complex)
        return self._finish(out)

    def envelope(self, r: np.ndarray) -> np.ndarray:
        if not self.is_gauss:
            return abs(self.coef) * (r <= self.box.bounding_radius() + 1e-15).astype(float)
        r = np.maximum(r - np.linalg.norm(self.center), 0.0)
        return abs(self.coef) * np.exp(-math.pi * self.a * r**2)

    def envelope_hat(self, r: np.ndarray) -> np.ndarray:
        # |hat| peaks at -modulation, so the radial majorant shifts by its norm.
        r = np.maximum(r - np.linalg.norm(self.modulation), 0.0)
        if self.is_gauss:
            out = self.a ** (-self.dimension / 2.0) * np.exp(-math.pi * r**2 / self.a)
        else:
            widths = self.box.upper - self.box.lower
            vol = float(np.prod(widths))
            slow = vol * math.sqrt(self.dimension) / (math.pi * float(np.min(widths)))
            out = np.minimum(vol, slow / np.maximum(r, 1e-300))
        return abs(self.coef) * out

    def spatial_radius(self, tol: float) -> float:
        if not self.is_gauss:
            return self.box.bounding_radius() + 1e-9
        reach = math.sqrt(max(math.log(1.0 / tol), 0.0) / (math.pi * self.a))
        return float(np.linalg.norm(self.center)) + reach

    def hat_radius(self, tol: float) -> float:
        # |hat| of a Gaussian leaf is centered at -modulation with scale 1/a.
        reach = math.sqrt(max(math.log(1.0 / tol), 0.0) * self.a / math.pi)
        return float(np.linalg.norm(self.modulation)) + reach


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------


class TestFunction:
    """Finite sum of leaves; the kinds below build the tuple ``leaves``."""

    leaves: tuple

    def _set_leaves(self, leaves) -> None:
        object.__setattr__(self, "leaves", tuple(leaves))

    @property
    def dimension(self) -> int:
        return self.leaves[0].dimension

    def _sum(self, term):
        # A single leaf is returned as computed, so its floats stay untouched.
        if len(self.leaves) == 1:
            return term(self.leaves[0])
        return sum(term(leaf) for leaf in self.leaves)

    # -- evaluation ------------------------------------------------------

    def value(self, x) -> np.ndarray:
        x = self._coerce(x)
        return self._sum(lambda leaf: leaf.value(x))

    def hat(self, xi) -> np.ndarray:
        xi = self._coerce(xi)
        return self._sum(lambda leaf: leaf.hat(xi))

    # -- structure ---------------------------------------------------------

    def support_set(self) -> EuclideanSet | None:
        """Support as a union of boxes, or None for full-support kinds."""
        if any(leaf.is_gauss for leaf in self.leaves):
            return None
        return EuclideanSet(self.dimension, [leaf.box for leaf in self.leaves])

    @property
    def support_radius(self) -> float:
        s = self.support_set()
        return s.bounding_radius() if s is not None else math.inf

    # -- decay envelopes ---------------------------------------------------

    def envelope(self, r):
        """Nonincreasing radial majorant of |f|."""
        r = np.asarray(r, dtype=float)
        return self._sum(lambda leaf: leaf.envelope(r))

    def envelope_hat(self, r):
        """Nonincreasing radial majorant of |fhat|."""
        r = np.asarray(r, dtype=float)
        return self._sum(lambda leaf: leaf.envelope_hat(r))

    def spatial_radius(self, tol: float = 1e-9) -> float:
        """Radius beyond which |f| is below tol times its peak scale."""
        return max(leaf.spatial_radius(tol) for leaf in self.leaves)

    def hat_radius(self, tol: float = 1e-9) -> float:
        """Radius beyond which |fhat| is certifiably below tol.

        Only available when every leaf is Gaussian; box transforms decay
        too slowly for a radial cutoff certificate.
        """
        if not all(leaf.is_gauss for leaf in self.leaves):
            raise ValueError("hat-side radial cutoff requires Gaussian leaves")
        return max(leaf.hat_radius(tol) for leaf in self.leaves)

    def _coerce(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1] != self.dimension:
            raise ValueError(
                f"expected points of dimension {self.dimension}, got shape {arr.shape}"
            )
        return arr


@dataclass(frozen=True, eq=False)
class Gaussian(TestFunction):
    """f(x) = exp(-pi a ||x||^2); self-dual at a = 1."""

    a: float
    dimension: int = 1

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError(f"Gaussian scale must be positive and finite, got {self.a}")
        d = self.dimension
        self._set_leaves([_Leaf(1.0 + 0.0j, np.zeros(d), a=self.a, center=np.zeros(d))])


@dataclass(frozen=True, eq=False)
class BoxIndicator(TestFunction):
    """Indicator of an axis-aligned box."""

    box: AxisBox

    def __post_init__(self):
        self._set_leaves([_Leaf(1.0 + 0.0j, np.zeros(self.box.dimension), box=self.box)])


@dataclass(frozen=True, eq=False)
class Combination(TestFunction):
    """Finite linear combination sum_i c_i f_i."""

    def __init__(self, terms):
        terms = tuple((complex(c), f) for c, f in terms)
        if not terms:
            raise ValueError("combination requires at least one term")
        d = terms[0][1].dimension
        if any(f.dimension != d for _, f in terms):
            raise ValueError("combination terms must share one dimension")
        self._set_leaves(leaf.scaled(c) for c, f in terms for leaf in f.leaves)


@dataclass(frozen=True, eq=False)
class Modulated(TestFunction):
    """f(x) = base(x) exp(+2 i pi <x, y>), so fhat(xi) = base_hat(xi + y)."""

    def __init__(self, base: TestFunction, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (base.dimension,):
            raise ValueError("modulation frequency must match the base dimension")
        self._set_leaves(leaf.modulated(y) for leaf in base.leaves)


@dataclass(frozen=True, eq=False)
class Translated(TestFunction):
    """f(x) = base(x - x0), so fhat(xi) = exp(2 i pi <x0, xi>) base_hat(xi)."""

    def __init__(self, base: TestFunction, x0):
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape != (base.dimension,):
            raise ValueError("translation offset must match the base dimension")
        self._set_leaves(leaf.translated(x0) for leaf in base.leaves)


# ---------------------------------------------------------------------------
# Cross-correlations
# ---------------------------------------------------------------------------


def _exp_integral(lo, hi, omega: float):
    """integral_lo^hi exp(2 i pi omega x) dx, elementwise over arrays."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = np.maximum(hi - lo, 0.0)
    if omega == 0.0:
        return width.astype(complex)
    out = (np.exp(_TWO_PI_I * omega * hi) - np.exp(_TWO_PI_I * omega * lo)) / (
        _TWO_PI_I * omega
    )
    return np.where(width > 0, out, 0.0)


def _gauss_segment(alpha, beta, a: float, gamma, omega: float):
    """integral_alpha^beta exp(-pi a (x - gamma)^2 + 2 i pi omega x) dx."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    root = math.sqrt(math.pi * a)
    shift = 1j * omega / a
    upper = erf(root * (beta - gamma - shift))
    lower = erf(root * (alpha - gamma - shift))
    prefactor = np.exp(_TWO_PI_I * omega * gamma - math.pi * omega * omega / a)
    return prefactor * (upper - lower) / (2.0 * math.sqrt(a))


def _pair_kernel(l1: _Leaf, l2: _Leaf, z: np.ndarray) -> np.ndarray:
    """integral l1(x) conj(l2(x + z)) dx for an (n, d) array of shifts."""
    z = np.atleast_2d(z)
    n, d = z.shape
    omega = l1.modulation - l2.modulation
    out = np.full(n, l1.coef * np.conj(l2.coef), dtype=complex)
    out *= np.exp(-_TWO_PI_I * (z @ l2.modulation))
    for i in range(d):
        zi = z[:, i]
        wi = float(omega[i])
        if l1.is_gauss and l2.is_gauss:
            a1, a2 = l1.a, l2.a
            mu1 = float(l1.center[i])
            beta = float(l2.center[i]) - zi
            total = a1 + a2
            mu_star = (a1 * mu1 + a2 * beta) / total
            cross = a1 * a2 / total
            axis = (
                total**-0.5
                * np.exp(-math.pi * cross * (mu1 - beta) ** 2)
                * np.exp(_TWO_PI_I * wi * mu_star)
                * math.exp(-math.pi * wi * wi / total)
            )
        elif not l1.is_gauss and not l2.is_gauss:
            lo = np.maximum(float(l1.box.lower[i]), float(l2.box.lower[i]) - zi)
            hi = np.minimum(float(l1.box.upper[i]), float(l2.box.upper[i]) - zi)
            axis = _exp_integral(lo, hi, wi)
        elif not l1.is_gauss:  # box x gauss
            gamma = float(l2.center[i]) - zi
            axis = _gauss_segment(float(l1.box.lower[i]), float(l1.box.upper[i]), l2.a, gamma, wi)
        else:  # gauss x box
            lo = float(l2.box.lower[i]) - zi
            hi = float(l2.box.upper[i]) - zi
            axis = _gauss_segment(lo, hi, l1.a, float(l1.center[i]), wi)
        out *= axis
    return out


def cross_correlation(f: TestFunction, g: TestFunction, z) -> np.ndarray:
    """C_{f,g}(z) = integral f(x) conj(g(x + z)) dx, in closed form.

    ``z`` may be a single point or an (n, d) array.
    """
    if f.dimension != g.dimension:
        raise ValueError("cross-correlation requires matching dimensions")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 1
    pts = np.atleast_2d(z)
    acc = np.zeros(pts.shape[0], dtype=complex)
    for l1 in f.leaves:
        for l2 in g.leaves:
            acc += _pair_kernel(l1, l2, pts)
    return acc[0] if scalar else acc


def norm_sq(f: TestFunction) -> float:
    """Squared L2 norm, exact via the autocorrelation at 0."""
    return float(np.real(cross_correlation(f, f, np.zeros(f.dimension))))


# ---------------------------------------------------------------------------
# Tail energies
# ---------------------------------------------------------------------------


def _closed_form_case(f: TestFunction, s: EuclideanSet, side: str) -> tuple[_Leaf, float] | None:
    """(leaf, radius) when f is a plain Gaussian and s is empty (radius 0) or
    one ball centered where |f| (or |fhat|) peaks; None otherwise."""
    if len(f.leaves) != 1 or not f.leaves[0].is_gauss or np.any(f.leaves[0].modulation):
        return None
    leaf = f.leaves[0]
    if s.is_empty():
        return leaf, 0.0
    if len(s.pieces) == 1 and isinstance(s.pieces[0], Ball):
        ball = s.pieces[0]
        anchor = leaf.center if side == "space" else np.zeros(f.dimension)
        if np.allclose(ball.center, anchor, atol=1e-12):
            return leaf, ball.radius
    return None


def _gauss_ball_tail(c_abs2: float, a: float, d: int, radius: float) -> float:
    """integral_{||x|| >= radius} |c exp(-pi a ||x||^2)|^2 dx."""
    return c_abs2 * (2.0 * a) ** (-d / 2.0) * float(
        gammaincc(d / 2.0, 2.0 * math.pi * a * radius * radius)
    )


def _side_eval(f: TestFunction, side: str):
    return f.value if side == "space" else f.hat


def _ball_nodes(center: np.ndarray, r: np.ndarray, dirs) -> np.ndarray:
    """The points center + r_j * u_k as rows, j major, built one coordinate
    at a time from the direction columns ``dirs``."""
    return np.stack([c + r[:, None] * u for c, u in zip(center, dirs)], axis=-1).reshape(
        -1, len(dirs)
    )


def _piece_energy(fn, piece, d: int, level: int) -> float:
    """Quadrature of |fn|^2 over one ball or box piece (smooth integrands)."""
    n = 24 * 2**level
    if isinstance(piece, AxisBox):
        xs, ws = _quad_nodes(n)
        axes = []
        weights = []
        for i in range(d):
            lo, hi = piece.lower[i], piece.upper[i]
            axes.append(0.5 * (hi - lo) * xs + 0.5 * (hi + lo))
            weights.append(0.5 * (hi - lo) * ws)
        mesh = _grid_points(axes)
        # w_0 * w_1 * ... left to right, the order of a product over a mesh row.
        wmesh = functools.reduce(np.multiply.outer, weights).ravel()
        vals = np.abs(fn(mesh)) ** 2
        return float(np.sum(wmesh * vals))
    if not isinstance(piece, Ball):
        raise ValueError(f"piece quadrature supports balls and boxes, not {type(piece).__name__}")
    if d == 1:
        xs, ws = _quad_nodes(n)
        pts = piece.center[0] + piece.radius * xs
        vals = np.abs(fn(pts[:, None])) ** 2
        return float(piece.radius * np.sum(ws * vals))
    if d == 2:
        xs, ws = _quad_nodes(n)
        r = 0.5 * piece.radius * (xs + 1.0)
        wr = 0.5 * piece.radius * ws * r
        m = 2 * n
        theta = 2.0 * math.pi * np.arange(m) / m
        pts = _ball_nodes(piece.center, r, (np.cos(theta), np.sin(theta)))
        vals = np.abs(fn(pts).reshape(len(r), m)) ** 2
        return float((2.0 * math.pi / m) * np.sum(wr * np.sum(vals, axis=1)))
    if d == 3:
        xs, ws = _quad_nodes(n)
        r = 0.5 * piece.radius * (xs + 1.0)
        wr = 0.5 * piece.radius * ws * r * r
        cs, wc = _quad_nodes(n)
        m = 2 * n
        theta = 2.0 * math.pi * np.arange(m) / m
        sin_phi = np.sqrt(1.0 - cs**2)
        dirs = (
            np.multiply.outer(sin_phi, np.cos(theta)).ravel(),
            np.multiply.outer(sin_phi, np.sin(theta)).ravel(),
            np.repeat(cs, m),
        )
        pts = _ball_nodes(piece.center, r, dirs)
        vals = np.abs(fn(pts)).reshape(len(r), n * m) ** 2
        ang_w = np.repeat(wc, m) * (2.0 * math.pi / m)
        return float(np.sum(wr * (vals @ ang_w)))
    raise ValueError("piece quadrature supports d <= 3")


def band_energy(f: TestFunction, s: EuclideanSet, side: str) -> float:
    """integral_S of |f|^2 or |fhat|^2, by adaptive per-piece quadrature.

    Each piece doubles its node count until two levels agree to a relative
    1e-9, or five levels have run.  Pieces must be pairwise disjoint so the
    union integral is a plain sum.  Intended for smooth integrands (hat side
    of compact functions, or Gaussian-type space sides).
    """
    if s.is_empty():
        return 0.0
    if not s.pairwise_disjoint():
        raise ValueError("band_energy requires pairwise disjoint pieces")
    fn = _side_eval(f, side)
    total = 0.0
    for piece in s.pieces:
        prev = _piece_energy(fn, piece, s.dimension, 0)
        for level in range(1, 5):
            cur = _piece_energy(fn, piece, s.dimension, level)
            if abs(cur - prev) <= 1e-9 * max(abs(cur), 1e-300):
                prev = cur
                break
            prev = cur
        total += prev
    return total


def tail_energy(f: TestFunction, s: EuclideanSet, side: str = "space") -> Estimate:
    """Energy of f (or fhat) outside the set ``s``.

    The route follows from the inputs:
      closed form            a plain Gaussian against the empty set or a
                             concentric ball (exact);
      complement quadrature  ||f||^2 minus the smooth in-set quadrature, on
                             the space side of all-Gaussian functions and the
                             hat side of compactly supported ones;
      grid                   otherwise, a rectangle rule with Richardson error
                             estimate over the envelope window.
    """
    if side not in ("space", "hat"):
        raise ValueError("side must be 'space' or 'hat'")
    if s.dimension != f.dimension and not s.is_empty():
        raise ValueError("set dimension does not match function dimension")
    closed = _closed_form_case(f, s, side)
    if closed is not None:
        leaf, radius = closed
        c2 = abs(leaf.coef) ** 2
        if side == "space":
            return Estimate(_gauss_ball_tail(c2, leaf.a, f.dimension, radius), 0.0, exact=True)
        # |fhat|^2 = |c|^2 a^-d exp(-2 pi ||xi||^2 / a)
        d = f.dimension
        value = c2 * leaf.a ** (-d) * (leaf.a / 2.0) ** (d / 2.0) * float(
            gammaincc(d / 2.0, 2.0 * math.pi * radius * radius / leaf.a)
        )
        return Estimate(value, 0.0, exact=True)
    if (side == "hat" and math.isfinite(f.support_radius)) or (
        side == "space" and all(leaf.is_gauss for leaf in f.leaves)
    ):
        total = norm_sq(f)
        inside = band_energy(f, s, side)
        return Estimate(max(total - inside, 0.0), 1e-9 * total)
    return _grid_tail(f, s, side, 0.05)


def _envelope_leak(env, d: int, extent: float) -> float:
    from scipy import integrate

    surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    val, _ = integrate.quad(
        lambda r: float(np.asarray(env(r)).reshape(())) ** 2 * r ** (d - 1),
        extent,
        extent + 64.0,
    )
    return surface * val


def _grid_sum(fn, s: EuclideanSet, d: int, extent: float, h: float) -> float:
    mesh = _grid_points([np.arange(-extent + h / 2.0, extent, h)] * d)
    vals = np.abs(fn(mesh)) ** 2
    if not s.is_empty():
        vals = vals * (~s.contains(mesh))
    return float(h**d * np.sum(vals))


def _grid_tail(f: TestFunction, s: EuclideanSet, side: str, h: float) -> Estimate:
    """Rectangle rule at steps h and h/2 over the envelope window; the error
    is their gap plus the envelope mass outside the window."""
    try:
        extent = f.spatial_radius(1e-7) if side == "space" else f.hat_radius(1e-7)
    except ValueError as exc:
        raise ValueError(f"grid tail energy needs a finite envelope extent: {exc}") from exc
    fn = _side_eval(f, side)
    coarse = _grid_sum(fn, s, f.dimension, extent, h)
    fine = _grid_sum(fn, s, f.dimension, extent, h / 2.0)
    env = f.envelope if side == "space" else f.envelope_hat
    leak = _envelope_leak(env, f.dimension, extent)
    return Estimate(fine, abs(fine - coarse) + leak)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def function_from_dict(doc: dict) -> TestFunction:
    kind = doc.get("kind")
    if kind == "gaussian":
        return Gaussian(doc["a"], int(doc.get("dimension", 1)))
    if kind == "box":
        return BoxIndicator(AxisBox(doc["lower"], doc["upper"]))
    if kind == "combination":
        terms = [
            (complex(item["coef"][0], item["coef"][1]), function_from_dict(item["function"]))
            for item in doc["children"]
        ]
        return Combination(terms)
    if kind == "modulated":
        return Modulated(function_from_dict(doc["children"][0]), doc["y"])
    if kind == "translated":
        return Translated(function_from_dict(doc["children"][0]), doc["x0"])
    raise ValueError(f"unknown function kind: {kind!r}")
