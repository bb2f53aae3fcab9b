"""Periodizing a function over a random lattice.

The periodization wraps dilated-rotated translates of a function onto the
torus; its Fourier coefficients sample the transform on the dual lattice.
The demo verifies the coefficient formula through Parseval's identity
against a Gaussian probe and shows the support-dilation bound for compactly
supported sources.
"""

import numpy as np

from ulat import BoxIndicator, Gaussian, Periodization, sample_lattice
from ulat.geometry import AxisBox
from ulat.mc import trial_rng

lat = sample_lattice(2, trial_rng(0, 0))
print(f"lattice draw: dilation v = {lat.dilation:.4f}")

gauss = Periodization(Gaussian(1.0, 2), lat)
print()
print("Gaussian source")
print(f"  coefficient at 0: {gauss.coefficient(np.zeros(2)).real:.6f}"
      f"  (sqrt(v) = {lat.dilation ** 0.5:.6f})")
print(f"  torus energy (closed-form lattice autocorrelation): {gauss.energy():.12f}")
print(f"  Parseval gap (Gaussian-probe route): {gauss.parseval_gap():.2e}")

side = 2.0 ** (-3 / 2)
box = Periodization(BoxIndicator(AxisBox([-side / 2] * 2, [side / 2] * 2)), lat)
print()
print("box source of measure 1/8")
print(f"  torus energy (closed-form lattice autocorrelation): {box.energy():.12f}")
print(f"  Parseval gap (Gaussian-probe route): {box.parseval_gap():.2e}")
frac = box.support_fraction(512)
print(f"  support fraction on a 512^2 grid: {frac:.4f}"
      f"  (dilation bound 2^d |S| = {4 * 0.125:.3f})")
print(f"  zero-set fraction: {1 - frac:.4f}  (always at least 1/2 here)")

print()
print("support fractions over five more draws")
for trial in range(1, 6):
    lat_t = sample_lattice(2, trial_rng(0, trial))
    frac = Periodization(
        BoxIndicator(AxisBox([-side / 2] * 2, [side / 2] * 2)), lat_t
    ).support_fraction(256)
    print(f"  v = {lat_t.dilation:.3f}: fraction {frac:.4f}")
