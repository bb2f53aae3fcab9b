"""Geometric functionals of unions of balls and boxes.

Walks through the three quantities the energy bounds depend on: Lebesgue
measure (exact or Monte Carlo), mean width over rotations (a fixed rule
over directions, no random numbers), and the certified upper bound for the
ball-cover functional sum min(r_i, r_i^d).
"""

import math

import numpy as np

from ulat import (
    AxisBox,
    Ball,
    EuclideanSet,
    Rotation,
    cover_measure_upper,
    lebesgue_measure,
    mean_width,
    projection_width,
)

disc = EuclideanSet(2, [Ball([0.0, 0.0], 1.0)])
print("unit disc")
print("  measure (exact fast path):", lebesgue_measure(disc).value, "=", math.pi)
print("  mean width:", mean_width(disc).value, "(the diameter)")

print()
print("two overlapping unit discs, centers one apart")
two = EuclideanSet(2, [Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)])
est = lebesgue_measure(two, trials=400_000, seed=1)
lens = 2 * math.pi - 2 * math.acos(0.5) + math.sqrt(3) / 2
print(f"  Monte Carlo union area: {est.value:.5f} +- {est.stderr:.5f}")
print(f"  closed-form union area: {lens:.5f}")

print()
print("unit square, projected widths")
square = EuclideanSet(2, [AxisBox([0.0, 0.0], [1.0, 1.0])])
for deg in (0, 45):
    ang = math.radians(deg)
    rot = Rotation(np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]))
    print(f"  at {deg:>2} degrees: {projection_width(square, rot):.6f}")
w = mean_width(square)
print(
    f"  mean width: {w.value:.6f}  (closed form: 4/pi = {4/math.pi:.6f},"
    f" relative error {w.value / (4 / math.pi) - 1:.1e})"
)

print()
print("cover functional upper bounds")
for radius in (0.5, 3.0):
    ball = EuclideanSet(2, [Ball([0.0, 0.0], radius)])
    cover = cover_measure_upper(ball)
    print(f"  ball r={radius}: {cover.value:.4f} with {len(cover.balls)} ball(s)")
thin = EuclideanSet(2, [AxisBox([0.0, 0.0], [1.0, 0.01])])
cover = cover_measure_upper(thin)
print(f"  thin 1 x 0.01 box: {cover.value:.4f} with {len(cover.balls)} balls "
      "(dyadic grid beats the circumscribed ball)")
