"""Turan-type sup-norm inequalities for sparse trigonometric polynomials.

The global sup of a polynomial with few frequencies is controlled by its
sup on any set of positive measure.  The demo evaluates hand-checkable
cases and runs a randomized campaign with certified sup-norm brackets.
"""

from ulat import TorusSet, TrigPolynomial, poly_order, run_campaign, sup_norm, turan_check

print("p(t) = 2 cos(2 pi t), E = [0, 1/2]")
p = TrigPolynomial(1, {(1,): 1.0, (-1,): 1.0})
res = turan_check(p, TorusSet.arcs([(0.0, 0.5)]))
print(f"  global sup {res.lhs:.3f} <= factor {res.factor:.0f} * sup_E -> rhs {res.rhs:.1f}"
      f"  holds={res.holds}")

print()
print("p(t) = 4 cos(2 pi t1) cos(2 pi t2), E = [0, 1/2]^2")
p2 = TrigPolynomial(2, {(1, 1): 1.0, (1, -1): 1.0, (-1, 1): 1.0, (-1, -1): 1.0})
o = poly_order(p2)
res = turan_check(p2, TorusSet([[0.0, 0.0]], [[0.5, 0.5]]))
print(f"  per-axis orders {o.per_axis}, exponent {o.fm_exponent}")
print(f"  global sup {res.lhs:.3f}, factor {res.factor:.0f}, holds={res.holds}")

print()
print("certified sup-norm bracket on a random 5-term polynomial")
from ulat.mc import trial_rng
from ulat.turan import random_polynomial, random_torus_set

rng = trial_rng(3, 0)
rp = random_polynomial(1, rng, max_terms=5, max_freq=8)
est = sup_norm(rp)
print(f"  sup in [{est.value:.5f}, {est.upper:.5f}]")
scattered = float(abs(rp.evaluate(rng.uniform(0.0, 1.0, (4096, 1)))).max())
print(f"  largest |p| at 4096 random points {scattered:.5f} <= {est.upper:.5f}")
e = random_torus_set(1, rng)
res = turan_check(rp, e)
print(f"  on a random union of {len(e.lower)} arcs of measure {e.measure:.3f}:"
      f" factor {res.factor:.4g}, holds={res.holds}")

print()
for d in (1, 2):
    rows = run_campaign(d, 300, seed=0)
    bad = sum(not r["holds"] for r in rows)
    print(f"campaign d={d}: {len(rows)} random instances, {bad} violations")
