"""The sharp entropy inequality, its exponential dual, and coercivity.

Randomized admissible inputs never break the inequalities; the
Poisson-kernel family saturates both to rounding; and the coercivity
split shows exactly how the free energy stays nonnegative up to the
critical coupling and dips below zero beyond it.  The c -> 1 limit of
the extremal family sends both sides of the entropy inequality to
infinity together (the atomic endpoint).
"""

import numpy as np

import torusmf as tm
from torusmf.inequalities import (
    coercivity_gap,
    entropy_seminorm_gap,
    extremal_phi,
    lebedev_milin_gap,
    run_entropy_suite,
    run_exponential_suite,
)

for n in (0, 1, 2):
    rep = run_entropy_suite(n, samples=300, m=2048, seed=5 + n)
    rex = run_exponential_suite(n, samples=300, m=2048, seed=50 + n)
    print(f"lattice n={n}: entropy gap in [{rep.min_gap:.2e}, {rep.max_gap:.2e}]"
          f" ({rep.violations} violations), exponential gap min "
          f"{rex.min_gap:.2e} ({rex.violations} violations)")

print("\nextremal family saturation (gaps at rounding scale):")
for c in (0.3, 0.6, 0.9):
    q = tm.extremal(c, 1, 0.125, 2048)
    g1 = entropy_seminorm_gap(q, 1)
    g2 = lebedev_milin_gap(extremal_phi(c, 1, 0.125, 2048), 1)
    print(f"  c = {c}: entropy gap {g1:+.2e}, exponential gap {g2:+.2e}, "
          f"both sides = {-np.log(1 - c * c):.6f}")

print("\ncoercivity split of the free energy (rod kernel, normalized):")
w = tm.normalize(tm.doi_onsager())
q = tm.extremal(0.4, 1, 0.0, 1024)
for coupling in (0.8, 1.0, 1.3):
    t1, t2, tot = coercivity_gap(q, w, coupling)
    print(f"  K = {coupling}: entropy term {t1:+.5f}, mode term {t2:+.5f}, "
          f"free energy {tot:+.5f}")
best, _ = tm.find_minimizer(w, 1.3, m=512)
t1, t2, tot = coercivity_gap(best.density, w, 1.3)
print(f"  K = 1.3 at the true minimizer: total {tot:+.6f} < 0 "
      "(uniform no longer global)")

print("\natomic endpoint: both sides diverge together as c -> 1:")
for c in (0.9, 0.99, 0.999):
    q = tm.extremal(c, 0, 0.0, 8192)
    print(f"  c = {c}: entropy {tm.relative_entropy(q):8.4f}, "
          f"dual sum {tm.dual_dirichlet_sum(q, 0):8.4f}")
