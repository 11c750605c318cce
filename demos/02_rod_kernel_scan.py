"""Critical-coupling scan for the rod-suspension kernel.

Runs the bisection scanner, prints the per-coupling table (gap to the
uniform free energy, the leading order parameter, the seeds converged,
the map applications they took, and whether the row stopped at a witness
iterate below -TOL_F = -1e-10 with its later seeds unsolved), lists the
couplings the K_# probe decided without a solve (the transition is
continuous, so every coupling below K_# is subcritical), and writes the
plot-ready CSV.  The computed K_c lands on 3 pi / 4, and the best state
at K_# is uniform to within the solves' tolerance (order parameter about
1e-5), so the order parameter does not jump there: a continuous
transition.
"""

import numpy as np

import torusmf as tm
from torusmf import io

w = tm.doi_onsager()
pd = tm.scan_kc(w, m=512, tol_K=5e-3)

print(f"K_#  = {pd.k_sharp:.6f}   (= 3 pi/4 = {3 * np.pi / 4:.6f})")
print(f"K_*  = {pd.k_star:.6f}")
print(f"K_c  = {pd.k_c_estimate:.6f} +/- {pd.bracket_width / 2:.1e}")
print(f"verdict: {pd.continuity}, jump estimate {pd.jump_estimate:.4f}")
print()
print(f"{'K':>10}  {'gap':>12}  {'|qhat(2)|':>10}  {'seeds':>5}  {'maps':>5}"
      f"  {'witness':>7}")
for r in pd.rows:
    print(f"{r.coupling:10.5f}  {r.best_gap:12.3e}  "
          f"{r.order_parameter:10.5f}  {r.n_seeds_converged:5d}  "
          f"{r.map_applications:5d}  {'yes' if r.witness else 'no':>7}")
print(f"map applications: {sum(r.map_applications for r in pd.rows)}")
print("decided by the K_# probe without a solve (subcritical, below K_#):",
      ", ".join(f"{k:.5f}" for k in pd.decided))

io.save_phase_diagram("runs/demo_rod_scan", pd)
print("\nwrote runs/demo_rod_scan/phase_diagram.csv")
