"""Critical-coupling scan for the rod-suspension kernel.

Runs the scanner and prints the couplings it solved, in order (gap to
the uniform free energy, the leading order parameter, the seeds
converged, the map applications they took), and writes the plot-ready
CSV.  The K_# probe finds no state below the uniform free energy, so the
transition is continuous and K_c = K_# = 3 pi / 4 with no Newton step;
every seed's free energy at K_# is rounding, ties in it go to the
smaller order parameter, and the state is the uniform one, so the order
parameter does not jump there.
"""

import numpy as np

import torusmf as tm
from torusmf import io

w = tm.doi_onsager()
pd = tm.scan_kc(w, m=512, tol_K=5e-3)

half = pd.bracket_width / 2
print(f"K_#  = {pd.k_sharp:.6f}   (= 3 pi/4 = {3 * np.pi / 4:.6f})")
print(f"K_*  = {pd.k_star:.6f}")
print(f"K_c  = {pd.k_c_estimate:.6f} +/- {half:.1e}, in "
      f"[{pd.k_c_estimate - half:.6f}, {pd.k_c_estimate + half:.6f}]")
print(f"verdict: {pd.continuity}, jump estimate {pd.jump_estimate:.4f}")
print()
print("couplings solved, in order: the K_# probe, then for a discontinuous")
print("transition the Newton steps and K_c - e")
print(f"{'K':>10}  {'gap':>12}  {'|qhat(2)|':>10}  {'seeds':>5}  {'maps':>5}")
for r in pd.rows:
    print(f"{r.coupling:10.5f}  {r.best_gap:12.3e}  "
          f"{r.order_parameter:10.5f}  {r.n_seeds_converged:5d}  "
          f"{r.map_applications:5d}")
print(f"map applications: {sum(r.map_applications for r in pd.rows)}, "
      f"Newton steps: {pd.newton_steps}")

io.save_phase_diagram("runs/demo_rod_scan", pd)
print("\nwrote runs/demo_rod_scan/phase_diagram.csv")
