"""Continuity dichotomy of the attention kernel across beta.

Below beta_* the order parameter grows continuously from zero at
K_c = K_#; above beta_* a finite jump appears and K_c slips strictly
below K_#.  This script scans a few beta values on both sides and
tabulates K_c, K_#, and the jump.  Near beta_* the first-order jump is
still large but the coupling margin K_# - K_c is tiny (the transition
is only weakly first order there); Newton's method in K resolves it to
about 1e-8.
"""

import numpy as np

import torusmf as tm

bstar = tm.beta_star()
print(f"beta_* = {bstar:.6f}\n")
print(f"{'beta':>7}  {'K_c':>9}  {'K_#':>9}  {'K_#-K_c':>9}  "
      f"{'jump':>7}  verdict")

for beta in (1.0, 2.0, bstar - 0.01, 2.6, 3.0, 4.0):
    w = tm.transformer(beta)
    ks, _ = tm.k_sharp(w)
    pd = tm.scan_kc(w, m=512)
    print(f"{beta:7.4f}  {pd.k_c_estimate:9.5f}  {ks:9.5f}  "
          f"{ks - pd.k_c_estimate:9.2e}  {pd.jump_estimate:7.4f}  "
          f"{pd.continuity}")

print("\nthe jump switches on precisely at beta_*, while K_# - K_c grows "
      "from zero\nas beta moves past the tricritical point")
