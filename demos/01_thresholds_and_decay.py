"""Closed-form thresholds and the coefficient-decay condition.

Walks the kernel catalog and prints, for each model, the linear
stability threshold K_# of the uniform state, the coercivity threshold
K_*, and whether the normalized coefficients satisfy the decay bound
2 what(k) <= (n+1)/k.  The decay verdict is the whole story: when it
passes, the critical coupling equals K_# and the transition is
continuous; when it fails, a strictly better nonuniform state exists
already at K_# and the transition jumps.
"""

import numpy as np

import torusmf as tm


def describe(name, w):
    ks, mode = tm.k_sharp(w)
    kstar = tm.k_star(w)
    rep = tm.check_decay(w)
    print(f"\n{name}  (period 1/{w.lead_mode})")
    print(f"  K_#   = {ks:.6f}  (mode {mode})")
    print(f"  K_*   = {kstar:.6f}")
    print(f"  decay condition: {'pass' if rep.passed else 'FAIL'}"
          + (f" at k = {rep.first_violation}" if rep.first_violation else "")
          + (", tail certified" if rep.tail_certified else ""))
    verdict = "continuous at K_c = K_#" if rep.passed else \
        "discontinuous at K_c < K_#"
    print(f"  => transition {verdict}")


print("=" * 64)
print("kernel catalog: stability thresholds and decay condition")
print("=" * 64)

describe("rod suspension  W = -|sin(2 pi theta)|", tm.doi_onsager())

bstar = tm.beta_star()
print(f"\nattention kernel threshold beta_* = {bstar:.6f} "
      "(where I_2 = I_1 / 2)")
for beta in (1.0, 2.0, bstar, 3.0, 4.0):
    describe(f"attention kernel, beta = {beta:.4f}",
             tm.transformer(beta))

rstar = tm.r_star()
print(f"\nbounded-confidence threshold R_* = {rstar:.6f} "
      "(where R = sin R (2 - cos R))")
for radius in (0.5, 1.0, rstar, 2.5, 3.0):
    describe(f"bounded confidence, R = {radius:.4f}",
             tm.hegselmann_krause(radius))

describe("circular log-gas (truncated at 64 modes)", tm.log_gas(64))
print("\nlog-gas note: every normalized coefficient meets the decay bound "
      "with equality;\nfor K > 1 the free energy is unbounded below and no "
      "minimizer exists.")
