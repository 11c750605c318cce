"""Relaxation rates of the gradient flow against the spectral gap.

Subcritically the distance to the uniform state decays exponentially at
the linearization rate 2 pi^2 k^2 (1 - 2 K what(k)) minimized over the
kernel's mode lattice; at the critical coupling the gap closes and the
decay turns algebraic (about t^{-1/2} for a quartic free-energy well).
Both regimes are fitted from one trace each.
"""

import numpy as np

import torusmf as tm
from torusmf import io
from torusmf.flow import RecordPolicy, fit_rate, integrate

w = tm.doi_onsager()

# subcritical: exponential at the spectral-gap rate
coupling = 3 * np.pi / 8
lam = tm.lambda_star(w, coupling)
q0 = tm.cosine_profile({2: 0.01}, 256)
tr = integrate(q0, w, coupling, 0.8, dt=1e-4,
               record=RecordPolicy("uniform", 400), stop_residual=1e-13)
fit = fit_rate(tr, "exponential")
print(f"subcritical K = {coupling:.4f}:")
print(f"  spectral gap {lam.rate:.4f} at mode {lam.mode} "
      f"(radian-units value {lam.rate / (2 * np.pi) ** 2:.3f})")
print(f"  fitted W2 rate {fit.rate:.4f}  (R^2 = {fit.goodness:.6f}, "
      f"window {fit.window[0]:.3f}..{fit.window[1]:.3f})")
io.save_trace("runs/demo_flow_subcritical", tr)

# critical: algebraic decay
kc = 3 * np.pi / 4
q0 = tm.cosine_profile({2: 0.3}, 128)
tr = integrate(q0, w, kc, 400.0, dt=5e-4,
               record=RecordPolicy("geometric", t0=0.05, factor=1.06),
               stop_residual=0.0)
fit = fit_rate(tr, "algebraic")
print(f"\ncritical K = {kc:.4f}:")
print(f"  fitted W2 exponent {fit.rate:.3f} "
      f"(quartic-well prediction -1/2), R^2 = {fit.goodness:.6f}")
io.save_trace("runs/demo_flow_critical", tr)
print("\nwrote runs/demo_flow_subcritical and runs/demo_flow_critical")
