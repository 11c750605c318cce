"""The circular log-gas: a flow that closes mode by mode.

For the kernel with coefficients 1/(2k) the Fourier modes of the flow
obey a triangular ODE system: mode k only sees modes below it.  At
integer coupling K = n the Poisson-kernel family with period 1/n is
exactly stationary; off integers the uniform state is the only
equilibrium.  The script checks stationarity at the 1e-14 scale,
integrates the hierarchy against the full grid flow at a stationary and
a moving state, and shows the subcritical decay of the leading mode.
"""

import numpy as np

import torusmf as tm
from torusmf.flow import RecordPolicy, integrate
from torusmf.loggas import integrate_hierarchy, loggas_rhs, stationary_coeffs

print("stationary family at integer coupling:")
for n in (1, 2):
    for c in (0.3, 0.7):
        r = float(np.abs(loggas_rhs(stationary_coeffs(c, n, 32), n)).max())
        print(f"  K = {n}, c = {c}: max |d qhat / dt| = {r:.2e}")

print("\nsame family off integer coupling is not stationary:")
r = float(np.abs(loggas_rhs(stationary_coeffs(0.5, 1, 32), 1.37)).max())
print(f"  K = 1.37: max |d qhat / dt| = {r:.2e}")

modes = 64
w = tm.log_gas(modes)
q0 = tm.extremal(0.5, 0, 0.0, 512)
hier0 = stationary_coeffs(0.5, 1, modes).astype(complex)
# hierarchy records every quarter horizon: (T / 4) / 2e-5 steps
for coupling, horizon, every, state in ((1.0, 1.0, 12500, "stationary"),
                                        (0.8, 0.3, 3750, "moving")):
    print(f"\nhierarchy vs full grid flow ({modes} modes, K = {coupling}, "
          f"t in [0, {horizon}], {state}):")
    tr = integrate(q0, w, coupling, horizon, dt=5e-5,
                   record=RecordPolicy("uniform", 4, snapshot_every=1))
    times, traj = integrate_hierarchy(hier0, coupling, horizon, dt=2e-5,
                                      record_every=every)
    for i, (t, q) in enumerate(zip(times, traj)):
        # the grid flow stops once stationary; its last snapshot stands in
        snap = tr.snapshots[min(i, len(tr.snapshots) - 1)]
        diff = np.abs(snap.fourier[1:modes + 1] - q).max()
        print(f"  t = {t:.3f}: |qhat(1)| = {abs(q[0]):.5f}, "
              f"sup mode difference = {diff:.2e}")

print("\nsubcritical decay at K = 0.5 (mode 1 halves every "
      f"{np.log(2) / (np.pi**2):.3f} time units):")
_, traj = integrate_hierarchy(stationary_coeffs(0.4, 1, 16).astype(complex),
                              0.5, 0.4, dt=5e-5, record_every=2000)
for i, q in enumerate(traj):
    print(f"  t = {i * 0.1:.1f}: |qhat(1)| = {abs(q[0]):.5f}")
