"""Closed Fourier hierarchy of the circular log-gas flow.

For the kernel with coefficients 1/(2k) the flow closes mode by mode:

    d/dt qhat(k) = -2 pi^2 k (k - K) qhat(k)
                   + 2 pi^2 k K sum_{j=1}^{k-1} qhat(j) qhat(k-j),

so the first M coefficients form an autonomous triangular ODE system.
At integer coupling K = n the Poisson-kernel family with period 1/n is
stationary; the cancellation is algebraic, and the right-hand side is
evaluated in extended precision so it survives at the 1e-14 scale.
The system is stiff like k^2; scipy's adaptive BDF integrates it.
"""

from __future__ import annotations

import numpy as np

from .particles import step_count


def stationary_coeffs(c: float, n: int, m: int) -> np.ndarray:
    """qhat(1..m) of the stationary family at coupling K = n:

    qhat(j n) = c^(j), zero off the lattice of n.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    if n < 1:
        raise ValueError("the stationary family needs integer coupling n >= 1")
    # extended precision: verifying the algebraic cancellation at the
    # 1e-14 scale needs inputs whose powers are consistent beyond double
    out = np.zeros(m, dtype=np.clongdouble)
    js = np.arange(n, m + 1, n)
    out[js - 1] = np.longdouble(c) ** (js // n)
    return out


def loggas_rhs(coeffs: np.ndarray, coupling: float) -> np.ndarray:
    """Right-hand side of the hierarchy for coeffs = qhat(1..M).

    The mode-k equation only uses modes below k, honored exactly by the
    triangular convolution.  Internally evaluated in extended precision
    (the stationary-family cancellation sits below double rounding noise).
    """
    coeffs = np.asarray(coeffs)
    m = coeffs.shape[0]
    q = coeffs.astype(np.clongdouble)
    k = np.arange(1, m + 1, dtype=np.longdouble)
    kk = np.longdouble(coupling)
    conv = np.zeros(m, dtype=np.clongdouble)
    if m >= 2:
        # full self-convolution: entry k-2 is sum_{j=1}^{k-1} qhat(j) qhat(k-j)
        conv[1:] = np.convolve(q, q)[: m - 1]
    two_pi2 = 2.0 * np.longdouble(np.pi) ** 2
    rhs = -two_pi2 * k * (k - kk) * q + two_pi2 * k * kk * conv
    return rhs.astype(complex)


def integrate_hierarchy(
    q0: np.ndarray,
    coupling: float,
    horizon: float,
    dt: float = 1e-5,
    record_every: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """scipy's BDF (Shampine & Reichelt, SIAM J. Sci. Comput. 18, 1997) at
    rtol 1e-12, atol 1e-14 and first step ``dt`` on the hierarchy.

    Returns (times, trajectory) with trajectory[i] = qhat(1..M) at
    times[i] = j dt for every ``record_every``-th j below n = horizon / dt,
    and at n dt.  ``horizon`` must be a whole number of steps ``dt``, and
    ``record_every`` at least 1.
    """
    # here: the CLI imports loggas; scipy.integrate takes 29-45 ms to import
    from scipy.integrate import solve_ivp

    n_steps = step_count(horizon, dt)
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    times = dt * np.unique(np.append(np.arange(0, n_steps, record_every),
                                     n_steps))
    q0 = np.array(q0, dtype=complex)
    sol = solve_ivp(lambda t, q: loggas_rhs(q, coupling), (0.0, times[-1]),
                    q0, method="BDF", t_eval=times, first_step=dt,
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return times, sol.y.T
