"""Numerical verification of the sharp entropy inequalities.

Two dual inequalities are checked on the circle:

  * exponential form: for phi with vanishing tilted moments
    int e^phi e^{2 pi i k theta} = 0 (1 <= k <= n),

        log int e^phi - int phi  <=  (1/(n+1)) sum_{k>=1} k |phihat(k)|^2,

    with equality exactly when e^{-phi} is a trigonometric polynomial of
    degree n+1;

  * entropy form: for 1/(n+1)-periodic densities,

        H(q | uniform)  >=  (n+1) sum_{k>=1} |qhat(k)|^2 / k,

    with equality exactly on the Poisson-kernel family.

The right sides are evaluated in Fourier form directly (no harmonic
extension to the disk is discretized).  The coercivity decomposition
splits the free energy into the entropy gap plus a mode-wise quadratic
form, which is the identity behind the continuity threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density as dens
from .density import (
    Density,
    dual_dirichlet_sum,
    free_energy,
    grid_to_fourier,
    relative_entropy,
)
from .errors import ConstraintViolated, PeriodicityViolated
from .potentials import Potential

#: tolerance on tilted-moment constraints and off-lattice content
CONSTRAINT_TOL = 1e-9


def lebedev_milin_gap(phi: np.ndarray, n: int) -> float:
    """Slack of the exponential inequality for a grid function phi.

    phi lives on a density grid (a power of two M >= 4).  Nonnegative for
    admissible phi (ConstraintViolated otherwise); zero up to quadrature
    on the extremal family.
    """
    phi = dens.validate_values(phi)
    m = phi.shape[0]
    if n < 0:
        raise ValueError("n must be >= 0")
    e = np.exp(phi)
    ehat = grid_to_fourier(e)
    for k in range(1, n + 1):
        if abs(ehat[k]) > CONSTRAINT_TOL * abs(ehat[0]):
            raise ConstraintViolated(
                f"tilted moment k={k} is {abs(ehat[k]):.2e}, not zero"
            )
    phihat = grid_to_fourier(phi)
    k = np.arange(1, m // 2 + 1)
    dirichlet = float(np.sum(k * np.abs(phihat[1:]) ** 2)) / (n + 1)
    lhs = float(np.log(e.mean()) - phi.mean())
    return dirichlet - lhs


def extremal_phi(c: float, n: int, theta0: float = 0.0,
                 m: int = 2048) -> np.ndarray:
    """Equality case phi = -log(1 + c^2 - 2 c cos(2 pi (n+1)(theta - theta0)))."""
    th = dens.theta_grid(m)
    return -np.log(
        1.0 + c * c - 2.0 * c * np.cos(2.0 * np.pi * (n + 1) * (th - theta0))
    )


def check_periodic(q: Density, n: int) -> None:
    """Raise unless q's off-lattice Fourier content is <= CONSTRAINT_TOL."""
    m = q.grid_size
    k = np.arange(m // 2 + 1)
    off = (k % (n + 1) != 0)
    worst = float(np.abs(q.fourier[off]).max()) if off.any() else 0.0
    if worst > CONSTRAINT_TOL:
        raise PeriodicityViolated(
            f"off-lattice Fourier content {worst:.2e} exceeds "
            f"{CONSTRAINT_TOL:.0e}"
        )


def entropy_seminorm_gap(q: Density, n: int) -> float:
    """H(q | uniform) - (n+1) sum |qhat(k)|^2 / k for periodic q.

    Nonnegative up to quadrature; vanishes exactly on the Poisson-kernel
    family (any rotation).
    """
    check_periodic(q, n)
    return relative_entropy(q) - dual_dirichlet_sum(q, n)


def coercivity_gap(q: Density, w: Potential,
                   coupling: float) -> tuple[float, float, float]:
    """Split F_K(q) into the entropy gap plus the mode-wise quadratic form.

    Returns (term1, term2, total) with

        term1 = H(q|u) - (n+1) sum_k |qhat(k)|^2 / k,
        term2 = sum_k ((n+1)/k - 2 K what(k)) |qhat(k)|^2,
        total = F_K(q),

    an exact identity (the dual-seminorm parts cancel).  Here n is
    ``w.periodicity``; the kernel must be lead-normalized, 2 what(n+1) = 1,
    and q 1/(n+1)-periodic.  For K below the coercivity threshold both
    terms are nonnegative, which is the mechanism pinning the critical
    coupling.
    """
    n = w.periodicity
    lead = 2.0 * float(w.coeff(n + 1))
    if abs(lead - 1.0) > 1e-10:
        raise ValueError(
            f"kernel not lead-normalized: 2 what({n + 1}) = {lead:.6g}"
        )
    term1 = entropy_seminorm_gap(q, n)
    m = q.grid_size
    k = np.arange(1, m // 2 + 1)
    wk = dens.kernel_spectrum(w, m)[1:]
    amp2 = np.abs(q.fourier[1:]) ** 2
    term2 = float(
        np.sum(((n + 1) / k - 2.0 * coupling * wk) * amp2)
    )
    total = free_energy(q, w, coupling)
    return term1, term2, total


# ---------------------------------------------------------------------------
# randomized admissible inputs


def random_tilted_density(n: int, m: int = 2048, rng=None) -> Density:
    """Random smooth 1/(n+1)-periodic density by exponential tilting.

    q = e^psi / Z with psi from ``random_tilted_phi``; positivity and
    periodicity hold by construction, and smoothness keeps the 1e-9 scale
    quadrature-clean.
    """
    psi = random_tilted_phi(n, m, rng)
    e = np.exp(psi)
    return dens.from_grid(e / e.mean())


def random_tilted_phi(n: int, m: int = 2048, rng=None) -> np.ndarray:
    """Random (n+1)-periodic trigonometric polynomial with decaying modes.

    Eight modes on the (n+1) lattice; mode j has normal cosine and sine
    coefficients of standard deviation (1.2 / sqrt 8) 0.7^(j-1).
    """
    rng = np.random.default_rng(rng)
    th = dens.theta_grid(m)
    psi = np.zeros(m)
    n_modes = 8
    scale = 1.2 / np.sqrt(n_modes)
    for j in range(1, n_modes + 1):
        k = (n + 1) * j
        sigma = scale * 0.7 ** (j - 1)
        a, b = rng.normal(0.0, sigma, 2)
        psi += a * np.cos(2 * np.pi * k * th) + b * np.sin(2 * np.pi * k * th)
    return psi


# ---------------------------------------------------------------------------
# randomized suites


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one randomized inequality suite."""

    suite: str
    n: int
    samples: int
    violations: int
    min_gap: float
    median_gap: float
    max_gap: float
    tolerance: float


def run_entropy_suite(n: int, samples: int = 500, m: int = 2048,
                      seed: int = 0) -> SuiteReport:
    """Randomized check of the entropy inequality at periodicity n; a gap
    below -1e-9 is a violation."""
    return _run_suite("entropy_seminorm", random_tilted_density,
                      entropy_seminorm_gap, n, samples, m, seed)


def run_exponential_suite(n: int, samples: int = 500, m: int = 2048,
                          seed: int = 0) -> SuiteReport:
    """Randomized check of the exponential inequality at periodicity n; a
    gap below -1e-9 is a violation."""
    return _run_suite("lebedev_milin", random_tilted_phi, lebedev_milin_gap,
                      n, samples, m, seed)


def _run_suite(name: str, draw, gap, n: int, samples: int, m: int,
               seed: int) -> SuiteReport:
    """``gap(draw(n, m, rng), n)`` over ``samples`` draws from one rng."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    gaps = np.array([gap(draw(n, m, rng), n) for _ in range(samples)])
    tol = 1e-9
    return SuiteReport(suite=name, n=n, samples=samples, tolerance=tol,
                       violations=int(np.sum(gaps < -tol)),
                       min_gap=float(gaps.min()), max_gap=float(gaps.max()),
                       median_gap=float(np.median(gaps)))
