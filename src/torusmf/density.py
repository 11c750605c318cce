"""Densities on the unit circle and their spectral functionals.

The circle is [-1/2, 1/2) with periodic boundary; grid nodes are
theta_j = -1/2 + j/M for a power-of-two M.  A density carries both its
grid values and the Fourier coefficients

    qhat(k) = int q(theta) exp(-2 pi i k theta) dtheta,   |k| <= M/2,

kept exactly consistent (qhat is the rescaled real FFT of the grid values,
so the pair represents one trigonometric polynomial).  All functionals
below are spectrally accurate for smooth densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy.fft runs through these ufuncs.  Calling them directly gives the
# same bits and skips numpy.fft's per-call argument handling, which at
# M = 128 costs more than the transform itself: ``rfft_kernel(values, 1.0,
# out=)``, the unscaled real FFT over the last axis (M even), and its
# inverse ``irfft_kernel(spectrum, 1.0 / M, out=)`` write into buffers the
# caller owns and check nothing.
from numpy.fft._pocketfft_umath import irfft as irfft_kernel
from numpy.fft._pocketfft_umath import rfft_n_even as rfft_kernel

from .errors import NegativeDensity, NonPositiveMass, NotFinite, PositivityLoss

#: clipped negative mass above which construction refuses to proceed
CLIP_TOL = 1e-6


@lru_cache(maxsize=32)
def theta_grid(m: int) -> np.ndarray:
    """Grid nodes theta_j = -1/2 + j/M."""
    g = -0.5 + np.arange(m) / m
    g.flags.writeable = False
    return g


# Positive-mode sums run over k = 1..M/2 with unit weight: this matches the
# circulant form of the grid quadrature exactly (the sampled Nyquist cosine
# carries both +-M/2 contributions), so Parseval identities hold to rounding
# for any grid data.


@lru_cache(maxsize=32)
def grid_phase(m: int, scale: float) -> np.ndarray:
    """(-1)^k times ``scale``, k = 0..M/2: the factor between a real FFT
    of the grid values and the coefficients qhat(k) (``scale`` = 1/M) and
    back (``scale`` = M); (-1)^k because the grid starts at -1/2."""
    p = np.full(m // 2 + 1, scale, dtype=float)
    p[1::2] *= -1.0
    p.flags.writeable = False
    return p


def grid_to_fourier(values: np.ndarray) -> np.ndarray:
    """qhat(0..M/2) of float64 grid values, M even, over the last axis."""
    m = values.shape[-1]
    raw = rfft_kernel(values, 1.0, out=np.empty(
        values.shape[:-1] + (m // 2 + 1,), dtype=complex))
    return raw * grid_phase(m, 1.0 / m)


def fourier_to_grid(fourier: np.ndarray, m: int) -> np.ndarray:
    """Grid values of a complex128 half-spectrum qhat(0..M/2)."""
    spectrum = fourier * grid_phase(m, m)
    return irfft_kernel(spectrum, 1.0 / m,
                        out=np.empty(spectrum.shape[:-1] + (m,)))


@dataclass(frozen=True, eq=False)
class Density:
    """Probability density on the circle in dual grid/Fourier form.

    Attributes
    ----------
    grid_values : ndarray, shape (M,)
        Nonnegative values at theta_j = -1/2 + j/M with mean exactly 1.
    fourier : ndarray, shape (M/2 + 1,), complex
        Coefficients qhat(k) for k = 0..M/2; qhat(0) == 1.  Negative modes
        follow from Hermitian symmetry (the density is real).
    """

    grid_values: np.ndarray
    fourier: np.ndarray

    def __post_init__(self):
        self.grid_values.flags.writeable = False
        self.fourier.flags.writeable = False

    @property
    def grid_size(self) -> int:
        """M, a power of two."""
        return len(self.grid_values)

    @property
    def theta(self) -> np.ndarray:
        return theta_grid(self.grid_size)

    def order_parameter(self, k: int) -> float:
        """|qhat(k)|, the amplitude of mode k.  At the Nyquist mode k = M/2
        the stored coefficient holds both the +M/2 and -M/2 terms of the
        sampled cosine, so it is halved there."""
        amp = float(np.abs(self.fourier[abs(k)]))
        return 0.5 * amp if abs(k) == self.grid_size // 2 else amp


def validate_values(values: np.ndarray) -> np.ndarray:
    """``values`` as floats, checked to be finite samples on a grid of a
    power of two M >= 4."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a 1-D array of grid values")
    m = values.shape[0]
    if m < 4 or (m & (m - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 4, got {m}")
    if not np.all(np.isfinite(values)):
        raise NotFinite("density values contain NaN or inf")
    return values


def from_grid(values: np.ndarray) -> "Density":
    """Build a density from grid samples.

    Values must be nonnegative up to -1e-12 (tiny spectral undershoots are
    clipped).  The values are divided by their mean, so the mean is 1.
    """
    values = validate_values(values).copy()
    if np.any(values < -1e-12):
        raise NegativeDensity(
            f"negative density value {values.min():.3e} below -1e-12"
        )
    np.clip(values, 0.0, None, out=values)
    total = values.mean()
    if total <= 0.0:
        raise NonPositiveMass("density has non-positive total mass")
    values /= total
    fourier = grid_to_fourier(values)
    # pin the exactly-known mass; rounding in the FFT stays in k >= 1
    fourier[0] = 1.0
    return Density(values, fourier)


def from_fourier(fourier: np.ndarray, m: int) -> "Density":
    """Build a density from its half-spectrum qhat(0..M/2).

    Grid values are clipped at zero; if the clipped negative mass exceeds
    CLIP_TOL the spectral state is declared under-resolved.  When no
    clipping occurs and qhat(0) is 1 to 1e-15, the given spectrum is kept
    verbatim; otherwise the density is ``from_grid`` of the clipped values.
    """
    fourier = np.asarray(fourier, dtype=complex)
    if fourier.shape != (m // 2 + 1,):
        raise ValueError("half-spectrum length must be M/2 + 1")
    if not np.all(np.isfinite(fourier)):
        raise NotFinite("Fourier coefficients contain NaN or inf")
    values = fourier_to_grid(fourier, m)
    neg = values < 0.0
    total = float(fourier[0].real)
    if not neg.any() and abs(total - 1.0) <= 1e-15:
        f = fourier.copy()
        f[0] = 1.0
        return Density(values / total, f)
    clipped = -float(values[neg].sum()) / m
    if clipped > CLIP_TOL:
        raise PositivityLoss(
            f"clipped negative mass {clipped:.3e} exceeds {CLIP_TOL:.0e}; "
            "increase the grid resolution"
        )
    return from_grid(np.clip(values, 0.0, None))


def uniform(m: int = 512) -> "Density":
    """The uniform state q == 1."""
    return from_grid(np.ones(m))


def extremal(c: float, n: int, theta0: float = 0.0, m: int = 512) -> "Density":
    """Poisson-kernel family with period 1/(n+1):

        q(theta) = (1 - c^2) / (1 + c^2 - 2 c cos(2 pi (n+1)(theta - theta0)))

    Its coefficients are qhat((n+1) l) = c^l exp(-2 pi i (n+1) l theta0),
    zero off the lattice.  c in [0, 1).
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must lie in [0, 1), got {c}")
    if n < 0:
        raise ValueError("n must be >= 0")
    th = theta_grid(m)
    vals = (1.0 - c * c) / (
        1.0 + c * c - 2.0 * c * np.cos(2.0 * np.pi * (n + 1) * (th - theta0))
    )
    return from_grid(vals)


def cosine_profile(amps: dict[int, float], m: int = 512) -> "Density":
    """1 + sum_k a_k cos(2 pi k theta) as a density (must stay nonnegative)."""
    th = theta_grid(m)
    vals = np.ones(m)
    for k, a in amps.items():
        vals += a * np.cos(2.0 * np.pi * k * th)
    return from_grid(vals)


# ---------------------------------------------------------------------------
# functionals


def relative_entropy(q: Density) -> float:
    """Entropy of q relative to the uniform state, int q log q.

    Rectangle quadrature on the grid (spectrally accurate for smooth q).
    Evaluated as mean((1+u) log1p(u)) with u = q - 1, which keeps full
    precision for near-uniform states; zero cells contribute 0.
    """
    v = q.grid_values
    if np.any(v < -1e-12):
        raise NegativeDensity("density has values below -1e-12")
    u = v - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = v * np.log1p(u)
    terms[v == 0.0] = 0.0
    h = float(terms.mean())
    return h


def dual_dirichlet_sum(q: Density, n: int) -> float:
    """(n+1) * sum_{k>=1} |qhat(k)|^2 / k.

    Equals pi (n+1) ||q - 1||^2 in the H^{-1/2} seminorm with the
    convention ||f||^2 = sum_{k != 0} |2 pi k|^{-1} |fhat(k)|^2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    m = q.grid_size
    k = np.arange(1, m // 2 + 1)
    amp2 = np.abs(q.fourier[1:]) ** 2
    return float((n + 1) * np.sum(amp2 / k))


def interaction_energy(q: Density, w) -> float:
    """Interaction energy of q with itself through kernel w.

    Parseval form 2 sum_{k>=1} what(k) |qhat(k)|^2 over the modes the grid
    resolves.
    """
    wk = kernel_spectrum(w, q.grid_size)[1:]
    amp2 = np.abs(q.fourier[1:]) ** 2
    return float(2.0 * np.sum(wk * amp2))


def free_energy(q: Density, w, coupling: float) -> float:
    """relative_entropy(q) - coupling * interaction_energy(q, w).

    Zero at the uniform state for every zero-mean kernel.
    """
    return relative_entropy(q) - coupling * interaction_energy(q, w)


def kernel_spectrum(w, m: int) -> np.ndarray:
    """what(k) for k = 0..M/2, zero at k = 0 and beyond the truncation:
    the half-spectrum of W *."""
    out = np.zeros(m // 2 + 1)
    upto = min(m // 2, w.truncation)
    out[1:upto + 1] = w.coeffs[:upto]
    return out
