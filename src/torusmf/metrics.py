"""The quadratic Wasserstein distance on the circle to the uniform state.

The gradient flow evaluates it on its record states stacked on a leading
axis (``w2_rows``, after ``flow.integrate``'s run).
Against the uniform state the cost of the circular quantile coupling
(Delon, Salomon & Sobolevski, SIAM J. Appl. Math. 70, 2010) is quadratic
in its CDF offset (Bonet et al., ICLR 2023, Prop. 1), and the distance
has a closed form.  The distance between two non-uniform densities, by
Brent's minimization over the offset, is the test oracle
``tests/oracles.py:w2_circle_brent``.
"""

from __future__ import annotations

import numpy as np

from .density import Density


def w2_circle(q: Density) -> float:
    """Quadratic Wasserstein distance on the circle between the density
    ``q`` and the exactly uniform state.

    W2^2 is the variance over t in [0, 1] of Q(t) - t, Q the quantile
    function of ``q``, integrated exactly on its linear pieces.
    """
    return float(w2_rows(q.grid_values))


def w2_rows(values: np.ndarray) -> np.ndarray:
    """``w2_circle`` of the densities with grid values ``values``, over the
    last axis."""
    # with Qu(t) = t - 1/2 the offset cost is the mean square of
    # g(t) - alpha, g = Qq(t) - t, so W2^2 is the variance of g over [0, 1].
    # g is linear on the quantile's pieces: from g_j to g_{j+1} over a
    # length v_j / M, and g_j = sum_{i<j} (1 - v_i) / M - 1/2 carries the
    # deviation from uniform without cancellation
    m = values.shape[-1]
    g = np.zeros(values.shape[:-1] + (m + 1,))
    g[..., 1:] = np.cumsum(1.0 - values, axis=-1) / m
    lengths = values / m
    lo, hi = g[..., :-1], g[..., 1:]
    g -= (np.sum(lengths * (lo + hi), axis=-1) / 2.0)[..., None]
    second = np.sum(lengths * (lo ** 2 + lo * hi + hi ** 2), axis=-1)
    return np.sqrt(np.maximum(second / 3.0, 0.0))
