"""Distances between densities on the circle.

The quadratic Wasserstein distance uses the circular quantile coupling:
for measures on the circle the optimal cost is the minimum over a scalar
CDF offset of the line cost between shifted quantile functions (Delon,
Salomon & Sobolevski, SIAM J. Appl. Math. 70, 2010).  The offset problem
is convex and solved by bounded Brent minimization (Brent, Algorithms for
Minimization without Derivatives, 1973) via ``scipy.optimize``.  Against
the uniform state the cost is quadratic in the offset (Bonet et al., ICLR
2023, Prop. 1), and the distance has a closed form.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from .density import Density

_METRICS = ("L1", "L2", "W2_circle")
#: half-offset of the two-point Gauss-Legendre nodes, 1 / (2 sqrt(3))
_GAUSS_2 = 0.5 / np.sqrt(3.0)
#: Brent's absolute offset tolerance, and scipy's relative one
_XATOL = 1e-10
_SQRT_EPS = np.sqrt(2.2e-16)
#: offset tolerance of the search again over Brent's last bracket on
#: kinked costs; a distance error there is linear in the offset error
_KINK_XATOL = 1e-13


def distance(p: Density, q: Density, metric: str = "L2") -> float:
    """Distance between two densities on the same grid.

    metric is one of "L1", "L2", "W2_circle".
    """
    if p.grid_size != q.grid_size:
        raise ValueError("densities live on different grids")
    if metric == "L1":
        return float(np.abs(p.grid_values - q.grid_values).mean())
    if metric == "L2":
        d = p.grid_values - q.grid_values
        return float(np.sqrt((d * d).mean()))
    if metric == "W2_circle":
        return w2_circle(p, q)
    raise ValueError(f"unknown metric {metric!r}; expected one of {_METRICS}")


def _cdf_nodes(q: Density) -> tuple[np.ndarray, np.ndarray]:
    # piecewise-linear CDF of the cell-wise constant density: node j sits at
    # the left edge theta_j, F runs from 0 to exactly 1
    m = q.grid_size
    x = -0.5 + np.arange(m + 1) / m
    f = np.concatenate(([0.0], np.cumsum(q.grid_values) / m))
    f[-1] = 1.0
    return f, x


def _quantile(f: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    # generalized inverse of the CDF, extended by Q(t + 1) = Q(t) + 1
    base = np.floor(t)
    frac = t - base
    return np.interp(frac, f, x) + base


def _offset_cost(alpha: float, fp, xp, fq, xq) -> float:
    # exact integral of (Qp(t) - Qq(t + alpha))^2 over t in [0, 1]:
    # both quantiles are piecewise linear, so the integrand is the square of
    # a linear function between merged breakpoints, and two-point
    # Gauss-Legendre integrates each piece exactly.  The nodes sit inside
    # the pieces, clear of the jumps a quantile makes over empty cells.
    breaks_q = np.concatenate([fq - alpha + s for s in (-1.0, 0.0, 1.0)])
    breaks_q = breaks_q[(breaks_q > 0.0) & (breaks_q < 1.0)]
    t = np.unique(np.concatenate((fp, breaks_q, (0.0, 1.0))))
    t = t[(t >= 0.0) & (t <= 1.0)]
    dt = np.diff(t)
    mid = t[:-1] + 0.5 * dt
    nodes = np.concatenate((mid - _GAUSS_2 * dt, mid + _GAUSS_2 * dt))
    d = _quantile(fp, xp, nodes) - _quantile(fq, xq, nodes + alpha)
    d2 = (d * d).reshape(2, -1)
    return float(np.sum(dt * (d2[0] + d2[1])) / 2.0)


def _w2_to_uniform(q: Density) -> float:
    # with Qu(t) = t - 1/2 the offset cost is the mean square of
    # g(t) - alpha, g = Qq(t) - t, so W2^2 is the variance of g over [0, 1].
    # g is linear on the quantile's pieces: from g_j to g_{j+1} over a
    # length v_j / M, and g_j = sum_{i<j} (1 - v_i) / M - 1/2 carries the
    # deviation from uniform without cancellation
    v = q.grid_values
    m = q.grid_size
    g = np.concatenate(([0.0], np.cumsum(1.0 - v) / m))
    lengths = v / m
    g -= np.sum(lengths * (g[:-1] + g[1:])) / 2.0
    second = np.sum(lengths * (g[:-1] ** 2 + g[:-1] * g[1:] + g[1:] ** 2))
    return float(np.sqrt(max(second / 3.0, 0.0)))


def _w2_brent(p: Density, q: Density) -> float:
    # Brent's minimization over the offset; see ``w2_circle``
    fp, xp = _cdf_nodes(p)
    fq, xq = _cdf_nodes(q)
    args = (fp, xp, fq, xq)
    res = minimize_scalar(_offset_cost, bounds=(-1.0, 1.0), args=args,
                          method="bounded", options={"xatol": _XATOL})
    best = res.fun
    if np.any(p.grid_values <= 0.0) and np.any(q.grid_values <= 0.0):
        # Brent's last bracket lies within x +- 2 (sqrt(eps) |x| + xatol/3)
        x = res.x
        half = 2.0 * (_SQRT_EPS * abs(x) + _XATOL / 3.0)
        ref = minimize_scalar(lambda y: _offset_cost(x + y, *args),
                              bounds=(-half, half), method="bounded",
                              options={"xatol": _KINK_XATOL})
        best = min(best, ref.fun)
    return float(np.sqrt(max(best, 0.0)))


def w2_circle(p: Density, q: Density) -> float:
    """Quadratic Wasserstein distance on the circle.

    Where either density is exactly uniform, the closed form: W2^2 is the
    variance over t in [0, 1] of Q(t) - t, Q the other's quantile
    function, integrated exactly on its linear pieces.  Otherwise bounded
    Brent minimization over the CDF offset of the circular quantile
    coupling; the cost is convex and piecewise quadratic in the offset, so
    parabolic steps reach the minimizer in a few evaluations.
    Brent stops once the offset is known to 1e-10 plus scipy's fixed
    relative term 1.5e-8 |offset|.  Where the cost is smooth that moves
    the distance only at rounding level.  Where both densities vanish on
    whole cells both quantile functions jump, the cost has kinks, and the
    stop would leave the distance up to ~1e-8 relative high; there the
    last bracket is searched again around its centre, where the relative
    term vanishes, down to ``_KINK_XATOL``.
    """
    if np.all(p.grid_values == 1.0):
        return _w2_to_uniform(q)
    if np.all(q.grid_values == 1.0):
        return _w2_to_uniform(p)
    return _w2_brent(p, q)
