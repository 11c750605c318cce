"""Independent oracle implementations used by the tests.

Each oracle recomputes a quantity along a different algorithmic path
than the library (direct double sums, adaptive quadrature, brute-force
transport over cuts, arbitrary-precision series), so agreement is a real
cross-check rather than a reflection.
"""

import numpy as np
from scipy.integrate import quad


def entropy_quad(q_callable, tol=1e-12):
    """int q log q by adaptive quadrature of a closed-form density."""
    val, err = quad(
        lambda th: q_callable(th) * np.log(q_callable(th)),
        -0.5, 0.5, epsabs=tol, epsrel=tol, limit=400,
    )
    return val


def kernel_on_grid(w, m):
    """Truncated cosine polynomial evaluated by direct summation."""
    th = -0.5 + np.arange(m) / m
    k = np.arange(1, w.truncation + 1)
    return 2.0 * (w.coeffs[None, :] * np.cos(
        2.0 * np.pi * th[:, None] * k[None, :])).sum(axis=1)


def interaction_double_sum(q, w):
    """O(M^2) double rectangle sum of the kernel bilinear form."""
    m = q.grid_size
    th = q.theta
    diff = th[:, None] - th[None, :]
    k = np.arange(1, w.truncation + 1)
    wmat = 2.0 * np.tensordot(
        np.cos(2.0 * np.pi * diff[..., None] * k), w.coeffs, axes=([2], [0])
    )
    v = q.grid_values
    return float(v @ wmat @ v) / m**2


def interaction_double_sum_exact_kernel(q, w):
    """Double sum against the pointwise (untruncated) kernel values."""
    m = q.grid_size
    th = q.theta
    diff = th[:, None] - th[None, :]
    v = q.grid_values
    return float(v @ w.w(diff) @ v) / m**2


def convolve_direct(w, q):
    """(w * q)(theta_j) by direct O(M^2) circular convolution."""
    m = q.grid_size
    th = q.theta
    diff = th[:, None] - th[None, :]
    return kernel_pointwise_truncated(w, diff) @ q.grid_values / m


def kernel_pointwise_truncated(w, theta):
    k = np.arange(1, w.truncation + 1)
    return 2.0 * np.tensordot(
        np.cos(2.0 * np.pi * np.asarray(theta)[..., None] * k),
        w.coeffs, axes=([-1], [0]),
    )


def w2_circle_atoms(p, q, refine=True):
    """Brute-force circular W2 between the cell-atom approximations.

    Lays both densities out as weighted atoms, scans the quantile
    coupling over a dense grid of CDF offsets (every atom level plus a
    golden-section refinement around the best), and returns the root of
    the minimal cost.  Independent of the library's piecewise-linear
    quantile code.
    """
    m = p.grid_size
    x = -0.5 + np.arange(m) / m
    wp = p.grid_values / m
    wq = q.grid_values / m
    cp = np.cumsum(wp)
    cq = np.cumsum(wq)

    def cost(alpha):
        # quantile functions sampled on a fine common-level grid
        levels = (np.arange(4 * m) + 0.5) / (4 * m)
        qp = x[np.searchsorted(cp, levels * cp[-1], side="left").clip(0, m - 1)]
        lev_q = (levels + alpha) % 1.0
        wind = np.floor(levels + alpha)
        qq = x[np.searchsorted(cq, lev_q * cq[-1], side="left").clip(0, m - 1)]
        return float(np.mean((qp - qq - wind) ** 2))

    alphas = np.linspace(-0.5, 0.5, 201)
    costs = [cost(a) for a in alphas]
    i = int(np.argmin(costs))
    best = costs[i]
    if refine:
        lo = alphas[max(i - 1, 0)]
        hi = alphas[min(i + 1, len(alphas) - 1)]
        for _ in range(60):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if cost(m1) <= cost(m2):
                hi = m2
            else:
                lo = m1
        best = min(best, cost(0.5 * (lo + hi)))
    return float(np.sqrt(max(best, 0.0)))


def w2_circle_ternary(p, q, tol=1e-10):
    """Circular W2 by ternary search over the quantile-coupling offset.

    Minimizes the library's exact offset cost, which is convex, by
    shrinking [-1, 1] to ``tol`` in thirds (about 119 cost evaluations):
    an oracle for the minimization step alone.
    """
    from torusmf.metrics import _cdf_nodes, _offset_cost

    fp, xp = _cdf_nodes(p)
    fq, xq = _cdf_nodes(q)
    lo, hi = -1.0, 1.0
    while hi - lo > tol:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _offset_cost(m1, fp, xp, fq, xq) <= _offset_cost(m2, fp, xp, fq, xq):
            hi = m2
        else:
            lo = m1
    best = _offset_cost(0.5 * (lo + hi), fp, xp, fq, xq)
    return float(np.sqrt(max(best, 0.0)))


def bessel_series_30(order, x):
    """30-term power series with a geometric remainder bound.

    Returns (value, remainder_bound); all terms positive.
    """
    half = 0.5 * x
    term = half**order
    for j in range(1, order + 1):
        term /= j
    total = 0.0
    for k in range(30):
        total += term
        term *= half * half / ((k + 1) * (k + 1 + order))
    ratio = half * half / (31 * (31 + order))
    bound = term / (1.0 - ratio) if ratio < 1 else np.inf
    return total, bound
