"""Independent oracle implementations used by the tests.

Each oracle recomputes a quantity along a different algorithmic path
than the library (direct double sums, adaptive quadrature, brute-force
transport over cuts, arbitrary-precision series), so agreement is a real
cross-check rather than a reflection.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize_scalar
from scipy.special import iv, ndtri

from torusmf import density as dens
from torusmf.critical import ANDERSON_DEPTH, SolveReport, _gibbs
from torusmf.density import free_energy, fourier_to_grid, grid_to_fourier
from torusmf.flow import (_PHI3_SERIES, _Split, _derivative, _etd_tables,
                          _transport_symbols)
from torusmf.particles import _cdf_nodes, _wrap
from torusmf.potentials import k_sharp


def entropy_quad(q_callable, tol=1e-12):
    """int q log q by adaptive quadrature of a closed-form density."""
    val, err = quad(
        lambda th: q_callable(th) * np.log(q_callable(th)),
        -0.5, 0.5, epsabs=tol, epsrel=tol, limit=400,
    )
    return val


def interaction_double_sum(q, w, kernel=None):
    """O(M^2) double rectangle sum of the kernel bilinear form, against the
    truncated cosine polynomial or else the pointwise ``kernel``."""
    th = q.theta
    diff = th[:, None] - th[None, :]
    wmat = (kernel_pointwise_truncated(w, diff) if kernel is None
            else kernel(diff))
    v = q.grid_values
    return float(v @ wmat @ v) / q.grid_size**2


def closed_form(w, derivative=False):
    """The untruncated catalog kernel W, or W' (odd, defined a.e.), as a
    function of theta from the closed form of ``w.name`` at ``w.params``,
    divided by a normalized kernel's ``"scale"``.  ``ValueError`` for the
    log gas, whose truncation is the model (and whose W is singular), and
    for a custom kernel."""
    beta, r = w.params.get("beta"), w.params.get("radius")

    def cap(th):  # (R - 2 pi |theta|)_+
        return np.clip(r - 2.0 * np.pi * np.abs(th), 0.0, None)
    forms = {
        "doi_onsager": (
            lambda th: 2.0 / np.pi - np.abs(np.sin(2.0 * np.pi * th)),
            lambda th: (-2.0 * np.pi * np.cos(2.0 * np.pi * th)
                        * np.sign(np.sin(2.0 * np.pi * th)))),
        "transformer": (
            lambda th: (np.exp(beta * np.cos(2.0 * np.pi * th))
                        - float(iv(0, beta))) / beta,
            lambda th: (-2.0 * np.pi * np.sin(2.0 * np.pi * th)
                        * np.exp(beta * np.cos(2.0 * np.pi * th)))),
        "hegselmann_krause": (
            lambda th: cap(th) ** 2 - r**3 / (3.0 * np.pi),
            lambda th: -4.0 * np.pi * cap(th) * np.sign(th)),
    }
    if w.name not in forms:
        raise ValueError(f"no closed form for the {w.name} kernel")
    g = forms[w.name][derivative]
    scale = w.params.get("scale", 1.0)
    return lambda theta: g(_wrap(np.asarray(theta, dtype=float))) / scale


def log_bessel_i_upper(order, x):
    """log of the bound I_order(x) <= (x/2)^order e^{x^2/4} / order!,
    finite for large orders where the value itself underflows."""
    return order * math.log(0.5 * x) + 0.25 * x * x - math.lgamma(order + 1)


def tail_bound(w, m):
    """Bound on sum_{k > m} |what(k)| over the untruncated coefficient law
    of ``w.name`` at ``w.params``, divided by a normalized kernel's
    ``"scale"``: the law tail a truncation at m drops, whatever w's own
    truncation.  ``ValueError`` for the log gas, whose law is not summable,
    and for a custom kernel."""
    m = int(m)
    if w.name == "doi_onsager":
        # sum_{l > m/2} (2/pi)/(4 l^2 - 1) telescopes to 1/(pi (2 l0 + 1))
        bound = 1.0 / (math.pi * (2 * (m // 2) + 1))
    elif w.name == "transformer":
        # I_{k+1}/I_k <= beta/(2(k+1)) gives a geometric envelope
        beta = w.params["beta"]
        r = beta / (2.0 * (m + 1))
        if r >= 1.0:
            return math.inf
        i_m = math.exp(max(log_bessel_i_upper(m, beta), math.log(1e-300)))
        bound = i_m / beta * r / (1.0 - r)
    elif w.name == "hegselmann_krause":
        # l R - sin(l R) <= l R + 1 and sum_{l>m} l^-2 <= 1/m
        radius = w.params["radius"]
        bound = (2.0 / math.pi) * (radius / m + 0.5 / m**2)
    else:
        raise ValueError(f"no tail bound for the {w.name} kernel")
    return bound / w.params.get("scale", 1.0)


def pairwise_drift(positions, dw, coupling):
    """(K/N) sum_j W'(x_i - x_j) over all pairs, O(N^2), with W' = ``dw``
    (``closed_form(w, derivative=True)`` for a catalog kernel)."""
    diff = _wrap(positions[:, None] - positions[None, :])
    return (coupling / len(positions)) * dw(diff).sum(axis=1)


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


#: half-offset of the two-point Gauss-Legendre nodes, 1 / (2 sqrt(3))
_GAUSS_2 = 0.5 / np.sqrt(3.0)
#: Brent's absolute offset tolerance, and scipy's relative one
_XATOL = 1e-10
_SQRT_EPS = np.sqrt(2.2e-16)
#: offset tolerance of the search again over Brent's last bracket on
#: kinked costs; a distance error there is linear in the offset error
_KINK_XATOL = 1e-13


def _quantile(f, x, t):
    # generalized inverse of the CDF, extended by Q(t + 1) = Q(t) + 1
    base = np.floor(t)
    frac = t - base
    return np.interp(frac, f, x) + base


def _offset_cost(alpha, fp, xp, fq, xq):
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


def w2_circle_brent(p, q):
    """Circular W2 between any two densities on one grid: the minimum over
    a CDF offset of the line cost ``_offset_cost`` between the shifted
    quantile functions (Delon, Salomon & Sobolevski, SIAM J. Appl. Math.
    70, 2010), convex and piecewise quadratic, by bounded Brent search.

    Brent stops once the offset is known to 1e-10 plus scipy's relative
    term 1.5e-8 |offset|, which moves a smooth cost's minimum only at
    rounding level.  Where both densities vanish on whole cells the cost
    has kinks and the stop could leave the distance ~1e-8 relative high,
    so the last bracket is searched again around its centre, where the
    relative term vanishes, down to ``_KINK_XATOL``.
    """
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


def w2_circle_ternary(p, q, tol=1e-10):
    """Circular W2 by ternary search over the quantile-coupling offset.

    Minimizes the exact offset cost ``_offset_cost``, which is convex, by
    shrinking [-1, 1] to ``tol`` in thirds (about 119 cost evaluations):
    an oracle for the minimization step of ``w2_circle_brent`` alone.
    """
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


def picard_fixed_point(w, coupling, q0, tol=1e-12, max_iter=20000,
                       seed_id=""):
    """Picard iteration q <- T(q) until sup|q - T(q)| <= tol.

    Non-convergence within ``max_iter`` map applications is reported in
    the ``converged`` flag, not raised.
    """
    if tol < 1e-13:
        raise ValueError("tol below 1e-13 is not resolvable in double precision")
    m = q0.grid_size
    _, mode = k_sharp(w)
    wk = dens.kernel_spectrum(w, m)
    v = q0.grid_values
    residual = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        expo = 2.0 * coupling * fourier_to_grid(grid_to_fourier(v) * wk, m)
        t = _gibbs(expo, m)[0]
        residual = float(np.maximum.reduce(np.abs(t - v)))
        v = t
        if residual <= tol:
            break
    q = dens.from_grid(v)
    return SolveReport(
        density=q,
        residual=residual,
        free_energy=free_energy(q, w, coupling),
        iterations=it,
        rejected=0,
        seed_id=seed_id,
        converged=residual <= tol,
        order_parameter=q.order_parameter(mode),
    )


def anderson_fixed_point(w, coupling, q0, tol=1e-12, max_iter=20000):
    """Free-energy-guarded Anderson mixing of the Gibbs exponent, with the
    secant history kept as plain lists, oldest first, and its least-squares
    problem rebuilt from them at every step.

    Returns (SolveReport, number of dropped trial iterates).  The mixing
    coefficients solve the normal equations by ``np.linalg.solve``; where
    that fails or gives a non-finite answer, the history is emptied and
    the plain step taken.  A mixed iterate e^u / Z is kept only if its
    free energy, evaluated by ``free_energy``, does not exceed the last
    kept one by more than 1e-14 (1 + |F|); otherwise the history is
    emptied and, if sup|g(u) - u| at the latest kept plain iterate exceeds
    that at the one before, the trials u_b + 2^j f_b (j = 1, 2, ...) from
    the last kept iterate b are kept while the same test passes, and the
    plain step is taken from the last kept trial, or else from b itself.
    """
    m = q0.grid_size
    _, mode = k_sharp(w)
    wk = dens.kernel_spectrum(w, m)

    def exponent(v):
        return 2.0 * coupling * dens.fourier_to_grid(
            dens.grid_to_fourier(v) * wk, m)

    def density(u):
        q = np.exp(u - u.max())
        return q / q.mean()

    hist_f, hist_g = [], []
    plain_residuals = []  # sup|f| at every kept plain iterate
    f_prev = g_prev = u_prev = None
    v, u, mixed = q0.grid_values, None, False
    trials = None  # (u_b, f_b, j) while doubling
    t = v
    energy_kept = math.inf
    residual = math.inf
    rejected = 0
    it = 0
    for it in range(1, max_iter + 1):
        expo = exponent(v)
        if u is not None:
            energy = free_energy(dens.from_grid(v), w, coupling)
            if mixed and not energy <= energy_kept + 1e-14 * (1 + abs(energy)):
                rejected += 1
                hist_f, hist_g = [], []
                grown = (len(plain_residuals) > 1
                         and plain_residuals[-1] > plain_residuals[-2])
                if trials is None and grown:
                    trials = (u_prev, f_prev, 1)
                    u = u_prev + 2.0 * f_prev
                    v = density(u)
                else:
                    trials = None
                    v, u, mixed = t, g_prev, False
                f_prev = None
                continue
            energy_kept = energy
        t = _gibbs(expo, m)[0]
        residual = float(np.max(np.abs(t - v)))
        if residual <= tol:
            break
        if trials is not None:
            u_b, f_b, j = trials
            trials = (u_b, f_b, j + 1)
            g_prev = expo
            u = u_b + 2.0 ** (j + 1) * f_b
            v = density(u)
            continue
        if u is not None:
            f = expo - u
            if not mixed:
                plain_residuals.append(float(np.max(np.abs(f))))
            if f_prev is not None:
                hist_f.append(f - f_prev)
                hist_g.append(expo - g_prev)
                del hist_f[:-ANDERSON_DEPTH], hist_g[:-ANDERSON_DEPTH]
            f_prev, g_prev, u_prev = f, expo, u
        if hist_f:
            df, dg = np.array(hist_f), np.array(hist_g)
            try:
                gamma = np.linalg.solve(df @ df.T, df @ f)
            except np.linalg.LinAlgError:
                gamma = np.full(len(hist_f), np.nan)
            if np.isfinite(gamma).all():
                u = expo - gamma @ dg
                v, mixed = density(u), True
                continue
            hist_f, hist_g = [], []
            f_prev = None
        v, u, mixed = t, expo, False
    q = dens.from_grid(t)
    return SolveReport(
        density=q,
        residual=residual,
        free_energy=free_energy(q, w, coupling),
        iterations=it,
        rejected=rejected,
        seed_id="",
        converged=residual <= tol,
        order_parameter=q.order_parameter(mode),
    ), rejected


def unfolded_rest(qhat, w, coupling, m):
    """``flow._Split.rest``, N(q), through the public ``fourier_to_grid``
    and ``grid_to_fourier``, with the grid phase left in the transforms."""
    rows = qhat * _transport_symbols(w, coupling, m)
    rows[0, 0] -= 1.0
    qg, vg = fourier_to_grid(rows, m)
    return _derivative(m) * grid_to_fourier(qg * vg)


def etd_tables(lin: np.ndarray, h: float) -> np.ndarray:
    """``flow._etd_tables`` written as each row's formula reads, with an
    array for each quantity: the bits the one-array builder must keep."""
    z = np.stack((0.5 * lin * h, lin * h))
    em1 = np.expm1(z)
    small = np.abs(z) < 1.0
    zs = np.where(small, 1.0, z)
    phi1 = em1 / zs
    phi2 = (phi1 - 1.0) / zs
    phi3 = (phi2 - 0.5) / zs
    zt = z[small]
    phi3[small] = np.vander(zt, len(_PHI3_SERIES)) @ _PHI3_SERIES
    phi2[small] = 0.5 + zt * phi3[small]
    phi1[small] = 1.0 + zt * phi2[small]
    e_half, e_full = em1 + 1.0
    phi2_half, phi2, phi3 = phi2[0], phi2[1], phi3[1]
    return np.stack((e_half, e_full, 0.5 * h * phi1[0], h * phi1[1],
                     h * phi2_half, 2.0 * h * phi2,
                     h * (2.0 * phi2 - 4.0 * phi3),
                     h * (4.0 * phi3 - phi2)))


def flow_step(q, w, coupling, dt):
    """One Krogstad ETDRK4 step of the flow of size ``dt`` from q, through
    ``flow._Split``: the fixed step the adaptive ``integrate`` is built
    on."""
    m = q.grid_size
    split = _Split(w, coupling, m)
    out = split.step(q.fourier, split.rest(q.fourier),
                     _etd_tables(split.lin, dt))[0]
    return dens.from_fourier(out, m)


def stationarity_residual(q, w, coupling):
    """L^2 norm of the flow right-hand side, L q + N(q), through
    ``flow._Split``, evaluated pseudospectrally."""
    split = _Split(w, coupling, q.grid_size)
    return split.residual(q.fourier, split.rest(q.fourier))


def shift(q, theta0):
    """q rotated by theta0 through its Fourier coefficients, exact for the
    trigonometric polynomial."""
    m = q.grid_size
    k = np.arange(m // 2 + 1)
    return dens.from_fourier(q.fourier * np.exp(-2j * np.pi * k * theta0), m)


#: safety factor of the transport CFL bound of an explicit step
CFL_SAFETY = 0.2


def bdf_flow(q0, w, coupling, horizon):
    """The flow at ``horizon`` by scipy's adaptive BDF at rtol 1e-12 and
    atol 1e-14 on dq/dt = -2 pi^2 k^2 q + T(q), with the whole transport
    T(q) = -2 pi i k K * FFT(q * (W*q)'), de-aliased, through the public
    transforms, and none of the library's exponential tables or step rules."""
    m = q0.grid_size
    syms = _transport_symbols(w, coupling, m)
    heat = -2.0 * np.pi**2 * np.arange(m // 2 + 1, dtype=float) ** 2

    def rhs(t, qhat):
        qg, vg = fourier_to_grid(qhat * syms, m)
        return heat * qhat + _derivative(m) * grid_to_fourier(qg * vg)

    sol = solve_ivp(rhs, (0.0, horizon), q0.fourier, method="BDF",
                    rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return dens.from_fourier(sol.y[:, -1], m)


#: modes per block of powers in ``mode_sum_drift``
DRIFT_BLOCK = 8


def mode_sum_drift(positions, w, coupling):
    """The truncated-Fourier drift by a blocked sum over the modes, one
    power of z = e^{2 pi i lead x} a row, each row scaled by its mode sum."""
    # sum_j sin(2 pi k (x_i - x_j)) = Im[z_i^k conj(sum_j z_j^k)] with
    # z = e^{2 pi i x}.  Active modes sit on the lead lattice.  Powers
    # are built a block of modes at a time, and each block meets the
    # particles (mode sums) and the coefficients (force) in one call
    # each.
    n = len(positions)
    active = w.active_modes
    if len(active) == 0:
        return np.zeros(n)
    lead = w.lead_mode
    ks = np.arange(lead, active[-1] + 1, lead)
    kw = ks * w.coeffs[ks - 1]
    step = np.exp(2j * np.pi * lead * positions)
    block = np.empty((min(DRIFT_BLOCK, len(ks)), n), dtype=complex)
    acc = np.zeros(n, dtype=complex)
    power = None  # the last power of the block before, kept unscaled
    for start in range(0, len(ks), len(block)):
        rows = block[:len(ks) - start]
        prev = power
        for row in rows:
            if prev is None:
                row[:] = step
            else:
                np.multiply(prev, step, out=row)
            prev = row
        power = prev.copy()
        rows *= (kw[start:start + len(rows)]
                 * rows.sum(axis=1).conj() / n)[:, None]
        acc += np.add.reduce(rows, axis=0)
    return -4.0 * np.pi * coupling * acc.imag


def philox_uniforms(words):
    """The top 53 bits of each raw Philox word, centred in their cell."""
    return ((words >> 11) + 0.5) * 2.0**-53


def philox_normals(seed, replicate, step, n):
    """The particles' step-``step`` normals of key (seed, replicate) from
    raw words read off the start of the key's Philox stream: n words from
    word 4 (step + 1) ceil(n/2), through the inverse normal CDF."""
    start = 4 * (step + 1) * ((n + 1) // 2)
    words = np.random.Philox(key=(seed, replicate)).random_raw(start + n)
    return ndtri(philox_uniforms(words[start:]))
