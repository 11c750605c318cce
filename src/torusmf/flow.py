"""Pseudospectral integrator for the nonlinear Fokker-Planck flow

    dq/dt = (1/2) q'' - K (q (W * q)')'

on the circle, which is the 2-Wasserstein gradient flow of the free
energy.  The flow linearised about the uniform state is diagonal in
Fourier space, L_k = -2 pi^2 k^2 (1 - 2 K what(k)) on the de-aliased
band, and is integrated exactly through exp(L_k h); the remainder of the
transport term is advanced with Krogstad's four-stage exponential scheme
ETDRK4-B (Krogstad, J. Comput. Phys. 203, 2005), which keeps its fourth
order on stiff problems (Hochbruck & Ostermann, SIAM J. Numer. Anal. 43,
2005), and the pointwise product is de-aliased with the 2/3 rule.  With
the linearisation in the exponential the critical mode at K_# is neutral
to rounding, whatever the step.  The transport's symbols carry the grid
phase of the transforms, so each transport is a product, two real FFTs
and a product, with the bits of ``fourier_to_grid`` and
``grid_to_fourier`` (see ``_Split``); the FFTs are the kernels that
``density`` binds at import, called on buffers the split owns.

``integrate`` adapts the step from accuracy alone, with no CFL cap (the
exponential damps the explicit transport of mode k by exp(-2 pi^2 k^2 h)):
the transport of the new state, which the next step starts from ("first
same as last"), gives a free error estimate, and an I-controller holds it
near its tolerance.  Steps sit on a ladder of sizes, eight rungs an
octave, whose tables the run keeps, and land on the record times in one
cut step or two equal ones, which share a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import density as dens
from .density import (Density, fourier_to_grid, free_energy, irfft_kernel,
                      rfft_kernel)
from .errors import BlowUp, DegenerateWindow
from .metrics import w2_circle

#: L^2 norm of the error estimate that an accepted step may reach
STEP_TOL = 1e-8
#: share of its own change a step's error may reach, so that steps near a
#: stationary state stay stable: on y' = lambda y, Re lambda <= 0, every
#: unstable step has a share above 1/2 (its infimum is 0.82, at
#: h lambda = -1.66 +- 2.06 i)
STABLE_SHARE = 0.5
#: an L^2 change below this is rounding (at clustered stationary states
#: every change measured below 6.5e-16), where the share cannot tell a
#: stable step from an unstable one: the share bound reads it as this
CHANGE_ROUNDING = 2.0 ** -50
#: steps sit on the ladder 2^(j / STEP_LADDER), so a run reuses its tables
STEP_LADDER = 8
#: Taylor coefficients 1/(n + 3)! of phi3, highest first, for |z| < 1
_PHI3_SERIES = 1.0 / np.array([math.factorial(n) for n in range(18, 2, -1)])
#: the factors of h in the rows (h/2) phi1(z/2), h phi1, h phi2(z/2), 2 h phi2
_PHI_SCALE = np.array([[0.5], [1.0], [1.0], [2.0]])


def _etd_tables(lin: np.ndarray, h: float) -> np.ndarray:
    """The rows of a Krogstad ETDRK4 step of size ``h`` for the linear
    symbol L, at z = L h: exp(z/2), exp(z), (h/2) phi1(z/2), h phi1,
    h phi2(z/2), 2 h phi2, h (2 phi2 - 4 phi3) and h (4 phi3 - phi2), from
    one expm1 at z/2 and z.  phi_{j+1} = (phi_j - 1/j!)/z loses digits as
    |z| falls, so below |z| = 1 it runs up from phi3's series.

    The phi_j are built in the rows that return them, and every factor but
    the last h is a power of two, so each row rounds as its formula does.
    The rows come back complex, as the step multiplies them with complex
    states: numpy would otherwise cast them at each product, to the same
    bits."""
    n = lin.shape[0]
    tab = np.empty((8, n))
    e, phi = tab[:2], tab[2:].reshape(3, 2, n)  # phi[j - 1] = phi_j
    z = np.empty((2, n))
    np.multiply(lin, h, out=z[1])
    np.multiply(z[1], 0.5, out=z[0])
    np.expm1(z, out=e)
    small = np.abs(z) < 1.0
    zt = z[small]
    z[small] = 1.0  # the recurrence's divisor; the series replaces its rows
    np.divide(e, z, out=phi[0])
    np.subtract(phi[0], 1.0, out=phi[1])
    np.divide(phi[1], z, out=phi[1])
    np.subtract(phi[1], 0.5, out=phi[2])
    np.divide(phi[2], z, out=phi[2])
    phi3 = np.vander(zt, len(_PHI3_SERIES)) @ _PHI3_SERIES
    phi2 = 0.5 + zt * phi3
    phi[:, small] = 1.0 + zt * phi2, phi2, phi3
    e += 1.0
    four_phi3 = 4.0 * tab[7]
    np.subtract(four_phi3, tab[5], out=tab[7])
    np.multiply(tab[5], 2.0, out=tab[6])
    tab[6] -= four_phi3
    tab[2:6] *= _PHI_SCALE
    tab[2:] *= h
    return tab.astype(complex)


class _Split:
    """The flow split into L q, exact in the exponential, and the explicit
    rest N(q), for one kernel, coupling and grid.

    Transport is bilinear, T(q) = B(q, q), and B(1, .) is diagonal with
    symbol L_k + 2 pi^2 k^2, so N(q) = T(q) - (L + 2 pi^2 k^2) q is
    B(q - 1, q - 1): the transport of the deviation from the uniform state.

    The grid phase (-1)^k M of ``fourier_to_grid`` is folded into the
    transport symbols, and (-1)^k / M of ``grid_to_fourier`` into the
    derivative.  M is a power of two, so the folded products round exactly
    as the unfolded ones: ``rest`` gives the same bits with two raw real
    FFTs into buffers of its own, so a split serves one caller at a time.
    """

    def __init__(self, w, coupling: float, m: int):
        k = np.arange(m // 2 + 1)
        mask = (k <= m // 3).astype(float)  # the 2/3 rule
        deriv = 2j * np.pi * k * mask  # 2 pi i k on the de-aliased band
        spectrum = dens.kernel_spectrum(w, m)
        self.m = m
        # the rows taking qhat to q and to -K (W * q)' on the de-aliased band
        syms = np.stack((mask.astype(complex), -coupling * deriv * spectrum))
        self.syms = syms * dens.grid_phase(m, m)
        self.deriv = deriv * dens.grid_phase(m, 1.0 / m)
        self.lin = 2.0 * np.pi**2 * k.astype(float) ** 2 * (
            2.0 * coupling * mask * spectrum - 1.0)
        self._rows = np.empty((2, m // 2 + 1), dtype=complex)
        self._grid = np.empty((2, m))
        self._qg, self._vg = self._grid
        self._raw = np.empty(m // 2 + 1, dtype=complex)
        self._inv_m = 1.0 / m

    def rest(self, qhat: np.ndarray) -> np.ndarray:
        """N(q) = -2 pi i k K * FFT((q - 1) (W*q)'), 2/3 de-aliased: q - 1
        moves with the velocity of q, as W * 1 is constant.  Both go to the
        grid in one stacked transform."""
        rows = np.multiply(qhat, self.syms, out=self._rows)
        rows[0, 0] -= self.m  # q - 1, in the rows' scale M; no k = 0 velocity
        irfft_kernel(rows, self._inv_m, out=self._grid)
        qv = np.multiply(self._qg, self._vg, out=self._qg)
        return self.deriv * rfft_kernel(qv, 1.0, out=self._raw)

    def step(self, qhat: np.ndarray, n0: np.ndarray, tables: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """One Krogstad ETDRK4 step from q, N(q) = ``n0``, with
        ``_etd_tables(self.lin, h)``: the new state q+, N(q+), and the L^2
        norms of the step's change and of its error estimate.

        Stages a = e^{z/2} q + (h/2) phi1(z/2) N(q),
        b = a + h phi2(z/2) (N(a) - N(q)) and
        c = e^z q + h phi1 N(q) + 2 h phi2 (N(b) - N(q)), z = L h; the step
        is q+ = e^z q + h[(phi1 - 3 phi2 + 4 phi3) N(q) +
        2 (phi2 - 2 phi3) (N(a) + N(b)) + (4 phi3 - phi2) N(c)].  The
        estimate h (4 phi3 - phi2) (N(q+) - N(c)) costs no transport, as
        N(q+) starts the next step.
        """
        # the half-step stage and the ETD1 step in one stacked product
        stage, etd1 = tables[:2] * qhat + tables[2:4] * n0
        p_half, p_twice, w_pair, w_last = tables[4:]
        na = self.rest(stage)
        nb = self.rest(stage + p_half * (na - n0))
        nc = self.rest(etd1 + p_twice * (nb - n0))
        out = etd1 + w_pair * (na + nb - 2.0 * n0) + w_last * (nc - n0)
        out[0] = qhat[0]  # mass is exact: the k = 0 mode never moves
        n_out = self.rest(out)
        change = out - qhat  # each mode k > 0 stands for the pair +-k
        err = w_last * (n_out - nc)
        return (out, n_out, math.sqrt(2.0 * np.vdot(change, change).real),
                math.sqrt(2.0 * np.vdot(err, err).real))

    def residual(self, qhat: np.ndarray, nq: np.ndarray) -> float:
        """L^2 norm of the flow right-hand side L q + N(q), from N(q) =
        ``nq``."""
        rhs = self.lin * qhat + nq
        weights = np.full(self.m // 2 + 1, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        return float(np.sqrt(np.sum(weights * np.abs(rhs) ** 2)))


def _check_state(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)) or np.abs(values).max() > 1e6:
        raise BlowUp("flow state is non-finite or exceeds 1e6")


# ---------------------------------------------------------------------------
# time loop


@dataclass(frozen=True)
class RecordPolicy:
    """When to record observables along the flow.

    kind "uniform" records n_records evenly spaced times; "geometric"
    records t0 * factor^j (plus t = 0 and t = T), which suits log-scale
    rate fits.  Every ``snapshot_every``-th record keeps the full density.
    Construction raises ``ValueError`` unless the kind is one of these,
    n_records >= 1, t0 > 0, factor > 1 and snapshot_every >= 1.
    """

    kind: str = "uniform"
    n_records: int = 200
    t0: float = 1e-2
    factor: float = 1.15
    snapshot_every: int = 25

    def __post_init__(self):
        if not (self.kind in ("uniform", "geometric") and self.n_records >= 1
                and self.t0 > 0.0 and self.factor > 1.0
                and self.snapshot_every >= 1):
            raise ValueError(f"invalid record policy {self}")

    def times(self, horizon: float) -> np.ndarray:
        if self.kind == "uniform":
            return np.linspace(0.0, horizon, self.n_records + 1)
        ts = [0.0]
        t = self.t0
        # a product that misses the horizon by rounding is the horizon
        while t < horizon * (1.0 - 1e-12):
            ts.append(t)
            t *= self.factor
        ts.append(horizon)
        return np.asarray(ts)


@dataclass
class FlowTrace:
    """Observables along one flow run."""

    times: np.ndarray
    l2: np.ndarray
    w2: np.ndarray
    mode_abs: dict[int, np.ndarray]
    free_energy: np.ndarray
    mass_defect: np.ndarray
    snapshots: list[Density] = field(default_factory=list)
    snapshot_times: list[float] = field(default_factory=list)
    terminated_early: bool = False
    final_residual: float = math.nan
    meta: dict = field(default_factory=dict)


def default_modes(w) -> list[int]:
    """The first four multiples of the lead mode."""
    return [w.lead_mode * j for j in (1, 2, 3, 4)]


def integrate(
    q0: Density,
    w,
    coupling: float,
    horizon: float,
    dt: float = 1e-4,
    record: RecordPolicy | None = None,
    track_modes: Optional[list[int]] = None,
    stop_residual: float = 1e-12,
) -> FlowTrace:
    """Run the flow to the horizon, recording the L2 and W2 distances to the
    uniform state, tracked mode amplitudes, free energy and the mass defect.
    ``track_modes`` defaults to the first four multiples of the lead mode
    that the grid resolves (k <= M/2); a mode above M/2 is a ValueError.

    ``dt`` is the first trial step.  A Krogstad ETDRK4 step h is accepted
    when the L^2 norm err of its error estimate is at most tol, the smaller
    of ``STEP_TOL`` and ``STABLE_SHARE`` times the norm of its change, a
    change below ``CHANGE_ROUNDING`` counting as that; no CFL bound caps
    it.  The next trial is h min(5, max(0.2, 0.97 (tol / err)^(1/4))), or
    0.2 h for a non-finite err: the estimate is O(h^4) as h -> 0 and grows
    like h^2 to h^3 at the steps taken, so the exponent 1/4 never aims past
    tol.  Where the change is rounding, err says nothing about stability,
    and the step rises at most one rung.  ``BlowUp`` is raised once a
    rejected step falls below 1e-14 of the horizon.  Each trial is taken
    down to the ladder 2^(j / STEP_LADDER) and cut to land on the next
    record time.  Where the ladder step would leave a sliver before it, the
    run takes two even steps, half of what is left each: the second reuses
    the first's size and table and lands, and a rejected step drops the
    pair.  Records fall exactly on the unique times of
    ``record.times(horizon)``.  ``meta`` holds the accepted and rejected
    steps (``steps``, ``rejected``; four transport evaluations each, plus
    one for the initial state), the smallest and largest accepted step
    (``step_min``, ``step_max``) and the exponential tables built
    (``tables``), the misses of a cache of the last 32 step sizes.

    Terminates early (flagged) once the stationarity residual, from the
    transport of the state that its last step returned, drops below
    ``stop_residual``.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    m = q0.grid_size
    if record is None:
        record = RecordPolicy()
    if track_modes is None:
        track_modes = [k for k in default_modes(w) if k <= m // 2]
    elif max(map(abs, track_modes), default=0) > m // 2:
        raise ValueError(f"track_modes {track_modes} go past mode M/2 = "
                         f"{m // 2} of the grid")
    split = _Split(w, coupling, m)
    tables = lru_cache(maxsize=32)(lambda h: _etd_tables(split.lin, h))
    record_times = np.unique(record.times(horizon)).tolist()

    qhat = q0.fourier.copy()
    out = {k: [] for k in ("t", "l2", "w2", "f", "mass")}
    mode_out: dict[int, list[float]] = {k: [] for k in track_modes}
    snapshots: list[Density] = []
    snapshot_times: list[float] = []
    terminated = False
    residual = math.nan

    t, h = 0.0, dt
    half = 0.0  # the size of two even steps to the record time, once begun
    steps = rejected = 0
    step_min, step_max = math.inf, 0.0
    n0 = split.rest(qhat)  # N(q) at the current state
    for t_next in record_times:
        while t < t_next:
            if half:  # the second of two even steps lands
                take, land = half, True
            else:
                # down to the ladder; the slack keeps a rung where it is
                take = 2.0 ** (math.floor(STEP_LADDER * math.log2(h) + 1e-9)
                               / STEP_LADDER)
                left = t_next - t
                land = take >= left
                if land:
                    take = left
                elif 2.0 * take > left:
                    half = take = 0.5 * left  # two even steps, not a sliver
            nxt, n_nxt, change, err = split.step(qhat, n0, tables(take))
            tol = min(STEP_TOL, STABLE_SHARE * max(change, CHANGE_ROUNDING))
            grow = (5.0 if err == 0.0 else 0.2 if not err < math.inf else
                    min(5.0, max(0.2, 0.97 * (tol / err) ** (1 / 4))))
            if change < CHANGE_ROUNDING and err > 0.0:  # probe a rung a time
                grow = min(grow, 2.0 ** (1 / STEP_LADDER))
            if not err <= tol:  # also when err is NaN
                rejected += 1
                if take < 1e-14 * horizon:
                    raise BlowUp(f"step fell to {take:.1e} at t={t:.6g}: "
                                 "the flow is non-finite")
                h = grow * take
                half = 0.0
                continue
            qhat, n0 = nxt, n_nxt
            t = t_next if land else t + take
            steps += 1
            step_min, step_max = min(step_min, take), max(step_max, take)
            if land:  # a step cut short says little about the next
                h = max(grow * take, h)
                half = 0.0
            else:
                h = grow * take
            if steps % 200 == 0:
                _check_state(fourier_to_grid(qhat, m))
        q = dens.from_fourier(qhat, m)
        out["t"].append(t)
        d = q.grid_values - 1.0  # the uniform state's values are exactly 1
        out["l2"].append(float(np.sqrt((d * d).mean())))
        out["w2"].append(w2_circle(q))
        out["f"].append(free_energy(q, w, coupling))
        out["mass"].append(abs(float(qhat[0].real) - 1.0))
        for k in track_modes:
            mode_out[k].append(q.order_parameter(k))
        if (len(out["t"]) - 1) % record.snapshot_every == 0:
            snapshots.append(q)
            snapshot_times.append(t)
        residual = split.residual(qhat, n0)
        if residual < stop_residual:
            terminated = True
            break
    if snapshot_times[-1] != out["t"][-1]:  # q is the last record
        snapshots.append(q)
        snapshot_times.append(out["t"][-1])

    return FlowTrace(
        times=np.asarray(out["t"]),
        l2=np.asarray(out["l2"]),
        w2=np.asarray(out["w2"]),
        mode_abs={k: np.asarray(v) for k, v in mode_out.items()},
        free_energy=np.asarray(out["f"]),
        mass_defect=np.asarray(out["mass"]),
        snapshots=snapshots,
        snapshot_times=snapshot_times,
        terminated_early=terminated,
        final_residual=residual,
        meta={
            "model": w.name,
            "params": w.params,
            "coupling": coupling,
            "grid_size": m,
            "dt": dt,
            "horizon": horizon,
            "steps": steps,
            "rejected": rejected,
            "step_min": step_min if steps else None,
            "step_max": step_max if steps else None,
            "tables": tables.cache_info().misses,
        },
    )


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay fit on a log scale."""

    window: tuple[float, float]
    model: str  # exponential | algebraic
    rate: float  # decay rate (exponential) or exponent (algebraic)
    goodness: float  # R^2 of the regression
    n_points: int


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) < 3:
        return 0.0
    slope, icpt = np.polyfit(x, y, 1)
    resid = y - (slope * x + icpt)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0
    return 1.0 - float(np.sum(resid**2)) / sst


def fit_rate(trace: FlowTrace, model: str = "exponential") -> RateFit:
    """Fit a decay law to the trace's W2 distance to the uniform state.

    exponential: log(W2) against t, rate = -slope; algebraic: log(W2)
    against log(t), rate = slope (the exponent).  The fit window is the
    latest contiguous span whose rolling local fits keep R^2 above 0.999,
    so early transients and a late noise floor drop out; it is reported
    in ``RateFit.window``.  Values at or below 1e-13 are left out as
    rounding noise.
    """
    t, y = trace.times, trace.w2
    keep = (y > 1e-13) & (t > 0.0)
    t, y = t[keep], y[keep]
    if len(t) < 20:
        raise DegenerateWindow(f"only {len(t)} usable points")
    x = t if model == "exponential" else np.log(t)
    if model not in ("exponential", "algebraic"):
        raise ValueError("model must be 'exponential' or 'algebraic'")
    z = np.log(y)
    wlen = max(7, len(x) // 10)
    good = np.array([
        _r_squared(x[i:i + wlen], z[i:i + wlen]) > 0.999
        for i in range(len(x) - wlen + 1)
    ])
    if not good.any():
        raise DegenerateWindow("no log-linear span in the trace")
    # latest contiguous run of locally linear windows (skips both the
    # early transient and any late noise floor)
    end = len(good) - 1 - int(np.argmax(good[::-1]))
    begin = end
    while begin > 0 and good[begin - 1]:
        begin -= 1
    sl = slice(begin, end + wlen)
    t, x, z = t[sl], x[sl], z[sl]
    if len(x) < 20:
        raise DegenerateWindow(f"log-linear span has only {len(x)} points")
    slope, _ = np.polyfit(x, z, 1)
    r2 = _r_squared(x, z)
    rate = -float(slope) if model == "exponential" else float(slope)
    return RateFit(
        window=(float(t[0]), float(t[-1])),
        model=model,
        rate=rate,
        goodness=r2,
        n_points=len(x),
    )
