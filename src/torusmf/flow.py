"""Pseudospectral integrator for the nonlinear Fokker-Planck flow

    dq/dt = (1/2) q'' - K (q (W * q)')'

on the circle, which is the 2-Wasserstein gradient flow of the free
energy.  Diffusion is integrated exactly through the factor
exp(-2 pi^2 k^2 dt); the transport term is advanced with the two-stage
exponential scheme ETD2RK (Cox & Matthews, J. Comput. Phys. 176, 2002)
and the pointwise product is de-aliased with the 2/3 rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import density as dens
from .density import Density, free_energy, fourier_to_grid, grid_to_fourier
from .errors import BlowUp, DegenerateWindow, TimeStepTooLarge
from .metrics import distance

#: CFL safety factor for the explicit transport substep
CFL_SAFETY = 0.2


@lru_cache(maxsize=16)
def _etd_tables(m: int, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = np.arange(m // 2 + 1, dtype=float)
    z = -2.0 * np.pi**2 * k**2 * dt
    e1 = np.exp(z)
    small = np.abs(z) < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.expm1(z) / z
        phi2 = (np.expm1(z) - z) / (z * z)
    # series for tiny |z| where the quotients lose digits
    zs = z[small]
    phi1[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    phi2[small] = 0.5 + zs / 6.0 + zs**2 / 24.0 + zs**3 / 120.0
    return e1, dt * phi1, dt * phi2


@lru_cache(maxsize=16)
def _dealias_mask(m: int) -> np.ndarray:
    k = np.arange(m // 2 + 1)
    mask = (k <= m // 3).astype(float)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=16)
def _derivative(m: int) -> np.ndarray:
    # 2 pi i k on the de-aliased band k <= m/3, zero above it
    d = 2j * np.pi * np.arange(m // 2 + 1) * _dealias_mask(m)
    d.flags.writeable = False
    return d


def _velocity_symbol(w, m: int) -> np.ndarray:
    """Symbol 2 pi i k what(k) of q -> (W * q)' on the de-aliased band."""
    return _derivative(m) * dens.kernel_spectrum(w, m)


def _transport_hat(qhat: np.ndarray, vsym: np.ndarray, coupling: float,
                   m: int, dt: float) -> np.ndarray:
    """-2 pi i k K * FFT(q * (W*q)') with 2/3 de-aliasing; also CFL-checks.

    ``vsym`` is the velocity symbol from ``_velocity_symbol``; q and its
    velocity go to the grid in one stacked transform.
    """
    qv = np.empty((2, len(qhat)), dtype=complex)
    np.multiply(qhat, _dealias_mask(m), out=qv[0])
    np.multiply(qv[0], vsym, out=qv[1])
    qg, vg = fourier_to_grid(qv, m)
    vmax = abs(coupling) * np.maximum.reduce(np.abs(vg))
    if not math.isfinite(vmax):
        raise BlowUp("transport velocity is non-finite")
    if math.isfinite(dt) and vmax > 0.0 and dt > CFL_SAFETY / (m * vmax):
        raise TimeStepTooLarge(
            f"dt={dt:.3e} exceeds transport CFL bound "
            f"{CFL_SAFETY / (m * vmax):.3e}"
        )
    return (-coupling * _derivative(m)) * grid_to_fourier(qg * vg)


def _etd2_step(qhat: np.ndarray, vsym: np.ndarray, coupling: float,
               m: int, dt: float) -> np.ndarray:
    e1, p1, p2 = _etd_tables(m, dt)
    n0 = _transport_hat(qhat, vsym, coupling, m, dt)
    stage = e1 * qhat + p1 * n0
    n1 = _transport_hat(stage, vsym, coupling, m, dt)
    out = stage + p2 * (n1 - n0)
    out[0] = qhat[0]  # mass is exact: the k = 0 mode never moves
    return out


def _check_state(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)) or np.abs(values).max() > 1e6:
        raise BlowUp("flow state is non-finite or exceeds 1e6")


def mv_step(q: Density, w, coupling: float, dt: float) -> Density:
    """One ETD2RK step of the flow; mass exactly conserved."""
    m = q.grid_size
    out = _etd2_step(q.fourier, _velocity_symbol(w, m), coupling, m, dt)
    g = fourier_to_grid(out, m)
    _check_state(g)
    return dens.from_fourier(out, m)


def stationarity_residual(q: Density, w, coupling: float) -> float:
    """L^2 norm of the flow right-hand side, evaluated pseudospectrally."""
    m = q.grid_size
    k = np.arange(m // 2 + 1)
    diff = -2.0 * np.pi**2 * k**2 * q.fourier
    transport = _transport_hat(q.fourier, _velocity_symbol(w, m), coupling,
                               m, math.inf)
    rhs = diff + transport
    weights = np.full(m // 2 + 1, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    return float(np.sqrt(np.sum(weights * np.abs(rhs) ** 2)))


# ---------------------------------------------------------------------------
# time loop


@dataclass(frozen=True)
class RecordPolicy:
    """When to record observables along the flow.

    kind "uniform" records n_records evenly spaced times; "geometric"
    records t0 * factor^j (plus t = 0 and t = T), which suits log-scale
    rate fits.  Every ``snapshot_every``-th record keeps the full density.
    """

    kind: str = "uniform"
    n_records: int = 200
    t0: float = 1e-2
    factor: float = 1.15
    snapshot_every: int = 25

    def times(self, horizon: float) -> np.ndarray:
        if self.kind == "uniform":
            return np.linspace(0.0, horizon, self.n_records + 1)
        if self.kind == "geometric":
            ts = [0.0]
            t = self.t0
            while t < horizon:
                ts.append(t)
                t *= self.factor
            ts.append(horizon)
            return np.asarray(ts)
        raise ValueError(f"unknown record policy {self.kind!r}")


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


def _default_modes(w) -> list[int]:
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
    """Run the flow to the horizon, recording distances to the uniform
    state, tracked Fourier amplitudes, free energy, and the mass defect.

    ``dt`` is the largest step: a step that breaks the CFL bound is redone
    from the same state as 2, 4, ... equal substeps until it passes, and
    that split is kept.  Records stay on multiples of ``dt``.  ``meta``
    holds the final split (``substeps``) and the steps taken (``steps``).

    Terminates early (flagged) once the stationarity residual drops below
    ``stop_residual``.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    m = q0.grid_size
    if record is None:
        record = RecordPolicy()
    if track_modes is None:
        track_modes = _default_modes(w)
    vsym = _velocity_symbol(w, m)
    qu = dens.uniform(m)

    n_steps_total = int(round(horizon / dt))
    steps_at = np.round(record.times(horizon) / dt).clip(0, n_steps_total)
    record_steps = set(steps_at.astype(int).tolist())

    qhat = q0.fourier.copy()
    out = {k: [] for k in ("t", "l2", "w2", "f", "mass")}
    mode_out: dict[int, list[float]] = {k: [] for k in track_modes}
    snapshots: list[Density] = []
    snapshot_times: list[float] = []
    terminated = False
    residual = math.nan

    substeps, n_etd = 1, 0
    n_recorded = 0
    for step in range(n_steps_total + 1):
        if step in record_steps:
            q = dens.from_fourier(qhat, m)
            t = step * dt
            out["t"].append(t)
            out["l2"].append(distance(q, qu, "L2"))
            out["w2"].append(distance(q, qu, "W2_circle"))
            out["f"].append(free_energy(q, w, coupling))
            out["mass"].append(abs(float(qhat[0].real) - 1.0))
            for k in track_modes:
                mode_out[k].append(q.order_parameter(k))
            if n_recorded % record.snapshot_every == 0:
                snapshots.append(q)
                snapshot_times.append(t)
            n_recorded += 1
            residual = stationarity_residual(q, w, coupling)
            if residual < stop_residual:
                terminated = True
                break
        if step < n_steps_total:
            while True:
                try:
                    nxt = qhat
                    for _ in range(substeps):
                        nxt = _etd2_step(nxt, vsym, coupling, m, dt / substeps)
                    break
                except TimeStepTooLarge:
                    substeps *= 2
            qhat = nxt
            n_etd += substeps
            if step % 200 == 0:
                _check_state(fourier_to_grid(qhat, m))
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
            "substeps": substeps,
            "steps": n_etd,
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


def fit_rate(
    trace: FlowTrace,
    observable: str = "w2",
    model: str = "exponential",
) -> RateFit:
    """Fit a decay law to a trace observable.

    exponential: log(obs) against t, rate = -slope; algebraic: log(obs)
    against log(t), rate = slope (the exponent).  The fit window is the
    latest contiguous span whose rolling local fits keep R^2 above 0.999,
    so early transients and a late noise floor drop out; it is reported
    in ``RateFit.window``.  Values at or below 1e-13 are left out as
    rounding noise.
    """
    t = trace.times
    if observable in ("w2", "l2"):
        y = getattr(trace, observable)
    elif observable.startswith("mode"):
        y = trace.mode_abs[int(observable[4:])]
    else:
        raise ValueError(f"unknown observable {observable!r}")
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
