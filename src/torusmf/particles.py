"""Interacting-particle dynamics on the circle and mean-field checks.

N particles follow

    dtheta_i = (K/N) sum_j W'(theta_i - theta_j) dt + dB_i

with wrapped positions, stepped by Leimkuhler-Matthews noise averaging
(see ``em_step``): one drift evaluation per step, as Euler-Maruyama, but a
stationary law accurate to second order in dt where Euler-Maruyama's is
first order.  Noise comes from a Philox counter keyed by (seed, replicate)
and advanced to the step, so every normal is addressable by (seed, step,
particle): replicates are reproducible, parallelizable, and couplable
across step sizes.  A step gets its noise from a step plan
(``_StepPlan``), which holds the drift's work rows, coefficient block and
angle, and the replicate's Philox stream: the plan reads xi_s and
xi_{s+1} at their address and carries xi_{s+1} to the next step, which
reads on from where the stream stands.  A run (``simulate``) builds one
plan and sets its stream once; a step that finds the stream at another
key sets it there, so the bits are those of the addressed draw either way.

References: B. Leimkuhler and C. Matthews, Rational construction of
stochastic numerical methods for molecular sampling, AMRX 2013;
B. Leimkuhler, C. Matthews and G. Stoltz, The computation of averages from
equilibrium and nonequilibrium Langevin molecular dynamics, IMA J. Numer.
Anal. 2016.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtri

from . import density as dens
from .density import Density
from .flow import RecordPolicy, default_modes, integrate
from .potentials import Potential, k_sharp

_INV_2_53 = 2.0 ** -53


@dataclass(frozen=True)
class ParticleState:
    """Positions in [-1/2, 1/2) plus the RNG bookkeeping."""

    positions: np.ndarray
    time: float
    seed: int
    replicate: int = 0
    step: int = 0

    def __post_init__(self):
        self.positions.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.positions)


def _wrap(theta):
    """Map angles to the fundamental domain [-1/2, 1/2)."""
    return theta - np.round(theta)


def _unit_uniform(raw: np.ndarray) -> np.ndarray:
    # top 53 bits of each Philox word, centred in its cell: never 0 or 1
    return (np.right_shift(raw, 11) + 0.5) * _INV_2_53


def _stream(seed: int, replicate: int, step: int, n: int
            ) -> np.random.Philox:
    # Step s reads n words of the key's one stream, from word
    # 4 (s + 1) ceil(n/2): a Philox4x64 block holds four uint64 words and
    # ``advance`` counts blocks, so each step reserves about 2n words and
    # uses the first n, clear of the next step's and of init_state's n at
    # the stream's start.  Narrowing the reservation would change every
    # stream.
    bg = np.random.Philox(key=(seed, replicate))
    return bg.advance((step + 1) * ((n + 1) // 2))


def _cdf_nodes(q: Density) -> tuple[np.ndarray, np.ndarray]:
    # piecewise-linear CDF of the cell-wise constant density: node j sits at
    # the left edge theta_j, F runs from 0 to exactly 1
    m = q.grid_size
    x = -0.5 + np.arange(m + 1) / m
    f = np.concatenate(([0.0], np.cumsum(q.grid_values) / m))
    f[-1] = 1.0
    return f, x


def init_state(q0: Density | None, n: int, seed: int,
               replicate: int = 0) -> ParticleState:
    """Draw i.i.d. initial positions from q0 (uniform when None)."""
    bg = np.random.Philox(key=(seed, replicate))
    u = _unit_uniform(bg.random_raw(n))
    if q0 is None:
        pos = u - 0.5
    else:
        pos = np.interp(u, *_cdf_nodes(q0))
    return ParticleState(_wrap(pos), 0.0, seed, replicate, 0)


def _mode_weights(w: Potential) -> np.ndarray:
    # k what(k) at k = lead, 2 lead, ..., up to the last active mode
    lead = w.lead_mode
    ks = np.arange(lead, w.active_modes[-1] + 1, lead)
    return ks * w.coeffs[ks - 1]


def _split(n_modes: int) -> tuple[int, int]:
    # s inner and a outer powers with s a >= n_modes, s = ceil(sqrt(n_modes))
    s = math.isqrt(n_modes - 1) + 1
    return s, -(-n_modes // s)


class _StepPlan:
    """What a run of ``em_step`` calls on n particles of one kernel reuses
    from step to step: the drift's work rows (s inner, a outer and a
    product rows), its coefficient block k what(k) / n as (a, s), the
    angle 2 pi lead of a unit position, and the noise.  The noise is the
    replicate's Philox stream, standing at the first word of step
    ``cursor[2] + 1`` of key ``cursor[:2]``, and the draw ``xi`` of step
    ``cursor[2]``, read ahead.
    A run builds one and drops it when it returns; steps write into it, so
    a plan serves one replicate at a time."""

    def __init__(self, n: int, w: Potential):
        self.kernel, self.n = w, n
        self.angle = 2.0 * np.pi * w.lead_mode
        self.work = None  # no active modes: no force
        if len(w.active_modes):
            kw = _mode_weights(w)
            self.s, self.a = s, a = _split(len(kw))
            coef = np.zeros(a * s)
            coef[:len(kw)] = kw / n
            self.coef = coef.reshape(a, s)
            # Above glibc's 128 KiB mmap threshold a fresh array is mapped
            # and faulted in at every call, so a run allocates these once
            self.work = np.empty((s + 2 * a, n), dtype=complex)
            self.inner = self.work[:s]
            self.outer = self.work[s:s + a]
            self.rows = self.work[s + a:]
            self.outer[0] = 1.0
        self.noise: Optional[np.random.Philox] = None
        self.cursor: Optional[tuple[int, int, int]] = None
        self.xi: Optional[np.ndarray] = None

    def normals(self, seed: int, replicate: int, step: int
                ) -> tuple[np.ndarray, np.ndarray]:
        """xi_step and xi_{step+1} of key (seed, replicate), carrying
        xi_{step+1} to the next call.  Where the plan stands at this key it
        reads on; elsewhere it first sets its stream to step ``step``."""
        if self.cursor != (seed, replicate, step):
            self.noise = _stream(seed, replicate, step, self.n)
            self.xi = self._read()
        xi, self.xi = self.xi, self._read()
        self.cursor = (seed, replicate, step + 1)
        return xi, self.xi

    def _read(self) -> np.ndarray:
        # One word per particle, through the inverse normal CDF.  Reading
        # n words leaves the stream ceil(n/4) blocks on, and the next
        # step's words start ceil(n/2) blocks on.
        raw = self.noise.random_raw(self.n)
        self.noise.advance((self.n + 1) // 2 - (self.n + 3) // 4)
        return ndtri(_unit_uniform(raw))


def drift(positions: np.ndarray, w: Potential, coupling: float,
          plan: Optional[_StepPlan] = None) -> np.ndarray:
    """Pairwise force field (K/N) sum_j W'(theta_i - theta_j) of the
    truncated kernel, contracted against the empirical Fourier modes in
    O(N * truncation); it agrees with the sum over all pairs of the
    untruncated kernel up to the kernel tail.  ``plan`` is
    ``_StepPlan(len(positions), w)``, for a caller that evaluates the drift
    many times; it changes no result, and a plan for another kernel or
    particle count raises ``ValueError``.
    """
    # sum_j sin(2 pi k (x_i - x_j)) = Im[z_i^k conj(sum_j z_j^k)] with
    # z = e^{2 pi i x}.  Active modes sit on the lead lattice, so the
    # force is a degree-L polynomial in zeta = z^lead.  Its powers split
    # as zeta^(s p + q) = (zeta^s)^p zeta^q (Paterson and Stockmeyer,
    # SIAM J. Comput. 1973): s inner rows zeta^1..zeta^s and a outer rows
    # zeta^0, zeta^s, ..., and the mode sums and the force are then two
    # small matrix products.
    n = len(positions)
    if plan is None:
        plan = _StepPlan(n, w)
    elif plan.kernel is not w or plan.n != n:
        raise ValueError(
            f"step plan for {plan.kernel.name} on {plan.n} particles "
            f"handed {w.name} on {n}")
    if plan.work is None:
        return np.zeros(n)
    s, a = plan.s, plan.a
    inner, outer, rows = plan.inner, plan.outer, plan.rows
    # zeta = cos + i sin of the angle 2 pi lead x, written into the real
    # and imaginary views of its row: the complex exp's bits, faster at a
    # few thousand particles
    zeta = inner[0]
    np.multiply(positions, plan.angle, out=zeta.imag)
    np.cos(zeta.imag, out=zeta.real)
    np.sin(zeta.imag, out=zeta.imag)
    for q in range(1, s):
        np.multiply(inner[q - 1], inner[0], out=inner[q])
    for p in range(1, a):
        np.multiply(outer[p - 1], inner[s - 1], out=outer[p])
    sums = outer @ inner.T  # sums[p, q] = sum_j zeta_j^(s p + q + 1)
    np.matmul(plan.coef * sums.conj(), inner, out=rows)
    rows *= outer
    return -4.0 * np.pi * coupling * rows.sum(axis=0).imag


def em_step(state: ParticleState, w: Potential, coupling: float,
            dt: float, plan: Optional[_StepPlan] = None) -> ParticleState:
    """One Leimkuhler-Matthews (noise-averaged) step with wrapped positions.

        x_{s+1} = x_s + F(x_s) dt + sqrt(dt) (a_s xi_s + xi_{s+1} / 2)

    where xi_s is the step-s draw of the replicate's Philox stream and
    a_s = 1/2 for s >= 1.
    Averaging the noise of neighbouring steps makes the stationary law
    accurate to second order in dt; Euler-Maruyama's is first order, and
    near a clustered state of the kinked rod kernel (drift slope about
    -180, so L dt ~ 0.2 at dt = 1e-3) its bias inflates the stationary
    variance by about 10%: at K = 1.2 K_#, N = 5000, T = 5 it gives
    |qhat(2)|^2 = 0.283 against the flow's 0.385, where this scheme gives
    0.382.  The first step takes a_0 = sqrt(3)/2 in place of 1/2,
    so that the displacement after n steps at K = 0,
    sqrt(dt) (sqrt(3)/2 xi_0 + xi_1 + ... + xi_{n-1} + xi_n / 2),
    is exactly N(0, n dt) as for Brownian motion; plain LM gives
    (n - 1/2) dt.  The noise and the drift's work rows come from
    ``plan`` (built here when None); a plan that stands at the state's
    step gives xi_s from the step before and draws only xi_{s+1}.

    The name is kept from the Euler-Maruyama scheme this replaced: callers
    and the benchmark's tracer address the particle step by it.
    """
    if dt > 1e-3:
        raise ValueError("dt above 1e-3 is outside the validated range")
    if plan is None:
        plan = _StepPlan(state.n, w)
    seed, replicate, step = state.seed, state.replicate, state.step
    # x + F dt + sqrt(dt) (a xi + xi_next / 2), wrapped, in the drift's
    # own array
    pos = drift(state.positions, w, coupling, plan=plan)
    xi, xi_next = plan.normals(seed, replicate, step)
    a = math.sqrt(0.75) if step == 0 else 0.5
    pos *= dt
    pos += state.positions
    noise = a * xi
    noise += 0.5 * xi_next
    noise *= math.sqrt(dt)
    pos += noise
    pos -= np.round(pos, out=noise)
    return ParticleState(pos, state.time + dt, seed, replicate, step + 1)


def empirical_fourier(positions: np.ndarray, k: int) -> complex:
    """qhat_N(k) = (1/N) sum_i exp(-2 pi i k theta_i); k = 0 gives 1."""
    if k == 0:
        return 1.0 + 0.0j
    return complex(np.exp(-2j * np.pi * k * np.asarray(positions)).mean())


@dataclass
class ParticleTrajectory:
    times: np.ndarray
    mode_abs: dict[int, np.ndarray]
    final: ParticleState


def step_count(horizon: float, dt: float) -> int:
    """horizon / dt, which must be within 1e-9 of a positive integer."""
    steps = horizon / dt
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(steps - n) > 1e-9 * n:
        raise ValueError(f"horizon {horizon:g} is not a positive whole "
                         f"number of steps dt = {dt:g}")
    return n


def simulate(
    w: Potential,
    coupling: float,
    n: int,
    horizon: float,
    dt: float = 1e-3,
    seed: int = 0,
    replicate: int = 0,
    q0: Density | None = None,
    track_modes: Optional[list[int]] = None,
    record_every: int = 50,
) -> ParticleTrajectory:
    """Run one replicate, recording |qhat_N(k)| for the tracked modes
    (default: the first four multiples of the lead mode).  The step plan,
    with the drift's work rows and the replicate's noise stream, lives for
    this call only: the first step sets the stream, and each later step
    reads on.  ``horizon`` must be a whole number of steps ``dt``."""
    n_steps = step_count(horizon, dt)
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if track_modes is None:
        track_modes = default_modes(w)
    state = init_state(q0, n, seed, replicate)
    times = [0.0]
    rec: dict[int, list[float]] = {
        k: [abs(empirical_fourier(state.positions, k))] for k in track_modes
    }
    plan = _StepPlan(n, w)
    for step in range(1, n_steps + 1):
        state = em_step(state, w, coupling, dt, plan)
        if step % record_every == 0 or step == n_steps:
            times.append(state.time)
            for k in track_modes:
                rec[k].append(abs(empirical_fourier(state.positions, k)))
    modes = {k: np.asarray(v) for k, v in rec.items()}
    return ParticleTrajectory(np.asarray(times), modes, state)


@dataclass(frozen=True)
class ChaosReport:
    """Replicate-vs-PDE comparison of the squared order parameter.

    The particle estimator is |qhat_N(k)|^2 debiased by its sampling
    floor: est = (|qhat_N|^2 - 1/N) / (1 - 1/N) has expectation exactly
    |qhat(k)|^2 under i.i.d. sampling, so the z-score is centered even
    when the target is zero.
    """

    mode: int
    flow_steps: int  #: ETDRK4 steps the flow side took
    #: ``em_step`` calls over all replicates, one drift evaluation each
    particle_steps: int
    pde_value_sq: float
    particle_mean_sq: float
    particle_se: float
    z_score: float
    #: each replicate's trajectory at ``simulate``'s default modes and
    #: cadence, plus ``mode`` when it is not among them
    trajectories: tuple[ParticleTrajectory, ...] = field(repr=False)

    @property
    def replicates(self) -> int:
        return len(self.trajectories)


def chaos_check(
    w: Potential,
    coupling: float,
    n: int = 5000,
    horizon: float = 5.0,
    replicates: int = 16,
    dt: float = 1e-3,
    q0: Density | None = None,
    seed: int = 2024,
    m_pde: int = 512,
    dt_pde: float = 1e-4,
    workers: int = 1,
) -> ChaosReport:
    """Compare the replicate-averaged sharp mode against the flow.

    Particles start i.i.d. from the flow's initial density (uniform when
    q0 is None), which fixes the mean-field initial law; the flow side
    runs on the ``m_pde`` grid, so a given q0 must live on that grid.
    Replicates have independent counter streams and their own drift work
    rows, so results are identical for any worker count.  Each worker's
    drift runs BLAS matrix products, so ``workers > 1`` wants a
    single-threaded BLAS (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
    MKL_NUM_THREADS set to 1 before numpy loads): BLAS threads under the
    worker threads fight for the same cores.  The particles are stepped by
    ``em_step``, whose noise averaging keeps the time-discretization bias
    of the stationary law at O(dt^2); Euler-Maruyama's O(dt) bias puts a
    supercritical comparison at dt = 1e-3 many standard errors off.
    ``dt_pde`` is the flow side's first trial step: ``integrate`` adapts
    the step from there, and the report carries the steps it took.
    ``horizon`` must be a whole number of steps ``dt``: both sides stop there.
    """
    if n < 10:
        raise ValueError("need at least a few particles")
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    step_count(horizon, dt)
    if q0 is not None and q0.grid_size != m_pde:
        raise ValueError(
            f"q0 lives on M={q0.grid_size} but the flow grid is m_pde={m_pde}"
        )
    mode_k = k_sharp(w)[1]
    pde_q0 = q0 if q0 is not None else dens.uniform(m_pde)
    trace = integrate(pde_q0, w, coupling, horizon, dt=dt_pde,
                      record=RecordPolicy("uniform", 10, snapshot_every=10**9),
                      track_modes=[mode_k], stop_residual=0.0)
    pde_sq = float(trace.mode_abs[mode_k][-1] ** 2)

    tracked = default_modes(w)
    if mode_k not in tracked:
        tracked.append(mode_k)

    def one(r: int) -> ParticleTrajectory:
        return simulate(w, coupling, n, horizon, dt, seed=seed, replicate=r,
                        q0=q0, track_modes=tracked)

    # threads beyond the cores only contend for the interpreter lock
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajs = tuple(pool.map(one, range(replicates)))
    else:
        trajs = tuple(one(r) for r in range(replicates))
    amp2 = np.array([t.mode_abs[mode_k][-1] ** 2 for t in trajs])
    ests = (amp2 - 1.0 / n) / (1.0 - 1.0 / n)
    mean = float(ests.mean())
    se = float(ests.std(ddof=1) / math.sqrt(replicates))
    z = (mean - pde_sq) / se if se > 0 else math.inf
    return ChaosReport(
        mode=mode_k,
        flow_steps=trace.meta["steps"],
        particle_steps=sum(t.final.step for t in trajs),
        pde_value_sq=pde_sq,
        particle_mean_sq=mean,
        particle_se=se,
        z_score=float(z),
        trajectories=trajs,
    )
