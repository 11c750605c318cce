"""The four workloads: inputs made from the seed, set-up, the timed call,
and the outcome the checks read.

Each workload builds its inputs as plain arrays from ``--seed``; the
program only ever sees the Density objects built from them.  ``prepare``
is the set-up a user pays once: kernel construction, program inputs and a
first small call of the same API.  ``call`` is one closed-loop round.
``complete`` runs after the timed rounds: it adds to the outcomes what the
timed call does not return, asked of the public API again, and the
references the checks compare against.
"""

from __future__ import annotations

import math

import numpy as np

import checks as ref
from checks import K_SHARP_ROD

GRID = 512  # scan grid and particle flow-side grid, as in C01, C02 and C10


def _theta(m: int) -> np.ndarray:
    return -0.5 + np.arange(m) / m


def _rotation(seed: int, m: int) -> int:
    # the free energy and the flow commute with rotations, so a whole-cell
    # roll changes the input bits but none of the verdicts or work counts
    # that the theory fixes
    return int(np.random.default_rng(seed).integers(m))


def scan_seed_values(periodicity: int, m: int, roll: int,
                     families: tuple[str, ...]) -> list[tuple[str, np.ndarray]]:
    """Seeds of the scanner's standard multistart set, one per named
    family, rolled by ``roll`` cells: the uniform state, the cosine on the
    lead mode, and the sharp bump (a Poisson kernel with c = 0.99)."""
    lead = periodicity + 1
    c = np.cos(2.0 * math.pi * lead * _theta(m))
    seeds = {"uniform": np.ones(m), "cos_a0.6": 1.0 + 0.6 * c,
             "bump_c0.99": (1.0 - 0.99**2) / (1.0 + 0.99**2 - 2.0 * 0.99 * c)}
    return [(name, np.roll(seeds[name], roll)) for name in families]


class Workload:
    name = ""
    modules: tuple[str, ...] = ()   # torusmf submodules the workload imports
    paced: tuple[str, ...] = ()     # calls that may take a host-speed sample,
                                    # frequent enough for one every 0.1 s
    ops_per_round = 1
    checks: list[ref.Check] = []

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, tm) -> dict:
        raise NotImplementedError

    def call(self, tm, p: dict):
        raise NotImplementedError

    def outcome(self, result) -> dict:
        raise NotImplementedError

    def failed_ops(self, result) -> list[str]:
        return []

    def complete(self, tm, p: dict, outcomes: list[dict]) -> None:
        """Once per run, untimed: fill in what the checks need besides the
        timed call's result."""


class Scan(Workload):
    """A scan from a few families of the standard multistart set.  The
    uniform seed is a fixed point (one map application); the cosine
    carries the capped solves of both scans."""

    modules = ("critical",)
    paced = ("density.fourier_to_grid",)  # once per map application
    families: tuple[str, ...] = ()
    tol_K = 0.0
    k_sharp = 0.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.roll = _rotation(seed, GRID)

    def kernel(self, tm):
        raise NotImplementedError

    def prepare(self, tm) -> dict:
        w = self.kernel(tm)
        seeds = [(name, tm.from_grid(v)) for name, v in
                 scan_seed_values(w.periodicity, GRID, self.roll,
                                  self.families)]
        tm.multistart(w, 0.5 * self.k_sharp, GRID, seeds)
        return {"w": w, "seeds": seeds}

    def call(self, tm, p: dict):
        return tm.scan_kc(p["w"], m=GRID, tol_K=self.tol_K, seeds=p["seeds"])

    def outcome(self, pd) -> dict:
        return {"k_c": pd.k_c_estimate, "width": pd.bracket_width,
                "k_sharp": pd.k_sharp, "continuity": pd.continuity,
                "jump": pd.jump_estimate}


class ScanRod(Scan):
    name = "scan_rod"
    # the other families cost what the cosine costs at every coupling and
    # give the same K_c and verdict
    families = ("uniform", "cos_a0.6")
    tol_K = 5e-3
    k_sharp = K_SHARP_ROD
    checks = ref.SCAN_ROD

    def kernel(self, tm):
        return tm.doi_onsager()


class ScanAttention(Scan):
    name = "scan_attention_b3"
    # without the bump, the bracket's upper end lies where the cosine's
    # iterates dip below F = 0 but the minimizer it returns does not
    families = ("uniform", "cos_a0.6", "bump_c0.99")
    tol_K = 2e-4
    beta = 3.0
    k_sharp = ref.attention_thresholds(beta)[1]
    checks = ref.SCAN_ATTENTION

    def kernel(self, tm):
        return tm.transformer(self.beta)

    def complete(self, tm, p: dict, outcomes: list[dict]) -> None:
        # the scan returns no states: solve again at the bracket's upper
        # end, from the same seeds the scan used there
        states: dict[float, np.ndarray] = {}
        for o in outcomes:
            hi = o["k_c"] + 0.5 * o["width"]
            if hi not in states:
                best, _ = tm.find_minimizer(p["w"], hi, GRID, p["seeds"])
                states[hi] = np.array(best.density.grid_values)
            o.update(beta=self.beta, hi_coupling=hi, hi_state=states[hi])


class FlowCriticalRod(Workload):
    name = "flow_critical_rod"
    modules = ("flow",)
    paced = ("density.fourier_to_grid",)  # twice per step
    checks = ref.FLOW
    m = 128
    dt = 5e-4
    horizon = 20.0

    def prepare(self, tm) -> dict:
        w = tm.doi_onsager()
        q0 = np.roll(1.0 + 0.3 * np.cos(4.0 * math.pi * _theta(self.m)),
                     _rotation(self.seed, self.m))
        p = {"w": w, "q0": tm.from_grid(q0),
             "record": tm.flow.RecordPolicy("geometric", t0=0.05, factor=1.06)}
        self._integrate(tm, p, 50 * self.dt)
        return p

    def _integrate(self, tm, p: dict, horizon: float):
        return tm.flow.integrate(p["q0"], p["w"], K_SHARP_ROD, horizon,
                                 dt=self.dt, record=p["record"],
                                 stop_residual=0.0)

    def call(self, tm, p: dict):
        return self._integrate(tm, p, self.horizon)

    def outcome(self, tr) -> dict:
        return {"times": tr.times, "w2": tr.w2,
                "free_energy": tr.free_energy.copy(),
                "mass_defect": tr.mass_defect.copy(),
                "snapshots": [np.array(s.grid_values) for s in tr.snapshots]}


class ParticlesRod(Workload):
    """C10 scaled down.  The inputs are fixed (C10's Philox seed 2024 and
    unrotated q0) whatever ``--seed`` says: the consistency comparison fails
    through a known fault, and a failing operation must see the same inputs
    in every run for the failed share to stay fixed."""

    name = "particles_rod"
    modules = ("particles",)
    paced = ("particles.em_step", "density.fourier_to_grid")
    ops_per_round = 2  # the chaos_check call, then the consistency comparison
    checks = ref.PARTICLES
    truncation = 128
    coupling = 1.2 * K_SHARP_ROD
    amp0 = 0.2
    n = 2000
    replicates = 4
    horizon = 0.5
    philox_seed = 2024

    def prepare(self, tm) -> dict:
        w = tm.doi_onsager(truncation=self.truncation)
        q0 = tm.from_grid(1.0 + self.amp0 * np.cos(4.0 * math.pi * _theta(GRID)))
        p = {"w": w, "q0": q0}
        self._check(tm, p, horizon=0.01, replicates=2)
        return p

    def _check(self, tm, p: dict, horizon: float, replicates: int):
        return tm.particles.chaos_check(
            p["w"], self.coupling, n=self.n, horizon=horizon,
            replicates=replicates, dt=1e-3, q0=p["q0"], seed=self.philox_seed,
            m_pde=GRID, dt_pde=1e-4, workers=1)

    def call(self, tm, p: dict):
        return self._check(tm, p, self.horizon, self.replicates)

    def outcome(self, rep) -> dict:
        return {"pde_value_sq": rep.pde_value_sq}

    def failed_ops(self, rep) -> list[str]:
        if abs(rep.z_score) <= 3.0:
            return []
        return [f"particle-flow consistency |z| = {abs(rep.z_score):.2f} > 3 "
                f"(particles {rep.particle_mean_sq:.5f} +- {rep.particle_se:.5f} "
                f"vs flow {rep.pde_value_sq:.5f}): the known C10 fault, "
                "Euler-Maruyama in particles.em_step biased low at dt = 1e-3 "
                "for the kinked rod kernel"]

    def complete(self, tm, p: dict, outcomes: list[dict]) -> None:
        # chaos_check returns no positions; its replicates are addressable
        # by (seed, replicate), so run each one again on its own
        ends = [np.array(tm.particles.simulate(
                    p["w"], self.coupling, self.n, self.horizon, dt=1e-3,
                    seed=self.philox_seed, replicate=r, q0=p["q0"],
                    record_every=10**9).final.positions)
                for r in range(self.replicates)]
        x = np.array(tm.particles.init_state(p["q0"], self.n, self.philox_seed,
                                             0).positions)
        drift = np.array(tm.particles.drift(x, p["w"], self.coupling))
        direct = ref.rod_drift_direct(x, self.coupling, self.truncation)
        stationary = ref.rod_stationary_amplitude(
            self.coupling, self.truncation, GRID, self.amp0)
        for o in outcomes:
            o.update(replicates=self.replicates, final_positions=ends,
                     drift=drift, drift_direct=direct, stationary_sq=stationary)


WORKLOADS = {w.name: w for w in (ScanRod, ScanAttention, FlowCriticalRod,
                                 ParticlesRod)}
