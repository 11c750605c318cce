"""Critical points of the free energy and the transition scanner.

Critical points solve the self-consistency (Kirkwood--Monroe) equation

    q = exp(2 K (W * q)) / Z,

found here from a fixed multistart seed set by guarded Anderson mixing
of the map's exponent (``solve_fixed_point``).  The scanner first probes
whether the uniform state is still a global minimizer at the linear
stability threshold K_#.  If it is, the transition is continuous and
K_c = K_#.  If it is not, K_c is the root of the least free energy along
the nonuniform branch, found by Newton's method in the coupling: the
envelope identity gives dF/dK = -E, the interaction energy, so each step
is K <- K + F/E from a solve warm-started at the last state.  F is affine
in K for a fixed density, so the root state shows F < 0 just above K_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
# np.linalg.solve runs through this LU gufunc; called directly it gives the
# same bits without the wrapper, which costs as much as a 5 x 5 solve, and
# a singular system gives NaN (flagged "invalid") where the wrapper raises
from numpy.linalg._umath_linalg import solve1 as _lu_solve

from . import density as dens
from .density import Density, free_energy, irfft_kernel, rfft_kernel
from .errors import AllSeedsFailed, EnclosureNotVerified, ExpOverflow
from .potentials import Potential, k_sharp

#: Gibbs exponent beyond which the iteration refuses to exponentiate
EXP_LIMIT = 700.0
#: secant steps remembered by the Anderson mixing of ``solve_fixed_point``
ANDERSON_DEPTH = 5
#: the scan's threshold: a state with F < -TOL_F shows the coupling is
#: supercritical.  It sits above the rounding of F near the uniform state,
#: 1e-14 (1 + |F|), which would otherwise read as such a state.
TOL_F = 1e-10
#: Newton steps in K that ``scan_kc`` takes at most to reach |F| < 1e-13
NEWTON_MAX_STEPS = 50
#: residual at which every solve of ``scan_kc`` stops: F is second order
#: in it, so Newton's |F| < 1e-13 is still reached, and a tighter stop
#: only adds map applications
SCAN_TOL = 1e-11


# ---------------------------------------------------------------------------
# the fixed-point map


def _map_exponent(values: np.ndarray, wk2: np.ndarray, m: int):
    """(raw, ck, expo): raw = M (-1)^k qhat(k), the unscaled real FFT of
    the grid values, ck = raw * wk2 (wk2 = 2K what), and expo = 2K W*q,
    the inverse real FFT of ck.  M is a power of two, so the phase-free
    transforms give the bits of fourier_to_grid(qhat * wk2, m), and
    vdot(raw, ck).real / M^2 those of vdot(qhat, qhat * wk2).real."""
    raw = rfft_kernel(values, 1.0, out=np.empty(m // 2 + 1, dtype=complex))
    ck = raw * wk2
    return raw, ck, irfft_kernel(ck, 1.0 / m, out=np.empty(m))


def _gibbs(expo: np.ndarray, m: int,
           check: bool = True) -> tuple[np.ndarray, float]:
    """The density e^expo / Z and log Z.  A trial exponent of the mixing
    skips the range check (``check=False``): a wild one must not raise
    ExpOverflow, the free-energy guard drops it."""
    # ufunc reductions rather than the array methods: same values, without
    # the methods' Python-level argument handling on this hot path
    peak = np.maximum.reduce(expo)
    spread = peak - np.minimum.reduce(expo) if check else 0.0
    if spread > EXP_LIMIT:
        raise ExpOverflow(
            f"Gibbs exponent range {spread:.1f} exceeds {EXP_LIMIT}"
        )
    gibbs = np.exp(expo - peak)
    mass = np.add.reduce(gibbs) / m
    gibbs /= mass
    return gibbs, peak + math.log(mass)


@dataclass(frozen=True)
class SolveReport:
    """A converged or capped fixed-point solve."""

    density: Density
    residual: float
    free_energy: float
    iterations: int
    rejected: int  # trial iterates the free-energy guard dropped
    seed_id: str
    converged: bool
    order_parameter: float


def solve_fixed_point(
    w: Potential,
    coupling: float,
    q0: Density,
    tol: float = 1e-12,
    max_iter: int = 20000,
    seed_id: str = "",
) -> SolveReport:
    """Safeguarded Anderson mixing for q = T(q) until sup|q - T(q)| <= tol.

    The mixing acts on the exponent u, q = e^u / Z, where the map reads
    u <- g(u) = 2K W*q (the log of T up to its normalizer): a trial
    exponent is again a positive unit-mass density, so every iterate
    stays a density and its free energy an upper bound for min F.  Each
    step mixes the last ``ANDERSON_DEPTH`` secant steps (Walker & Ni,
    SIAM J. Numer. Anal. 49, 2011), with coefficients from their normal
    equations solved by LU.  Where those are not finite (a singular
    history) the solve forgets the history and takes the plain step.

    A mixed iterate is kept only if it does not raise the free energy F
    by more than its rounding, 1e-14 (1 + |F|); otherwise the solve
    forgets its history and falls back to the plain step g(u_b) from the
    last kept iterate b.  Unguarded mixing can converge onto a saddle:
    on transformer(3) at K = 0.37634 it lands on the unstable branch
    (order parameter 0.27, F > 0) from seeds whose plain iterates reach
    the minimizer (0.49, F < 0).  For what >= 0 the plain step never
    raises F (it is the concave-convex procedure), so the guard only
    ever falls back to a descent step.

    Mixing is a root-finder, so next to a saddle it keeps heading back,
    its steps are dropped, and the plain steps leave at Picard's rate.
    There the fallback extrapolates instead, as steplength schemes for
    monotone maps do (SQUAREM: Varadhan & Roland, Scand. J. Statist. 35,
    2008): when the plain residual has grown, i.e. sup|f| of the residual
    f = g(u) - u at the latest kept plain iterate exceeds that at the one
    before, the trials u_b + 2^j f_b, j = 1, 2, ..., are kept while the
    guard accepts them, and the plain step is taken from the last kept
    trial (whose map is known) with an empty history.  A plain step's
    residual grows only where the map's multiplier along it exceeds 1,
    that is when leaving an unstable fixed point.  Toward a stable fixed
    point it shrinks, and toward a degenerate one (multiplier 1, as for
    the rod kernel at K_#) it shrinks algebraically, so there the
    fallback stays the plain step.

    Returns T(q) of the last kept iterate q with residual sup|T(q) - q|
    (so ``max_iter=1`` returns T(q0), one map application);
    ``iterations`` counts map applications, dropped trial iterates
    included, and ``rejected`` the dropped ones, mixed or extrapolated.
    Non-convergence within ``max_iter`` >= 1 map applications is reported
    in the ``converged`` flag, not raised.  The order parameter is |qhat|
    at the mode of the largest what(k) (``k_sharp``'s mode, if any).
    """
    if tol < 1e-13:
        raise ValueError("tol below 1e-13 is not resolvable in double precision")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    m = q0.grid_size
    mode = int(np.argmax(w.coeffs)) + 1
    wk2 = 2.0 * coupling * dens.kernel_spectrum(w, m)
    # ring buffers of the secant differences of the residual f = g(u) - u
    # and of g, and the Gram matrix of the f differences
    d_f = np.empty((ANDERSON_DEPTH, m))
    d_g = np.empty((ANDERSON_DEPTH, m))
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
    n_hist = slot = 0
    f_prev = None
    # the iterate mapped next, v = e^(u - lz) on the grid, and whether it
    # is a trial (mixed or extrapolated) the guard must accept or else a
    # plain step; the seed's u is never formed (it would take a log), so
    # its energy is not known
    v, u, lz, trial = q0.grid_values, None, 0.0, False
    t = v
    energy_kept = math.inf
    residual = math.inf
    # sup|f| at the last two kept plain iterates; while extrapolating,
    # (u_b, f_b) and the factor 2^j of the last trial
    f_plain = f_plain_before = math.inf
    escape, scale = None, 0.0
    rejected = 0
    it = 0
    # a singular history's solve flags "invalid" and gives NaN, which the
    # loop handles; one errstate per solve, since one per step costs about
    # as much as the solve
    with np.errstate(invalid="ignore"):
        for it in range(1, max_iter + 1):
            raw, ck, expo = _map_exponent(v, wk2, m)
            if u is not None:
                # F(v) from the map's own coefficients: entropy
                # mean(v log v) with log v = u - lz, interaction
                # K * 2 sum what |qhat|^2
                energy = (np.dot(v, u) / m - lz
                          - np.vdot(raw, ck).real / (m * m))
                # a rise of at most 1e-14 (1 + |F|) is rounding, not a rise
                # (near the fixed point F moves by residual^2, far below
                # it); NaN from a wild trial is a rise
                if trial and not energy <= energy_kept + 1e-14 * (
                        1.0 + abs(energy)):
                    rejected += 1
                    if escape is None and f_plain > f_plain_before:
                        # leaving a saddle: double along b's plain step
                        escape, scale = (u_prev, f_prev), 2.0
                        u = u_prev + scale * f_prev
                        v, lz = _gibbs(u, m, check=False)
                    else:
                        escape = None
                        v, u, lz, trial = t, g_prev, lz_t, False
                    # the ring restarts at row 0: the live secants are rows
                    # [:n_hist] only while slot == n_hist or the ring is full
                    n_hist = slot = 0
                    f_prev = None
                    continue
                energy_kept = energy
            t, lz_t = _gibbs(expo, m)
            residual = float(np.maximum.reduce(np.abs(t - v)))
            if residual <= tol:
                break
            if escape is not None:
                # a kept trial: its map is the fallback should the next rise
                g_prev, scale = expo, 2.0 * scale
                u = escape[0] + scale * escape[1]
                v, lz = _gibbs(u, m, check=False)
                continue
            if u is not None:
                f = expo - u
                if not trial:
                    f_plain_before = f_plain
                    f_plain = float(np.maximum.reduce(np.abs(f)))
                if f_prev is not None:
                    np.subtract(f, f_prev, out=d_f[slot])
                    np.subtract(expo, g_prev, out=d_g[slot])
                    n_hist = min(n_hist + 1, ANDERSON_DEPTH)
                    row = d_f[:n_hist] @ d_f[slot]
                    gram[slot, :n_hist] = row
                    gram[:n_hist, slot] = row
                    slot = (slot + 1) % ANDERSON_DEPTH
                f_prev, g_prev, u_prev = f, expo, u
            if n_hist:
                # least squares min |f - dF^T gamma| in the history's
                # dimension, by LU on its normal equations
                gamma = _lu_solve(gram[:n_hist, :n_hist], d_f[:n_hist] @ f)
                if math.isfinite(np.add.reduce(gamma)):
                    u = expo - gamma @ d_g[:n_hist]
                    v, lz = _gibbs(u, m, check=False)
                    trial = True
                    continue
                # a singular history (LU met a zero pivot or overflowed):
                # forget it and take the plain step, as after a dropped trial
                n_hist = slot = 0
                f_prev = None
            v, u, lz, trial = t, expo, lz_t, False
    q = dens.from_grid(t)
    return SolveReport(
        density=q,
        residual=residual,
        free_energy=free_energy(q, w, coupling),
        iterations=it,
        rejected=rejected,
        seed_id=seed_id,
        converged=residual <= tol,
        order_parameter=q.order_parameter(mode),
    )


# ---------------------------------------------------------------------------
# multistart minimization


def standard_seeds(w: Potential, m: int = 512) -> list[tuple[str, Density]]:
    """The fixed seed set spanning small and large amplitude basins.

    Eight seeds: the uniform state, three cosine perturbations on the
    kernel's lead mode, three members of the Poisson-kernel family, and a
    sharply concentrated bump.  No rotated copies are needed: the map
    commutes with rotations of the circle, so a rotated seed's solve is
    its parent's solve rotated, with the same free energy and order
    parameter.
    """
    n = w.periodicity
    lead = n + 1
    seeds = [("uniform", dens.uniform(m))]
    for a in (0.2, 0.6, 0.95):
        seeds.append((f"cos_a{a}", dens.cosine_profile({lead: a}, m)))
    for c in (0.3, 0.7, 0.95):
        seeds.append((f"extremal_c{c}", dens.extremal(c, n, 0.0, m)))
    seeds.append(("bump_c0.99", dens.extremal(0.99, n, 0.0, m)))
    return seeds


def multistart(
    w: Potential,
    coupling: float,
    m: int = 512,
    seeds: str | Sequence[tuple[str, Density]] = "standard",
    tol: float = 1e-12,
    max_iter: int = 20000,
) -> list[SolveReport]:
    """Solve from every seed, ``"standard"`` (``standard_seeds(w, m)``) or
    a list of (id, density) pairs on the ``m`` grid; reports in seed order.
    """
    seed_list = standard_seeds(w, m) if seeds == "standard" else list(seeds)
    for sid, q0 in seed_list:
        if q0.grid_size != m:
            raise ValueError(f"seed {sid!r} lives on M={q0.grid_size}, "
                             f"but the grid is m={m}")
    return [solve_fixed_point(w, coupling, q0, tol, max_iter, seed_id=sid)
            for sid, q0 in seed_list]


def find_minimizer(
    w: Potential,
    coupling: float,
    m: int = 512,
    seeds: str | Sequence[tuple[str, Density]] = "standard",
    max_iter: int = 20000,
) -> tuple[SolveReport, list[SolveReport]]:
    """Best critical point over the eight ``standard_seeds`` or ``seeds``.

    Returns the converged report of minimal free energy (ties within
    1e-11 broken toward the smaller order parameter) plus all reports.
    """
    reports = multistart(w, coupling, m, seeds, max_iter=max_iter)
    converged = [r for r in reports if r.converged]
    if not converged:
        raise AllSeedsFailed(
            f"no seed converged at K={coupling} within {max_iter} iterations"
        )
    return _least_f(converged), reports


def _least_f(reports: list[SolveReport]) -> SolveReport:
    """The report of least F, ties within 1e-11 broken toward the smaller
    order parameter: where every F is rounding, as at a continuous K_#,
    that is the uniform state, not the seed that rounds lowest."""
    fmin = min(r.free_energy for r in reports)
    near = [r for r in reports if r.free_energy <= fmin + 1e-11]
    return min(near, key=lambda r: r.order_parameter)


def _best_gap(reports: list[SolveReport]) -> tuple[float, SolveReport]:
    # gap = F(uniform) - min F = -min F; every iterate is a density, so a
    # capped solve's energy is still an upper bound for min F and counts
    # toward the gap
    return -min(r.free_energy for r in reports), _least_f(reports)


# ---------------------------------------------------------------------------
# the transition scanner


@dataclass(frozen=True)
class ScanRow:
    """Outcome at a single coupling: a multistart, or one warm solve."""

    coupling: float
    best_gap: float
    order_parameter: float
    n_seeds_converged: int
    l1_to_uniform: float
    map_applications: int  # over all seeds, capped solves included


def _scan_row(coupling: float, reports: list[SolveReport]) -> ScanRow:
    gap, state = _best_gap(reports)
    return ScanRow(
        coupling=coupling,
        best_gap=gap,
        order_parameter=state.order_parameter,
        n_seeds_converged=sum(r.converged for r in reports),
        l1_to_uniform=float(np.abs(state.density.grid_values - 1.0).mean()),
        map_applications=sum(r.iterations for r in reports),
    )


@dataclass(frozen=True)
class PhaseDiagram:
    """Assembled critical-coupling estimate and continuity verdict."""

    model: str
    rows: tuple[ScanRow, ...]  # in the order solved
    k_c_estimate: float
    bracket_width: float
    k_sharp: float
    k_star: float
    continuity: str  # continuous | discontinuous
    jump_estimate: float
    probe_gap: float
    newton_steps: int

    def as_verdict(self) -> dict:
        return {
            "model": self.model,
            "K_c": self.k_c_estimate,
            "bracket_width": self.bracket_width,
            "K_sharp": self.k_sharp,
            "K_star": self.k_star,
            "continuity": self.continuity,
            "jump": self.jump_estimate,
            "probe_gap": self.probe_gap,
            "map_applications": sum(r.map_applications for r in self.rows),
            "newton_steps": self.newton_steps,
        }


def scan_kc(
    w: Potential,
    m: int = 512,
    tol_K: float = 5e-3,
    seeds: str | Sequence[tuple[str, Density]] = "standard",
) -> PhaseDiagram:
    """Locate the critical coupling and classify the transition.

    Every solve stops at residual ``SCAN_TOL`` or at the cap of map
    applications; every iterate is a density, so a capped solve's energy
    is still an upper bound for min F.  The probe runs ``multistart`` at
    K_# from ``seeds`` (as in ``multistart``).  The transition is
    discontinuous precisely when the probe finds a state with
    F < -TOL_F.  A row's state is its least-F report, ties within 1e-11
    broken toward the smaller order parameter (as in ``find_minimizer``).

    Continuous: K_c = K_# exactly.  F_K(q) = S(q) - K E(q) with entropy
    S(q) >= 0, so F_K(q) < -TOL_F needs E(q) > 0 and then holds at every
    larger K: no such state at K_# means none below it, and above K_# the
    uniform state is linearly unstable.  The jump is the probe state's
    order parameter, 0 for the uniform state, and ``bracket_width`` is
    ``tol_K``, an interval centred on K_#.  ``tol_K`` changes no
    computation.

    Discontinuous: Newton's method in K from the probe's state,
    K <- K + F(q)/E(q) (dF/dK = -E along the branch, the envelope
    identity), each solve warm-started from the last state, until
    |F| < 1e-13.  The least free energy is a minimum of the affine maps
    K -> S(q) - K E(q), so it is concave in K and each tangent root lies
    at or above K_c: the iterates fall onto K_c from above and never
    reach the fold of the branch below it.  The jump is the order
    parameter of the root state q_c.

    The root is then enclosed in [K_c - e, K_c + e], e = 20 TOL_F / E(q_c).
    The full multistart at K_c - e must find no state below -TOL_F; if it
    finds one, that state's branch crosses zero lower, and Newton starts
    again from it.  The upper end needs no solve: F is affine in K for
    the fixed density q_c, so F_{K_c + e}(q_c) = F_c - e E(q_c) =
    F_c - 20 TOL_F < -TOL_F.  ``bracket_width`` is
    2 max(e, |last Newton step|); the least free energy falls with K, so
    the wider interval holds too.

    The rows are the probe, each Newton iterate (``newton_steps`` of
    them) and each multistart at K_c - e, in the order solved.

    Errors: ``ValueError`` for tol_K <= 0, before any solve;
    ``EnclosureNotVerified`` when Newton takes ``NEWTON_MAX_STEPS`` steps
    without a converged solve at |F| < 1e-13.
    """
    if not tol_K > 0.0:
        raise ValueError(f"tol_K must be positive, got {tol_K}")
    ks = k_sharp(w)[0]
    if seeds == "standard":
        seeds = standard_seeds(w, m)
    probe = multistart(w, ks, m, seeds, SCAN_TOL)
    rows = [_scan_row(ks, probe)]
    probe_gap, state = _best_gap(probe)
    discontinuous = probe_gap > TOL_F
    if discontinuous:
        k_c, state, width, steps = _newton_kc(w, ks, state, m, seeds, rows)
    else:
        k_c, width, steps = ks, tol_K, 0
    return PhaseDiagram(
        model=w.name,
        rows=tuple(rows),
        k_c_estimate=k_c,
        bracket_width=width,
        k_sharp=ks,
        k_star=k_star(w),
        continuity="discontinuous" if discontinuous else "continuous",
        jump_estimate=state.order_parameter,
        probe_gap=probe_gap,
        newton_steps=steps,
    )


def _newton_kc(
    w: Potential,
    coupling: float,
    state: SolveReport,
    m: int,
    seeds: Sequence[tuple[str, Density]],
    rows: list[ScanRow],
) -> tuple[float, SolveReport, float, int]:
    """``scan_kc``'s Newton iteration in K from ``state`` at ``coupling``
    and its check below the root; appends a row per solve and returns
    (K_c, the root state, bracket width, Newton steps)."""
    steps = 0
    while True:
        for _ in range(NEWTON_MAX_STEPS):
            step = state.free_energy / dens.interaction_energy(state.density,
                                                               w)
            coupling += step
            state = solve_fixed_point(w, coupling, state.density, SCAN_TOL)
            rows.append(_scan_row(coupling, [state]))
            steps += 1
            if state.converged and abs(state.free_energy) < 1e-13:
                break
        else:
            raise EnclosureNotVerified(
                f"Newton in K reached no converged root of F within "
                f"{NEWTON_MAX_STEPS} steps (last K={coupling:.12g}, "
                f"F={state.free_energy:.3e})")
        e = 20.0 * TOL_F / dens.interaction_energy(state.density, w)
        below = multistart(w, coupling - e, m, seeds, SCAN_TOL)
        rows.append(_scan_row(coupling - e, below))
        gap, lower = _best_gap(below)
        if gap <= TOL_F:
            return coupling, state, 2.0 * max(e, abs(step)), steps
        # that state's branch crosses zero at a lower coupling
        coupling, state = coupling - e, lower


# ---------------------------------------------------------------------------
# closed-form stability quantities


def landau_p(w2: float, c: float) -> float:
    """Quartic coefficient p(c) = (1-w2) c^2/4 - c/8 + 1/32.

    Here w2 is the second normalized coefficient 2 what(2) of a kernel
    with 2 what(1) = 1; p(c) < 0 for some c makes the uniform state lose
    global minimality at the stability threshold.
    """
    return 0.25 * (1.0 - w2) * c * c - c / 8.0 + 1.0 / 32.0


class LandauMin(NamedTuple):
    c_star: float
    p_star: float


def landau_min(w2: float) -> LandauMin:
    """Minimizer of the quartic coefficient and its value.

    c* = 1/(4(1-w2)), p* = (1-2 w2)/(64 (1-w2)); the sign of p* changes
    at w2 = 1/2.  For w2 >= 1 the quartic is unbounded below (any large c
    gives p < 0) and (inf, -inf) is returned.
    """
    if w2 >= 1.0:
        return LandauMin(math.inf, -math.inf)
    return LandauMin(
        1.0 / (4.0 * (1.0 - w2)),
        (1.0 - 2.0 * w2) / (64.0 * (1.0 - w2)),
    )


class SpectralGap(NamedTuple):
    rate: float
    mode: int


def lambda_star(w: Potential, coupling: float) -> SpectralGap:
    """Relaxation rate of the linearization at the uniform state.

    min_k 2 pi^2 k^2 (1 - 2 K what(k)) in the time units of the flow on
    the unit-circumference circle (the usual (k^2/2)(1 - 2 K what(k))
    pattern of the radian parametrization carries the extra (2 pi)^2
    here).  k ranges over the kernel's period lattice, which is what a
    flow started on the lattice relaxes with.  Beyond the truncation the
    rate only grows, so the finite minimum is certified.  The rate is
    nonpositive exactly when the coupling is supercritical.
    """
    ks = np.arange(w.lead_mode, w.truncation + 1, w.lead_mode)
    rates = (2.0 * np.pi**2 * ks.astype(float) ** 2
             * (1.0 - 2.0 * coupling * w.coeff(ks)))
    i = int(np.argmin(rates))
    return SpectralGap(float(rates[i]), int(ks[i]))


def k_star(w: Potential) -> float:
    """Largest coupling with all coercivity coefficients nonnegative:

        K_* = min over attractive k of (n+1) / (k * 2 what(k)),

    with n = ``w.periodicity``, the kernel's own period 1/(n+1).

    Always a rigorous lower bound for the critical coupling; equals K_#
    exactly when the decay condition holds.
    """
    k = np.arange(1, w.truncation + 1)
    pos = w.coeffs > 0.0
    if not pos.any():
        return math.inf
    with np.errstate(over="ignore"):  # denormal coefficients give inf, harmless
        vals = w.lead_mode / (k[pos] * 2.0 * w.coeffs[pos])
    return float(vals.min())
