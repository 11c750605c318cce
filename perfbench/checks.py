"""Correctness checks made apart from torusmf.

Every reference value here comes from closed forms, ``scipy.special.iv`` or
direct sums; nothing calls into the program.  A check takes a workload's
outcome (plain numbers and arrays pulled from the program's results) and
returns whether it holds plus a short detail.  Each check comes with a
perturbation of the outcome that it must reject, so that no check can pass
vacuously: ``self_test`` runs every check on the true outcome and on its
perturbed copy.
"""

from __future__ import annotations

import copy
import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import iv

K_SHARP_ROD = 3.0 * math.pi / 4.0  # 1 / (2 what(2)) with what(2) = 2 / (3 pi)


class Check(NamedTuple):
    name: str
    test: Callable[[dict], tuple[bool, str]]
    perturb: Callable[[dict], None]  # edits a deep copy of the outcome


def self_test(checks: list[Check], outcome: dict) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) per check; ok needs the check to pass on the
    outcome and to fail on the outcome's perturbed copy."""
    results = []
    for c in checks:
        ok, detail = c.test(outcome)
        bad = copy.deepcopy(outcome)
        c.perturb(bad)
        rejected = not c.test(bad)[0]
        if not rejected:
            detail += "; the check also accepts a perturbed outcome"
        results.append((c.name, bool(ok and rejected), detail))
    return results


# ---------------------------------------------------------------------------
# independent references


def beta_star() -> float:
    """Root of I_2(beta) = I_1(beta) / 2."""
    return float(brentq(lambda b: iv(2, b) - 0.5 * iv(1, b), 2.0, 3.0,
                        xtol=1e-15))


def attention_thresholds(beta: float) -> tuple[float, float]:
    """(K_*, K_#) of (e^{beta cos 2 pi theta} - 1)/beta, what(k) = I_k / beta.

    K_# = 1 / (2 max_k what(k)) = beta / (2 I_1(beta)); K_* is the minimum
    over k of 1 / (k 2 what(k)) (periodicity n = 0).  k I_k(beta) decays
    factorially, so k <= 64 covers the minimum for beta of order one.
    """
    k = np.arange(1, 65)
    return (float(np.min(beta / (2.0 * k * iv(k, beta)))),
            beta / (2.0 * iv(1, beta)))


def attention_free_energy(values: np.ndarray, beta: float,
                          coupling: float) -> float:
    """F = int q log q - K iint W q q on the grid: rectangle quadrature of
    the entropy and a direct double sum against the closed-form zero-mean
    kernel W = (e^{beta cos 2 pi theta} - I_0(beta)) / beta."""
    m = len(values)
    th = -0.5 + np.arange(m) / m
    diff = th[:, None] - th[None, :]
    kernel = (np.exp(beta * np.cos(2.0 * np.pi * diff)) - iv(0, beta)) / beta
    entropy = float(np.mean(values * np.log(values)))
    interaction = float(values @ kernel @ values) / m**2
    return entropy - coupling * interaction


def rod_modes(truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Active modes k = 2l <= truncation of -|sin 2 pi theta| and what(k)."""
    l = np.arange(1, truncation // 2 + 1, dtype=float)
    return 2.0 * l, (2.0 / math.pi) / (4.0 * l * l - 1.0)


def rod_drift_direct(x: np.ndarray, coupling: float, truncation: int,
                     chunk: int = 250) -> np.ndarray:
    """(K/N) sum_j W'(x_i - x_j) over all pairs for the truncated rod kernel,
    W' = -4 pi sum_k k what(k) sin(2 pi k theta).  sin(l a) comes from the
    three-term recurrence, pair block by pair block."""
    k, wk = rod_modes(truncation)
    c = k * wk
    out = np.empty(len(x))
    for s in range(0, len(x), chunk):
        a = 4.0 * math.pi * (x[s:s + chunk, None] - x[None, :])
        two_cos = 2.0 * np.cos(a)
        prev, cur = np.zeros_like(a), np.sin(a)
        acc = c[0] * cur
        for cl in c[1:]:
            prev, cur = cur, two_cos * cur - prev
            acc += cl * cur
        out[s:s + chunk] = acc.sum(axis=1)
    return (-4.0 * math.pi * coupling / len(x)) * out


def rod_stationary_amplitude(coupling: float, truncation: int, m: int,
                             amp0: float) -> float:
    """|qhat(2)|^2 of the self-consistent state q = e^{2K W*q}/Z grown from
    1 + amp0 cos 4 pi theta: Picard iteration with the convolution taken as
    a direct O(M^2) sum against the truncated kernel."""
    th = -0.5 + np.arange(m) / m
    k, wk = rod_modes(truncation)
    row = 2.0 * np.cos(2.0 * math.pi * np.outer(th - th[0], k)) @ wk
    kernel = row[(np.arange(m)[:, None] - np.arange(m)[None, :]) % m] / m
    q = 1.0 + amp0 * np.cos(4.0 * math.pi * th)
    for _ in range(10000):
        g = np.exp(2.0 * coupling * (kernel @ q))
        g /= g.mean()
        done = np.abs(g - q).max() <= 1e-14
        q = g
        if done:
            break
    else:
        raise RuntimeError("reference Picard iteration did not converge")
    return float(abs(np.mean(q * np.exp(-4j * math.pi * th))) ** 2)


# ---------------------------------------------------------------------------
# checks per workload


def _bracket(o: dict) -> tuple[float, float]:
    return o["k_c"] - 0.5 * o["width"], o["k_c"] + 0.5 * o["width"]


def _rod_bracket(o):
    lo, hi = _bracket(o)
    return lo <= K_SHARP_ROD <= hi, f"3pi/4 in [{lo:.6f}, {hi:.6f}]"


def _rod_k_sharp(o):
    err = abs(o["k_sharp"] - K_SHARP_ROD)
    return err <= 1e-12, f"|K_# - 3pi/4| = {err:.1e}"


def _continuous(o):
    return o["continuity"] == "continuous", f"verdict {o['continuity']}"


def _jump_small(o):
    return o["jump"] < 0.02, f"jump {o['jump']:.4g} < 0.02"


SCAN_ROD = [
    Check("k_c_bracket_holds_3pi_4", _rod_bracket,
          lambda o: o.update(k_c=o["k_c"] + o["width"])),
    Check("k_sharp_is_3pi_4", _rod_k_sharp,
          lambda o: o.update(k_sharp=o["k_sharp"] * (1.0 + 1e-11))),
    Check("verdict_continuous", _continuous,
          lambda o: o.update(continuity="discontinuous")),
    Check("jump_below_0.02", _jump_small, lambda o: o.update(jump=0.05)),
]


def _beta_above(o):
    bs = beta_star()
    return o["beta"] > bs, f"beta {o['beta']} > beta_* {bs:.10f}"


def _k_star_below(o):
    kstar, _ = attention_thresholds(o["beta"])
    lo, _ = _bracket(o)
    return kstar <= lo, f"K_* {kstar:.6f} <= bracket low {lo:.6f}"


def _bracket_below_k_sharp(o):
    _, ksharp = attention_thresholds(o["beta"])
    _, hi = _bracket(o)
    return hi < ksharp, f"bracket high {hi:.6f} < K_# {ksharp:.6f}"


def _discontinuous(o):
    return o["continuity"] == "discontinuous", f"verdict {o['continuity']}"


def _jump_large(o):
    return o["jump"] >= 0.05, f"jump {o['jump']:.4g} >= 0.05"


def _minimizer_below_uniform(o):
    f = attention_free_energy(o["hi_state"], o["beta"], o["hi_coupling"])
    return f < 0.0, f"F = {f:.3e} < 0 at K = {o['hi_coupling']:.6f}"


SCAN_ATTENTION = [
    Check("beta_above_beta_star", _beta_above, lambda o: o.update(beta=2.4)),
    Check("k_star_below_bracket", _k_star_below,
          lambda o: o.update(k_c=attention_thresholds(o["beta"])[0])),
    Check("bracket_below_k_sharp", _bracket_below_k_sharp,
          lambda o: o.update(k_c=attention_thresholds(o["beta"])[1])),
    Check("verdict_discontinuous", _discontinuous,
          lambda o: o.update(continuity="continuous")),
    Check("jump_at_least_0.05", _jump_large, lambda o: o.update(jump=0.01)),
    Check("minimizer_below_uniform", _minimizer_below_uniform,
          lambda o: o.update(hi_state=np.ones_like(o["hi_state"]))),
]


def _mass(o):
    worst = max(float(np.max(o["mass_defect"])),
                max(abs(float(np.mean(s)) - 1.0) for s in o["snapshots"]))
    return worst <= 1e-12, f"mass defect {worst:.1e} <= 1e-12"


def _energy_nonincreasing(o):
    rise = float(np.max(np.diff(o["free_energy"])))
    return rise <= 1e-13, f"largest F increase {rise:.2e} <= 1e-13"


def _energy_nonnegative(o):
    low = float(np.min(o["free_energy"]))
    return low >= -1e-14, f"min F {low:.3e} >= 0"


def _w2_rate(o):
    # slope of log W2 against log t over the second half of the horizon
    t, w2 = o["times"], o["w2"]
    late = t >= 0.5 * t[-1]
    p = float(np.polyfit(np.log(t[late]), np.log(w2[late]), 1)[0])
    return -0.6 <= p <= -0.4, f"W2 ~ t^{p:.4f}, band [-0.6, -0.4]"


def _break_mass(o):
    o["mass_defect"][-1] = 1e-9


def _raise_last_energy(o):
    o["free_energy"][-1] = o["free_energy"][-2] + 1e-9


FLOW = [
    Check("mass_conserved", _mass, _break_mass),
    Check("free_energy_nonincreasing", _energy_nonincreasing,
          _raise_last_energy),
    Check("free_energy_nonnegative", _energy_nonnegative,
          lambda o: o.update(free_energy=-o["free_energy"])),
    Check("w2_algebraic_rate", _w2_rate,
          lambda o: o.update(w2=o["w2"] * o["times"] ** 0.2)),
]


def _drift(o):
    err = float(np.max(np.abs(o["drift"] - o["drift_direct"])))
    return err <= 1e-10, f"Fourier vs direct drift {err:.1e} <= 1e-10"


def _positions(o):
    ends = o["final_positions"]
    ok = len(ends) == o["replicates"] and all(
        np.all(np.isfinite(x)) and np.all((x >= -0.5) & (x < 0.5)) for x in ends)
    return ok, (f"{len(ends)} of {o['replicates']} replicates end finite "
                "in [-1/2, 1/2)")


def _flow_amplitude(o):
    err = abs(o["pde_value_sq"] - o["stationary_sq"])
    return err <= 1e-5, (f"flow |q(2)|^2 {o['pde_value_sq']:.8f} vs stationary "
                         f"{o['stationary_sq']:.8f}, {err:.1e} <= 1e-5")


def _break_position(o):
    o["final_positions"][-1][0] = 0.5


PARTICLES = [
    Check("drift_matches_direct_sum", _drift,
          lambda o: o.update(drift=o["drift"] + 1e-6)),
    Check("positions_finite_and_wrapped", _positions, _break_position),
    Check("flow_amplitude_stationary", _flow_amplitude,
          lambda o: o.update(pde_value_sq=o["pde_value_sq"] + 1e-4)),
]
