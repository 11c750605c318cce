"""Acceptance suite: one test per criterion, one summary line each.

Every criterion runs at its stated tolerance; results are echoed through
record_criterion so the terminal summary lists PASS/FAIL per criterion.
Criterion 2's absolute margin K_c <= K_# - 0.01 is asserted as stated
even though the measured margins of the attention kernel sit below 0.01
for beta in {2.6, 3.0, 4.0} (the transition there is only weakly first
order); the failure detail reports the measured margins.
"""

import time

import numpy as np
import pytest
from scipy.special import iv

import torusmf as tm
from torusmf.critical import multistart
from torusmf.density import theta_grid
from torusmf.flow import RecordPolicy, fit_rate, integrate
from torusmf.inequalities import (
    coercivity_gap,
    entropy_seminorm_gap,
    extremal_phi,
    lebedev_milin_gap,
    random_tilted_density,
    run_entropy_suite,
    run_exponential_suite,
)
from torusmf.loggas import integrate_hierarchy, loggas_rhs, stationary_coeffs
from torusmf.particles import chaos_check

from conftest import record_criterion


def catalog_normalized():
    """Representative catalog kernels, lead-normalized."""
    out = []
    for model, n, kw in (
        ("doi_onsager", 1, {}),
        ("transformer", 0, {"beta": 1.5}),
        ("hegselmann_krause", 0, {"radius": 2.5}),
        ("log_gas", 0, {}),
    ):
        w, _ = tm.normalize(tm.make_potential(model, 256, **kw), n)
        out.append((model, n, w))
    return out


def test_c01_doi_onsager_scan():
    t0 = time.time()
    pd = tm.scan_kc(tm.doi_onsager(), m=512, tol_K=5e-3)
    err = abs(pd.k_c_estimate - 3 * np.pi / 4)
    ok = (err <= 0.01 and pd.continuity == "continuous"
          and pd.jump_estimate < 0.02)
    detail = (f"K_c={pd.k_c_estimate:.5f} (err {err:.2e}), "
              f"{pd.continuity}, jump={pd.jump_estimate:.4f} "
              f"[{time.time() - t0:.0f}s]")
    record_criterion("C01 rod-kernel critical coupling", ok, detail)
    assert ok, detail


def test_c02_transformer_dichotomy():
    t0 = time.time()
    bs = tm.beta_star()
    betas_cont = [1.0, 1.5, 2.0, bs - 0.01]
    betas_disc = [2.6, 3.0, 4.0]
    problems = []
    details = []

    if abs(bs - 2.447) > 2e-3:
        problems.append(f"beta_star={bs:.6f} off 2.447 by more than 2e-3")

    for beta in betas_cont:
        w = tm.transformer(beta)
        ks = beta / (2 * iv(1, beta))
        pd = tm.scan_kc(w, m=512, tol_K=5e-3)
        err = abs(pd.k_c_estimate - ks)
        details.append(f"b={beta:.3f}: {pd.continuity} K_c err {err:.1e}")
        if pd.continuity != "continuous":
            problems.append(f"beta={beta}: verdict {pd.continuity}")
        if err > 0.01:
            problems.append(f"beta={beta}: |K_c - K_#| = {err:.3e} > 0.01")

    for beta in betas_disc:
        w = tm.transformer(beta)
        ks, _ = tm.k_sharp(w)
        pd = tm.scan_kc(w, m=512, tol_K=2e-4)
        margin = ks - pd.k_c_estimate
        details.append(
            f"b={beta}: {pd.continuity} margin {margin:.2e} "
            f"jump {pd.jump_estimate:.3f}")
        if pd.continuity != "discontinuous":
            problems.append(f"beta={beta}: verdict {pd.continuity}")
        if pd.jump_estimate < 0.05:
            problems.append(f"beta={beta}: jump {pd.jump_estimate:.3f} < 0.05")
        if not pd.k_c_estimate <= ks - 0.01:
            problems.append(
                f"beta={beta}: K_# - K_c = {margin:.2e} < 0.01 "
                "(weakly first-order transition; margin unattainable)")

    ok = not problems
    detail = "; ".join(details) + f" [{time.time() - t0:.0f}s]"
    if problems:
        detail += " | PROBLEMS: " + "; ".join(problems)
    record_criterion("C02 attention-kernel dichotomy", ok, detail)
    assert ok, detail


def test_c03_hk_dichotomy():
    t0 = time.time()
    rs = tm.r_star()
    problems = []
    details = []

    if abs(rs - 2.139) > 2e-3:
        problems.append(f"r_star={rs:.6f} off 2.139 by more than 2e-3")

    for radius, m in ((0.5, 2048), (1.0, 1024), (1.5, 512)):
        w = tm.hegselmann_krause(radius, truncation=max(512, m // 2))
        ks, _ = tm.k_sharp(w)
        pd = tm.scan_kc(w, m=m, tol_K=5e-3)
        margin = ks - pd.k_c_estimate
        details.append(f"R={radius}: {pd.continuity} margin {margin:.3f}")
        if pd.continuity != "discontinuous":
            problems.append(f"R={radius}: verdict {pd.continuity}")
        if not pd.k_c_estimate < ks - 0.01:
            problems.append(f"R={radius}: margin {margin:.3e} < 0.01")

    for radius in (rs + 0.01, 2.5, 3.0):
        w = tm.hegselmann_krause(radius)
        ks, _ = tm.k_sharp(w)
        pd = tm.scan_kc(w, m=512, tol_K=5e-3)
        err = abs(pd.k_c_estimate - ks)
        details.append(f"R={radius:.3f}: {pd.continuity} K_c err {err:.1e}")
        if pd.continuity != "continuous":
            problems.append(f"R={radius:.3f}: verdict {pd.continuity}")
        if err > 0.01:
            problems.append(f"R={radius:.3f}: |K_c - K_#| = {err:.3e} > 0.01")

    ok = not problems
    detail = "; ".join(details) + f" [{time.time() - t0:.0f}s]"
    if problems:
        detail += " | PROBLEMS: " + "; ".join(problems)
    record_criterion("C03 bounded-confidence dichotomy", ok, detail)
    assert ok, detail


def test_c04_uniqueness_below_half():
    t0 = time.time()
    worst = 0.0
    problems = []
    for model, n, w in catalog_normalized():
        for coupling in (0.2, 0.45):
            reports = multistart(w, coupling, 512, "standard",
                                 tol=1e-12, max_iter=5000)
            assert len(reports) == 8
            for r in reports:
                worst = max(worst, r.order_parameter)
                if not r.converged or r.order_parameter >= 1e-8:
                    problems.append(
                        f"{model} K={coupling} seed {r.seed_id}: "
                        f"op={r.order_parameter:.2e} conv={r.converged}")
    ok = not problems
    detail = f"worst op {worst:.2e} over 8 seeds x 2 K x 4 kernels " \
             f"[{time.time() - t0:.0f}s]"
    record_criterion("C04 uniqueness below half threshold", ok,
                     detail + ("; " + "; ".join(problems) if problems else ""))
    assert ok, detail


def test_c05_sharp_inequality_suites():
    t0 = time.time()
    problems = []
    for n in (0, 1, 2):
        rep = run_entropy_suite(n, samples=500, m=2048, seed=100 + n)
        if rep.violations:
            problems.append(f"entropy n={n}: {rep.violations} violations "
                            f"(min {rep.min_gap:.2e})")
        rep = run_exponential_suite(n, samples=500, m=2048, seed=200 + n)
        if rep.violations:
            problems.append(f"exponential n={n}: {rep.violations} violations")
        for c in np.arange(0.1, 0.95, 0.1):
            q = tm.extremal(c, n, 0.31, 2048)
            if abs(entropy_seminorm_gap(q, n)) > 1e-8:
                problems.append(f"extremal entropy residual n={n} c={c:.1f}")
            if abs(lebedev_milin_gap(extremal_phi(c, n, 0.17, 2048), n)) > 1e-8:
                problems.append(f"extremal exponential residual n={n} c={c:.1f}")
            target = -np.log(1 - c * c)
            if abs(tm.relative_entropy(q) - target) > 1e-8:
                problems.append(f"entropy closed form n={n} c={c:.1f}")
            if abs(tm.dual_dirichlet_sum(q, n) - target) > 1e-8:
                problems.append(f"dual sum closed form n={n} c={c:.1f}")
    ok = not problems
    detail = f"500 samples x 3 lattices x 2 inequalities, extremizers c=0.1..0.9 " \
             f"[{time.time() - t0:.0f}s]"
    record_criterion("C05 sharp inequality suite", ok,
                     detail + ("; " + "; ".join(problems) if problems else ""))
    assert ok, detail


def test_c06_coercivity_decomposition():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for model, n, w in catalog_normalized():
        for _ in range(200):
            q = random_tilted_density(n, 512, rng)
            coupling = rng.uniform(0.0, 1.5)
            t1, t2, tot = coercivity_gap(q, w, coupling, n)
            worst = max(worst, abs(t1 + t2 - tot))
    ok = worst <= 1e-9
    detail = f"identity residual {worst:.2e} over 200 pairs x 4 kernels " \
             f"[{time.time() - t0:.0f}s]"
    record_criterion("C06 coercivity decomposition", ok, detail)
    assert ok, detail


def test_c07_loggas_hierarchy():
    t0 = time.time()
    worst_rhs = 0.0
    for n in (1, 2):
        for c in (0.3, 0.7):
            q0 = stationary_coeffs(c, n, 32)
            worst_rhs = max(worst_rhs, float(np.abs(loggas_rhs(q0, n)).max()))
    modes = 64
    w = tm.log_gas(modes)
    q0 = tm.extremal(0.5, 0, 0.0, 512)
    tr = integrate(q0, w, 1.0, 1.0, dt=5e-5,
                   record=RecordPolicy("uniform", 4, snapshot_every=1))
    hier0 = stationary_coeffs(0.5, 1, modes).astype(complex)
    _, traj = integrate_hierarchy(hier0, 1.0, 1.0, dt=2e-5,
                                  record_every=10**6)
    agree = float(np.abs(tr.snapshots[-1].fourier[1:modes + 1]
                         - traj[-1]).max())
    ok = worst_rhs <= 1e-14 and agree <= 1e-6
    detail = (f"stationary residual {worst_rhs:.2e}, grid-vs-hierarchy "
              f"{agree:.2e} [{time.time() - t0:.0f}s]")
    record_criterion("C07 log-gas hierarchy", ok, detail)
    assert ok, detail


def test_c08_subcritical_rate():
    t0 = time.time()
    w = tm.doi_onsager()
    coupling = 3 * np.pi / 8
    lam = tm.lambda_star(w, coupling)
    q0 = tm.from_grid(1 + 0.01 * np.cos(4 * np.pi * theta_grid(256)))
    tr = integrate(q0, w, coupling, 0.8, dt=1e-4,
                   record=RecordPolicy("uniform", 400), stop_residual=1e-13)
    fit = fit_rate(tr, "exponential")
    rel = abs(fit.rate - lam.rate) / lam.rate
    ok = rel <= 0.05
    detail = (f"fitted {fit.rate:.4f} vs spectral gap {lam.rate:.4f} "
              f"(rel {rel:.2e}, R2 {fit.goodness:.6f}); equals (2 pi)^2 x 1 "
              f"in radian units [{time.time() - t0:.0f}s]")
    record_criterion("C08 subcritical relaxation rate", ok, detail)
    assert ok, detail


def test_c09_landau_polynomial():
    vals = {
        0.0: (0.25, 1.0 / 64.0),
        0.5: (0.5, 0.0),
        0.6: (0.625, -0.0078125),
        0.9: (2.5, -0.125),
    }
    worst = 0.0
    for w2, (cs, ps) in vals.items():
        got_c, got_p = tm.landau_min(w2)
        worst = max(worst, abs(got_c - cs), abs(got_p - ps))
        worst = max(worst, abs(tm.landau_p(w2, got_c) - got_p))
    sign_ok = (tm.landau_min(0.49).p_star > 0.0
               and tm.landau_min(0.5).p_star == 0.0
               and tm.landau_min(0.51).p_star < 0.0)
    ok = worst <= 1e-14 and sign_ok
    detail = f"closed-form residual {worst:.1e}, sign change at 1/2: {sign_ok}"
    record_criterion("C09 quartic-coefficient polynomial", ok, detail)
    assert ok, detail


def test_c10_particle_consistency():
    t0 = time.time()
    coupling = 1.2 * 3 * np.pi / 4
    w = tm.doi_onsager(truncation=128)
    q0 = tm.cosine_profile({2: 0.2}, 512)
    rep = chaos_check(w, coupling, n=5000, horizon=5.0, replicates=16,
                      dt=1e-3, q0=q0, seed=2024, dt_pde=1e-4, workers=4)
    elapsed = time.time() - t0
    ok = abs(rep.z_score) <= 3.0 and elapsed <= 600
    detail = (f"|z|={abs(rep.z_score):.2f} on mode {rep.mode} "
              f"(particles {rep.particle_mean_sq:.5f} vs flow "
              f"{rep.pde_value_sq:.5f}) [{elapsed:.0f}s]")
    record_criterion("C10 particle-flow consistency", ok, detail)
    assert ok, detail


def test_c11_exploratory_critical_exponents():
    # reported, not asserted: power-law relaxation at criticality
    t0 = time.time()
    w = tm.doi_onsager()
    kc = 3 * np.pi / 4
    q0 = tm.cosine_profile({2: 0.3}, 128)
    tr = integrate(q0, w, kc, 400.0, dt=5e-4,
                   record=RecordPolicy("geometric", t0=0.05, factor=1.06),
                   stop_residual=0.0)
    fit_do = fit_rate(tr, "algebraic")

    bs = tm.beta_star()
    wt = tm.transformer(bs)
    ks, _ = tm.k_sharp(wt)
    q0 = tm.cosine_profile({1: 0.4}, 128)
    tr2 = integrate(q0, wt, ks, 2000.0, dt=1e-3,
                    record=RecordPolicy("geometric", t0=0.05, factor=1.06),
                    stop_residual=0.0)
    fit_tr = fit_rate(tr2, "algebraic")

    in_do = -0.6 <= fit_do.rate <= -0.4
    in_tr = -0.35 <= fit_tr.rate <= -0.15
    detail = (f"rod kernel exponent {fit_do.rate:.3f} (band [-0.6,-0.4]: "
              f"{in_do}), tricritical attention exponent {fit_tr.rate:.3f} "
              f"(band [-0.35,-0.15]: {in_tr}) [{time.time() - t0:.0f}s]")
    record_criterion("C11 exploratory critical exponents (non-blocking)",
                     True, detail)
    # non-blocking by specification: values are reported, not asserted
