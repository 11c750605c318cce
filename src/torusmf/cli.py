"""Command-line runner.

Verbs: thresholds, scan, minimize, flow, particles, verify, report.
Numerical settings come from an optional JSON config file; command-line
flags win over the file.  Every run directory gets a manifest with the
resolved config and package version, results go to CSV + JSON, and for
models with a proven continuity class the exit code reports whether the
computed verdict agrees (disable with --no-assert).

The default output root is $TORUSMF_OUT or ./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from . import density as dens
from .critical import find_minimizer, k_star, lambda_star, scan_kc
from .errors import TorusMFError
from .flow import RecordPolicy, fit_rate, integrate
from .inequalities import (
    coercivity_gap,
    random_tilted_density,
    run_entropy_suite,
    run_exponential_suite,
)
from .loggas import integrate_hierarchy, loggas_rhs, stationary_coeffs
from .particles import chaos_check, simulate
from .potentials import (
    beta_star,
    check_decay,
    k_sharp,
    make_potential,
    normalize,
    r_star,
)


def _default_out() -> str:
    return os.environ.get("TORUSMF_OUT", "runs")


def predicted_continuity(model: str, params: dict) -> str | None:
    """Continuity class known in closed form, if any."""
    if model == "doi_onsager":
        return "continuous"
    if model == "transformer":
        return "continuous" if params["beta"] <= beta_star() else "discontinuous"
    if model == "hegselmann_krause":
        return "continuous" if params["radius"] >= r_star() else "discontinuous"
    if model == "log_gas":
        return "continuous"
    return None


def _build_potential(args, config):
    model = args.model
    if model in ("do",):
        model = "doi_onsager"
    if model in ("hk",):
        model = "hegselmann_krause"
    trunc = _get(args, config, "truncation", 512)
    params = {}
    if model == "transformer":
        if args.beta is None:
            raise SystemExit("transformer needs --beta")
        params["beta"] = args.beta
    elif model == "hegselmann_krause":
        if args.radius is None:
            raise SystemExit("hegselmann_krause needs --R")
        params["radius"] = args.radius
    elif model == "custom":
        if not args.coeffs:
            raise SystemExit("custom needs --coeffs")
        params["coeffs"] = [float(c) for c in args.coeffs.split(",")]
    return make_potential(model, trunc, **params), model, params


def _resolve_coupling(spec: str, w) -> float:
    ks, _ = k_sharp(w)
    named = {"subcritical": 0.5 * ks, "critical": ks, "supercritical": 1.2 * ks}
    if spec in named:
        return named[spec]
    return float(spec)


def _get(args, config, name, default):
    v = getattr(args, name, None)
    if v is not None:
        return v
    return config.get(name, default)


def _outdir(args, config, stem: str) -> Path:
    root = _get(args, config, "out", None)
    if root is None:
        root = _default_out()
    p = Path(root) / stem
    p.mkdir(parents=True, exist_ok=True)
    return p


def _config_of(args) -> dict:
    if args.config:
        with open(args.config) as f:
            return json.load(f)
    return {}


def _model_stem(model: str, params: dict) -> str:
    bits = [model] + [f"{k}{v:g}" for k, v in sorted(params.items())
                      if isinstance(v, (int, float))]
    return "_".join(bits)


# ---------------------------------------------------------------------------
# verbs


def cmd_thresholds(args) -> int:
    config = _config_of(args)
    w, model, params = _build_potential(args, config)
    n = w.periodicity
    ks, mode = k_sharp(w)
    kst = k_star(w, n)
    decay = check_decay(w, n)
    pred = predicted_continuity(model, params)
    table = {
        "model": model,
        "params": params,
        "periodicity_n": n,
        "K_sharp": ks,
        "sharp_mode": mode,
        "K_star": kst,
        "decay_passed": decay.passed,
        "decay_first_violation": decay.first_violation,
        "decay_tail_certified": decay.tail_certified,
        "predicted_continuity": pred,
    }
    if model == "transformer":
        table["beta_star"] = beta_star()
    if model == "hegselmann_krause":
        table["R_star"] = r_star()
    if model == "log_gas":
        table["note"] = "free energy unbounded below for K > 1 (no minimizer)"
    outdir = _outdir(args, config, f"thresholds_{_model_stem(model, params)}")
    io.write_manifest(outdir, {"command": "thresholds", **table,
                               "seed": _get(args, config, "seed", 0)})
    io.write_json(outdir / "thresholds.json", table)
    io.save_coeffs_csv(outdir / "coefficients.csv", w)
    for k, v in table.items():
        print(f"{k}: {v}")
    if args.no_assert or pred is None:
        return 0
    consistent = decay.passed == (pred == "continuous")
    return 0 if consistent else 1


def cmd_scan(args) -> int:
    config = _config_of(args)
    w, model, params = _build_potential(args, config)
    bracket = None
    if args.k_lo is not None and args.k_hi is not None:
        bracket = (args.k_lo, args.k_hi)
    pd = scan_kc(
        w,
        bracket=bracket,
        m=_get(args, config, "grid_size", 512),
        tol_K=_get(args, config, "tol_k", 5e-3),
        tol_F=_get(args, config, "tol_f", 1e-10),
        max_iter=_get(args, config, "max_iter", 20000),
    )
    outdir = _outdir(args, config, f"scan_{_model_stem(model, params)}")
    io.write_manifest(outdir, {
        "command": "scan", "model": model, "params": params,
        "grid_size": _get(args, config, "grid_size", 512),
        "tol_k": _get(args, config, "tol_k", 5e-3),
        "seed": _get(args, config, "seed", 0),
    })
    io.save_phase_diagram(outdir, pd)
    print(f"K_c = {pd.k_c_estimate:.6g} +/- {pd.bracket_width / 2:.2g}"
          f"  (K_# = {pd.k_sharp:.6g}, K_* = {pd.k_star:.6g})")
    print(f"continuity: {pd.continuity}   jump estimate: {pd.jump_estimate:.4g}"
          f"   order parameter at K_c+delta: {pd.op_at_delta:.4g}")
    print(f"wrote {outdir}/phase_diagram.csv and verdict.json")
    pred = predicted_continuity(model, params)
    if args.no_assert or pred is None:
        return 0
    return 0 if pd.continuity == pred else 1


def cmd_minimize(args) -> int:
    config = _config_of(args)
    w, model, params = _build_potential(args, config)
    coupling = _resolve_coupling(args.K, w)
    best, reports = find_minimizer(
        w, coupling,
        m=_get(args, config, "grid_size", 512),
        tol=_get(args, config, "tol", 1e-12),
        max_iter=_get(args, config, "max_iter", 20000),
    )
    outdir = _outdir(args, config,
                     f"minimize_{_model_stem(model, params)}_K{coupling:g}")
    io.write_manifest(outdir, {
        "command": "minimize", "model": model, "params": params,
        "coupling": coupling, "seed": _get(args, config, "seed", 0),
    })
    io.save_solve_report(outdir, best)
    print(f"best seed {best.seed_id}: F = {best.free_energy:.6e}, "
          f"order parameter = {best.order_parameter:.6g}, "
          f"residual = {best.residual:.2e} "
          f"({sum(r.converged for r in reports)}/{len(reports)} seeds converged)")
    return 0


def cmd_flow(args) -> int:
    config = _config_of(args)
    w, model, params = _build_potential(args, config)
    coupling = _resolve_coupling(args.K, w)
    m = _get(args, config, "grid_size", 512)
    eps = args.perturbation
    lead = w.periodicity + 1
    q0 = dens.cosine_profile({lead: eps}, m)
    policy = RecordPolicy(args.record, n_records=args.records)
    trace = integrate(
        q0, w, coupling, args.T,
        dt=_get(args, config, "dt", 1e-4),
        record=policy,
    )
    outdir = _outdir(args, config,
                     f"flow_{_model_stem(model, params)}_K{coupling:g}")
    io.write_manifest(outdir, {
        "command": "flow", "model": model, "params": params,
        "coupling": coupling, "T": args.T,
        "dt": _get(args, config, "dt", 1e-4),
        "grid_size": m, "perturbation": eps,
        "seed": _get(args, config, "seed", 0),
    })
    io.save_trace(outdir, trace)
    print(f"integrated to t = {trace.times[-1]:.4g} "
          f"({'stationary' if trace.terminated_early else 'horizon reached'}, "
          f"residual {trace.final_residual:.2e})")
    if args.fit != "none":
        fit = fit_rate(trace, observable="w2", model=args.fit)
        io.write_json(outdir / "rate_fit.json", {
            "model": fit.model, "rate": fit.rate, "goodness": fit.goodness,
            "window": list(fit.window), "n_points": fit.n_points,
        })
        lam = lambda_star(w, coupling)
        print(f"fitted {args.fit} rate: {fit.rate:.6g} (R^2 = {fit.goodness:.6f}); "
              f"linear prediction {lam.rate:.6g} at mode {lam.mode}")
    return 0


def cmd_particles(args) -> int:
    config = _config_of(args)
    w, model, params = _build_potential(args, config)
    coupling = _resolve_coupling(args.K, w)
    lead = w.periodicity + 1
    m = _get(args, config, "grid_size", 512)
    q0 = dens.cosine_profile({lead: args.perturbation}, m)
    report = chaos_check(
        w, coupling,
        n=args.N,
        horizon=args.T,
        replicates=args.replicates,
        dt=_get(args, config, "dt_particles", 1e-3),
        q0=q0,
        seed=_get(args, config, "seed", 2024),
        m_pde=m,
        workers=_get(args, config, "workers", 1),
    )
    outdir = _outdir(args, config,
                     f"particles_{_model_stem(model, params)}_K{coupling:g}")
    io.write_manifest(outdir, {
        "command": "particles", "model": model, "params": params,
        "coupling": coupling, "N": args.N, "T": args.T,
        "replicates": args.replicates,
        "seed": _get(args, config, "seed", 2024),
    })
    io.write_json(outdir / "chaos_report.json", {
        "mode": report.mode,
        "pde_value_sq": report.pde_value_sq,
        "particle_mean_sq": report.particle_mean_sq,
        "particle_se": report.particle_se,
        "z_score": report.z_score,
        "replicates": report.replicates,
    })
    traj = simulate(w, coupling, args.N, args.T,
                    dt=_get(args, config, "dt_particles", 1e-3),
                    seed=_get(args, config, "seed", 2024), q0=q0)
    rows = zip(traj.times.tolist(),
               *(traj.mode_abs[k].tolist() for k in sorted(traj.mode_abs)))
    io.write_csv(outdir / "replicate0_modes.csv", rows,
                 ["t"] + [f"mode{k}" for k in sorted(traj.mode_abs)])
    print(f"|z| = {abs(report.z_score):.3f} on mode {report.mode} "
          f"(particles {report.particle_mean_sq:.5g} vs flow "
          f"{report.pde_value_sq:.5g}, se {report.particle_se:.2g})")
    if args.no_assert:
        return 0
    return 0 if abs(report.z_score) <= 3.0 else 1


def cmd_verify(args) -> int:
    config = _config_of(args)
    ns = [int(x) for x in args.n]
    samples = args.samples
    seed = _get(args, config, "seed", 0)
    out = {}
    failures = 0
    for n in ns:
        if args.suite in ("inequality", "all"):
            r = run_entropy_suite(n, samples, seed=seed + n)
            out[f"entropy_n{n}"] = r.__dict__
            failures += r.violations
        if args.suite in ("lebedev", "all"):
            r = run_exponential_suite(n, samples, seed=seed + 100 + n)
            out[f"lebedev_n{n}"] = r.__dict__
            failures += r.violations
    if args.suite in ("coercivity", "all"):
        rng = np.random.default_rng(seed)
        worst = 0.0
        wnorm, _ = normalize(make_potential("doi_onsager"), 1)
        for _ in range(samples):
            q = random_tilted_density(1, 512, rng)
            coupling = rng.uniform(0.0, 1.5)
            t1, t2, tot = coercivity_gap(q, wnorm, coupling, 1)
            worst = max(worst, abs(t1 + t2 - tot))
        out["coercivity_identity_worst"] = worst
        failures += int(worst > 1e-9)
    if args.suite in ("loggas", "all"):
        worst = 0.0
        for n in (1, 2):
            for c in (0.3, 0.5, 0.7):
                q0 = stationary_coeffs(c, n, 32)
                worst = max(worst, float(np.abs(loggas_rhs(q0, n)).max()))
        out["loggas_stationary_residual"] = worst
        failures += int(worst > 1e-14)
    outdir = _outdir(args, config, f"verify_{args.suite}")
    io.write_manifest(outdir, {"command": "verify", "suite": args.suite,
                               "n": ns, "samples": samples, "seed": seed})
    io.write_json(outdir / "verify_report.json", out)
    for k, v in out.items():
        print(f"{k}: {v}")
    print("violations:", failures)
    return 0 if failures == 0 else 1


def cmd_report(args) -> int:
    root = Path(args.dir)
    rows = []
    for vf in sorted(root.glob("**/verdict.json")):
        rec = io.read_json(vf)
        rows.append((str(vf.parent.name), rec))
    for tf in sorted(root.glob("**/thresholds.json")):
        rec = io.read_json(tf)
        rows.append((str(tf.parent.name), rec))
    summary = {name: rec for name, rec in rows}
    io.write_json(root / "summary.json", summary)
    for name, rec in rows:
        line = ", ".join(f"{k}={v}" for k, v in rec.items()
                         if not isinstance(v, (dict, list)))
        print(f"{name}: {line}")
    print(f"wrote {root / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", choices=[
        "doi_onsager", "do", "transformer", "hegselmann_krause", "hk",
        "log_gas", "custom",
    ])
    p.add_argument("--beta", type=float, help="transformer inverse temperature")
    p.add_argument("--R", dest="radius", type=float, help="confidence radius")
    p.add_argument("--coeffs", help="comma-separated what(1..M) for custom")
    p.add_argument("--truncation", type=int, help="kernel mode cutoff")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--out", help="output root (default $TORUSMF_OUT or ./runs)")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--workers", type=int, help="thread budget")
    p.add_argument("--no-assert", action="store_true",
                   help="always exit 0 on successful runs")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusmf",
        description="Phase transitions of mean-field free energies on the circle",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="closed-form thresholds and decay check")
    _add_model_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("scan", help="locate K_c and classify the transition")
    _add_model_args(p)
    p.add_argument("--k-lo", type=float)
    p.add_argument("--k-hi", type=float)
    p.add_argument("--tol-k", dest="tol_k", type=float)
    p.add_argument("--tol-f", dest="tol_f", type=float)
    p.add_argument("--grid-size", "-M", dest="grid_size", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("minimize", help="multistart minimizer at one coupling")
    _add_model_args(p)
    p.add_argument("--K", required=True,
                   help="coupling (number or subcritical/critical/supercritical)")
    p.add_argument("--grid-size", "-M", dest="grid_size", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("flow", help="integrate the gradient flow")
    _add_model_args(p)
    p.add_argument("--K", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dt", type=float)
    p.add_argument("--grid-size", "-M", dest="grid_size", type=int)
    p.add_argument("--perturbation", type=float, default=1e-2)
    p.add_argument("--record", choices=["uniform", "geometric"],
                   default="uniform")
    p.add_argument("--records", type=int, default=400)
    p.add_argument("--fit", choices=["exponential", "algebraic", "none"],
                   default="none")
    _add_common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("particles", help="particle system vs mean-field flow")
    _add_model_args(p)
    p.add_argument("--K", required=True)
    p.add_argument("--N", type=int, default=5000)
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--replicates", type=int, default=16)
    p.add_argument("--perturbation", type=float, default=0.2)
    _add_common(p)
    p.set_defaults(func=cmd_particles)

    p = sub.add_parser("verify", help="randomized inequality suites")
    p.add_argument("--suite", choices=["inequality", "lebedev", "coercivity",
                                       "loggas", "all"], default="all")
    p.add_argument("--n", nargs="*", default=["0", "1", "2"])
    p.add_argument("--samples", type=int, default=500)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summarize run directories")
    p.add_argument("--dir", default=_default_out())
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TorusMFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
