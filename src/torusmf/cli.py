"""Command-line runner.

Verbs: thresholds, scan, minimize, flow, particles, verify, report.

Each run resolves one settings record: the verb's defaults, then an
optional JSON config file (--config), then the command-line flags, each
overriding the one before.  Config keys are the long flag names with
dashes as underscores (``--grid-size`` sets ``grid_size``, ``--R`` sets
``radius``, the model argument sets ``model``); ``particles`` also reads
``grid_size`` and ``dt_particles``, which have no flag there.  A config
key the verb does not read ends the run with exit status 2, as does a
--K that is neither a number nor subcritical, critical or supercritical
(multiples 0.5, 1 and 1.2 of K_sharp), a value the computation rejects
(a nonpositive --T, too few particles or replicates), or a ``report``
--dir that is not a directory.  Only ``particles`` and ``verify`` take
--seed, and only ``particles`` takes --workers.

The verb runs from that record alone and writes it, under "config", to
``manifest.json`` in its run directory, next to the command, the package
version, the Python, numpy and scipy versions and the platform.  Feeding
the record back as a config file reproduces every other output file byte
for byte:

    python -c "import json, sys; json.dump(json.load(sys.stdin)['config'], sys.stdout)" \\
        < runs/scan_doi_onsager/manifest.json > rerun.json
    torusmf scan --config rerun.json --out rerun

Results go to CSV + JSON.  ``flow``'s --dt is the first trial step of
its adaptive integrator, whose Krogstad ETDRK4 steps are set by their
error estimate alone, and ``trace_meta.json`` records the steps accepted and
rejected (``steps``, ``rejected``), the smallest and largest accepted
step (``step_min``, ``step_max``) and the exponential tables built
(``tables``).  ``flow`` records about --records times:
evenly spaced, or with --record geometric spaced geometrically from
t = 0.01 to --T; the steps land on every record time.  ``report``
summarizes the verdicts, thresholds, flow trace metadata and particle
reports under its --dir.  For models with a proven
continuity class, ``thresholds`` and ``scan`` exit 1 when the computed
verdict disagrees, and ``particles`` exits 1 when the particles miss the
flow by more than three standard errors (disable both with --no-assert).

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
from .loggas import loggas_rhs, stationary_coeffs
from .particles import chaos_check
from .potentials import (
    ALIASES,
    MODELS,
    beta_star,
    check_decay,
    k_sharp,
    make_potential,
    normalize,
    r_star,
)

#: default of a setting that the config file or the command line must give
_REQUIRED = object()


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


#: the one parameter each model takes, and its flag
_MODEL_PARAMS = {"transformer": ("beta", "--beta"),
                 "hegselmann_krause": ("radius", "--R"),
                 "custom": ("coeffs", "--coeffs")}


def _keep_model_params(s: dict) -> None:
    """Require the model's own parameter and drop the others from ``s``."""
    model = ALIASES.get(s["model"], s["model"])
    own, flag = _MODEL_PARAMS.get(model, (None, None))
    if own is not None and s[own] in (None, ""):
        raise SystemExit(f"{model} needs {flag}")
    for name, flag in _MODEL_PARAMS.values():
        if name != own and s.pop(name) is not None:
            raise SystemExit(f"{model} takes no {flag}")


def _build_potential(s: dict):
    params = {k: s[k] for k in ("beta", "radius") if k in s}
    if "coeffs" in s:
        params["coeffs"] = [float(c) for c in s["coeffs"].split(",")]
    return make_potential(s["model"], s["truncation"], **params)


#: --K words, as multiples of K_sharp
_NAMED_COUPLINGS = {"subcritical": 0.5, "critical": 1.0, "supercritical": 1.2}


def _resolve_coupling(spec, w) -> float:
    if spec in _NAMED_COUPLINGS:
        return _NAMED_COUPLINGS[spec] * k_sharp(w)[0]
    return float(spec)


def _run_dir(s: dict, command: str, stem: str) -> Path:
    """Create ``<out>/<command>_<stem>`` and write the run's manifest."""
    p = Path(s["out"]) / f"{command}_{stem}"
    p.mkdir(parents=True, exist_ok=True)
    io.write_manifest(p, command, s)
    return p


def _model_stem(w) -> str:
    bits = [w.name] + [f"{k}{v:g}" for k, v in sorted(w.params.items())
                       if isinstance(v, (int, float))]
    return "_".join(bits)


# ---------------------------------------------------------------------------
# verbs


def cmd_thresholds(s: dict) -> int:
    w = _build_potential(s)
    ks, mode = k_sharp(w)
    kst = k_star(w)
    decay = check_decay(w)
    pred = predicted_continuity(w.name, w.params)
    table = {
        "model": w.name,
        "params": w.params,
        "periodicity_n": w.periodicity,
        "K_sharp": ks,
        "sharp_mode": mode,
        "K_star": kst,
        "decay_passed": decay.passed,
        "decay_first_violation": decay.first_violation,
        "decay_tail_certified": decay.tail_certified,
        "predicted_continuity": pred,
    }
    if w.name == "transformer":
        table["beta_star"] = beta_star()
    if w.name == "hegselmann_krause":
        table["R_star"] = r_star()
    if w.name == "log_gas":
        table["note"] = "free energy unbounded below for K > 1 (no minimizer)"
    outdir = _run_dir(s, "thresholds", _model_stem(w))
    io.write_json(outdir / "thresholds.json", table)
    io.save_coeffs_csv(outdir / "coefficients.csv", w)
    for k, v in table.items():
        print(f"{k}: {v}")
    if s["no_assert"] or pred is None:
        return 0
    consistent = decay.passed == (pred == "continuous")
    return 0 if consistent else 1


def cmd_scan(s: dict) -> int:
    w = _build_potential(s)
    bracket = None if s["k_lo"] is None else (s["k_lo"], s["k_hi"])
    pd = scan_kc(w, bracket=bracket, m=s["grid_size"], tol_K=s["tol_k"],
                 tol_F=s["tol_f"], max_iter=s["max_iter"])
    outdir = _run_dir(s, "scan", _model_stem(w))
    io.save_phase_diagram(outdir, pd)
    print(f"K_c = {pd.k_c_estimate:.6g} +/- {pd.bracket_width / 2:.2g}"
          f"  (K_# = {pd.k_sharp:.6g}, K_* = {pd.k_star:.6g})")
    print(f"continuity: {pd.continuity}   jump estimate: {pd.jump_estimate:.4g}"
          f"   order parameter at K_c+delta: {pd.op_at_delta:.4g}")
    print(f"wrote {outdir}/phase_diagram.csv and verdict.json")
    pred = predicted_continuity(w.name, w.params)
    if s["no_assert"] or pred is None:
        return 0
    return 0 if pd.continuity == pred else 1


def cmd_minimize(s: dict) -> int:
    w = _build_potential(s)
    coupling = _resolve_coupling(s["K"], w)
    best, reports = find_minimizer(w, coupling, m=s["grid_size"], tol=s["tol"],
                                   max_iter=s["max_iter"])
    outdir = _run_dir(s, "minimize", f"{_model_stem(w)}_K{coupling:g}")
    io.save_solve_report(outdir, best)
    print(f"best seed {best.seed_id}: F = {best.free_energy:.6e}, "
          f"order parameter = {best.order_parameter:.6g}, "
          f"residual = {best.residual:.2e} "
          f"({sum(r.converged for r in reports)}/{len(reports)} seeds converged)")
    return 0


def cmd_flow(s: dict) -> int:
    w = _build_potential(s)
    coupling = _resolve_coupling(s["K"], w)
    q0 = dens.cosine_profile({w.lead_mode: s["perturbation"]}, s["grid_size"])
    if s["records"] < 1:
        raise ValueError(f"--records must be at least 1, got {s['records']}")
    if s["record"] == "geometric":
        # `records` geometric steps from the policy's t0 up to T
        t0 = RecordPolicy.t0
        if s["T"] <= t0:
            raise ValueError(f"--record geometric needs --T above t0 = {t0}")
        policy = RecordPolicy("geometric", t0=t0,
                              factor=(s["T"] / t0) ** (1.0 / s["records"]))
    else:
        policy = RecordPolicy("uniform", n_records=s["records"])
    trace = integrate(q0, w, coupling, s["T"], dt=s["dt"], record=policy)
    outdir = _run_dir(s, "flow", f"{_model_stem(w)}_K{coupling:g}")
    io.save_trace(outdir, trace)
    print(f"integrated to t = {trace.times[-1]:.4g} "
          f"({'stationary' if trace.terminated_early else 'horizon reached'}, "
          f"residual {trace.final_residual:.2e})")
    if s["fit"] != "none":
        fit = fit_rate(trace, model=s["fit"])
        io.write_json(outdir / "rate_fit.json", {
            "model": fit.model, "rate": fit.rate, "goodness": fit.goodness,
            "window": list(fit.window), "n_points": fit.n_points,
        })
        lam = lambda_star(w, coupling)
        print(f"fitted {s['fit']} rate: {fit.rate:.6g} (R^2 = {fit.goodness:.6f}); "
              f"linear prediction {lam.rate:.6g} at mode {lam.mode}")
    return 0


def cmd_particles(s: dict) -> int:
    w = _build_potential(s)
    coupling = _resolve_coupling(s["K"], w)
    m = s["grid_size"]
    q0 = dens.cosine_profile({w.lead_mode: s["perturbation"]}, m)
    report = chaos_check(
        w, coupling,
        n=s["N"],
        horizon=s["T"],
        replicates=s["replicates"],
        dt=s["dt_particles"],
        q0=q0,
        seed=s["seed"],
        m_pde=m,
        workers=s["workers"],
    )
    outdir = _run_dir(s, "particles", f"{_model_stem(w)}_K{coupling:g}")
    io.write_json(outdir / "chaos_report.json", {
        "mode": report.mode,
        "flow_steps": report.flow_steps,
        "particle_steps": report.particle_steps,
        "pde_value_sq": report.pde_value_sq,
        "particle_mean_sq": report.particle_mean_sq,
        "particle_se": report.particle_se,
        "z_score": report.z_score,
        "replicates": report.replicates,
    })
    traj = report.trajectories[0]
    modes = sorted(traj.mode_abs)
    rows = zip(traj.times.tolist(), *(traj.mode_abs[k].tolist() for k in modes))
    io.write_csv(outdir / "replicate0_modes.csv", rows,
                 ["t"] + [f"mode{k}" for k in modes])
    print(f"|z| = {abs(report.z_score):.3f} on mode {report.mode} "
          f"(particles {report.particle_mean_sq:.5g} vs flow "
          f"{report.pde_value_sq:.5g}, se {report.particle_se:.2g})")
    if s["no_assert"]:
        return 0
    return 0 if abs(report.z_score) <= 3.0 else 1


def cmd_verify(s: dict) -> int:
    suite, samples, seed = s["suite"], s["samples"], s["seed"]
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    out = {}
    failures = 0
    for n in s["n"]:
        if suite in ("inequality", "all"):
            r = run_entropy_suite(n, samples, seed=seed + n)
            out[f"entropy_n{n}"] = r.__dict__
            failures += r.violations
        if suite in ("lebedev", "all"):
            r = run_exponential_suite(n, samples, seed=seed + 100 + n)
            out[f"lebedev_n{n}"] = r.__dict__
            failures += r.violations
    if suite in ("coercivity", "all"):
        rng = np.random.default_rng(seed)
        worst = 0.0
        wnorm = normalize(make_potential("doi_onsager"))
        for _ in range(samples):
            q = random_tilted_density(1, 512, rng)
            coupling = rng.uniform(0.0, 1.5)
            t1, t2, tot = coercivity_gap(q, wnorm, coupling)
            worst = max(worst, abs(t1 + t2 - tot))
        out["coercivity_identity_worst"] = worst
        failures += int(worst > 1e-9)
    if suite in ("loggas", "all"):
        worst = 0.0
        for n in (1, 2):
            for c in (0.3, 0.5, 0.7):
                q0 = stationary_coeffs(c, n, 32)
                worst = max(worst, float(np.abs(loggas_rhs(q0, n)).max()))
        out["loggas_stationary_residual"] = worst
        failures += int(worst > 1e-14)
    outdir = _run_dir(s, "verify", suite)
    io.write_json(outdir / "verify_report.json", out)
    for k, v in out.items():
        print(f"{k}: {v}")
    print("violations:", failures)
    return 0 if failures == 0 else 1


def cmd_report(s: dict) -> int:
    root = Path(s["dir"])
    if not root.is_dir():
        raise ValueError(f"--dir {root} is not a directory")
    rows = []
    for result in ("verdict.json", "thresholds.json", "trace_meta.json",
                   "chaos_report.json"):
        for f in sorted(root.glob(f"**/{result}")):
            # keyed by path under root: same-named runs elsewhere stay apart
            rel = f.parent.relative_to(root)
            rows.append((rel.as_posix() if rel.parts else f.parent.name,
                         io.read_json(f)))
    summary = {name: rec for name, rec in rows}
    io.write_json(root / "summary.json", summary)
    for name, rec in rows:
        line = ", ".join(f"{k}={v}" for k, v in rec.items()
                         if not isinstance(v, (dict, list)))
        print(f"{name}: {line}")
    print(f"wrote {root / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------


def _setting(p: argparse.ArgumentParser, *flags, default=None, **kw) -> None:
    """Add a flag to verb parser ``p``; ``default`` applies only when
    neither the config file nor the command line sets it."""
    dest = p.add_argument(*flags, default=None, **kw).dest
    p.get_default("settings")[dest] = default


def _verb(sub, name: str, func, help: str, model: bool = True,
          config: bool = True) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, settings={})
    if model:
        _setting(p, "model", nargs="?", choices=MODELS + tuple(ALIASES),
                 default=_REQUIRED, help="kernel (or `model` in the config)")
        _setting(p, "--beta", type=float, help="transformer inverse temperature")
        _setting(p, "--R", dest="radius", type=float, help="confidence radius")
        _setting(p, "--coeffs", help="comma-separated what(1..M) for custom")
        _setting(p, "--truncation", type=int, default=512,
                 help="kernel mode cutoff")
    if config:
        p.add_argument("--config", help="JSON config file (flags override)")
        _setting(p, "--out", default=_default_out(),
                 help="output root (default $TORUSMF_OUT or ./runs)")
    return p


def _no_assert(p: argparse.ArgumentParser) -> None:
    _setting(p, "--no-assert", action="store_true", default=False,
             help="always exit 0 on successful runs")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusmf",
        description="Phase transitions of mean-field free energies on the circle",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = _verb(sub, "thresholds", cmd_thresholds,
              "closed-form thresholds and decay check")
    _no_assert(p)

    p = _verb(sub, "scan", cmd_scan, "locate K_c and classify the transition")
    _setting(p, "--k-lo", type=float)
    _setting(p, "--k-hi", type=float)
    _setting(p, "--tol-k", type=float, default=5e-3)
    _setting(p, "--tol-f", type=float, default=1e-10)
    _setting(p, "--grid-size", "-M", type=int, default=512)
    _setting(p, "--max-iter", type=int, default=20000)
    _no_assert(p)

    p = _verb(sub, "minimize", cmd_minimize, "multistart minimizer at one coupling")
    _setting(p, "--K", default=_REQUIRED,
             help="coupling (number or subcritical/critical/supercritical)")
    _setting(p, "--grid-size", "-M", type=int, default=512)
    _setting(p, "--tol", type=float, default=1e-12)
    _setting(p, "--max-iter", type=int, default=20000)

    p = _verb(sub, "flow", cmd_flow, "integrate the gradient flow")
    _setting(p, "--K", default=_REQUIRED)
    _setting(p, "--T", type=float, default=1.0)
    _setting(p, "--dt", type=float, default=1e-4)
    _setting(p, "--grid-size", "-M", type=int, default=512)
    _setting(p, "--perturbation", type=float, default=1e-2)
    _setting(p, "--record", choices=["uniform", "geometric"], default="uniform")
    _setting(p, "--records", type=int, default=400)
    _setting(p, "--fit", choices=["exponential", "algebraic", "none"],
             default="none")

    p = _verb(sub, "particles", cmd_particles, "particle system vs mean-field flow")
    _setting(p, "--K", default=_REQUIRED)
    _setting(p, "--N", type=int, default=5000)
    _setting(p, "--T", type=float, default=5.0)
    _setting(p, "--replicates", type=int, default=16)
    _setting(p, "--perturbation", type=float, default=0.2)
    _setting(p, "--seed", type=int, default=2024, help="Philox key")
    _setting(p, "--workers", type=int, default=1,
             help="threads running replicates; above 1, set "
             "OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS "
             "to 1 before launch, or BLAS threads fight the workers")
    _no_assert(p)
    # set by the config file only
    p.get_default("settings").update(grid_size=512, dt_particles=1e-3)

    p = _verb(sub, "verify", cmd_verify, "randomized inequality suites",
              model=False)
    _setting(p, "--suite", choices=["inequality", "lebedev", "coercivity",
                                    "loggas", "all"], default="all")
    _setting(p, "--n", nargs="*", type=int, default=[0, 1, 2])
    _setting(p, "--samples", type=int, default=500)
    _setting(p, "--seed", type=int, default=0, help="base RNG seed")

    p = _verb(sub, "report", cmd_report, "summarize run directories",
              model=False, config=False)
    _setting(p, "--dir", default=_default_out())

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command, func, settings = (args.pop(k) for k in ("command", "func",
                                                     "settings"))
    config = {}
    config_path = args.pop("config", None)
    if config_path:
        with open(config_path) as f:
            config = json.load(f)
    unknown = sorted(set(config) - set(settings))
    if unknown:
        parser.error(f"{command} reads no config key {', '.join(unknown)}")
    # a flag left off the command line parses as None
    settings = {**settings, **config,
                **{k: v for k, v in args.items() if v is not None}}
    missing = [k for k, v in settings.items() if v is _REQUIRED]
    if missing:
        parser.error(f"{command} needs {', '.join(missing)}")
    if (settings.get("k_lo") is None) != (settings.get("k_hi") is None):
        parser.error("scan takes --k-lo and --k-hi together or neither")
    k = settings.get("K")
    if k is not None and str(k) not in _NAMED_COUPLINGS:
        try:
            float(k)
        except (TypeError, ValueError):
            parser.error(f"--K takes a number or one of "
                         f"{', '.join(_NAMED_COUPLINGS)}, got {k!r}")
    if "model" in settings:
        _keep_model_params(settings)
    try:
        return func(settings)
    except (TorusMFError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
