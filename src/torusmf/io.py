"""File formats and run persistence.

Everything numeric goes to CSV (plot-ready) or JSON (machine-readable);
densities can also ride along in npz archives.  Writes are atomic
(temp file + rename) so reruns with identical configs are idempotent.
"""

from __future__ import annotations

import json
import os
import platform
import secrets
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .critical import PhaseDiagram, SolveReport
from .density import Density
from .flow import FlowTrace
from .potentials import Potential

_FLOAT_FMT = "%.17g"


def _atomic_write(path: Path, write) -> None:
    """``write(f)`` into a binary temp file next to ``path``, then rename it
    to ``path``; on any error the temp file goes and ``path`` is as before.
    The temp file is created as ``open`` creates a file, with mode 0o666
    less the umask (``tempfile.mkstemp`` would make it owner-only)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path, text: str) -> None:
    _atomic_write(Path(path), lambda f: f.write(text.encode()))


def write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    with open(path) as f:
        return json.load(f)


def write_csv(path, rows, header) -> None:
    """Write ``rows`` under ``header``; floats keep full precision."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row
        ))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# densities


def save_density_json(path, q: Density) -> None:
    write_json(path, {"grid_size": q.grid_size,
                      "grid_values": q.grid_values.tolist()})


def save_density_csv(path, q: Density) -> None:
    rows = zip(q.theta.tolist(), q.grid_values.tolist())
    write_csv(path, rows, ["theta", "q"])


def save_densities_npz(path, densities: list[Density], times) -> None:
    arrays = {f"q{i:05d}": d.grid_values for i, d in enumerate(densities)}
    arrays["times"] = np.asarray(times)
    _atomic_write(Path(path), lambda f: np.savez_compressed(f, **arrays))


# ---------------------------------------------------------------------------
# potentials


def save_coeffs_csv(path, w: Potential) -> None:
    rows = ((k + 1, float(c)) for k, c in enumerate(w.coeffs))
    write_csv(path, rows, ["k", "what_k"])


# ---------------------------------------------------------------------------
# scan results


def save_phase_diagram(outdir, pd: PhaseDiagram) -> None:
    outdir = Path(outdir)
    rows = (
        (r.coupling, r.best_gap, r.order_parameter, r.n_seeds_converged,
         r.l1_to_uniform, r.map_applications)
        for r in pd.rows
    )
    write_csv(outdir / "phase_diagram.csv", rows,
              ["K", "best_gap", "order_parameter", "n_seeds_converged", "l1",
               "map_applications"])
    write_json(outdir / "verdict.json", pd.as_verdict())


def save_solve_report(outdir, report: SolveReport) -> None:
    outdir = Path(outdir)
    save_density_csv(outdir / "minimizer_density.csv", report.density)
    save_density_json(outdir / "minimizer_density.json", report.density)
    write_json(outdir / "minimizer.json", {
        "residual": report.residual,
        "free_energy": report.free_energy,
        "iterations": report.iterations,
        "rejected": report.rejected,
        "seed_id": report.seed_id,
        "converged": report.converged,
        "order_parameter": report.order_parameter,
    })


# ---------------------------------------------------------------------------
# flow traces


def save_trace_csv(path, trace: FlowTrace) -> None:
    modes = sorted(trace.mode_abs)
    header = (["t", "l2_dist", "w2_dist"]
              + [f"mode{k}" for k in modes]
              + ["free_energy", "mass_defect"])
    cols = [trace.times, trace.l2, trace.w2]
    cols += [trace.mode_abs[k] for k in modes]
    cols += [trace.free_energy, trace.mass_defect]
    rows = zip(*(c.tolist() for c in cols))
    write_csv(path, rows, header)


def save_trace(outdir, trace: FlowTrace) -> None:
    outdir = Path(outdir)
    save_trace_csv(outdir / "trace.csv", trace)
    if trace.snapshots:
        save_densities_npz(outdir / "snapshots.npz", trace.snapshots,
                           trace.snapshot_times)
    write_json(outdir / "trace_meta.json", {
        **trace.meta,
        "terminated_early": trace.terminated_early,
        "final_residual": trace.final_residual,
    })


# ---------------------------------------------------------------------------
# manifests


def write_manifest(outdir, command: str, config: dict) -> None:
    """Record everything needed to reproduce the run bit-identically: the
    command, its resolved settings (``config``), and the versions and
    platform it ran on."""
    write_json(Path(outdir) / "manifest.json", {
        "command": command,
        "config": config,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    })
