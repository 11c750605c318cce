"""Serialization formats and run persistence."""

import json
import os
import platform
import stat

import numpy as np
import pytest
import scipy

import torusmf as tm
from torusmf import io
from torusmf.flow import RecordPolicy, integrate


class TestDensityIO:
    def test_json_round_trip(self, tmp_path, rng):
        vals = np.exp(rng.normal(0, 0.3, 128))
        q = tm.from_grid(vals / vals.mean())
        p = tmp_path / "d.json"
        io.save_density_json(p, q)
        rec = json.loads(p.read_text())
        assert rec["grid_size"] == len(rec["grid_values"]) == 128
        q2 = tm.from_grid(rec["grid_values"])
        assert np.abs(q.grid_values - q2.grid_values).max() < 1e-15

    def test_csv_columns(self, tmp_path):
        q = tm.extremal(0.3, 0, 0.0, 64)
        p = tmp_path / "d.csv"
        io.save_density_csv(p, q)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "theta,q"
        assert len(lines) == 65
        th, v = map(float, lines[1].split(","))
        assert th == -0.5

    def test_npz_archive(self, tmp_path):
        qs = [tm.uniform(64), tm.extremal(0.4, 0, 0.0, 64)]
        p = tmp_path / "snaps.npz"
        io.save_densities_npz(p, qs, [0.0, 1.0])
        data = np.load(p)
        assert np.array_equal(data["times"], [0.0, 1.0])
        assert np.abs(data["q00001"] - qs[1].grid_values).max() == 0.0

    def test_npz_writer_failing_midway_leaves_no_file(self, tmp_path,
                                                      monkeypatch):
        def broken(f, **arrays):
            f.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        qs = [tm.uniform(64)]
        monkeypatch.setattr(np, "savez_compressed", broken)
        with pytest.raises(OSError, match="disk full"):
            io.save_densities_npz(tmp_path / "snapshots.npz", qs, [0.0])
        assert list(tmp_path.iterdir()) == []
        # a failed rewrite keeps the archive written before it
        monkeypatch.undo()
        p = tmp_path / "snapshots.npz"
        io.save_densities_npz(p, qs, [0.0])
        monkeypatch.setattr(np, "savez_compressed", broken)
        with pytest.raises(OSError, match="disk full"):
            io.save_densities_npz(p, qs, [1.0])
        assert [f.name for f in tmp_path.iterdir()] == ["snapshots.npz"]
        assert np.array_equal(np.load(p)["times"], [0.0])


class TestPotentialIO:
    def test_coeff_csv(self, tmp_path):
        w = tm.log_gas(8)
        p = tmp_path / "c.csv"
        io.save_coeffs_csv(p, w)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "k,what_k"
        k, c = lines[1].split(",")
        assert (int(k), float(c)) == (1, 0.5)


class TestRunArtifacts:
    def test_trace_csv_and_manifest(self, tmp_path, do_kernel):
        q0 = tm.cosine_profile({2: 0.05}, 128)
        tr = integrate(q0, do_kernel, 1.0, 0.01, dt=1e-4,
                       record=RecordPolicy("uniform", 5, snapshot_every=2))
        io.save_trace(tmp_path, tr)
        io.write_manifest(tmp_path, "flow", {"dt": 1e-4})
        header = (tmp_path / "trace.csv").read_text().split("\n")[0]
        assert header.startswith("t,l2_dist,w2_dist,mode2")
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["package_version"] == tm.__version__
        assert man["command"] == "flow"
        assert man["config"] == {"dt": 1e-4}
        assert man["python"] == platform.python_version()
        assert man["numpy"] == np.__version__
        assert man["scipy"] == scipy.__version__
        assert man["platform"] == platform.platform()
        assert (tmp_path / "snapshots.npz").exists()

    def test_solve_report_counts_dropped_trials(self, tmp_path):
        # transformer(3) from the cosine seed: the guard drops trial
        # iterates on the way off the unstable branch
        w = tm.transformer(3.0)
        q0 = tm.cosine_profile({1: 0.6}, 512)
        rep = tm.solve_fixed_point(w, 0.37634, q0)
        io.save_solve_report(tmp_path, rep)
        rec = json.loads((tmp_path / "minimizer.json").read_text())
        assert rec["rejected"] == rep.rejected > 0
        assert rec["iterations"] == rep.iterations

    def test_write_csv_full_precision(self, tmp_path):
        p = tmp_path / "sub" / "rows.csv"
        io.write_csv(p, [(1, 0.1), (2, 1.0 / 3.0)], ["k", "v"])
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "k,v"
        assert lines[1] == "1,0.10000000000000001"
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0

    def test_atomic_overwrite_idempotent(self, tmp_path):
        p = tmp_path / "x.json"
        io.write_json(p, {"a": 1})
        first = p.read_text()
        io.write_json(p, {"a": 1})
        assert p.read_text() == first

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_get_the_mode_the_umask_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            io.write_json(tmp_path / "x.json", {"a": 1})
            io.write_csv(tmp_path / "x.csv", [(1, 0.5)], ["k", "v"])
            io.save_densities_npz(tmp_path / "x.npz", [tm.uniform(8)], [0])
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["x.csv", "x.json", "x.npz"], mode)
