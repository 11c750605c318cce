"""CLI verbs, exit-code contract, config overrides."""

import json

import pytest

from torusmf.cli import main


class TestThresholds:
    def test_doi_onsager(self, tmp_path, capsys):
        code = main(["thresholds", "doi_onsager", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "K_sharp: 2.356" in out
        assert "predicted_continuity: continuous" in out
        rec = json.loads(
            (tmp_path / "thresholds_doi_onsager" / "thresholds.json")
            .read_text())
        assert rec["decay_passed"] is True

    def test_transformer_above_threshold(self, tmp_path, capsys):
        code = main(["thresholds", "transformer", "--beta", "3",
                     "--out", str(tmp_path)])
        assert code == 0  # decay fail is CONSISTENT with predicted discontinuous
        out = capsys.readouterr().out
        assert "decay_first_violation: 2" in out
        assert "predicted_continuity: discontinuous" in out

    def test_hk_continuous_side(self, tmp_path, capsys):
        code = main(["thresholds", "hk", "--R", "2.5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted_continuity: continuous" in out

    def test_missing_param_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["thresholds", "transformer", "--out", str(tmp_path)])


class TestMinimize:
    def test_named_coupling(self, tmp_path, capsys):
        code = main(["minimize", "doi_onsager", "--K", "supercritical",
                     "--grid-size", "256", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "order parameter" in out
        run = tmp_path / "minimize_doi_onsager_K2.82743"
        assert (run / "minimizer.json").exists()
        assert (run / "minimizer_density.csv").exists()
        rec = json.loads((run / "minimizer.json").read_text())
        assert rec["free_energy"] < 0.0


class TestFlow:
    def test_flow_with_fit(self, tmp_path, capsys):
        code = main(["flow", "doi_onsager", "--K", "1.178", "--T", "0.5",
                     "--grid-size", "256", "--records", "250",
                     "--fit", "exponential", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fitted exponential rate" in out
        run = tmp_path / "flow_doi_onsager_K1.178"
        fit = json.loads((run / "rate_fit.json").read_text())
        assert fit["goodness"] > 0.999


class TestVerify:
    def test_loggas_suite(self, tmp_path, capsys):
        code = main(["verify", "--suite", "loggas", "--out", str(tmp_path)])
        assert code == 0
        rec = json.loads(
            (tmp_path / "verify_loggas" / "verify_report.json").read_text())
        assert rec["loggas_stationary_residual"] <= 1e-14

    def test_inequality_small_sample(self, tmp_path):
        code = main(["verify", "--suite", "inequality", "--n", "0",
                     "--samples", "25", "--out", str(tmp_path)])
        assert code == 0


class TestConfigAndReport:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_size": 128, "out": str(tmp_path)}))
        code = main(["minimize", "doi_onsager", "--K", "0.5",
                     "--config", str(cfg)])
        assert code == 0

    def test_particles_flow_on_config_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_size": 256, "out": str(tmp_path)}))
        code = main(["particles", "doi_onsager", "--K", "0.5", "--N", "200",
                     "--T", "0.01", "--replicates", "2", "--no-assert",
                     "--config", str(cfg)])
        assert code == 0
        (run,) = tmp_path.glob("particles_*")
        header = (run / "replicate0_modes.csv").read_text().split("\n")[0]
        assert header.startswith("t,mode2,")

    def test_report_aggregates(self, tmp_path, capsys):
        main(["thresholds", "doi_onsager", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["report", "--dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "thresholds_doi_onsager" in out
        assert (tmp_path / "summary.json").exists()
