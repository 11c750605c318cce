"""CLI verbs, exit-code contract, config overrides."""

import json

import pytest

import torusmf.cli
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

    def test_custom_kernel_takes_the_truncation(self, tmp_path, capsys):
        code = main(["thresholds", "custom", "--coeffs", "0.1,0.3,0.05",
                     "--truncation", "8", "--out", str(tmp_path)])
        assert code == 0
        run = tmp_path / "thresholds_custom"
        rows = (run / "coefficients.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[1]) for r in rows] == [0.1, 0.3, 0.05] + [0.0] * 5
        man = json.loads((run / "manifest.json").read_text())
        assert man["config"]["truncation"] == 8

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


    def test_unknown_coupling_word_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "do", "--K", "foo", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'foo'" in err
        for word in ("subcritical", "critical", "supercritical", "number"):
            assert word in err
        assert not list(tmp_path.glob("*_*"))


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

    def test_step_counters_go_to_trace_meta(self, tmp_path, capsys):
        # the steps adapt on the way to the clustered state
        code = main(["flow", "do", "--K", "supercritical", "--T", "0.6",
                     "--dt", "1e-4", "-M", "256", "--out", str(tmp_path)])
        assert code == 0
        (run,) = tmp_path.glob("flow_*")
        meta = json.loads((run / "trace_meta.json").read_text())
        assert meta["dt"] == 1e-4
        assert meta["steps"] > 0
        assert meta["rejected"] >= 0
        assert 0.0 < meta["step_min"] <= meta["step_max"]
        assert 1 <= meta["tables"] <= meta["steps"] + meta["rejected"]
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"steps={meta['steps']}" in out
        assert f"tables={meta['tables']}" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary[run.name]["steps"] == meta["steps"]

    def test_geometric_record_count_follows_records(self, tmp_path, capsys):
        lengths = {}
        for records in (5, 400):
            out = tmp_path / str(records)
            code = main(["flow", "do", "--K", "1.0", "--T", "0.05",
                         "--dt", "1e-5", "-M", "64", "--record", "geometric",
                         "--records", str(records), "--out", str(out)])
            assert code == 0
            (run,) = out.glob("flow_*")
            lines = (run / "trace.csv").read_text().strip().split("\n")
            lengths[records] = len(lines) - 1  # header
        # t = 0 and t = T ride along with the geometric times
        for records, n in lengths.items():
            assert records <= n <= records + 2


class TestBadValues:
    # explicit ids, so that a case can go without renaming the others;
    # they keep the positional names the cases had
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["particles", "do", "--K", "subcritical", "--N", "5",
                      "--T", "0.01"], "particles", id="argv0-particles"),
        pytest.param(["particles", "do", "--K", "subcritical", "--N", "100",
                      "--T", "0.01", "--replicates", "1"], "replicates",
                     id="argv1-replicates"),
        pytest.param(["flow", "do", "--K", "1.0", "--T", "-1"], "horizon",
                     id="argv2-horizon"),
        pytest.param(["flow", "do", "--K", "1.0", "--T", "0.01", "--record",
                      "geometric"], "geometric", id="argv3-geometric"),
        pytest.param(["flow", "do", "--K", "1.0", "--T", "1", "--record",
                      "geometric", "--records", "0"], "--records",
                     id="argv4---records"),
        pytest.param(["flow", "do", "--K", "1.0", "--T", "1", "--record",
                      "geometric", "--records", "-3"], "--records",
                     id="argv5---records"),
        pytest.param(["flow", "do", "--K", "1.0", "--T", "1", "--dt", "0"],
                     "dt", id="argv6-dt"),
        pytest.param(["minimize", "do", "--K", "1", "--max-iter", "0"],
                     "max_iter", id="argv7-max_iter"),
        pytest.param(["particles", "do", "--K", "1", "--T", "0.0015"],
                     "whole number of steps",
                     id="argv8-whole number of steps"),
        pytest.param(["minimize", "do", "--K", "1", "--max-iter", "-3"],
                     "max_iter", id="argv9-max_iter"),
        pytest.param(["verify", "--samples", "0"], "samples",
                     id="argv11-samples"),
        pytest.param(["verify", "--suite", "coercivity", "--samples", "0"],
                     "samples", id="argv12-samples"),
        pytest.param(["verify", "--suite", "loggas", "--samples", "-1"],
                     "samples", id="argv13-samples"),
    ])
    def test_is_a_usage_error(self, argv, message, tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 2
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err


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
        # particles takes no grid_size: the flow side runs on the 512 grid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path)}))
        code = main(["particles", "doi_onsager", "--K", "0.5", "--N", "200",
                     "--T", "0.01", "--replicates", "2", "--no-assert",
                     "--config", str(cfg)])
        assert code == 0
        (run,) = tmp_path.glob("particles_*")
        header = (run / "replicate0_modes.csv").read_text().split("\n")[0]
        assert header.startswith("t,mode2,")
        report = json.loads((run / "chaos_report.json").read_text())
        assert report["flow_steps"] > 0
        assert report["particle_steps"] == 2 * round(0.01 / 1e-3)
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"flow_steps={report['flow_steps']}" in out
        assert f"particle_steps={report['particle_steps']}" in out

    def test_report_aggregates(self, tmp_path, capsys):
        main(["thresholds", "doi_onsager", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["report", "--dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "thresholds_doi_onsager" in out
        assert (tmp_path / "summary.json").exists()

    def test_scan_work_counters_go_to_verdict_and_report(self, tmp_path,
                                                          capsys):
        assert main(["scan", "transformer", "--beta", "3", "-M", "128",
                     "--out", str(tmp_path)]) == 0
        run = tmp_path / "scan_transformer_beta3"
        verdict = json.loads((run / "verdict.json").read_text())
        lines = (run / "phase_diagram.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "map_applications"
        cols = [line.split(",") for line in lines[1:]]
        assert verdict["map_applications"] == sum(int(c[-1]) for c in cols)
        # the rows are the K_# probe, the Newton steps and the multistart
        # at K_c - e
        assert verdict["newton_steps"] > 0
        assert len(cols) == verdict["newton_steps"] + 2
        out = capsys.readouterr().out
        assert f"{verdict['newton_steps']} Newton steps" in out
        for c in cols:
            assert f"K = {float(c[0]):.10g}: " in out
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"map_applications={verdict['map_applications']}" in out
        assert f"newton_steps={verdict['newton_steps']}" in out

    def test_report_on_missing_dir_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        code = main(["report", "--dir", str(missing)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not missing.exists()

    def test_report_keeps_nested_runs_apart(self, tmp_path, capsys):
        for sub, k_c in (("a", 1.0), ("b", 2.0)):
            run = tmp_path / sub / "scan_x"
            run.mkdir(parents=True)
            (run / "verdict.json").write_text(json.dumps({"K_c": k_c}))
        code = main(["report", "--dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {"a/scan_x": {"K_c": 1.0}, "b/scan_x": {"K_c": 2.0}}


class TestSettings:
    # every value off its default, so a setting missing from the manifest
    # changes the rerun's outputs
    RUNS = {
        "thresholds": ["thresholds", "transformer", "--beta", "3",
                       "--truncation", "64"],
        "scan": ["scan", "do", "-M", "128", "--truncation", "64"],
        "minimize": ["minimize", "do", "--K", "supercritical", "-M", "128",
                     "--max-iter", "5000", "--truncation", "64"],
        "flow": ["flow", "do", "--K", "1.0", "--T", "0.2", "--dt", "2e-4",
                 "-M", "128", "--perturbation", "0.05",
                 "--record", "geometric", "--records", "50",
                 "--fit", "exponential", "--truncation", "64"],
        "particles": ["particles", "do", "--K", "supercritical", "--N", "200",
                      "--T", "0.06", "--replicates", "2",
                      "--perturbation", "0.3", "--seed", "5", "--no-assert",
                      "--truncation", "64"],
        "verify": ["verify", "--suite", "inequality", "--n", "0",
                   "--samples", "10", "--seed", "3"],
    }

    @pytest.mark.parametrize("verb", sorted(RUNS))
    def test_rerun_from_manifest_is_byte_identical(self, verb, tmp_path,
                                                   capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        main(self.RUNS[verb] + ["--out", str(first)])
        (run,) = first.iterdir()
        man = json.loads((run / "manifest.json").read_text())
        assert man["command"] == verb
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(man["config"]))
        main([verb, "--config", str(cfg), "--out", str(second)])
        rerun = second / run.name
        files = sorted(p.name for p in run.iterdir())
        assert files == sorted(p.name for p in rerun.iterdir())
        for name in files:
            if name != "manifest.json":
                assert (run / name).read_bytes() == (rerun / name).read_bytes(), name
        man2 = json.loads((rerun / "manifest.json").read_text())
        assert man2["config"] == {**man["config"], "out": str(second)}

    def test_manifest_holds_the_settings_read(self, tmp_path, capsys):
        main(self.RUNS["scan"] + ["--out", str(tmp_path)])
        man = json.loads(
            (tmp_path / "scan_doi_onsager" / "manifest.json").read_text())
        assert man["config"] == {
            "model": "do", "truncation": 64, "grid_size": 128,
            "no_assert": False,
            "out": str(tmp_path),
        }

    @pytest.mark.parametrize("verb", sorted(RUNS))
    def test_every_setting_is_read(self, verb, tmp_path, monkeypatch,
                                   capsys):
        # a setting the verb never reads is a knob that does nothing
        class Recording(dict):
            def __init__(self, settings):
                super().__init__(settings)
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        unread = []
        real = getattr(torusmf.cli, f"cmd_{verb}")

        def recording(s):
            s = Recording(s)
            code = real(s)
            unread.extend(sorted(set(s) - s.read))
            return code

        monkeypatch.setattr(torusmf.cli, f"cmd_{verb}", recording)
        assert main(self.RUNS[verb] + ["--out", str(tmp_path)]) == 0
        assert unread == []

    def test_other_models_parameter_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="takes no --beta"):
            main(["thresholds", "doi_onsager", "--beta", "3",
                  "--out", str(tmp_path)])

    @pytest.mark.parametrize("verb,key", [
        (["minimize", "do", "--K", "0.5"], "grid-size"),
        (["scan", "do"], "seed"),
        (["flow", "do", "--K", "0.5"], "workers"),
        # settings that were removed
        (["scan", "do"], "tol_f"),
        (["scan", "do"], "max_iter"),
        (["minimize", "do", "--K", "0.5"], "tol"),
        (["particles", "do", "--K", "0.5"], "grid_size"),
        (["particles", "do", "--K", "0.5"], "dt_particles"),
        (["particles", "do", "--K", "0.5"], "workers"),
        (["scan", "do"], "k_lo"),
        (["scan", "do"], "k_hi"),
        (["scan", "do"], "tol_k"),
    ])
    def test_unknown_config_key_is_rejected(self, verb, key, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 1}))
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("*_*"))

    @pytest.mark.parametrize("verb,cfg,key", [
        (["thresholds"], {"model": "custom", "coeffs": [0.5, 0.2]}, "coeffs"),
        (["thresholds"], {"model": "do", "truncation": "64"}, "truncation"),
        (["flow", "do", "--K", "0.5"], {"T": "0.01"}, "T"),
    ])
    def test_config_value_of_the_wrong_type_is_rejected(self, verb, cfg, key,
                                                        tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"config key {key} " in capsys.readouterr().err
        assert not list(tmp_path.glob("*_*"))

    def test_particles_writes_replicate0_from_the_check(self, tmp_path,
                                                        monkeypatch, capsys):
        import torusmf as tm
        from torusmf import io, particles

        calls = []
        real = particles.simulate

        def counting(*args, **kw):
            calls.append(kw.get("replicate"))
            return real(*args, **kw)

        monkeypatch.setattr(particles, "simulate", counting)
        monkeypatch.setattr(torusmf.cli, "simulate", counting, raising=False)
        main(self.RUNS["particles"] + ["--out", str(tmp_path)])
        assert len(calls) == 2
        (run,) = tmp_path.glob("particles_*")
        w = tm.doi_onsager(truncation=64)
        q0 = tm.cosine_profile({2: 0.3}, 512)
        traj = real(w, 1.2 * tm.k_sharp(w)[0], 200, 0.06, dt=1e-3, seed=5,
                    replicate=0, q0=q0)
        modes = sorted(traj.mode_abs)
        io.write_csv(tmp_path / "direct.csv",
                     zip(traj.times.tolist(),
                         *(traj.mode_abs[k].tolist() for k in modes)),
                     ["t"] + [f"mode{k}" for k in modes])
        assert ((run / "replicate0_modes.csv").read_bytes()
                == (tmp_path / "direct.csv").read_bytes())
