"""CLI tests: each subcommand end to end."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main


class TestDatagen:
    def test_synthetic(self, tmp_path, capsys):
        out = tmp_path / "data.libsvm"
        assert main(["datagen", str(out), "--instances", "100",
                     "--features", "10", "--density", "0.5"]) == 0
        assert out.exists()
        assert "wrote 100 x 10" in capsys.readouterr().out

    def test_catalog(self, tmp_path, capsys):
        out = tmp_path / "susy.libsvm"
        assert main(["datagen", str(out), "--catalog", "susy",
                     "--scale", "0.01"]) == 0
        assert "x 18" in capsys.readouterr().out


class TestTrainPredict:
    def test_train_on_catalog(self, capsys):
        assert main([
            "train", "--catalog", "higgs", "--scale", "0.02",
            "--system", "qd2", "--trees", "3", "--layers", "4",
            "--workers", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "quadrant=QD2" in out
        assert "auc=" in out

    def test_train_save_predict(self, tmp_path, capsys):
        data = tmp_path / "train.libsvm"
        main(["datagen", str(data), "--instances", "400",
              "--features", "15", "--density", "0.6"])
        model = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--trees", "3",
            "--layers", "4", "--workers", "2",
            "--model-out", str(model),
        ]) == 0
        assert model.exists()
        preds = tmp_path / "preds.txt"
        assert main(["predict", str(model), str(data),
                     "--output", str(preds)]) == 0
        values = np.loadtxt(preds)
        assert values.shape == (400,)
        assert np.all((values > 0) & (values < 1))

    def test_requires_one_data_source(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["train", "--trees", "1"])

    @pytest.mark.parametrize("flag", ["--system", "--plan"])
    def test_unknown_system_or_plan_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--catalog", "higgs", "--scale", "0.02",
                  "--trees", "1", flag, "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown plan 'bogus'; known: " in err
        assert "Traceback" not in err

    def test_system_is_a_second_spelling_of_plan(self, tmp_path, capsys):
        models = []
        for flag in ("--system", "--plan"):
            model = tmp_path / f"{flag[2:]}.json"
            assert main(["train", "--catalog", "higgs", "--scale", "0.02",
                         flag, "qd2", "--trees", "2", "--layers", "3",
                         "--workers", "2", "--model-out", str(model)]) == 0
            assert "plan=qd2 " in capsys.readouterr().out
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_auto_adapt_consults_at_the_cadence(self, capsys):
        assert main([
            "train", "--catalog", "rcv1", "--scale", "0.05",
            "--plan", "auto-adapt", "--adapt-every", "2", "--trees", "6",
            "--layers", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "recalibrating every 2 trees" in out
        # the cadence only: stay/migrate depends on wall-clocked compute
        assert re.findall(r"adapt @ tree (\d+):", out) == ["2", "4"]

    def test_multiclass_predict_rows(self, tmp_path):
        from repro import TrainConfig, GBDT, make_classification, \
            save_ensemble
        from repro.data.io import write_libsvm

        ds = make_classification(120, 8, num_classes=3, density=0.8,
                                 seed=3)
        cfg = TrainConfig(num_trees=2, num_layers=3,
                          objective="multiclass", num_classes=3)
        ensemble = GBDT(cfg).fit(ds).ensemble
        model = tmp_path / "mc.json"
        save_ensemble(ensemble, model, objective="multiclass",
                      num_classes=3)
        data = tmp_path / "mc.libsvm"
        write_libsvm(ds, data)
        preds = tmp_path / "preds.txt"
        assert main(["predict", str(model), str(data),
                     "--output", str(preds)]) == 0
        values = np.loadtxt(preds)
        assert values.shape == (120, 3)
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-4)


class TestServeBench:
    def test_smoke_end_to_end(self, capsys):
        assert main(["serve-bench", "--smoke", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "exact=True" in out
        assert "hot-swap" in out
        assert "single-version batches=True" in out
        assert "deploy:model traffic:" in out

    def test_backend_flag_is_the_backend_the_fleet_scores_on(
            self, capsys, monkeypatch):
        from repro.serve.compiler import CompiledEnsemble

        scored_on = []
        score = CompiledEnsemble.raw_scores

        def spy(self, features, *args, **kwargs):
            scored_on.append(self.backend.name)
            return score(self, features, *args, **kwargs)

        monkeypatch.setattr(CompiledEnsemble, "raw_scores", spy)
        assert main(["serve-bench", "--smoke", "--backend", "pyloop"]) == 0
        out = capsys.readouterr().out
        assert "backend=pyloop" in out
        # the header's timed batch, then the fleet's served batches
        assert len(scored_on) > 2 and set(scored_on) == {"pyloop"}

    def test_saved_model_served(self, tmp_path, capsys):
        data = tmp_path / "train.libsvm"
        main(["datagen", str(data), "--instances", "300",
              "--features", "12", "--density", "0.6"])
        model = tmp_path / "model.json"
        main(["train", "--data", str(data), "--trees", "3",
              "--layers", "4", "--workers", "2",
              "--model-out", str(model)])
        capsys.readouterr()
        assert main(["serve-bench", "--smoke", "--model",
                     str(model)]) == 0
        out = capsys.readouterr().out
        assert "exact=True" in out
        # a single published version means no hot-swap leg
        assert "hot-swap" not in out

    def test_quantized_refuses_a_saved_model(self, tmp_path, capsys):
        # quantizing needs the in-process model's training cuts; with a
        # saved model the flag must fail loud, not be dropped
        data = tmp_path / "train.libsvm"
        main(["datagen", str(data), "--instances", "200",
              "--features", "8", "--density", "0.6"])
        model = tmp_path / "model.json"
        main(["train", "--data", str(data), "--trees", "2",
              "--layers", "3", "--workers", "2",
              "--model-out", str(model)])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--quantized needs the "
                                             "training cuts"):
            main(["serve-bench", "--smoke", "--model", str(model),
                  "--quantized"])
        assert "serving" not in capsys.readouterr().out


class TestPredictMetadata:
    def test_multiclass_routed_by_model_metadata(self, tmp_path):
        # the predict command must read the objective from the model
        # file, not guess from the score shape
        from repro import GBDT, TrainConfig, make_classification, \
            save_ensemble
        from repro.data.io import write_libsvm

        ds = make_classification(150, 10, num_classes=3, density=0.7,
                                 seed=9)
        cfg = TrainConfig(num_trees=2, num_layers=3,
                          objective="multiclass", num_classes=3)
        ensemble = GBDT(cfg).fit(ds).ensemble
        assert ensemble.objective == "multiclass"
        model = tmp_path / "mc.json"
        save_ensemble(ensemble, model)
        data = tmp_path / "mc.libsvm"
        write_libsvm(ds, data)
        preds = tmp_path / "preds.txt"
        assert main(["predict", str(model), str(data),
                     "--output", str(preds)]) == 0
        values = np.loadtxt(preds)
        assert values.shape == (150, 3)
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-4)


class TestFaultyTrain:
    def test_train_with_faults_reports_recovery(self, capsys):
        assert main([
            "train", "--catalog", "higgs", "--scale", "0.02",
            "--system", "qd2", "--trees", "3", "--layers", "4",
            "--workers", "3", "--faults", "42:crash=1,drop=0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "seed=42" in out
        assert "retry/recovery traffic=" in out

    def test_malformed_faults_spec_rejected(self):
        with pytest.raises(ValueError, match="fault spec"):
            main([
                "train", "--catalog", "higgs", "--scale", "0.02",
                "--system", "qd2", "--trees", "1", "--layers", "3",
                "--faults", "not-a-spec",
            ])


class TestTrainCodec:
    # delta compresses integer payloads only, so it rides a vertical
    # plan whose wire is placement bitmaps; the histogram codecs ride a
    # horizontal plan whose wire is histogram aggregation
    @pytest.mark.parametrize("codec,system", [
        ("none", "qd2"), ("sparse", "qd2"), ("delta", "vero"),
        ("f16", "qd2"),
    ])
    def test_train_with_codec(self, capsys, codec, system):
        assert main([
            "train", "--catalog", "rcv1", "--scale", "0.05",
            "--system", system, "--trees", "2", "--layers", "4",
            "--workers", "3", "--codec", codec,
        ]) == 0
        out = capsys.readouterr().out
        assert "auc=" in out
        if codec == "none":
            assert "saved" not in out
        else:
            # every non-identity stack compresses something on this
            # sparse workload, and the savings line names the codec
            assert f"codec={codec}: saved" in out
            assert "x total reduction" in out

    def test_unknown_codec_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--catalog", "rcv1", "--trees", "1",
                  "--codec", "zstd"])


class TestAdvise:
    def test_high_dim_recommends_vero(self, capsys):
        assert main([
            "advise", "--instances", "1000000", "--features", "100000",
            "--nnz-per-instance", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "QD4" in out
        assert "recommendation" in out

    def test_memory_budget_printed(self, capsys):
        assert main([
            "advise", "--instances", "48000000", "--features", "330000",
            "--classes", "9", "--nnz-per-instance", "50",
            "--memory-budget-gb", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "excluded" in out

    def test_crash_rate_adds_recovery_reason(self, capsys):
        assert main([
            "advise", "--instances", "1000000", "--features", "1000",
            "--nnz-per-instance", "100", "--crash-rate", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out

    def test_codec_projections_printed(self, capsys):
        # KDD-cup-like shape: high-dimensional and very sparse, so the
        # per-node histograms sit far below the sparse codec's cutoff
        assert main([
            "advise", "--instances", "150000", "--features", "2000000",
            "--nnz-per-instance", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "byte reduction by codec" in out
        assert "sparse:" in out and "lossless" in out
        assert "f16:" in out and "lossy, opt-in" in out
        # the codec-aware reason points at --codec
        assert "train --codec sparse" in out

    def test_codec_aware_pricing(self, capsys):
        assert main([
            "advise", "--instances", "150000", "--features", "2000000",
            "--nnz-per-instance", "30", "--codec", "sparse",
        ]) == 0
        out = capsys.readouterr().out
        assert "priced with the 'sparse' codec" in out


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestScenarios:
    def test_one_shard_group_overrides_a_sharded_scenario(self, tmp_path,
                                                          capsys):
        from repro.ledger import load_report

        path = tmp_path / "steady.json"
        assert main(["scenarios", "run", "sharded-steady", "--scale", "0.1",
                     "--shards", "1", "--report-out", str(path)]) == 0
        capsys.readouterr()
        report = load_report(str(path))
        assert "num_shards" not in report["config"]    # echoed when > 1
        assert report["config"]["num_workers"] == 4
        assert set(report["wire"]["bytes_by_kind"]) == {"deploy:model"}
        assert all(report["invariants"].values())

    @pytest.mark.parametrize("shards", ["0", "-2"])
    def test_a_shard_count_below_one_is_refused(self, shards, capsys):
        with pytest.raises(SystemExit, match="must be >= 1"):
            main(["scenarios", "run", "steady", "--scale", "0.1",
                  "--shards", shards])
        assert capsys.readouterr().out == ""


class TestLedger:
    """``repro ledger`` is the one report reader, whatever the schema."""

    def test_prints_a_run_report(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert main(["train", "--catalog", "higgs", "--scale", "0.02",
                     "--system", "qd2", "--trees", "2", "--layers", "3",
                     "--report-out", str(report)]) == 0
        capsys.readouterr()
        assert main(["ledger", str(report)]) == 0
        assert capsys.readouterr().out.startswith("run report — ")

    @pytest.mark.parametrize("fixture,title", [
        ("scenario_flash_crowd_v1.json", "scenario report — flash-crowd"),
        ("deploy_canary_v1.json", "deploy report — canary-under-fire"),
    ])
    def test_prints_serving_reports(self, fixture, title, capsys):
        golden = Path(__file__).parent / "data" / "golden" / fixture
        assert main(["ledger", str(golden)]) == 0
        assert capsys.readouterr().out.startswith(title)

    def test_refuses_a_file_of_no_known_schema(self):
        golden = Path(__file__).parent / "data" / "golden"
        with pytest.raises(ValueError, match="unknown schema"):
            main(["ledger", str(golden / "model_multiclass_v1.json")])

    @pytest.mark.parametrize("argv", [
        ["scenarios", "report", "x.json"], ["deploy", "--show", "x.json"]])
    def test_the_per_schema_readers_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestDoctor:
    def test_reports_backends_and_selfcheck(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "kernel backends:" in out
        assert "numpy" in out and "numba" in out
        assert "bit-identity self-check" in out
        assert "all available backends are bit-identical" in out

    def test_skip_selfcheck_only_detects(self, capsys):
        assert main(["doctor", "--skip-selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "kernel backends:" in out
        assert "self-check" not in out.replace("--skip-selfcheck", "")

    def test_disable_env_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_BACKENDS", "pyloop")
        assert main(["doctor", "--skip-selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_DISABLE_BACKENDS is masking: pyloop" in out

    def test_miscompare_exits_nonzero(self, capsys, monkeypatch):
        from repro.core.kernels import PyLoopBackend

        original = PyLoopBackend.scatter

        def corrupt(self, hist, keys, entry_rows, grad, hess,
                    hess_const=None):
            original(self, hist, keys, entry_rows, grad, hess,
                     hess_const=hess_const)
            hist.grad += 1e-9

        monkeypatch.setattr(PyLoopBackend, "scatter", corrupt)
        assert main(["doctor"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestBackendFlags:
    def test_train_backend_flag_reported(self, capsys):
        assert main([
            "train", "--catalog", "higgs", "--scale", "0.02",
            "--trees", "2", "--layers", "3", "--workers", "2",
            "--backend", "pyloop",
        ]) == 0
        assert "backend=pyloop" in capsys.readouterr().out

    def test_train_backend_auto_resolves(self, capsys):
        assert main([
            "train", "--catalog", "higgs", "--scale", "0.02",
            "--trees", "2", "--layers", "3", "--workers", "2",
            "--backend", "auto",
        ]) == 0
        # auto resolves to a concrete backend name, never the alias
        assert "backend=auto" not in capsys.readouterr().out

    def test_train_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            main(["train", "--catalog", "higgs", "--scale", "0.02",
                  "--trees", "1", "--backend", "cuda"])

    def test_serve_bench_backend_and_quantized(self, capsys):
        assert main(["serve-bench", "--smoke", "--seed", "3",
                     "--backend", "pyloop", "--quantized"]) == 0
        out = capsys.readouterr().out
        assert "backend=pyloop" in out
        assert "quantized (uint8 bins)" in out
        assert "exact=True" in out

    def test_advise_backend_prices_compute(self, capsys):
        assert main(["advise", "--instances", "100000", "--features",
                     "50", "--nnz-per-instance", "20", "--workers", "4",
                     "--backend", "numba"]) == 0
        out = capsys.readouterr().out
        assert "compute priced for the 'numba' kernel backend" in out


class TestDeploy:
    def test_degraded_episode_rolls_back(self, capsys, tmp_path):
        report = tmp_path / "deploy.json"
        assert main(["deploy", "--scale", "0.25",
                     "--report-out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "verdict: rollback" in out
        assert "retrained v3" in out
        assert "VIOLATED" not in out
        assert main(["ledger", str(report)]) == 0
        assert "verdict: rollback" in capsys.readouterr().out

    def test_healthy_canary_promotes(self, capsys):
        assert main(["deploy", "--scale", "0.25",
                     "--canary", "healthy"]) == 0
        assert "verdict: promote" in capsys.readouterr().out

    def test_shadow_mode(self, capsys):
        assert main(["deploy", "--scale", "0.25", "--shadow"]) == 0
        out = capsys.readouterr().out
        assert "shadow mode" in out
        assert "shadow_serves_incumbent_only=ok" in out
