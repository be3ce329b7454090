import json
from pathlib import Path

import numpy as np
import pytest

from empers import experiment, io
from empers.cli import build_parser, main
from empers.features import StepKernel, TemplateSystem, template_grid
from empers.measure import MetricConfig, PersistenceMeasure, Rectangle
from oracles import counterexample_family, truncate, write_measure_json

TINY_CONFIG = {
    "shapes": [
        {"kind": "circle", "instances": 4, "radius": 1.0},
        {"kind": "annulus", "instances": 4, "inner_radius": 1.0, "outer_radius": 2.0},
    ],
    "points_per_sample": 8,
    "samples_per_object": [1, 2],
    "homology_degrees": [0],
    "template_cell_side": 0.4,
    "polynomial_degree": 1,
    "master_seed": 7,
}


def write_tiny_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY_CONFIG, **overrides)))
    return path


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1


class TestDistanceCommand:
    def test_identical_files_give_zero(self, tmp_path, capsys):
        mu = PersistenceMeasure([((0, 1), 1.0), ((2, 5), 0.5)])
        a = tmp_path / "a.json"
        write_measure_json(a, mu)
        assert main(["distance", str(a), str(a)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ot_infinity"] == 0.0

    def test_dirac_pair_prints_diagonal_distance(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_measure_json(a, PersistenceMeasure([((0, 1), 1.0)]))
        write_measure_json(b, PersistenceMeasure([((0, 1), 2.0)]))
        coupling_out = tmp_path / "coupling.json"
        assert main(["distance", str(a), str(b), "--coupling", str(coupling_out)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ot_infinity"] == 0.5
        coupling = json.loads(coupling_out.read_text())
        assert {p["target"] for p in coupling["pairs"]} == {0}
        assert {p["source"] for p in coupling["pairs"]} == {0, "diagonal"}

    @pytest.mark.parametrize("masses, solver", [
        ((1 / 4, 1 / 4, 1 / 4), "matching"),
        ((1.0, 2.0, 1.0), "int32 flow"),
        ((1 / 3, 1 / 5, 1 / 3), "exact flow"),
    ])
    def test_coupling_file_names_the_solver(self, tmp_path, capsys, masses, solver):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_measure_json(a, PersistenceMeasure(zip([(0, 1), (0.5, 3)], masses)))
        write_measure_json(b, PersistenceMeasure([((0.2, 1.4), masses[2])]))
        coupling_out = tmp_path / "coupling.json"
        assert main(["distance", str(a), str(b), "--coupling", str(coupling_out)]) == 0
        coupling = json.loads(coupling_out.read_text())
        assert coupling["ot_infinity"] == json.loads(capsys.readouterr().out)["ot_infinity"]
        assert coupling["solver"] == solver
        assert coupling["thresholds_tested"] >= 2

    def test_truncation_distance_within_eps(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, 10)
        mu = PersistenceMeasure(zip(
            np.column_stack([b, b + rng.uniform(0.05, 2, 10)]), rng.uniform(0.1, 1, 10)))
        a, t = tmp_path / "a.json", tmp_path / "t.json"
        write_measure_json(a, mu)
        write_measure_json(t, truncate(mu, 0.5))
        assert main(["distance", str(a), str(t)]) == 0
        assert json.loads(capsys.readouterr().out)["ot_infinity"] <= 0.5 + 1e-9

    def test_q_mismatch_is_a_data_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_measure_json(a, PersistenceMeasure(), MetricConfig(1.0))
        write_measure_json(b, PersistenceMeasure(), MetricConfig(2.0))
        assert main(["distance", str(a), str(b)]) == 3
        assert main(["distance", str(a), str(b), "--q", "inf"]) == 0

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert main(["distance", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope2.json")]) == 3

    def test_q_below_one_is_a_config_error(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write_measure_json(a, PersistenceMeasure([((0, 1), 1.0)]))
        assert main(["distance", str(a), str(a), "--q", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1


class TestDiagnoseCommand:
    def test_counterexample_family_report(self, tmp_path, capsys):
        d = tmp_path / "family"
        d.mkdir()
        for i, mu in enumerate(counterexample_family((0, 1), 6)):
            write_measure_json(d / f"m{i}.json", mu)
        assert main(["diagnose", "--measures", str(d), "--eps", "0.25", "0.5",
                     "--bands", "1", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_measures"] == 6
        assert report["diameter_upper_bound"] == 0.5
        uodf = report["uodf_profile"]
        assert max(uodf.values()) == 1.0

    def test_singleton_directory(self, tmp_path, capsys):
        d = tmp_path / "one"
        d.mkdir()
        write_measure_json(d / "m.json", PersistenceMeasure([((0, 2), 1.0)]))
        assert main(["diagnose", "--measures", str(d)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diameter_upper_bound"] == 0.0

    def test_empty_directory_is_a_data_error(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["diagnose", "--measures", str(d)]) == 3

    @pytest.mark.parametrize("flags", [["--eps", "0"], ["--thresholds", "{not json"],
                                       ["--thresholds", "[1, 2]"], ["--eps", "0.5", "nan"],
                                       ["--bands", "1", "-1"]])
    def test_bad_argument_values_are_config_errors(self, tmp_path, capsys, flags):
        d = tmp_path / "family"
        d.mkdir()
        write_measure_json(d / "m0.json", PersistenceMeasure([((0, 1), 1.0)]))
        assert main(["diagnose", "--measures", str(d), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1

    def test_profiles_monotone(self, tmp_path, capsys):
        d = tmp_path / "family"
        d.mkdir()
        rng = np.random.default_rng(3)
        for i in range(4):
            b = rng.uniform(-4, 4, 5)
            mu = PersistenceMeasure(zip(
                np.column_stack([b, b + rng.uniform(0.1, 3, 5)]), rng.uniform(0.2, 2, 5)))
            write_measure_json(d / f"m{i}.json", mu)
        assert main(["diagnose", "--measures", str(d), "--eps", "0.2", "0.8", "2.0",
                     "--bands", "1", "3", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        uodf = [report["uodf_profile"][k] for k in ("0.2", "0.8", "2.0")]
        assert uodf == sorted(uodf, reverse=True)
        for by_n in report["odut_profile"].values():
            vals = [by_n[k] for k in ("1", "3", "8")]
            assert vals == sorted(vals, reverse=True)


class TestPipelineCommands:
    def test_sample_is_deterministic_and_counts_match(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sample", "--config", str(cfgp), "--out", str(out1)]) == 0
        assert main(["sample", "--config", str(cfgp), "--out", str(out2)]) == 0
        files1 = sorted(out1.glob("*.csv"))
        # 2 classes x 4 instances x max(samples_per_object)=2 repeats
        assert len(files1) == 16
        for f in files1:
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_diagram_then_featurize_then_train(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        clouds = tmp_path / "clouds"
        diagrams = tmp_path / "diagrams"
        assert main(["sample", "--config", str(cfgp), "--out", str(clouds)]) == 0
        assert main(["diagram", "--config", str(cfgp), "--in", str(clouds),
                     "--out", str(diagrams)]) == 0
        assert len(list(diagrams.glob("*__h0.csv"))) == 16
        features = tmp_path / "features.csv"
        assert main(["featurize", "--config", str(cfgp), "--diagrams", str(diagrams),
                     "--samples-per-object", "2", "--out", str(features)]) == 0
        matrix, labels, ids = io.read_feature_csv(features)
        assert matrix.shape[0] == 8 and sorted(set(labels)) == ["annulus", "circle"]
        assert (features.parent / "templates_h0.json").exists()
        model_dir = tmp_path / "model"
        assert main(["train", "--config", str(cfgp), "--features", str(features),
                     "--out", str(model_dir)]) == 0
        metrics = json.loads((model_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["test"]["accuracy"] <= 1.0
        assert len(metrics["test"]["confusion_matrix"]) == 2
        model = io.read_model_json(model_dir / "model.json")
        assert metrics["converged"] is model.converged
        assert metrics["final_grad_norm"] == model.final_grad_norm
        # evaluate the stored model on the training features
        assert main(["evaluate", "--model", str(model_dir / "model.json"),
                     "--features", str(features)]) == 0

    def test_featurize_zero_samples_is_a_config_error(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        clouds, diagrams = tmp_path / "clouds", tmp_path / "diagrams"
        assert main(["sample", "--config", str(cfgp), "--out", str(clouds)]) == 0
        assert main(["diagram", "--config", str(cfgp), "--in", str(clouds),
                     "--out", str(diagrams)]) == 0
        capsys.readouterr()
        assert main(["featurize", "--config", str(cfgp), "--diagrams", str(diagrams),
                     "--samples-per-object", "0", "--out", str(tmp_path / "f.csv")]) == 2
        assert_one_line_error(capsys, "config error:")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("m, missing, named", [
        (5, None, "annulus/0 has 2 "),
        (2, "circle__0000__0001__h0.csv", "circle/0 has 1 "),
    ])
    def test_featurize_needs_every_repeat_below_m(self, tmp_path, capsys, m, missing, named):
        cfgp = write_tiny_config(tmp_path)
        clouds, diagrams = tmp_path / "clouds", tmp_path / "diagrams"
        assert main(["sample", "--config", str(cfgp), "--out", str(clouds)]) == 0
        assert main(["diagram", "--config", str(cfgp), "--in", str(clouds),
                     "--out", str(diagrams)]) == 0
        if missing:
            (diagrams / missing).unlink()
        capsys.readouterr()
        assert main(["featurize", "--config", str(cfgp), "--diagrams", str(diagrams),
                     "--samples-per-object", str(m), "--out", str(tmp_path / "f.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: instance {named}")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("command", ["diagram", "run-experiment"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, command, jobs):
        cfgp = write_tiny_config(tmp_path)
        clouds = tmp_path / "clouds"
        clouds.mkdir()
        extra = ["--in", str(clouds)] if command == "diagram" else []
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "o"),
                     "--jobs", jobs, *extra]) == 2
        assert_one_line_error(capsys, "config error:")
        assert not (tmp_path / "o").exists()

    def test_diagram_input_not_a_directory_is_a_data_error(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        not_dir = tmp_path / "cloud.csv"
        not_dir.write_text("0.0,0.0\n")
        assert main(["diagram", "--config", str(cfgp), "--in", str(not_dir),
                     "--out", str(tmp_path / "d")]) == 3
        assert_one_line_error(capsys, "data error:")

    def test_train_missing_features_is_a_data_error(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        assert main(["train", "--config", str(cfgp), "--features",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path / "model")]) == 3
        assert_one_line_error(capsys, "data error:")

    def test_evaluate_mismatched_labels_is_a_data_error(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        run = tmp_path / "run"
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(run)]) == 0
        matrix, labels, ids = io.read_feature_csv(run / "features_m001.csv")
        renamed = tmp_path / "renamed.csv"
        io.write_feature_csv(renamed, matrix, ["disk" if l == "circle" else l for l in labels], ids)
        capsys.readouterr()
        assert main(["evaluate", "--model", str(run / "model_m001.json"),
                     "--features", str(renamed)]) == 3
        assert_one_line_error(capsys, "data error:")

    def test_diagram_input_with_a_foreign_csv_is_a_data_error(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        clouds = tmp_path / "clouds"
        assert main(["sample", "--config", str(cfgp), "--out", str(clouds)]) == 0
        (clouds / "foo.csv").write_bytes((clouds / "circle__0000__0000.csv").read_bytes())
        capsys.readouterr()
        assert main(["diagram", "--config", str(cfgp), "--in", str(clouds),
                     "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "foo.csv" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "d").exists()

    def test_diagram_rerun_with_fewer_clouds_drops_stale_diagrams(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        clouds, diagrams = tmp_path / "clouds", tmp_path / "diagrams"
        assert main(["sample", "--config", str(cfgp), "--out", str(clouds)]) == 0
        assert main(["diagram", "--config", str(cfgp), "--in", str(clouds),
                     "--out", str(diagrams)]) == 0
        (diagrams / "notes.csv").write_text("not an artifact\n")
        for cloud in clouds.glob("annulus__*"):
            cloud.unlink()
        assert main(["diagram", "--config", str(cfgp), "--in", str(clouds),
                     "--out", str(diagrams)]) == 0
        # 4 circle instances x 2 repeats, one degree; other files stay
        expected = {f"{c.stem}__h0.csv" for c in clouds.iterdir()} | {"notes.csv"}
        assert len(expected) == 9
        assert {p.name for p in diagrams.iterdir()} == expected

    def test_diagram_empty_dir_warns(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["diagram", "--config", str(cfgp), "--in", str(empty),
                     "--out", str(tmp_path / "d")]) == 0
        assert "no point clouds" in capsys.readouterr().err


class TestRunExperiment:
    def test_end_to_end_smoke_and_determinism(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(out1)]) == 0
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(out2)]) == 0
        table = (out1 / "accuracy_table.csv").read_text()
        assert table.splitlines()[0] == "samples_per_object,test_accuracy"
        assert len(table.strip().splitlines()) == 3
        for m in (1, 2):
            m1 = (out1 / f"metrics_m{m:03d}.json").read_bytes()
            m2 = (out2 / f"metrics_m{m:03d}.json").read_bytes()
            assert m1 == m2
        manifest = json.loads((out1 / "manifest.json").read_text())
        for stage in manifest["stages"].values():
            for p in stage["outputs"]:
                assert Path(p).exists()

    def test_two_jobs_write_the_same_files_as_one(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        runs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run-experiment", "--config", str(cfgp), "--out", str(out),
                         "--jobs", jobs]) == 0
            runs[jobs] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                          if p.is_file() and p.name != "manifest.json"}
        assert len(runs["1"]) == 16 + 16 + 2 * 4 + 2
        assert runs["2"] == runs["1"]

    def test_rerun_with_fewer_instances_drops_stale_artifacts(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(out)]) == 0
        smaller = dict(TINY_CONFIG, shapes=[dict(s, instances=2) for s in TINY_CONFIG["shapes"]])
        cfgp.write_text(json.dumps(smaller))
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(out)]) == 0
        # 2 classes x 2 instances x 2 repeats, one degree
        assert len(list((out / "clouds").iterdir())) == 8
        assert len(list((out / "diagrams").iterdir())) == 8
        for m in (1, 2):
            _, labels, _ = io.read_feature_csv(out / f"features_m{m:03d}.csv")
            assert len(labels) == 4

    def test_resume_skips_completed_stages(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(out)]) == 0
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(out),
                     "--resume"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["sample"].get("resumed") is True
        assert manifest["stages"]["diagram"].get("resumed") is True


class TestTemplateSystemFile:
    def write_system(self, tmp_path):
        system = TemplateSystem(StepKernel.from_half_widths(0.1, 0.1),
                                template_grid(Rectangle(0.0, 1.2, 0.0, 0.8), 0.4))
        path = tmp_path / "system.json"
        io.write_template_system_json(path, system)
        return path, system

    def test_file_with_two_degrees_is_a_config_error(self, tmp_path, capsys):
        path, _ = self.write_system(tmp_path)
        cfgp = write_tiny_config(tmp_path, homology_degrees=[0, 1],
                                 template_system_file=str(path))
        assert main(["sample", "--config", str(cfgp), "--out", str(tmp_path / "c")]) == 2
        assert_one_line_error(capsys, "config error:")

    def test_file_is_read_once_and_used(self, tmp_path, capsys, monkeypatch):
        path, system = self.write_system(tmp_path)
        cfgp = write_tiny_config(tmp_path, template_system_file=str(path))
        clouds, diagrams = tmp_path / "clouds", tmp_path / "diagrams"
        assert main(["sample", "--config", str(cfgp), "--out", str(clouds)]) == 0
        assert main(["diagram", "--config", str(cfgp), "--in", str(clouds),
                     "--out", str(diagrams)]) == 0
        reads = []
        read = io.read_template_system_json
        monkeypatch.setattr(experiment.io, "read_template_system_json",
                            lambda p: reads.append(p) or read(p))
        features = tmp_path / "features.csv"
        assert main(["featurize", "--config", str(cfgp), "--diagrams", str(diagrams),
                     "--samples-per-object", "2", "--out", str(features)]) == 0
        assert reads == [str(path)]
        _, _, ids = io.read_feature_csv(features)
        assert len(ids) == len(system) == 6
        assert read(tmp_path / "templates_h0.json") == system


class TestFlags:
    # each flag a subcommand does not read, after that subcommand's required arguments
    IGNORED = [
        (["sample"], ["--jobs", "2"]), (["sample"], ["--resume"]),
        (["diagram", "--in", "c"], ["--resume"]),
        (["diagram", "--in", "c"], ["--seed", "1"]),
        (["featurize", "--diagrams", "d", "--samples-per-object", "1"], ["--jobs", "2"]),
        (["featurize", "--diagrams", "d", "--samples-per-object", "1"], ["--seed", "1"]),
        (["featurize", "--diagrams", "d", "--samples-per-object", "1"], ["--resume"]),
        (["train", "--features", "f"], ["--jobs", "2"]),
        (["train", "--features", "f"], ["--resume"]),
        *[(["evaluate", "--model", "m", "--features", "f"], flag)
          for flag in (["--config", "c"], ["--seed", "1"], ["--jobs", "2"], ["--resume"])],
        *[(["diagnose", "--measures", "d"], flag)
          for flag in (["--config", "c"], ["--seed", "1"], ["--jobs", "2"], ["--resume"])],
        *[(["distance", "a.json", "b.json"], flag)
          for flag in (["--config", "c"], ["--seed", "1"], ["--out", "x"], ["--jobs", "2"],
                       ["--resume"])],
    ]

    @pytest.mark.parametrize("command,flag", IGNORED,
                             ids=[f"{c[0]} {f[0]}" for c, f in IGNORED])
    def test_unread_flag_is_rejected(self, command, flag, capsys):
        build_parser().parse_args(command)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_distance_out_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write_measure_json(a, PersistenceMeasure([((0, 1), 1.0)]))
        with pytest.raises(SystemExit) as exc:
            main(["distance", str(a), str(a), "--out", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_unknown_config_field_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not_a_field": 1}')
        assert main(["sample", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["sample", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_out_is_config_error(self, tmp_path):
        cfgp = write_tiny_config(tmp_path)
        assert main(["sample", "--config", str(cfgp)]) == 2

    def test_malformed_measure_is_data_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"atoms": "nope"}')
        assert main(["distance", str(p), str(p)]) == 3

    @pytest.mark.parametrize("config", [
        {"shapes": 3},
        {"samples_per_object": 5},
        {"shapes": [{"kind": "torus", "instances": "x"}]},
        {"kernel_rectangle": [1, 2]},
        {"max_radius": 0},
        {"max_radius": -1.5},
        {"max_radius": float("nan")},
        *({"shapes": [{"kind": "circle", "label": label}]}
          for label in ("a/b", "a\\b", "a,b", "a\rb", "a\nb", "", " a", "a\x00b")),
        {"shapes": [{"kind": "circle", "radius": -1}]},
        {"shapes": [{"kind": "annulus", "inner_radius": 3, "outer_radius": 1}]},
        {"homology_degrees": [0, 0]},
        {"samples_per_object": [2, 2]},
    ], ids=["shapes-number", "samples-number", "instances-string", "kernel-two-values",
            "max-radius-zero", "max-radius-negative", "max-radius-nan",
            "label-slash", "label-backslash", "label-comma", "label-cr", "label-newline",
            "label-empty", "label-whitespace", "label-nul",
            "radius-negative", "annulus-inner-above-outer",
            "degrees-repeated", "samples-repeated"])
    def test_wrongly_typed_config_field_is_config_error(self, tmp_path, capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["sample", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys, "config error:")
        assert not (tmp_path / "o").exists()

    def test_measure_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        family = tmp_path / "family"
        family.mkdir()
        write_measure_json(family / "ok.json", PersistenceMeasure([((0, 1), 1.0)]))
        (family / "m.json").write_text("[1, 2]")
        assert main(["distance", str(family / "ok.json"), str(family / "m.json")]) == 3
        assert_one_line_error(capsys, "data error:")
        assert main(["diagnose", "--measures", str(family)]) == 3
        assert_one_line_error(capsys, "data error:")

    @pytest.mark.parametrize("shapes", [
        [{"kind": "circle", "instances": 2}],
        [{"kind": "circle", "instances": 1}, {"kind": "annulus", "instances": 1}],
    ], ids=["one-class", "one-instance-per-class"])
    def test_run_too_small_to_train_is_data_error(self, tmp_path, capsys, shapes):
        cfgp = write_tiny_config(tmp_path, shapes=shapes)
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(tmp_path / "r")]) == 3
        assert_one_line_error(capsys, "data error:")

    def test_non_finite_cloud_coordinate_is_data_error(self, tmp_path, capsys):
        clouds = tmp_path / "clouds"
        clouds.mkdir()
        (clouds / "circle__0000__0000.csv").write_text("0.0,1.0\nnan,0\n")
        assert main(["diagram", "--config", str(write_tiny_config(tmp_path)),
                     "--in", str(clouds), "--out", str(tmp_path / "d")]) == 3
        assert_one_line_error(capsys, "data error:")


class TestConvergenceWarning:
    def test_run_experiment_warns_once_per_unconverged_model(self, tmp_path, capsys):
        cfgp = write_tiny_config(tmp_path, train_max_iters=1)
        out = tmp_path / "run"
        assert main(["run-experiment", "--config", str(cfgp), "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for m, line in zip((1, 2), lines):
            metrics = json.loads((out / f"metrics_m{m:03d}.json").read_text())
            assert metrics["converged"] is False
            assert line == (f"warning: {out / f'model_m{m:03d}.json'} did not converge "
                            f"(gradient norm {metrics['final_grad_norm']:.3g} >= tol 1e-06)")

    def test_train_warns_only_when_unconverged(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["run-experiment", "--config", str(write_tiny_config(tmp_path)),
                     "--out", str(run)]) == 0
        features = str(run / "features_m002.csv")
        capsys.readouterr()
        for iters, converged in ((1, False), (500, True)):
            cfgp = write_tiny_config(tmp_path, train_max_iters=iters, l2=1.0)
            model_dir = tmp_path / f"model{iters}"
            assert main(["train", "--config", str(cfgp), "--features", features,
                         "--out", str(model_dir)]) == 0
            assert json.loads((model_dir / "metrics.json").read_text())["converged"] is converged
            lines = capsys.readouterr().err.splitlines()
            if converged:
                assert lines == []
            else:
                assert len(lines) == 1
                assert lines[0].startswith(f"warning: {model_dir / 'model.json'} did not converge")
