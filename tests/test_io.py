import math

import numpy as np
import pytest

from empers import io
from empers.errors import DataError
from empers.features import StepKernel, TemplateFunction, TemplateSystem
from empers.learn import Dataset, PolynomialMap, TrainConfig, train_logistic
from empers.measure import MetricConfig, PersistenceDiagram, PersistenceMeasure, Rectangle
from empers.persistence import GrayImage


class TestDiagramCsv:
    def test_round_trip(self, tmp_path):
        d = PersistenceDiagram([(0.1, 0.30000000000000004), (2, 5)])
        path = tmp_path / "d.csv"
        io.write_diagram_csv(path, d)
        assert io.read_diagram_csv(path) == d

    def test_empty_diagram(self, tmp_path):
        path = tmp_path / "d.csv"
        io.write_diagram_csv(path, PersistenceDiagram())
        assert len(io.read_diagram_csv(path)) == 0

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.0,1.0\n")
        with pytest.raises(DataError):
            io.read_diagram_csv(p)

    def test_bad_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("birth,death\n0.0,banana\n")
        with pytest.raises(DataError):
            io.read_diagram_csv(p)


class TestMeasureJson:
    def test_round_trip_with_infinite_q(self, tmp_path):
        mu = PersistenceMeasure([((0, 1), 0.25), ((1, 3), 2.0)])
        path = tmp_path / "m.json"
        io.write_measure_json(path, mu, MetricConfig())
        back, cfg = io.read_measure_json(path)
        assert math.isinf(cfg.q)
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.masses, mu.masses)

    def test_finite_q_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        io.write_measure_json(path, PersistenceMeasure(), MetricConfig(2.0))
        _, cfg = io.read_measure_json(path)
        assert cfg.q == 2.0

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"atoms": [{"birth": 1.0}]}')
        with pytest.raises(DataError):
            io.read_measure_json(p)


class TestMatrixAndCloudCsv:
    def test_point_cloud_round_trip(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(5, 3))
        path = tmp_path / "pc.csv"
        io.write_point_cloud_csv(path, pts)
        assert np.array_equal(io.read_point_cloud_csv(path), pts)


class TestPgm:
    def test_ascii_round_trip(self, tmp_path):
        img = GrayImage(np.arange(12, dtype=float).reshape(3, 4))
        path = tmp_path / "img.pgm"
        io.write_pgm(path, img, maxval=255)
        back = io.read_pgm(path)
        assert np.array_equal(back.values, img.values)

    def test_ascii_with_comment(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_text("P2\n# a comment\n2 2\n255\n0 10\n20 30\n")
        img = io.read_pgm(p)
        assert img.values.tolist() == [[0, 10], [20, 30]]

    def test_binary_p5(self, tmp_path):
        p = tmp_path / "b.pgm"
        p.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 50, 100, 150, 200, 250]))
        img = io.read_pgm(p)
        assert img.height == 2 and img.width == 3
        assert img.values[1].tolist() == [150, 200, 250]

    def test_binary_16_bit(self, tmp_path):
        p = tmp_path / "b16.pgm"
        p.write_bytes(b"P5\n2 1\n65535\n" + (1000).to_bytes(2, "big")
                      + (65535).to_bytes(2, "big"))
        img = io.read_pgm(p)
        assert img.values.tolist() == [[1000, 65535]]

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 1]))
        with pytest.raises(DataError):
            io.read_pgm(p)


class TestTemplateSystemJson:
    def test_round_trip(self, tmp_path):
        system = TemplateSystem(
            StepKernel.from_half_widths(0.1, 0.2),
            (TemplateFunction(Rectangle(0, 1, 0, 1)),
             TemplateFunction(Rectangle(1, 2, 0, 1))))
        path = tmp_path / "sys.json"
        io.write_template_system_json(path, system)
        back = io.read_template_system_json(path)
        assert back.kernel.support == system.kernel.support
        assert [t.support for t in back.templates] == [t.support for t in system.templates]
        assert back.frame == "birth-persistence"


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        m = np.array([[1.0, 0.5], [0.25, 0.0]])
        path = tmp_path / "f.csv"
        io.write_feature_csv(path, m, ["circle", "torus"], ["t0", "t1"])
        back, labels, ids = io.read_feature_csv(path)
        assert np.array_equal(back, m)
        assert labels == ["circle", "torus"] and ids == ["t0", "t1"]

    def test_label_column_required(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("t0,t1\n1.0,2.0\n")
        with pytest.raises(DataError):
            io.read_feature_csv(p)


class TestModelJson:
    def test_round_trip_preserves_predictions(self, tmp_path):
        from empers.learn import predict
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(20, 2)), np.tile([0, 1], 10), ("a", "b"))
        model = train_logistic(ds, PolynomialMap(2, 2), TrainConfig(max_iters=60))
        path = tmp_path / "model.json"
        io.write_model_json(path, model)
        back = io.read_model_json(path)
        l1, p1 = predict(model, ds.X)
        l2, p2 = predict(back, ds.X)
        assert np.array_equal(l1, l2)
        assert np.allclose(p1, p2, atol=0)
        assert back.label_names == ("a", "b")
