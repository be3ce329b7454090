import json
import runpy
import sys
from pathlib import Path

import numpy as np

from empers.config import derive_seed
from empers.experiment import image_h0_features
from empers.features import StepKernel, feature_vector
from empers.measure import PersistenceDiagram
from empers.samplers import sample_patches, synthetic_texture
from oracles import image_h0_naive_unionfind

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_texture_experiment.py"
TINY = {"images_per_class": 4, "image_size": 24, "patch_size": 8, "patches": 4}


def test_script_writes_metrics(tmp_path, monkeypatch, capsys):
    out = tmp_path / "texture"
    monkeypatch.setattr(sys, "argv", [
        str(SCRIPT), "--out", str(out),
        "--images-per-class", str(TINY["images_per_class"]),
        "--image-size", str(TINY["image_size"]),
        "--patch-size", str(TINY["patch_size"]),
        "--patches-per-image", str(TINY["patches"])])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"train", "test"}
    for split in metrics.values():
        assert set(split) == {"accuracy", "confusion_matrix", "class_labels", "n_instances"}
        assert 0.0 <= split["accuracy"] <= 1.0
        assert split["class_labels"] == ["gradient", "salt_pepper"]
    assert metrics["train"]["n_instances"] + metrics["test"]["n_instances"] == 8


def test_feature_row_matches_oracle_diagrams():
    seed = 0
    images = [synthetic_texture(kind, TINY["image_size"], derive_seed(seed, kind, i))
              for kind in ("gradient", "salt_pepper") for i in range(TINY["images_per_class"])]
    patch_seed = derive_seed(seed, "patches")
    matrix, system = image_h0_features(images, TINY["patch_size"], TINY["patches"],
                                       StepKernel.from_half_widths(10.0, 10.0), 64.0,
                                       seed=patch_seed)
    assert matrix.shape == (len(images), len(system))
    idx = 5  # a salt-and-pepper image: many short-lived components
    patches = sample_patches(images[idx], TINY["patch_size"], TINY["patches"],
                             derive_seed(patch_seed, "patches", idx))
    diagrams = [PersistenceDiagram(image_h0_naive_unionfind(p.values)) for p in patches]
    assert np.array_equal(matrix[idx], feature_vector(diagrams, system).values)
