#!/usr/bin/env python3
"""Synthetic texture classification: smooth gradients vs salt-and-pepper
noise, featurized through sublevel-set persistence of random patches.

Stand-in for external image databases: the pipeline (patch sampling, image
persistence, kernel density features, polynomial logistic regression) is the
same one used on real textures.
"""
import argparse
from pathlib import Path

from empers import io
from empers.config import ExperimentConfig, derive_seed
from empers.experiment import dataset_from_features, image_h0_features, train_and_evaluate
from empers.features import StepKernel
from empers.samplers import synthetic_texture


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("texture_run"))
    parser.add_argument("--images-per-class", type=int, default=50)
    parser.add_argument("--image-size", type=int, default=64)
    parser.add_argument("--patch-size", type=int, default=16)
    parser.add_argument("--patches-per-image", type=int, default=20)
    parser.add_argument("--kernel-halfwidth", type=float, default=10.0)
    parser.add_argument("--cell-side", type=float, default=64.0)
    parser.add_argument("--degree", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    images, labels = [], []
    for kind in ("gradient", "salt_pepper"):
        for i in range(args.images_per_class):
            images.append(synthetic_texture(kind, args.image_size,
                                            derive_seed(args.seed, kind, i)))
            labels.append(kind)

    kernel = StepKernel.from_half_widths(args.kernel_halfwidth, args.kernel_halfwidth)
    matrix, _ = image_h0_features(images, args.patch_size, args.patches_per_image,
                                  kernel, args.cell_side,
                                  seed=derive_seed(args.seed, "patches"))
    # split ratio, ridge penalty and iteration budget are the config defaults
    _, metrics = train_and_evaluate(dataset_from_features(matrix, labels),
                                    ExperimentConfig(polynomial_degree=args.degree,
                                                     master_seed=args.seed))

    args.out.mkdir(parents=True, exist_ok=True)
    io.write_json(args.out / "metrics.json", metrics)
    print(f"train accuracy: {metrics['train']['accuracy']:.2%}")
    print(f"test accuracy:  {metrics['test']['accuracy']:.2%}")
    print(f"metrics in {args.out / 'metrics.json'}")


if __name__ == "__main__":
    main()
