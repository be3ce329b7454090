"""Command-line interface.

Subcommands: sample, diagram, featurize, train, evaluate, distance,
diagnose, run-experiment. Each subcommand accepts only the shared flags it
reads: sample, train and run-experiment take --config, --seed and --out,
diagram and featurize take --config and --out (their stages draw nothing at
random), diagram also takes --jobs, run-experiment also takes --jobs and
--resume, evaluate and diagnose take only --out, and distance takes none.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import io
from .compactness import build_report
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DataError, NumericalError
from .experiment import (
    evaluate_model,
    dataset_from_features,
    run_experiment,
    stage_diagrams,
    stage_featurize,
    stage_sample,
    stage_train,
)
from .measure import DIAGONAL, MetricConfig
from .transport import ot_infinity
from ._version import __version__


_SHARED_FLAGS = {
    "config": dict(type=Path, default=None, help="experiment config JSON"),
    "seed": dict(type=int, default=None, help="override the master seed"),
    "out": dict(type=Path, default=None, help="output file or directory"),
    "jobs": dict(type=int, default=1, help="parallel workers within a stage"),
    "resume": dict(action="store_true", help="skip completed stages"),
}
# Range checks of numeric options, by option name. They run after parsing, so
# that a bad value ends as a one-line config error (exit 2) rather than
# argparse's usage text.
_OPTION_RANGES = {
    "jobs": (lambda v: v >= 1, "at least 1"),
    "eps": (lambda v: v > 0, "positive"),
    "bands": (lambda v: v >= 0, "at least 0"),
}
_SEEDED_FLAGS = ("config", "seed", "out")
_UNSEEDED_FLAGS = ("config", "out")


def _add_shared_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _check_option_ranges(args) -> None:
    for name, (ok, wanted) in _OPTION_RANGES.items():
        value = getattr(args, name, None)
        values = value if isinstance(value, list) else [value]
        if value is not None and not all(ok(v) for v in values):
            raise ConfigError(f"--{name} must be {wanted}, got {value}")


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _require_out(args, what="directory") -> Path:
    if args.out is None:
        raise ConfigError(f"--out {what} is required for this subcommand")
    return args.out


def cmd_sample(args) -> int:
    cfg = _load_experiment_config(args)
    outputs = stage_sample(cfg, _require_out(args))
    print(f"wrote {len(outputs)} point clouds to {args.out}")
    return 0


def cmd_diagram(args) -> int:
    cfg = _load_experiment_config(args)
    in_dir = args.in_dir
    if not in_dir.is_dir():
        raise DataError(f"{in_dir} is not a directory")
    outputs = stage_diagrams(in_dir, cfg, _require_out(args), jobs=args.jobs)
    if not outputs:
        print(f"warning: no point clouds found in {in_dir}", file=sys.stderr)
    print(f"wrote {len(outputs)} diagrams to {args.out}")
    return 0


def cmd_featurize(args) -> int:
    cfg = _load_experiment_config(args)
    out_csv = _require_out(args, what="feature CSV path")
    system_dir = args.system_dir if args.system_dir else out_csv.parent
    stage_featurize(args.diagrams, cfg, args.samples_per_object, out_csv, system_dir)
    print(f"wrote features to {out_csv}")
    return 0


def _warn_unconverged(model: Path, metrics: dict, cfg: ExperimentConfig) -> None:
    if not metrics["converged"]:
        print(f"warning: {model} did not converge (gradient norm "
              f"{metrics['final_grad_norm']:.3g} >= tol {cfg.train_tol:g})", file=sys.stderr)


def cmd_train(args) -> int:
    cfg = _load_experiment_config(args)
    out_dir = _require_out(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = stage_train(args.features, cfg, out_dir / "model.json",
                          out_dir / "metrics.json")
    _warn_unconverged(out_dir / "model.json", metrics, cfg)
    print(json.dumps({"train_accuracy": metrics["train"]["accuracy"],
                      "test_accuracy": metrics["test"]["accuracy"]}, indent=1))
    return 0


def cmd_evaluate(args) -> int:
    model = io.read_model_json(args.model)
    matrix, labels, _ = io.read_feature_csv(args.features)
    ds = dataset_from_features(matrix, labels)
    if tuple(ds.label_names) != tuple(model.label_names):
        raise DataError(f"feature labels {ds.label_names} do not match "
                        f"model labels {model.label_names}")
    metrics = evaluate_model(model, ds)
    text = json.dumps(metrics, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


def cmd_distance(args) -> int:
    cfg = None
    if args.q is not None:
        try:
            cfg = MetricConfig(math.inf if args.q == "inf" else float(args.q))
        except ValueError as exc:
            raise ConfigError(f"--q {args.q}: {exc}") from None
    mu, cfg_a = io.read_measure_json(args.measure_a)
    nu, cfg_b = io.read_measure_json(args.measure_b)
    if cfg is None:
        if cfg_a.q != cfg_b.q:
            raise DataError(f"measure files disagree on q ({cfg_a.q} vs {cfg_b.q}); "
                            "pass --q explicitly")
        cfg = cfg_a
    result = ot_infinity(mu, nu, cfg)
    print(json.dumps({"ot_infinity": result.distance}))
    if args.coupling:
        pairs = [{"source": "diagonal" if p.source is DIAGONAL else int(p.source),
                  "target": "diagonal" if p.target is DIAGONAL else int(p.target),
                  "mass": p.mass} for p in result.coupling.pairs]
        io.write_json(args.coupling, {"ot_infinity": result.distance, "pairs": pairs,
                                      "thresholds_tested": result.thresholds_tested,
                                      "solver": result.solver})
    return 0


def cmd_diagnose(args) -> int:
    try:
        thresholds = json.loads(args.thresholds) if args.thresholds else None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--thresholds is not valid JSON: {exc}") from None
    if thresholds is not None and not isinstance(thresholds, dict):
        raise ConfigError("--thresholds must be a JSON object")
    measure_dir = args.measures
    files = sorted(measure_dir.glob("*.json"))
    if not files:
        raise DataError(f"no measure JSON files in {measure_dir}")
    family, cfgs = [], []
    for f in files:
        mu, cfg = io.read_measure_json(f)
        family.append(mu)
        cfgs.append(cfg)
    if len({c.q for c in cfgs}) > 1:
        raise DataError("measure files disagree on q")
    report = build_report(family, eps_list=args.eps, n_list=args.bands,
                          cfg=cfgs[0], thresholds=thresholds)
    text = json.dumps(report.to_jsonable(), indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


def cmd_run_experiment(args) -> int:
    cfg = _load_experiment_config(args)
    run_experiment(cfg, _require_out(args), jobs=args.jobs, resume=args.resume)
    for m in cfg.samples_per_object:
        metrics = json.loads((args.out / f"metrics_m{m:03d}.json").read_text())
        _warn_unconverged(args.out / f"model_m{m:03d}.json", metrics, cfg)
    table = (args.out / "accuracy_table.txt").read_text()
    print(table, end="")
    print(f"manifest: {args.out / 'manifest.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="empers",
        description="Expected persistence measures: sampling, persistence, "
                    "transport distances, features, and classification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample point clouds from configured shapes")
    _add_shared_flags(p, *_SEEDED_FLAGS)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("diagram", help="Vietoris-Rips diagrams for a directory of clouds")
    _add_shared_flags(p, *_UNSEEDED_FLAGS, "jobs")
    p.add_argument("--in", dest="in_dir", type=Path, required=True)
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("featurize", help="template features of grouped diagrams")
    _add_shared_flags(p, *_UNSEEDED_FLAGS)
    p.add_argument("--diagrams", type=Path, required=True)
    p.add_argument("--samples-per-object", type=int, required=True,
                   help="how many repeats per instance enter the estimate")
    p.add_argument("--system-dir", type=Path, default=None,
                   help="where to save the frozen template systems")
    p.set_defaults(fn=cmd_featurize)

    p = sub.add_parser("train", help="split features, train, and report metrics")
    _add_shared_flags(p, *_SEEDED_FLAGS)
    p.add_argument("--features", type=Path, required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a feature file")
    _add_shared_flags(p, "out")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("distance", help="partial transport distance of two measures")
    p.add_argument("measure_a", type=Path)
    p.add_argument("measure_b", type=Path)
    p.add_argument("--q", default=None, help="norm exponent (number or 'inf')")
    p.add_argument("--coupling", type=Path, default=None,
                   help="write an optimal coupling JSON here (one of possibly "
                        "several; the distance does not depend on the choice)")
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("diagnose", help="compactness diagnostics over a measure family")
    _add_shared_flags(p, "out")
    p.add_argument("--measures", type=Path, required=True)
    p.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.5, 1.0])
    p.add_argument("--bands", type=int, nargs="+", default=[1, 5, 10],
                   help="birth-band half-widths N")
    p.add_argument("--thresholds", type=str, default=None,
                   help='JSON like {"diameter": 2, "uodf": 10, "odut": 1}')
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("run-experiment", help="full sample-to-accuracy pipeline")
    _add_shared_flags(p, *_SEEDED_FLAGS, "jobs", "resume")
    p.set_defaults(fn=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_option_ranges(args)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
