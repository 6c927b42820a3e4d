"""Command-line pipeline: gen -> train/finetune -> eval, plus gradcheck and
one-shot replication of both case studies.  Every command writes a JSON run
manifest next to its primary artifact."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, profiles
from .datafile import DatasetFileError, read_dataset, write_dataset
from .evaluation import evaluate, render_report, reports_to_csv
from .fileio import write_atomic
from .gradcheck import find_check_point, grad_check
from .layers import ShapeError
from .models import (
    CheckpointError,
    CnnSpec,
    FingerprintMismatchError,
    MlpSpec,
    SpecError,
    build_model,
    fingerprint,
    load_checkpoint,
    restore_for_transfer,
    save_checkpoint,
    spec_from_dict,
)
from .training import DivergenceError, TrainConfig, train
from .waveforms import ConfigError, GenConfig, build_dataset, split

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_FINGERPRINT = 5

GRADCHECK_TOLERANCE = 1e-4
MAX_JSON_BYTES = 1 << 20  # the largest config or spec file read


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_manifest(out_path: Path, command: str, config_snapshot: dict, seeds: dict,
                    artifacts: dict) -> None:
    manifest = {
        "command": command,
        "config": config_snapshot,
        "seeds": seeds,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "tool_version": __version__,
    }
    path = Path(str(out_path) + ".manifest.json")
    write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_json_text(path, what: str) -> str:
    """A config or spec file's UTF-8 text.  Only MAX_JSON_BYTES + 1 bytes are
    read: a larger file, or one without end, exits 2."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_JSON_BYTES + 1)
        if len(data) <= MAX_JSON_BYTES:
            return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what}: {exc}", EXIT_CONFIG) from exc
    raise CliError(f"cannot read {what}: {path} is larger than {MAX_JSON_BYTES} bytes", EXIT_CONFIG)


def _load_gen_config(args) -> GenConfig:
    """The profile or config file, with --seed and --count applied before a
    config file is checked, so that they can replace its invalid values."""
    overrides = {key: value for key, value in (("seed", args.seed), ("count", args.count))
                 if value is not None}
    if args.profile:
        return dataclasses.replace(profiles.GEN_PROFILES[args.profile], **overrides)
    return GenConfig.from_json(_read_json_text(args.config, "config"), overrides)


def _model_spec(name: str):
    if name == "cnn":
        return profiles.CNN_SPEC
    if name == "mlp":
        return profiles.MLP_SPEC
    text = _read_json_text(name, "model spec")
    try:
        return spec_from_dict(json.loads(text))
    # RecursionError: JSON nested deeper than the decoder recurses
    except (json.JSONDecodeError, RecursionError, SpecError, KeyError) as exc:
        raise CliError(f"cannot load model spec {name!r}: {exc}", EXIT_CONFIG) from exc


def _train_config(args, base: TrainConfig) -> TrainConfig:
    flags = {"epochs": args.epochs, "learning_rate": args.lr, "batch_size": args.batch,
             "seed": args.seed}
    overrides = {key: value for key, value in flags.items() if value is not None}
    try:
        return dataclasses.replace(base, **overrides)
    except ValueError as exc:
        raise CliError(f"bad training config: {exc}", EXIT_CONFIG) from exc


def cmd_gen(args) -> int:
    cfg = _load_gen_config(args)
    dataset = build_dataset(cfg)  # validates cfg before it allocates or writes anything
    out = Path(args.out)
    write_dataset(dataset, out)
    _write_manifest(out, "gen", cfg.to_dict(), {"master_seed": cfg.seed},
                    {"dataset": out, "dataset_sha256": _sha256(out)})
    print(f"wrote {len(dataset)} windows to {out}")
    return EXIT_OK


def _curves_path(args) -> Path:
    return Path(args.curves) if args.curves else Path(args.out).with_suffix(".curves.csv")


def _paths(args) -> tuple[list, list]:
    """(outputs, inputs) of a command, each a list of (flag, path)."""
    out = getattr(args, "out", None)
    outputs = [] if out is None else [("--out", out), ("the manifest", f"{out}.manifest.json")]
    # the default curves path needs a name; _check_paths refuses an --out without one
    if out and Path(out).name and args.cmd in ("train", "finetune"):
        outputs.append(("--curves", _curves_path(args)))
    ckpts = getattr(args, "ckpt", None)
    inputs = [("--data", getattr(args, "data", None)), ("--config", getattr(args, "config", None)),
              *(("--ckpt", c) for c in (ckpts if isinstance(ckpts, list) else [ckpts]))]
    if getattr(args, "model", "cnn") not in ("cnn", "mlp"):
        inputs.append(("--model", args.model))
    return outputs, inputs


def _check_paths(outputs: list, inputs: list, made: Path | None = None) -> None:
    """Exit 2 when an output names no file or a directory, or its directory is
    missing or not a directory (made, which the command makes first, may be
    new), or when two outputs, or an output and an input, are one path: one of
    the two files would be lost."""
    claimed: dict = {}  # resolved path -> the output that writes it
    for is_output, named in ((True, outputs), (False, inputs)):
        for name, path in named:
            if is_output and not Path(path).name:  # '', '.', '/': nowhere to write
                raise CliError(f"{name} {str(path)!r} names no file", EXIT_CONFIG)
            if is_output and os.path.isdir(path):
                raise CliError(f"{name} {path} is a directory", EXIT_CONFIG)
            if is_output and Path(path).parent != made and not Path(path).parent.is_dir():
                raise CliError(f"{name} {path}: {Path(path).parent} is not a directory",
                               EXIT_CONFIG)
            key = os.path.realpath(path) if path else None
            if key in claimed:
                raise CliError(f"{claimed[key]} and {name} {path} are the same file", EXIT_CONFIG)
            if is_output:
                claimed[key] = f"{name} {path}"


def _save_run(args, run, dataset, config, metadata: dict, snapshot: dict, seeds: dict,
              artifacts: dict) -> Path:
    """Write a trained model's checkpoint, loss curves and manifest; the dicts
    hold the fields the command adds to the shared ones."""
    out = Path(args.out)
    last = run.records[-1] if run.records else None
    save_checkpoint(run.model, {
        "epochs_trained": len(run.records),
        "final_train_loss": last.train_loss if last else None,
        "final_val_loss": last.val_loss if last else None,
        "dataset_seed": dataset.master_seed,
        **metadata}, out)
    curves = _curves_path(args)
    run.to_csv(curves)
    _write_manifest(
        out, args.cmd,
        {"train": dataclasses.asdict(config), "train_fraction": args.train_fraction,
         "split_seed": args.split_seed, **snapshot},
        {"train_seed": config.seed, "split_seed": args.split_seed, **seeds},
        {"checkpoint": out, "checkpoint_sha256": _sha256(out), "curves": curves, **artifacts},
    )
    return out


def cmd_train(args) -> int:
    dataset = read_dataset(args.data)
    spec = _model_spec(args.model)
    base = profiles.CASE1_CNN_TRAIN if isinstance(spec, CnnSpec) else profiles.CASE1_MLP_TRAIN
    config = _train_config(args, base)
    train_set, _ = split(dataset, args.train_fraction, args.split_seed)
    run = train(build_model(spec, args.init_seed), train_set, config)
    out = _save_run(args, run, dataset, config, {"init_seed": args.init_seed},
                    {"model": spec.to_dict()}, {"init_seed": args.init_seed}, {})
    val_loss = f"{run.records[-1].val_loss:.4f}" if run.records else "n/a"
    print(f"trained {len(run.records)} epochs; final val loss {val_loss}; checkpoint {out}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    dataset = read_dataset(args.data)
    base = profiles.CASE2_SCRATCH if args.scratch else profiles.CASE2_FINETUNE
    config = _train_config(args, base)
    train_set, _ = split(dataset, args.train_fraction, args.split_seed)
    ckpt = load_checkpoint(args.ckpt)
    if args.scratch:
        model = build_model(ckpt.spec, args.init_seed)
    else:
        model = restore_for_transfer(ckpt, ckpt.spec)
    run = train(model, train_set, config)
    metadata = {
        "init_seed": args.init_seed if args.scratch else ckpt.metadata.get("init_seed", 0),
        "warm_start": not args.scratch,
    }
    out = _save_run(args, run, dataset, config, metadata, {"scratch": args.scratch}, {},
                    {"source_checkpoint": args.ckpt})
    mode = "scratch" if args.scratch else "fine-tune"
    conv = run.convergence_epoch
    print(f"{mode}: {len(run.records)} epochs, convergence epoch {conv}, checkpoint {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:  # NaN fails both comparisons
        raise CliError(f"--threshold must be a number in [0, 1], got {args.threshold}",
                       EXIT_CONFIG)
    dataset = read_dataset(args.data)
    if args.holdout:
        _, dataset = split(dataset, args.train_fraction, args.split_seed)
    if len(dataset) == 0:
        raise CliError("evaluation dataset is empty", EXIT_USAGE)
    reports = []
    for ckpt_path in args.ckpt:
        ckpt = load_checkpoint(ckpt_path)
        model = restore_for_transfer(ckpt, ckpt.spec)
        reports.append(evaluate(model, dataset, args.threshold, Path(ckpt_path).stem))
    table = render_report(*reports)
    print(table, end="")
    if args.out:
        out = Path(args.out)
        reports_to_csv(reports, out)
        _write_manifest(out, "eval",
                        {"threshold": args.threshold, "holdout": args.holdout,
                         "train_fraction": args.train_fraction, "split_seed": args.split_seed},
                        {"split_seed": args.split_seed},
                        {"report": out, "table": table})
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    spec = _model_spec(args.model)
    model = build_model(spec, args.seed)
    start = time.perf_counter()
    x, y = find_check_point(model, seed=args.seed)
    err = grad_check(model, x, y)
    status = "PASS" if err < GRADCHECK_TOLERANCE else "FAIL"
    seconds = time.perf_counter() - start
    print(f"gradcheck {args.model}: max relative error {err:.3e} [{status}] "
          f"({model.parameter_count()} parameters probed in {seconds:.2f} s)")
    return EXIT_OK if err < GRADCHECK_TOLERANCE else EXIT_USAGE


def cmd_replicate(args) -> int:
    outdir = Path(args.outdir)
    seed = [] if args.seed is None else ["--seed", args.seed]
    if args.case == "case1":
        data = outdir / "case1.dataset"
        split = ["--train-fraction", profiles.CASE1_TRAIN_FRACTION,
                 "--split-seed", profiles.SPLIT_SEED]
        train_argv = ["train", "--data", data, "--init-seed", 1, *split]
        steps = [["gen", "--profile", "case1", "--out", data, *seed],
                 [*train_argv, "--model", "cnn", "--out", outdir / "cnn.ckpt"],
                 [*train_argv, "--model", "mlp", "--out", outdir / "mlp.ckpt"],
                 ["eval", "--ckpt", outdir / "cnn.ckpt", outdir / "mlp.ckpt", "--data", data,
                  "--holdout", *split, "--threshold", 0.5, "--out", outdir / "case1_report.csv"]]
    elif not args.source_ckpt:
        raise CliError("replicate case2 needs --source-ckpt (the trained case1 CNN)", EXIT_USAGE)
    else:
        data = outdir / "case2.dataset"
        split = ["--train-fraction", profiles.CASE2_TRAIN_FRACTION,
                 "--split-seed", profiles.SPLIT_SEED]
        finetune_argv = ["finetune", "--ckpt", args.source_ckpt, "--data", data,
                         "--init-seed", 2, *split]
        steps = [["gen", "--profile", "case2", "--out", data, *seed],
                 [*finetune_argv, "--out", outdir / "transfer.ckpt"],
                 [*finetune_argv, "--scratch", "--out", outdir / "scratch.ckpt"],
                 ["eval", "--ckpt", outdir / "scratch.ckpt", outdir / "transfer.ckpt", "--data",
                  data, "--holdout", *split, "--threshold", 0.5,
                  "--out", outdir / "case2_report.csv"]]
    subs = [build_parser().parse_args([str(a) for a in argv]) for argv in steps]
    # outdir may be new if mkdir can make it: its nearest existing ancestor is a directory
    ancestor = next((p for p in (outdir, *outdir.parents) if os.path.lexists(p)), outdir)
    made = outdir if ancestor.is_dir() else None
    for sub in subs:  # before any step runs: no step may write over the source checkpoint
        outputs, inputs = _paths(sub)
        _check_paths(outputs, [*inputs, ("--source-ckpt", args.source_ckpt)], made=made)
    outdir.mkdir(parents=True, exist_ok=True)
    for sub in subs:
        code = sub.func(sub)
    return code


def _add_shared_flags(p, train_fraction: float, init_seed: int | None = None) -> None:
    """The dataset and split flags of train, finetune and eval, and, given the
    default --init-seed, the output and training flags of the first two."""
    p.add_argument("--data", required=True)
    p.add_argument("--train-fraction", type=float, default=train_fraction)
    p.add_argument("--split-seed", type=int, default=profiles.SPLIT_SEED)
    if init_seed is not None:
        p.add_argument("--out", required=True)
        p.add_argument("--curves")
        for flag, kind in (("--epochs", int), ("--lr", float), ("--batch", int), ("--seed", int)):
            p.add_argument(flag, type=kind)
        p.add_argument("--init-seed", type=int, default=init_seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hifbench",
                                     description="HIF detection workbench: synthetic waveforms, "
                                                 "from-scratch CNN/MLP, transfer learning")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a labeled dataset file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--profile", choices=sorted(profiles.GEN_PROFILES))
    source.add_argument("--config", help="JSON generation config")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on the train side of a dataset split")
    p.add_argument("--model", default="cnn", help="cnn, mlp, or a spec JSON path")
    _add_shared_flags(p, train_fraction=0.8, init_seed=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="fine-tune from a checkpoint (or retrain from scratch)")
    p.add_argument("--ckpt", required=True, help="source checkpoint")
    p.add_argument("--scratch", action="store_true",
                   help="ignore checkpoint weights, random initialization")
    _add_shared_flags(p, train_fraction=0.5, init_seed=2)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate checkpoints on a dataset (or its holdout split)")
    p.add_argument("--ckpt", nargs="+", required=True)
    p.add_argument("--holdout", action="store_true", help="evaluate the test side of the split")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out")
    _add_shared_flags(p, train_fraction=0.8)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all analytic gradients")
    p.add_argument("--model", default="cnn")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("replicate", help="run a full case study end to end")
    p.add_argument("case", choices=["case1", "case2"])
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--source-ckpt", dest="source_ckpt",
                   help="case1 CNN checkpoint (required for case2)")
    p.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code, 2, is EXIT_CONFIG
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        for name in ("seed", "init_seed", "split_seed"):  # gen's range, its file's u64 field
            if not 0 <= (getattr(args, name, None) or 0) < 2**64:
                raise CliError(f"--{name.replace('_', '-')} must lie in [0, 2**64)", EXIT_CONFIG)
        _check_paths(*_paths(args))
        return args.func(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    # ShapeError: windows of another length; SpecError: a network too large to build
    except (ConfigError, ShapeError, SpecError) as exc:
        code, message = EXIT_CONFIG, str(exc)
    except DivergenceError as exc:
        code, message = EXIT_DIVERGENCE, f"training diverged: {exc}"
    except FingerprintMismatchError as exc:  # before CheckpointError, its base
        code, message = EXIT_FINGERPRINT, str(exc)
    # OSError: input or artifact I/O; FloatingPointError: a model whose output is not finite
    except (CheckpointError, DatasetFileError, OSError, FloatingPointError) as exc:
        code, message = EXIT_DATA, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
