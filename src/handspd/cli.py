"""Command-line frontend: train / pipeline / extract / svm / eval /
gradcheck / synth.

Settings come from command-line flags only; a flag left out takes the
library's default (``_configure``), and ``pipeline`` and ``extract`` take the
network's from the checkpoint.  Each command reads the data splits it uses
in one ``load_dhg`` call or one cache read (``_load_sequences``): ``train``
the train split, ``extract --split S`` split S, and ``pipeline``, which runs
the ``extract``, ``svm`` and ``eval`` stages, both before it writes a file.
Exit codes: 0 success, 1 runtime numerical failure (``NumericalError``), 2
``InvalidInput`` (a bad setting, or a file that cannot be parsed) or an
``OSError`` on a path (a file, or a ``--data`` root, that cannot be read or
written).  ``main`` prints the error, whose location fields (path, line,
array, layer, finger, range, frame, matrix, eigenvalue) follow it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import sys
from pathlib import Path

import numpy as np

from . import classify, data, gradcheck, network, optim
from .errors import HandSpdError, InvalidInput
from .network import NetworkConfig
from .optim import TrainConfig

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _configure(target, args):
    """``target`` called with the parameters a flag set; its defaults fill the rest."""
    names = inspect.signature(target).parameters
    return target(**{name: value for name, value in vars(args).items() if name in names and value is not None})


def _load_sequences(args, cfg: NetworkConfig, *splits):
    """The sequences of each of ``splits`` ("train", "test"), resampled:
    one ``load_dhg`` call reads only those splits' skeleton files, or
    ``--cache`` is read once, its trials below ``--per-class`` train and the
    rest test.  No asked split may be empty.  A label outside [1, n_classes]
    names the split's file, and a sequence whose joints are not the
    network's hand names the checkpoint, or for ``train`` the data."""
    if bool(args.data) == bool(args.cache):
        raise InvalidInput("exactly one of --data, --cache is required")
    if args.data:
        loaded = data.load_dhg(args.data, *splits)
    else:
        cache = data.load_cache(args.cache)
        loaded = [[s for s in cache if (s.trial < args.per_class) == (split == "train")] for split in splits]
    hand = getattr(args, "checkpoint", None) or args.data or args.cache
    for split, sequences in zip(splits, loaded):
        if not sequences:
            raise InvalidInput(f"--per-class {args.per_class} leaves the {split} split of --cache empty", path=args.cache)
        if bad := [s.label(cfg.n_classes) for s in sequences if not 1 <= s.label(cfg.n_classes) <= cfg.n_classes]:
            where = {"path": args.cache, "array": "meta"} if args.cache else {"path": Path(args.data) / data.SPLIT_FILES[split]}
            raise InvalidInput(f"label {bad[0]} outside [1, {cfg.n_classes}]", **where)
        if bad := [s.frames.shape[1] for s in sequences if s.frames.shape[1] != cfg.n_joints]:
            raise InvalidInput(f"a sequence of {bad[0]} joints for a hand of {cfg.n_joints}", path=hand)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is GestureSequence's non-finite error
            return [[data.resample(s, cfg.n_F) for s in sequences] for sequences in loaded]
    except InvalidInput as exc:
        raise exc.at(path=args.data or args.cache)


def _add_data_flags(sub):
    sub.add_argument("--data", help="DHG/SHREC'17 dataset root directory")
    sub.add_argument("--cache", help="dataset cache (.npz), as written by synth")
    sub.add_argument("--per-class", type=int, default=50,
                     help="trials of --cache below this train, the rest test")


def _add_svm_flags(sub):
    sub.add_argument("--svm-c", type=float, dest="C")
    sub.add_argument("--svm-tol", type=float, dest="tol")
    sub.add_argument("--seed", type=int)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handspd",
        description="SPD-matrix network for skeletal hand-gesture recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the network, write checkpoints + metrics")
    _add_data_flags(p)
    p.add_argument("--classes", type=int, dest="n_classes", help="number of classes (14 or 28 for DHG)")
    p.add_argument("--d1", type=int, help="conv output channels")
    p.add_argument("--levels", type=int, dest="n_T", help="temporal pyramid levels")
    p.add_argument("--length", type=int, dest="n_F", help="normalized sequence length")
    p.add_argument("--eps", type=float, help="eigenvalue rectification threshold")
    p.add_argument("--lambda-reg", type=float, help="temporal covariance ridge")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("pipeline", help="extract features, train SVM, evaluate")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    _add_svm_flags(p)

    p = sub.add_parser("extract", help="extract feature vectors with a checkpoint")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output .npz with features + labels")
    p.add_argument("--split", default="test", choices=["train", "test"])

    p = sub.add_parser("svm", help="train the linear SVM on extracted features")
    p.add_argument("--features", required=True, help=".npz from the extract command")
    p.add_argument("--out", required=True, help="output model file")
    _add_svm_flags(p)

    p = sub.add_parser("eval", help="evaluate an SVM model on extracted features")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--report-dir", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", type=int, dest="n_instances")
    p.add_argument("--layer", action="append", dest="layers",
                   help=f"restrict to one layer (repeatable): {', '.join(gradcheck.LAYERS)}")

    p = sub.add_parser("synth", help="generate a synthetic dataset cache")
    p.add_argument("--classes", type=int, default=4, dest="n_classes")
    p.add_argument("--per-class", type=int, default=75, dest="n_per_class")
    p.add_argument("--noise", type=float, dest="noise_sigma")
    p.add_argument("--seed", type=int)
    p.add_argument("--length", type=int, default=NetworkConfig.n_F)
    p.add_argument("--out", required=True)
    return parser


# The arrays of an ``extract`` file (``data.read_npz``).
FEATURES_LAYOUT = {"features": ((None, None), "f"), "labels": ((None,), "i"), "n_classes": ((1,), "i")}


def _extract(path, sequences, params, cfg):
    """Write the features, labels and class count of ``sequences`` to ``path``."""
    features = network.extract_features(sequences, params, cfg)
    labels = np.array([s.label(cfg.n_classes) for s in sequences], dtype=np.int64)
    data.write_npz(path, features=features, labels=labels, n_classes=np.array([cfg.n_classes]))
    print(f"wrote {features.shape[0]} features of dim {features.shape[1]} to {path}")


def _read_features(path):
    """Features, labels and class count of an ``extract`` file."""
    arrays = data.read_npz(path, FEATURES_LAYOUT)
    features, labels, n_classes = arrays["features"], arrays["labels"], int(arrays["n_classes"][0])
    if labels.shape[0] != features.shape[0]:
        raise InvalidInput(f"{labels.shape[0]} labels for {features.shape[0]} feature rows", path=path, array="labels")
    if not 2 <= n_classes <= network.MAX_CLASSES:
        raise InvalidInput(f"n_classes {n_classes} outside [2, {network.MAX_CLASSES}]", path=path, array="n_classes")
    return features, labels, n_classes


def _warn_unconverged(model: classify.SvmModel):
    missed = model.unconverged_classes()
    if missed:
        listed = ", ".join(f"{cls} ({model.passes[cls - 1]} passes)" for cls in missed)
        noun = "class" if len(missed) == 1 else "classes"
        print(f"warning: the SVM solver did not converge for {noun} {listed}", file=sys.stderr)


def _fit(features_path, model_path, svm: classify.SvmConfig) -> classify.SvmModel:
    """Fit the SVM of settings ``svm`` on an ``extract`` file and save it to ``model_path``."""
    features, labels, n_classes = _read_features(features_path)
    try:
        model = classify.svm_train(features, labels, **dataclasses.asdict(svm), n_classes=n_classes)
    except InvalidInput as exc:
        raise exc.at(path=features_path)
    _warn_unconverged(model)
    classify.save_model(model_path, model)
    print(f"SVM model written to {model_path}")
    return model


def _evaluate(model: classify.SvmModel, features_path, out_dir: Path) -> classify.EvalReport:
    """Score ``model`` on an ``extract`` file: confusion.csv and report.csv
    (the accuracy) in out_dir, plus the per-class table on stdout."""
    features, labels, _ = _read_features(features_path)
    try:
        report = classify.evaluate(model, features, labels)
    except InvalidInput as exc:
        raise exc.at(path=features_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = classify.class_names(model.n_classes)
    classify.confusion_csv(out_dir / "confusion.csv", report, names)
    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["accuracy_percent"])
        writer.writerow([f"{report.accuracy:.4f}"])
    print(classify.report_table(report, names))
    return report


def cmd_train(args) -> int:
    cfg = _configure(NetworkConfig, args)
    tcfg = _configure(TrainConfig, args)
    train_set, = _load_sequences(args, cfg, "train")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, metrics = optim.train(train_set, cfg, tcfg, log=print)
    network.save_checkpoint(out_dir / "checkpoint_final.npz", params, cfg)
    optim.write_metrics(out_dir / "metrics.csv", metrics)
    print(f"checkpoints and metrics written to {out_dir}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    svm = _configure(classify.SvmConfig, args)
    params, cfg = network.load_checkpoint(args.checkpoint)
    train_set, test_set = _load_sequences(args, cfg, "train", "test")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _extract(out_dir / "train_features.npz", train_set, params, cfg)
    _extract(out_dir / "test_features.npz", test_set, params, cfg)
    model = _fit(out_dir / "train_features.npz", out_dir / "svm_model.npz", svm)
    report = _evaluate(model, out_dir / "test_features.npz", out_dir)
    print(f"accuracy: {report.accuracy:.2f}%")
    return EXIT_OK


def cmd_extract(args) -> int:
    params, cfg = network.load_checkpoint(args.checkpoint)
    sequences, = _load_sequences(args, cfg, args.split)
    _extract(args.out, sequences, params, cfg)
    return EXIT_OK


def cmd_svm(args) -> int:
    _fit(args.features, args.out, _configure(classify.SvmConfig, args))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = classify.load_model(args.model)
    _warn_unconverged(model)
    _evaluate(model, args.features, Path(args.report_dir))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = _configure(gradcheck.run, args)
    print(gradcheck.format_table(results))
    return EXIT_OK if all(e < gradcheck.THRESHOLD for e in results.values()) else EXIT_NUMERICAL


def cmd_synth(args) -> int:
    sequences = _configure(data.synth_generate, args)
    data.save_cache(args.out, sequences)
    print(f"wrote {len(sequences)} synthetic sequences to {args.out}")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "pipeline": cmd_pipeline,
    "extract": cmd_extract,
    "svm": cmd_svm,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HandSpdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # A path that cannot be opened, read or written.  An OSError with no
        # path (a failed fork, say) is no fault of the command line.
        if exc.filename is None:
            raise
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
