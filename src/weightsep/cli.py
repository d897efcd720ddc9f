"""Command-line front end.

Subcommands: train, frozen-linearity, loss-compare, similarity,
eval-metric, export-pca. Dataset flags accept an IDX directory (also
settable through the WEIGHTSEP_DATA_DIR environment variable, the only
env override), or one of the built-in synthetic sources ``digits`` and
``blobs``. Exit code 0 on success; failures print ``error:<category>:``
and exit with a category-specific nonzero code.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .data import (
    Dataset,
    filter_classes,
    load_mnist_dir,
    synth_blobs,
    synth_digits,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
    WeightsepError,
)
from .network import FINAL_INITS
from .separability import format_epsilon, separability_metric, separability_metric_trace_form

DATA_DIR_ENV = "WEIGHTSEP_DATA_DIR"

EXIT_CODES = {
    "shape": 2,
    "orientation": 2,
    "data": 2,
    "config": 2,
    "format": 3,
    "numeric": 4,
    "singular": 4,
    "error": 1,
}

# Synthetic split sizes used when no IDX directory is given.
SYNTH_TRAIN_PER_CLASS = 256
SYNTH_TEST_PER_CLASS = 100


def _dataset_args(parser):
    parser.add_argument(
        "--data",
        default=None,
        help="IDX directory, or 'digits'/'blobs' for synthetic data "
        f"(default: ${DATA_DIR_ENV} if set, else 'digits')",
    )
    parser.add_argument(
        "--classes",
        default=None,
        help="comma-separated class subset to keep, e.g. 0,1,5",
    )


def _config_args(parser, seed_required):
    parser.add_argument("--config", default=None, help="config file to start from")
    parser.add_argument("--layer-dims", default=None,
                        help="comma-separated widths, input first")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seed", type=int, required=seed_required, default=None)
    parser.add_argument("--loss", choices=harness.LOSS_KINDS, default=None)
    parser.add_argument("--reconstruction", dest="use_reconstruction",
                        action="store_true", default=None,
                        help="add the feed-backward reconstruction term")
    parser.add_argument("--no-reconstruction", dest="use_reconstruction",
                        action="store_false")
    parser.add_argument("--lam", type=float, default=None,
                        help="reconstruction loss weight")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--base-lr", type=float, default=None)
    parser.add_argument("--milestones", default=None,
                        help="comma-separated epochs where the rate drops")
    parser.add_argument("--lr-factor", type=float, default=None)
    parser.add_argument("--momentum", type=float, default=None)
    parser.add_argument("--weight-decay", type=float, default=None)
    parser.add_argument("--freeze-final", action="store_true", default=None)
    parser.add_argument("--final-init", choices=FINAL_INITS, default=None)


def _parse_int_list(text):
    try:
        return tuple(int(x) for x in str(text).split(",") if x != "")
    except ValueError as e:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from e


def _parse_nonempty_int_list(text, flag):
    values = _parse_int_list(text)
    if not values:
        raise ConfigError(f"{flag} needs at least one integer, got {text!r}")
    return values


def _slice_dataset(ds, index):
    return Dataset(
        features=ds.features[index],
        labels=ds.labels[index],
        n_classes=ds.n_classes,
        class_map=dict(ds.class_map),
    )


def _split_blobs(n_classes, dim, seed):
    total = SYNTH_TRAIN_PER_CLASS + SYNTH_TEST_PER_CLASS
    ds = synth_blobs(n_classes, total, dim, spread=0.08, seed=seed)
    train_idx, test_idx = [], []
    for c in range(n_classes):
        block = np.flatnonzero(ds.labels == c)
        train_idx.extend(block[:SYNTH_TRAIN_PER_CLASS])
        test_idx.extend(block[SYNTH_TRAIN_PER_CLASS:])
    return _slice_dataset(ds, np.array(train_idx)), _slice_dataset(
        ds, np.array(test_idx)
    )


def resolve_datasets(args, seed):
    """(train, test) datasets from --data / env / synthetic fallback."""
    source = args.data or os.environ.get(DATA_DIR_ENV) or "digits"
    if source == "digits":
        train = synth_digits(SYNTH_TRAIN_PER_CLASS, seed)
        test = synth_digits(SYNTH_TEST_PER_CLASS, seed + 1_000_003)
    elif source == "blobs":
        train, test = _split_blobs(n_classes=10, dim=32, seed=seed)
    else:
        train, test = load_mnist_dir(source)
    if args.classes:
        keep = _parse_int_list(args.classes)
        train = filter_classes(train, keep)
        test = filter_classes(test, keep)
    return source, train, test


def read_config(path):
    """TrainConfig from a config file. The file must be UTF-8; other bytes
    are a ConfigError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    return harness.config_from_text(text)


def build_config(args, train_ds, source):
    """TrainConfig from an optional config file plus flag overrides."""
    if args.config:
        config = read_config(args.config)
    else:
        config = harness.default_config(train_ds, seed=0)
    overrides = {}
    for key in (
        "epochs", "seed", "loss", "use_reconstruction", "lam", "batch_size",
        "base_lr", "lr_factor", "momentum", "weight_decay", "freeze_final",
        "final_init",
    ):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    dims = config.layer_dims
    if args.layer_dims is not None:
        dims = _parse_nonempty_int_list(args.layer_dims, "--layer-dims")
    # The data sets the input and class widths; only hidden widths are kept.
    overrides["layer_dims"] = (train_ds.dim, *dims[1:-1], train_ds.n_classes)
    if args.milestones is not None:
        overrides["milestones"] = _parse_int_list(args.milestones)
    overrides["data_source"] = str(source)
    if args.classes:
        overrides["class_filter"] = _parse_int_list(args.classes)
    return replace(config, **overrides)


def cmd_train(args):
    seed = args.seed
    if seed is None and args.config:
        # replaying a recorded config: its seed also governs synthetic data
        seed = read_config(args.config).seed
    source, train_ds, test_ds = resolve_datasets(args, seed or 0)
    config = build_config(args, train_ds, source)
    artifact = harness.train(config, train_ds, eval_ds=test_ds)
    harness.write_run_artifact(artifact, args.out)
    final = artifact.records[-1]
    print(f"steps: {final.step + 1}")
    print(f"final train batch accuracy: {final.train_accuracy:.4f}")
    if artifact.eval_accuracy:
        print(f"final test accuracy: {artifact.eval_accuracy[-1]:.4f}")
    print(f"final separability: {format_epsilon(artifact.report.epsilon)}")
    print(f"artifacts written to {args.out}")
    return 0


def cmd_frozen_linearity(args):
    source, train_ds, test_ds = resolve_datasets(args, args.seed)
    if args.classes is None and train_ds.n_classes >= 6:
        train_ds = filter_classes(train_ds, (0, 1, 5))
        test_ds = filter_classes(test_ds, (0, 1, 5))
    config = build_config(args, train_ds, source)
    result = harness.experiment_frozen_linearity(
        train_ds, test_ds, args.seed, config=config
    )
    for arm in (result.orthonormal, result.random):
        print(
            f"{arm.name:>12}: test accuracy {arm.accuracy:.4f}, "
            f"separability {format_epsilon(arm.epsilon)}"
        )
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"latents_{arm.name}.csv")
            harness.export_pca(arm.pca3, arm.labels, path)
            print(f"{'':>12}  3-D latent export: {path}")
    return 0


def cmd_loss_compare(args):
    seeds = _parse_nonempty_int_list(args.seeds, "--seeds")
    source, train_ds, test_ds = resolve_datasets(args, seeds[0])
    config = build_config(args, train_ds, source)
    result = harness.experiment_loss_comparison(
        train_ds, test_ds, seeds, config=config
    )
    print(f"{'loss':>24} {'recon':>6} {'accuracy':>9} {'separability':>13}")
    for cell in result.cells:
        print(
            f"{cell.loss:>24} {str(cell.use_reconstruction):>6} "
            f"{cell.mean_accuracy:>9.4f} {format_epsilon(cell.mean_epsilon):>13}"
        )
    print(f"rank correlation (accuracy vs -separability): "
          f"{result.rank_correlation:+.3f}")
    return 0


def cmd_similarity(args):
    _, train_ds, test_ds = resolve_datasets(args, args.seed or 0)
    net = harness.load_checkpoint(args.checkpoint)
    rows = harness.similarity_report(net, test_ds)
    print(f"{'class':>5} {'euclidean':>12} {'cosine dist':>12}")
    for row in rows:
        print(f"{row.class_index:>5} {row.euclidean:>12.4f} "
              f"{row.cosine_distance:>12.4f}")
    return 0


def cmd_eval_metric(args):
    net = harness.load_checkpoint(args.checkpoint)
    w = net.final_weight
    print(f"decision matrix: {w.shape[0]} x {w.shape[1]}")
    print(f"separability (frobenius form): {format_epsilon(separability_metric(w))}")
    print(f"separability (trace form):     "
          f"{format_epsilon(separability_metric_trace_form(w))}")
    return 0


def cmd_export_pca(args):
    _, train_ds, test_ds = resolve_datasets(args, args.seed or 0)
    net = harness.load_checkpoint(args.checkpoint)
    latents = harness.latent_features(net, test_ds)
    harness.export_pca(latents, test_ds.labels, args.out)
    print(f"wrote {len(test_ds)} projected samples to {args.out}")
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="weightsep",
        description="Decision-column separability metrics and feed-backward "
        "reconstruction training for dense classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training configuration")
    _dataset_args(p)
    _config_args(p, seed_required=False)
    p.add_argument("--out", default="run", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "frozen-linearity",
        help="compare frozen orthonormal vs frozen random decision columns",
    )
    _dataset_args(p)
    _config_args(p, seed_required=True)
    p.add_argument("--out", default=None, help="directory for latent exports")
    p.set_defaults(func=cmd_frozen_linearity)

    p = sub.add_parser(
        "loss-compare",
        help="accuracy/separability table over the loss menu",
    )
    _dataset_args(p)
    _config_args(p, seed_required=False)
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.set_defaults(func=cmd_loss_compare)

    p = sub.add_parser(
        "similarity",
        help="per-class activation-vs-weight distances for a checkpoint",
    )
    _dataset_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser(
        "eval-metric",
        help="print both separability forms for a checkpoint's decision layer",
    )
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_eval_metric)

    p = sub.add_parser(
        "export-pca",
        help="3-D PCA of a checkpoint's latents over a dataset, as CSV",
    )
    _dataset_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_pca)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WeightsepError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return EXIT_CODES.get(e.category, 1)
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
