"""Command-line front end.

Subcommands: train, frozen-linearity, loss-compare, similarity,
eval-metric, export-pca. Dataset flags accept an IDX directory (also
settable through the WEIGHTSEP_DATA_DIR environment variable, the only
env override), or one of the built-in synthetic sources ``digits`` and
``blobs``. ``main`` prints a command's report only after all its work,
writes included, has succeeded, and exits 0; a failure prints only
``error:<category>:`` and exits with a category-specific nonzero code.
"""

import argparse
import math
import os
import sys
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np

from . import harness
from .data import (
    Dataset,
    _load_mnist_split,
    filter_classes,
    load_mnist_dir,
    synth_blobs,
    synth_digits,
)
from .errors import ConfigError, NumericError, WeightsepError
from .network import FINAL_INITS
from .rng import check_seed
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
    "memory": 6,
    "error": 1,
}

# Synthetic split sizes used when no IDX directory is given.
SYNTH_TRAIN_PER_CLASS = 256
SYNTH_TEST_PER_CLASS = 100


def _dataset_args(parser):
    parser.add_argument(
        "--data",
        dest="data_source",
        metavar="DATA",
        default=None,
        help="IDX directory, or 'digits'/'blobs' for synthetic data "
        f"(default: ${DATA_DIR_ENV} if set, else 'digits')",
    )
    parser.add_argument(
        "--classes",
        dest="class_filter",
        metavar="CLASSES",
        default=None,
        help="comma-separated class subset to keep, e.g. 0,1,5",
    )


def _config_args(parser, seed_required=False, skip=()):
    """--config and a flag per TrainConfig field, less the fields in ``skip``:
    those the subcommand's experiment sets for each of its runs."""
    def add(flag, **kwargs):
        if kwargs.setdefault("dest", flag[2:].replace("-", "_")) not in skip:
            parser.add_argument(flag, default=None, **kwargs)

    parser.add_argument("--config", default=None, help="config file to start from")
    add("--layer-dims", help="comma-separated widths: the data's input width, "
        "hidden widths, the class count")
    add("--epochs", type=int)
    add("--seed", type=int, required=seed_required)
    add("--loss", choices=harness.LOSS_KINDS)
    add("--reconstruction", dest="use_reconstruction", action="store_true",
        help="add the feed-backward reconstruction term")
    add("--no-reconstruction", dest="use_reconstruction", action="store_false")
    add("--lam", type=float, help="reconstruction loss weight")
    add("--batch-size", type=int)
    add("--base-lr", type=float)
    add("--milestones", help="comma-separated epochs where the rate drops")
    add("--lr-factor", type=float)
    add("--momentum", type=float)
    add("--weight-decay", type=float)
    add("--freeze-final", action="store_true")
    add("--final-init", choices=FINAL_INITS)


def _parse_int_list(text):
    try:
        return tuple(int(x) for x in str(text).split(",") if x != "")
    except ValueError as e:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from e


def _split_blobs(n_classes, dim, seed):
    total = SYNTH_TRAIN_PER_CLASS + SYNTH_TEST_PER_CLASS
    ds = synth_blobs(n_classes, total, dim, spread=0.08, seed=seed)
    rows = np.arange(len(ds)).reshape(n_classes, total)  # class-major
    return tuple(
        Dataset(ds.features[idx], ds.labels[idx], n_classes)
        for idx in (rows[:, :SYNTH_TRAIN_PER_CLASS].ravel(),
                    rows[:, SYNTH_TRAIN_PER_CLASS:].ravel())
    )


def _resolve_source(source):
    """``source``, else $WEIGHTSEP_DATA_DIR, else 'digits'."""
    return source or os.environ.get(DATA_DIR_ENV) or "digits"


def _test_split(source, seed):
    """The test split of a resolved ``source``, built alone except for
    blobs, whose test rows come from the joint draw."""
    if source == "digits":
        # Wrapped to 64 bits, as the stream keys always were.
        return synth_digits(SYNTH_TEST_PER_CLASS, (seed + 1_000_003) % 2**64)
    if source == "blobs":
        return _split_blobs(n_classes=10, dim=32, seed=seed)[1]
    return _load_mnist_split(source, "test")


def resolve_datasets(source, classes, seed):
    """(source, train, test): ``source`` falls back to $WEIGHTSEP_DATA_DIR,
    then to 'digits'; ``classes`` is the subset to keep, () for all."""
    source = _resolve_source(source)
    if source == "digits":
        train = synth_digits(SYNTH_TRAIN_PER_CLASS, seed)
        test = _test_split(source, seed)
    elif source == "blobs":
        train, test = _split_blobs(n_classes=10, dim=32, seed=seed)
    else:
        train, test = load_mnist_dir(source)
    if classes:
        train = filter_classes(train, classes)
        test = filter_classes(test, classes)
    return source, train, test


def read_config(path):
    """TrainConfig from a config file. The file must be UTF-8; other bytes
    are a ConfigError."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    return harness.config_from_text(text)


def build_config(args, implicit_classes=()):
    """(config, train, test) for a run. Flags override the --config file,
    which overrides the defaults; each flag's dest is its TrainConfig field.
    TrainConfig checks every value before the data load. The data come from
    --data, else the file's data_source, else $WEIGHTSEP_DATA_DIR, else
    'digits', drawn with the run's seed. ``implicit_classes`` is the subset
    kept when no classes are named and the data hold every class in it."""
    values = {}
    for f in fields(harness.TrainConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        values[f.name] = _parse_int_list(value) if f.type is tuple else value
    file_config = read_config(args.config) if args.config else None
    merged = {**(asdict(file_config) if file_config else {}), **values}
    # Checks every value now; the three fields with no default get stand-ins.
    harness.TrainConfig(**{"layer_dims": (1, 1), "epochs": 1, "seed": 0,
                           **merged})
    classes = merged.get("class_filter", ())
    source, train_ds, test_ds = resolve_datasets(
        merged.get("data_source"), classes, merged.get("seed", 0))
    if implicit_classes and not classes and (
            max(implicit_classes) < train_ds.n_classes):
        classes = implicit_classes
        train_ds = filter_classes(train_ds, classes)
        test_ds = filter_classes(test_ds, classes)
    config = file_config or harness.default_config(train_ds, seed=0)
    values.update(data_source=source, class_filter=classes)
    return replace(config, **values), train_ds, test_ds


def _test_set(args):
    """The test split a checkpoint command reads; it takes no config."""
    seed = check_seed(args.seed or 0)
    classes = _parse_int_list(args.class_filter or "")
    test = _test_split(_resolve_source(args.data_source), seed)
    return filter_classes(test, classes) if classes else test


def cmd_train(args):
    config, train_ds, test_ds = build_config(args)
    artifact = harness.train(config, train_ds)
    test_accuracy = harness.evaluate_accuracy(artifact.network, test_ds)
    harness.write_run_artifact(artifact, args.out)
    final = artifact.records[-1]
    return [f"steps: {final.step + 1}",
            f"final train batch accuracy: {final.train_accuracy:.4f}",
            f"final test accuracy: {test_accuracy:.4f}",
            f"final separability: {format_epsilon(artifact.report.epsilon)}",
            f"artifacts written to {args.out}"]


def cmd_frozen_linearity(args):
    config, train_ds, test_ds = build_config(args, implicit_classes=(0, 1, 5))
    result = harness.experiment_frozen_linearity(train_ds, test_ds, config)
    lines = []
    for arm in (result.orthonormal, result.random):
        lines.append(f"{arm.name:>12}: test accuracy {arm.accuracy:.4f}, "
                     f"separability {format_epsilon(arm.epsilon)}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"latents_{arm.name}.csv")
            harness.export_pca(arm.latents, arm.labels, path)
            lines.append(f"{'':>12}  3-D latent export: {path}")
    return lines


def cmd_loss_compare(args):
    seeds = tuple(map(check_seed, _parse_int_list(args.seeds)))
    if not seeds:
        raise ConfigError(f"--seeds needs at least one integer, got {args.seeds!r}")
    # The first seed draws the data; the experiment sets each run's seed.
    args.seed = seeds[0]
    config, train_ds, test_ds = build_config(args)
    result = harness.experiment_loss_comparison(
        train_ds, test_ds, seeds, config=config
    )
    return [
        f"{'loss':>24} {'recon':>6} {'accuracy':>9} {'separability':>13}",
        *(f"{cell.loss:>24} {str(cell.use_reconstruction):>6} "
          f"{cell.mean_accuracy:>9.4f} {format_epsilon(cell.mean_epsilon):>13}"
          for cell in result.cells),
        f"rank correlation (accuracy vs -separability): "
        f"{result.rank_correlation:+.3f}",
    ]


def cmd_similarity(args):
    test_ds = _test_set(args)
    net = harness.load_checkpoint(args.checkpoint)
    rows = harness.similarity_report(net, test_ds)
    return [f"{'class':>5} {'euclidean':>12} {'cosine dist':>12}",
            *(f"{row.class_index:>5} {row.euclidean:>12.4f} "
              f"{row.cosine_distance:>12.4f}" for row in rows)]


def cmd_eval_metric(args):
    w = harness.load_checkpoint(args.checkpoint).final_weight
    frobenius = separability_metric(w)
    trace_form = separability_metric_trace_form(w)
    if not (math.isfinite(frobenius) and math.isfinite(trace_form)):
        raise NumericError(f"separability forms not finite: {frobenius} vs "
                           f"{trace_form}")
    return [f"decision matrix: {w.shape[0]} x {w.shape[1]}",
            f"separability (frobenius form): {format_epsilon(frobenius)}",
            f"separability (trace form):     {format_epsilon(trace_form)}"]


def cmd_export_pca(args):
    test_ds = _test_set(args)
    net = harness.load_checkpoint(args.checkpoint)
    latents = harness.latent_features(net, test_ds)
    harness.export_pca(latents, test_ds.labels, args.out)
    return [f"wrote {len(test_ds)} projected samples to {args.out}"]


def make_parser():
    parser = argparse.ArgumentParser(
        prog="weightsep",
        allow_abbrev=False,
        description="Decision-column separability metrics and feed-backward "
        "reconstruction training for dense classifiers.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("train", help="run one training configuration")
    _dataset_args(p)
    _config_args(p)
    p.add_argument("--out", default="run", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "frozen-linearity",
        help="compare frozen orthonormal vs frozen random decision columns",
    )
    _dataset_args(p)
    _config_args(p, seed_required=True, skip=("freeze_final", "final_init"))
    p.add_argument("--out", default=None, help="directory for latent exports")
    p.set_defaults(func=cmd_frozen_linearity)

    p = sub.add_parser(
        "loss-compare",
        help="accuracy/separability table over the loss menu",
    )
    _dataset_args(p)
    _config_args(p, skip=("seed", "loss", "use_reconstruction"))
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
        print(*args.func(args), sep="\n")
        return 0
    except WeightsepError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return EXIT_CODES.get(e.category, 1)
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 5
    except MemoryError as e:
        print(f"error:memory: {e}", file=sys.stderr)
        return EXIT_CODES["memory"]
