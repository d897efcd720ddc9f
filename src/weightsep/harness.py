"""Experiment orchestration: configuration, the training loop, metric logs,
checkpoints, and the three desk-scale studies (frozen decision layer,
loss-menu comparison, activation-vs-weight similarity).

Every run is fully determined by its config: the seed drives parameter
init, batch order, and any synthetic data, so identical configs replay
bit-identically. The decision-column separability score is logged for every
step in its Frobenius form, computed in stacked passes over the held
decision weights, at each epoch end and whenever ``EPSILON_PASS_STEPS`` of
them wait (steps x latent width x classes float64 values). Those passes also
compute the trace form and alone compare the two, once per step, naming a
failing step; the final report is the last weight's, checked there.
"""

import csv
import io
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import losses, optim
from .data import batches
from .errors import (ConfigError, DataError, FormatError, NumericError,
                     OrientationError, ShapeError)
from .linalg import pca_reduce
from .network import (
    FINAL_INITS,
    Network,
    NetworkSpec,
    _is_python_int,
    backward,
    decide_classes,
    forward,
    init_network,
)
from .rng import check_seed
# The two single-form metrics are not called here; they stay importable
# from this module for callers that look the metric names up on it.
from .separability import (  # noqa: F401
    format_epsilon,
    separability_metric,
    separability_metric_trace_form,
    separability_report,
    stacked_epsilon,
)

LOSS_KINDS = ("softmax_ce", "softmax_ce_plus_center")

# Both separability forms are evaluated for every step, each from one error
# matrix; they must agree to this tolerance or the run aborts.
EPSILON_FORM_TOL = 1e-9

# Steps whose decision weights train holds before one stacked ε pass scores
# them, so a small batch size does not hold an epoch of weights.
EPSILON_PASS_STEPS = 256

# Rows a whole-split forward pass decodes at a time, so evaluation and latent
# export hold no float copy of a uint8 split.
EVAL_BLOCK_ROWS = 128


# What a value must be for each TrainConfig field type, and a test for it.
# bool subclasses int, so the integer test excludes it.
_FIELD_CHECKS = {
    tuple: ("a list of integers",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_python_int, v))),
    int: ("an integer", _is_python_int),
    float: ("a finite number", lambda v: _is_python_int(v)
            or (isinstance(v, float) and math.isfinite(v))),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to replay a run.

    ``layer_dims`` lists MLP widths input-first; the last width is the class
    count. ``data_source``/``class_filter`` describe where the CLI finds the
    dataset; library callers pass datasets explicitly.
    """

    layer_dims: tuple
    epochs: int
    seed: int
    loss: str = "softmax_ce"
    use_reconstruction: bool = False
    lam: float = 0.001
    batch_size: int = 128
    base_lr: float = 0.1
    milestones: tuple = ()
    lr_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    freeze_final: bool = False
    final_init: str = "uniform_scaled"
    center_rate: float = 0.5
    data_source: str = ""
    class_filter: tuple = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            what, fits = _FIELD_CHECKS[f.type]
            if not fits(value):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
            if f.type is tuple:
                object.__setattr__(self, f.name, tuple(value))
        if len(self.layer_dims) < 2:
            raise ConfigError("layer_dims needs an input and a class width, "
                              f"got {self.layer_dims}")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {self.loss!r}; pick from {LOSS_KINDS}")
        if self.final_init not in FINAL_INITS:
            raise ConfigError(f"unknown final_init {self.final_init!r}")
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # The first and last widths are checked against the data in train().
        if any(d < 1 for d in self.layer_dims[1:-1]):
            raise ConfigError(
                f"layer_dims: hidden widths must be positive, got {self.layer_dims}"
            )
        check_seed(self.seed)
        if not 0.0 < self.center_rate <= 1.0:
            raise ConfigError(f"center_rate must be in (0, 1], got {self.center_rate}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 < self.lr_factor < 1:
            raise ConfigError(f"lr_factor must be in (0,1), got {self.lr_factor}")
        ms = self.milestones
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing: {ms}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def default_config(ds, seed):
    """The desk-scale recipe for ``ds``: one hidden layer of 64 units, 30
    epochs, the learning rate dropping at epochs 15 and 25."""
    return TrainConfig(
        layer_dims=(ds.dim, 64, ds.n_classes),
        epochs=30,
        seed=seed,
        milestones=(15, 25),
    )


@dataclass(frozen=True)
class MetricRecord:
    step: int
    epoch: int
    loss_cls: float
    loss_re: float
    loss_total: float
    train_accuracy: float
    epsilon: float


@dataclass(frozen=True)
class RunArtifact:
    """Output of one training run: provenance plus results."""

    config: TrainConfig
    records: tuple
    network: Network
    report: object


def _forward_blocks(net, ds):
    """Yield ``(rows, trace)`` for each slice ``rows`` of ``EVAL_BLOCK_ROWS``
    rows of ``ds``, in row order: each block is decoded and run through
    :func:`forward` alone. The first block whose latents or logits are not
    finite raises :class:`NumericError` naming its rows, with no numpy
    warning first."""
    for start in range(0, len(ds), EVAL_BLOCK_ROWS):
        rows = slice(start, start + EVAL_BLOCK_ROWS)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = forward(net, ds.rows(rows))
        if not (np.isfinite(trace.latent).all()
                and np.isfinite(trace.logits).all()):
            stop = min(rows.stop, len(ds))
            raise NumericError(f"rows {start}-{stop - 1}: latents or logits "
                               "not finite")
        yield rows, trace


def evaluate_accuracy(net, ds):
    """Fraction of dataset samples whose top logit matches the label."""
    hits = 0
    for rows, trace in _forward_blocks(net, ds):
        hits += np.count_nonzero(decide_classes(trace.logits) == ds.labels[rows])
    return hits / len(ds)


def _score_pending(pending, records):
    """Empty ``pending`` into ``records``: each entry holds a step's
    :class:`MetricRecord` fields but ε, then the decision weight that step
    produced. All the weights are scored in one :func:`stacked_epsilon` pass,
    and each step's forms are checked in step order."""
    if not pending:
        return
    rows = pending.copy()
    pending.clear()
    eps, eps_trace = stacked_epsilon(np.stack([row[-1] for row in rows]))
    for row, e, e_trace in zip(rows, eps.tolist(), eps_trace.tolist()):
        # Absolute tolerance at ordinary magnitudes, relative far above 1,
        # where roundoff alone exceeds 1e-9. An infinite form gets an
        # infinite tolerance, so finiteness is checked on its own.
        tol = EPSILON_FORM_TOL * max(1.0, abs(e), abs(e_trace))
        if not (math.isfinite(e) and math.isfinite(e_trace)
                and abs(e - e_trace) <= tol):
            raise NumericError(
                f"separability forms not finite or disagree at step {row[0]}: "
                f"{e!r} vs {e_trace!r}"
            )
        records.append(MetricRecord(*row[:-1], epsilon=e))


def _objective(config, net, trace, labels, centers):
    """A batch's objective: CE (plus the center loss, which alone moves
    ``centers``, under ``softmax_ce_plus_center``) plus ``config.lam`` times
    the reconstruction loss. Returns the parts ``(cls, re, total)``, the
    :func:`backward` seeds ``(ce_grad, latent_grad, w_grad)`` and centers."""
    cls_value, ce_grad = losses.softmax_cross_entropy(trace.logits, labels)
    latent_grad = None
    if config.loss == "softmax_ce_plus_center":
        c_value, latent_grad, centers = losses.center_loss(
            trace.latent, labels, centers, config.center_rate)
        cls_value += c_value
    re_value = 0.0
    w_grad = None
    if config.use_reconstruction:
        re_value, re_latent, re_w = losses.reconstruction_loss(
            trace.latent, labels, net.final_weight)
        re_latent = config.lam * re_latent
        latent_grad = re_latent if latent_grad is None else latent_grad + re_latent
        w_grad = config.lam * re_w
    total = losses.total_loss(cls_value, re_value, config.lam)
    return (cls_value, re_value, total), (ce_grad, latent_grad, w_grad), centers


def train(config, ds):
    """Run the configured training loop on ``ds``.

    Appends one :class:`MetricRecord` per step (batch loss parts, batch
    accuracy, decision-column separability). The separability of the steps'
    decision weights is computed in one pass at each epoch end, and whenever
    ``EPSILON_PASS_STEPS`` weights wait, so the loop holds at most that many;
    each pass checks each step's forms. ``report`` is the final weight's
    report.

    Before the network is built, a ``layer_dims`` that does not fit ``ds``
    raises :class:`ConfigError`, and a decision layer with more classes than
    latent units :class:`OrientationError`. A loss that leaves the finite
    range, or separability forms that are not finite or disagree, raise
    :class:`NumericError` naming the failing step, whichever step failed
    first.
    """
    dims = config.layer_dims
    if dims[0] != ds.dim:
        raise ConfigError(f"layer_dims: first width {dims[0]} != the data's "
                          f"input width {ds.dim}")
    if dims[-1] != ds.n_classes:
        raise ConfigError(f"layer_dims: last width {dims[-1]} != the data's "
                          f"class count {ds.n_classes}")
    spec = NetworkSpec(dims)
    if spec.latent_dim < spec.n_classes:
        raise OrientationError(f"layer_dims {dims}: the decision layer has "
                               "more columns than rows")

    net = init_network(spec, config.seed, final_init=config.final_init)
    params = net.parameters()
    # freeze_final drops the decision weight (last) and its gradient from SGD.
    n_trained = len(params) - 1 if config.freeze_final else len(params)
    velocity = tuple(np.zeros_like(p) for p in params[:n_trained])

    centers = np.zeros((spec.n_classes, spec.latent_dim))

    records = []
    # Steps awaiting ε: their record fields, then the decision weight each
    # produced, uncopied (sgd_step never mutates one).
    pending = []
    step = 0
    # Every value that leaves the finite range meets a check that raises
    # NumericError (the loss, sgd_step's gradients, the ε forms).
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(config.epochs):
                lr = optim.lr_at(config.base_lr, config.milestones,
                                 config.lr_factor, epoch)
                for feats, labels in batches(ds, config.batch_size, config.seed,
                                             epoch):
                    trace = forward(net, feats)
                    parts, seeds, centers = _objective(config, net, trace,
                                                       labels, centers)
                    if not math.isfinite(parts[2]):
                        _score_pending(pending, records)
                        last = records[-1] if records else None
                        raise NumericError(f"non-finite loss at step {step}; "
                                           f"last finite record: {last}")

                    grads = backward(net, trace, *seeds)
                    trained, velocity = optim.sgd_step(
                        params[:n_trained], grads[:n_trained], velocity, lr,
                        config.momentum, config.weight_decay
                    )
                    params = trained + params[n_trained:]
                    net = net.replace_parameters(params)

                    hits = np.count_nonzero(decide_classes(trace.logits) == labels)
                    pending.append((step, epoch, *parts, hits / len(labels),
                                    net.final_weight))
                    step += 1
                    if len(pending) >= EPSILON_PASS_STEPS:
                        _score_pending(pending, records)
                _score_pending(pending, records)
        finally:
            # A step that raised leaves the steps before it unscored; a bad form
            # among them came first at that point, so it is the error raised.
            _score_pending(pending, records)

    return RunArtifact(
        config=config,
        records=tuple(records),
        network=net,
        report=separability_report(net.final_weight),
    )


def latent_features(net, ds):
    """Latent (decision-layer input) activations for every sample."""
    latents = np.empty((len(ds), net.spec.latent_dim))
    for rows, trace in _forward_blocks(net, ds):
        latents[rows] = trace.latent
    return latents


# ---------------------------------------------------------------------------
# Experiments


@dataclass(frozen=True)
class FrozenArm:
    """One arm of the frozen-decision-layer comparison."""

    name: str
    accuracy: float
    epsilon: float
    epsilon_steps: tuple
    latents: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class FrozenLinearityResult:
    orthonormal: FrozenArm
    random: FrozenArm


def experiment_frozen_linearity(train_ds, test_ds, config):
    """Train twin networks whose decision layer never updates: one arm gets
    orthonormal columns, the other raw uniform [-1, 1] columns. Each arm is
    ``config`` with ``freeze_final`` and ``final_init`` set, so both train at
    ``config.seed``. Reports both test accuracies, both separability scores,
    and the test latents."""
    arms = []
    for name, final_init in (
        ("orthonormal", "semi_orthogonal"),
        ("random", "uniform_unit"),
    ):
        cfg = replace(config, freeze_final=True, final_init=final_init)
        artifact = train(cfg, train_ds)
        arms.append(
            FrozenArm(
                name=name,
                accuracy=evaluate_accuracy(artifact.network, test_ds),
                epsilon=artifact.report.epsilon,
                epsilon_steps=tuple(r.epsilon for r in artifact.records),
                latents=latent_features(artifact.network, test_ds),
                labels=test_ds.labels.copy(),
            )
        )
    return FrozenLinearityResult(orthonormal=arms[0], random=arms[1])


@dataclass(frozen=True)
class ComparisonCell:
    loss: str
    use_reconstruction: bool
    accuracies: tuple
    epsilons: tuple

    @property
    def mean_accuracy(self):
        return float(np.mean(self.accuracies))

    @property
    def mean_epsilon(self):
        return float(np.mean(self.epsilons))


@dataclass(frozen=True)
class LossComparisonResult:
    cells: tuple
    rank_correlation: float


def experiment_loss_comparison(train_ds, test_ds, seeds, config):
    """Train every loss-menu cell ({softmax CE, CE+center} x {with, without
    the reconstruction term}) over the given seeds; each run is ``config``
    with ``seed``, ``loss`` and ``use_reconstruction`` set. Report mean test
    accuracy and mean final separability per cell, plus the Spearman rank
    correlation between cell accuracy and negated separability score."""
    from scipy.stats import spearmanr

    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    cells = []
    for loss in LOSS_KINDS:
        for use_re in (False, True):
            accs, epss = [], []
            for seed in seeds:
                cfg = replace(
                    config, seed=seed, loss=loss, use_reconstruction=use_re
                )
                artifact = train(cfg, train_ds)
                accs.append(evaluate_accuracy(artifact.network, test_ds))
                epss.append(artifact.report.epsilon)
            cells.append(
                ComparisonCell(
                    loss=loss,
                    use_reconstruction=use_re,
                    accuracies=tuple(accs),
                    epsilons=tuple(epss),
                )
            )
    acc = [c.mean_accuracy for c in cells]
    neg_eps = [-c.mean_epsilon for c in cells]
    if len(set(acc)) < 2 or len(set(neg_eps)) < 2:
        # Spearman is undefined when either margin is constant (e.g. all
        # cells reach the same accuracy on an easy dataset).
        rho = float("nan")
    else:
        rho = float(spearmanr(acc, neg_eps).statistic)
    return LossComparisonResult(cells=tuple(cells), rank_correlation=rho)


@dataclass(frozen=True)
class SimilarityRow:
    class_index: int
    euclidean: float
    cosine_distance: float


def similarity_report(net, ds):
    """Per class: distance between the class's mean latent activation and
    the matching decision column, as Euclidean distance and cosine distance
    (1 - cosine similarity). A distance that is not finite raises
    :class:`NumericError` naming its class, with no numpy warning first."""
    w = net.final_weight
    if w.shape[1] != ds.n_classes:
        raise ConfigError(
            f"network has {w.shape[1]} decision columns, dataset has "
            f"{ds.n_classes} classes"
        )
    latents = latent_features(net, ds)
    rows = []
    for c in range(ds.n_classes):
        member = ds.labels == c
        if not member.any():
            raise DataError(f"class {c} has no samples")
        col = w[:, c]
        with np.errstate(over="ignore", invalid="ignore"):
            mean_latent = latents[member].mean(axis=0)
            euclid = float(np.linalg.norm(mean_latent - col))
            denom = np.linalg.norm(mean_latent) * np.linalg.norm(col)
            if denom == 0.0:
                cosine = 1.0 if euclid > 0 else 0.0
            else:
                cosine = float(1.0 - mean_latent @ col / denom)
        if not (math.isfinite(euclid) and math.isfinite(cosine)):
            raise NumericError(f"class {c}: distances not finite "
                               f"(euclidean {euclid}, cosine {cosine})")
        rows.append(
            SimilarityRow(class_index=c, euclidean=euclid, cosine_distance=cosine)
        )
    return rows


# ---------------------------------------------------------------------------
# Files: PCA export, metric logs, checkpoints, config text


def export_pca(latents, labels, path):
    """Write the top 3 (at most) principal components of the 2-D ``latents``
    and their ``labels``, one non-negative integer per row, to a CSV with
    columns pc1..pc3,label at full precision, whole or not at all."""
    latents = np.asarray(latents, dtype=np.float64)
    labels = np.asarray(labels)
    if latents.ndim != 2:
        raise ShapeError(f"latents must be 2-D, got shape {latents.shape}")
    if labels.shape != latents.shape[:1]:
        raise ShapeError(f"{labels.shape} labels for {latents.shape} latents; "
                         "need one label per latent row")
    if labels.dtype.kind not in "iu":
        raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and labels.min() < 0:
        raise DataError(f"labels must be non-negative, got {labels.min()}")
    reduced = pca_reduce(latents, min(3, latents.shape[1]))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f"pc{i + 1}" for i in range(reduced.shape[1])] + ["label"])
    for row, label in zip(reduced, labels):
        writer.writerow([repr(float(v)) for v in row] + [int(label)])
    _write_atomic(path, buf.getvalue().encode())
    return reduced


METRIC_COLUMNS = (
    "step",
    "epoch",
    "loss_cls",
    "loss_re",
    "loss_total",
    "train_acc",
    "epsilon",
)


def metrics_to_csv(records):
    """Render metric records in the fixed log schema (one header row,
    decimal floats, separability in scientific notation)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRIC_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.step,
                r.epoch,
                f"{r.loss_cls:.12g}",
                f"{r.loss_re:.12g}",
                f"{r.loss_total:.12g}",
                f"{r.train_accuracy:.6g}",
                format_epsilon(r.epsilon),
            ]
        )
    return buf.getvalue()


def _write_atomic(path, data):
    """Write the bytes ``data`` to ``path`` through a temporary file in the
    same directory and :func:`os.replace`, so a write that fails part-way
    leaves any earlier file at ``path`` intact and no partial file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_metrics_csv(records, path):
    _write_atomic(path, metrics_to_csv(records).encode())


# Checkpoint container: magic, version, JSON header describing the layer
# stack and array shapes, raw little-endian float64 payloads, then a CRC32
# of everything before it.
CHECKPOINT_MAGIC = b"WSCK"
CHECKPOINT_VERSION = 1


def _header(spec):
    """The JSON header bytes of a checkpoint of ``spec``: each layer's widths
    and activation (relu for all but the identity decision layer), then the
    name and shape of each array in payload order."""
    last = len(spec.dims) - 2
    return json.dumps({
        "version": CHECKPOINT_VERSION,
        "layers": [
            {"in": n_in, "out": n_out,
             "activation": "identity" if k == last else "relu"}
            for k, (n_in, n_out) in enumerate(zip(spec.dims, spec.dims[1:]))
        ],
        "arrays": [
            {"name": name, "shape": list(shape)}
            for name, shape in spec.parameter_layout()
        ],
    }, sort_keys=True).encode()


def save_checkpoint(net, path):
    """Serialize network spec and parameters; the trailing checksum lets
    :func:`load_checkpoint` reject corrupt or truncated files."""
    header_bytes = _header(net.spec)
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack(">II", CHECKPOINT_VERSION, len(header_bytes))
    blob += header_bytes
    for arr in net.parameters():
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob += struct.pack(">I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    _write_atomic(path, bytes(blob))


def load_checkpoint(path):
    """Read a checkpoint back into a :class:`Network`.

    Only what :func:`save_checkpoint` writes loads: a damaged file, or any
    other header or payload length, raises :class:`FormatError`; parameters
    that are not finite raise :class:`NumericError`.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    (stored_crc,) = struct.unpack(">I", blob[-4:])
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(
            f"{path}: checksum mismatch (file corrupt or truncated)"
        )
    version, header_len = struct.unpack(">II", blob[4:12])
    if version != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: checkpoint version {version} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    offset = 12 + header_len
    header = blob[12:offset]
    try:
        layers = json.loads(header)["layers"]
        spec = NetworkSpec((layers[0]["in"], *(l["out"] for l in layers)))
    except (ValueError, LookupError, TypeError, RecursionError) as e:
        raise FormatError(f"{path}: unreadable checkpoint header: {e}") from e
    if header != _header(spec):
        raise FormatError(f"{path}: checkpoint header is not the one written "
                          f"for the widths {spec.dims}")
    layout = spec.parameter_layout()
    promised = 8 * sum(math.prod(shape) for _, shape in layout)
    stored = len(blob) - 4 - offset
    if stored != promised:
        what = "shorter" if stored < promised else "longer"
        raise FormatError(f"{path}: payload {what} than header promises")
    params = []
    for name, shape in layout:
        count = math.prod(shape)
        arr = np.frombuffer(blob, "<f8", count, offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise NumericError(f"{path}: {name} holds non-finite values")
        params.append(arr.copy())
        offset += 8 * count
    return Network(spec, params)


def config_to_text(config):
    """Flat key = value rendering; values are JSON literals so types are
    explicit and parse back exactly."""
    return "".join(f"{key} = {json.dumps(value)}\n"
                   for key, value in asdict(config).items())


def config_from_text(text):
    """Parse :func:`config_to_text` output (or a hand-written file in the
    same shape) back into a :class:`TrainConfig`. A value whose JSON type
    does not fit its field is a :class:`ConfigError`."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value': {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in TrainConfig.__dataclass_fields__:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            value = json.loads(rhs.strip())
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
        values[key] = value
    try:
        return TrainConfig(**values)
    except TypeError as e:
        raise ConfigError(f"incomplete config: {e}") from e


def write_run_artifact(artifact, out_dir):
    """Persist a run: config snapshot, metric CSV, and final checkpoint."""
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(
        os.path.join(out_dir, "config.txt"),
        config_to_text(artifact.config).encode(),
    )
    write_metrics_csv(artifact.records, os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(artifact.network, os.path.join(out_dir, "checkpoint.bin"))
