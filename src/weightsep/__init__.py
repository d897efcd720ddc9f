"""Decision-column separability metrics and feed-backward reconstruction
training for dense classifiers, on a small self-contained numpy core."""

from .data import (
    Dataset,
    batches,
    filter_classes,
    load_mnist_dir,
    read_idx,
    synth_blobs,
    synth_digits,
    write_idx,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    OrientationError,
    ShapeError,
    SingularMatrixError,
    WeightsepError,
)
from .harness import (
    ComparisonCell,
    FrozenArm,
    FrozenLinearityResult,
    LossComparisonResult,
    MetricRecord,
    RunArtifact,
    SimilarityRow,
    TrainConfig,
    config_from_text,
    config_to_text,
    evaluate_accuracy,
    experiment_frozen_linearity,
    experiment_loss_comparison,
    export_pca,
    latent_features,
    load_checkpoint,
    metrics_to_csv,
    save_checkpoint,
    similarity_report,
    train,
    write_metrics_csv,
    write_run_artifact,
)
from .linalg import (
    QrResult,
    frobenius_norm_sq,
    jacobi_eigh,
    pca_reduce,
    qr_decompose,
    semi_orthogonal_init,
    trace,
)
from .losses import (
    center_loss,
    log_softmax,
    one_hot,
    reconstruction_loss,
    softmax,
    softmax_cross_entropy,
    total_loss,
)
from .network import (
    ForwardTrace,
    Network,
    NetworkSpec,
    backward,
    decide_classes,
    forward,
    init_network,
)
from .optim import lr_at, sgd_step
from .separability import (
    SeparabilityReport,
    error_matrix,
    format_epsilon,
    separability_metric,
    separability_metric_trace_form,
    separability_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
