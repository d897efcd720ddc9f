"""Decision-column separability metrics and feed-backward reconstruction
training for dense classifiers, on a small self-contained numpy core.

The imports below are the public surface: the names that the README's
library tour, the demos, the acceptance tests and the benchmark reach
through the package, and every typed error. Every other name is reached
through its module, e.g. ``weightsep.network.forward``.
"""

from types import ModuleType as _ModuleType

from .data import (
    Dataset,
    filter_classes,
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
    TrainConfig,
    evaluate_accuracy,
    experiment_frozen_linearity,
    export_pca,
    load_checkpoint,
    metrics_to_csv,
    save_checkpoint,
    similarity_report,
    train,
)
from .linalg import qr_decompose, semi_orthogonal_init
from .losses import center_loss, reconstruction_loss, softmax_cross_entropy
from .network import NetworkSpec, init_network
from .optim import lr_at, sgd_step
from .separability import (
    error_matrix,
    format_epsilon,
    separability_metric,
    separability_metric_trace_form,
)

__version__ = "0.1.0"

# The imports also bind each submodule (``weightsep.harness``); those stay
# reachable but are not part of the surface.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
