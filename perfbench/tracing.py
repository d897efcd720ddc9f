"""Outside-in tracing of the weightsep layers.

The tracer replaces module-level names of the package with wrappers that
record a span per call, and puts the originals back when it is done. A span's
self time is its duration minus the time covered by the spans it encloses,
so the self times of all spans opened inside one outer span add up to that
outer span's duration. The wrappers live only in this file; the package
itself carries no instrumentation.
"""

import contextlib
import statistics
import time
from collections import Counter, defaultdict

from weightsep import cli, data, harness, linalg, losses, network, optim, rng
from weightsep import separability

# Layer name -> the (namespace, attribute) bindings through which the
# package calls it. A name imported with ``from .x import f`` is bound in
# the importing module too, so every binding a call can go through is
# listed; all of them get the same wrapper.
TARGETS = {
    "cli.main": ((cli, "main"),),
    "cli.resolve_datasets": ((cli, "resolve_datasets"),),
    "data.synth_digits": ((cli, "synth_digits"), (data, "synth_digits")),
    "data.synth_blobs": ((cli, "synth_blobs"), (data, "synth_blobs")),
    "data.load_mnist_dir": ((cli, "load_mnist_dir"), (data, "load_mnist_dir")),
    "data.read_idx": ((data, "read_idx"),),
    "data.write_idx": ((data, "write_idx"),),
    "data.batches": ((harness, "batches"),),
    "rng.generator": ((data, "generator"), (network, "generator"),
                      (rng, "generator")),
    "network.init_network": ((harness, "init_network"),),
    "network.forward": ((harness, "forward"),),
    "network.backward": ((harness, "backward"),),
    "network.Network.replace_parameters": (
        (network.Network, "replace_parameters"),),
    "losses.softmax_cross_entropy": ((losses, "softmax_cross_entropy"),),
    "losses.center_loss": ((losses, "center_loss"),),
    "losses.reconstruction_loss": ((losses, "reconstruction_loss"),),
    "losses.one_hot": ((losses, "one_hot"),),
    "losses.total_loss": ((losses, "total_loss"),),
    "optim.sgd_step": ((optim, "sgd_step"),),
    "separability.separability_metric": (
        (harness, "separability_metric"), (cli, "separability_metric")),
    "separability.separability_metric_trace_form": (
        (harness, "separability_metric_trace_form"),
        (cli, "separability_metric_trace_form")),
    "separability.separability_report": ((harness, "separability_report"),),
    "linalg.as_matrix": ((separability, "as_matrix"), (linalg, "as_matrix")),
    "linalg.frobenius_norm_sq": ((separability, "frobenius_norm_sq"),),
    "linalg.trace": ((separability, "trace"),),
    "linalg.pca_reduce": ((harness, "pca_reduce"),),
    "linalg.jacobi_eigh": ((linalg, "jacobi_eigh"),),
    "harness.train": ((harness, "train"),),
    "harness.evaluate_accuracy": ((harness, "evaluate_accuracy"),),
    "harness.latent_features": ((harness, "latent_features"),),
    "harness.export_pca": ((harness, "export_pca"),),
    "harness.write_run_artifact": ((harness, "write_run_artifact"),),
    "harness.write_metrics_csv": ((harness, "write_metrics_csv"),),
    "harness.save_checkpoint": ((harness, "save_checkpoint"),),
    "harness.load_checkpoint": ((harness, "load_checkpoint"),),
}

# Generator functions: time is charged per resume, and the gaps between
# successive yields are the training step times.
GENERATORS = frozenset({"data.batches"})

LAYERS = ("cli", "data", "rng", "network", "losses", "optim", "separability",
          "linalg", "harness")

# Names every workload calls, so their self time is never a structural zero.
# The rest are reported by call count and inside their layer's self time.
SELF_TIMED = (
    "cli.main", "cli.resolve_datasets", "data.batches", "rng.generator",
    "network.init_network", "network.forward", "network.backward",
    "network.Network.replace_parameters", "losses.softmax_cross_entropy",
    "losses.reconstruction_loss", "losses.one_hot", "losses.total_loss",
    "optim.sgd_step", "separability.separability_metric",
    "separability.separability_metric_trace_form",
    "separability.separability_report", "linalg.as_matrix",
    "linalg.frobenius_norm_sq", "linalg.trace", "harness.train",
    "harness.evaluate_accuracy", "harness.write_run_artifact",
    "harness.write_metrics_csv", "harness.save_checkpoint",
)


class Tracer:
    """Call counts, self times and batch-yield gaps, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.step_s = []
        self.yields = 0
        self.synth_samples = 0
        self._stack = []  # [name, start, time covered by child spans]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def generator_span(self, name, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            last_yield = None
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.yields += 1
                now = self.clock()
                if last_yield is not None:
                    self.step_s.append(now - last_yield)
                last_yield = now
                yield item

        return traced

    def wrap(self, name, fn):
        if name in GENERATORS:
            return self.generator_span(name, fn)
        traced = self.span(name, fn)
        if name == "data.synth_digits":
            def counted(*args, **kwargs):
                ds = traced(*args, **kwargs)
                self.synth_samples += len(ds)
                return ds

            return counted
        return traced


@contextlib.contextmanager
def installed(tracer, targets=None):
    """Patch every binding in ``targets`` with the tracer's wrapper for the
    duration of the block, then restore the originals."""
    targets = TARGETS if targets is None else targets
    saved = []
    try:
        for name, bindings in targets.items():
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer_names():
    names = [f"{n}.calls" for n in TARGETS]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{n}.self_s" for n in SELF_TIMED]
    names += ["data.batches.yields", "data.synth_digits.samples",
              "harness.step_ms.p50", "harness.step_ms.p99",
              "trace.overhead_ratio"]
    return names


def per_layer_metrics(tracers, overhead_ratio):
    """Per-layer metrics from the tracers of repeated identical units.

    Counts come from the first unit (the caller checks that they repeat);
    self times are medians over the units; step gaps are pooled.
    """
    first = tracers[0]
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = (first.calls[name], "count")
    for layer in LAYERS:
        per_unit = [sum(s for n, s in t.self_s.items()
                        if n.split(".", 1)[0] == layer) for t in tracers]
        out[f"{layer}.self_s"] = (statistics.median(per_unit), "s")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (
            statistics.median(t.self_s[name] for t in tracers), "s")
    steps = [s for t in tracers for s in t.step_s]
    out["data.batches.yields"] = (first.yields, "count")
    out["data.synth_digits.samples"] = (first.synth_samples, "count")
    out["harness.step_ms.p50"] = (1e3 * _percentile(steps, 0.50), "ms")
    out["harness.step_ms.p99"] = (1e3 * _percentile(steps, 0.99), "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def counts_of(tracer):
    """Everything in a tracer that must repeat exactly between runs."""
    return dict(tracer.calls), tracer.yields, tracer.synth_samples
