import json
import math
import re
import struct
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest

import weightsep as ws
from weightsep import (
    ConfigError,
    FormatError,
    TrainConfig,
    WeightsepError,
    config_from_text,
    config_to_text,
    load_checkpoint,
    metrics_to_csv,
    save_checkpoint,
    similarity_report,
    train,
    write_metrics_csv,
    write_run_artifact,
)
from weightsep import harness

from tests.support import (JSON_PROBES, central_difference, config_with,
                           relative_error, rewrite_checkpoint)


def blob_config(**overrides):
    base = dict(
        layer_dims=(8, 16, 3),
        epochs=30,
        seed=0,
        batch_size=16,
        milestones=(15, 25),
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def blob_run(blobs_small):
    return train(blob_config(), blobs_small)


# --- config -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        blob_config(loss="hinge")
    with pytest.raises(ConfigError):
        blob_config(lam=-1.0)
    with pytest.raises(ConfigError):
        blob_config(epochs=0)
    with pytest.raises(ConfigError):
        blob_config(final_init="kaiming")
    for dims in ((8, 0, 3), (8, 16, -1, 3)):
        with pytest.raises(ConfigError, match="hidden widths must be positive"):
            blob_config(layer_dims=dims)
    # the schedule's, the batch plan's and the SGD state's own checks
    for bad in (dict(base_lr=0.0), dict(lr_factor=1.5), dict(milestones=(5, 3)),
                dict(batch_size=0), dict(momentum=1.0), dict(weight_decay=-1.0)):
        with pytest.raises(ConfigError):
            blob_config(**bad)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            blob_config(seed=seed)
    assert blob_config(seed=2**64 - 1).seed == 2**64 - 1
    for rate in (1.5, 0.0, -2.0, float("nan")):
        with pytest.raises(ConfigError, match="center_rate"):
            blob_config(center_rate=rate)
    for rate in (0.5, 1.0, 1e-3):
        assert blob_config(center_rate=rate).center_rate == rate


def test_config_defaults_match_published_recipe():
    cfg = TrainConfig(layer_dims=(784, 64, 10), epochs=300, seed=0,
                      milestones=(100, 200, 250))
    assert cfg.lam == 0.001
    assert cfg.batch_size == 128
    assert cfg.base_lr == 0.1
    assert cfg.lr_factor == 0.1
    assert cfg.momentum == 0.9
    assert cfg.weight_decay == 1e-4
    sched = (cfg.base_lr, cfg.milestones, cfg.lr_factor)
    assert ws.lr_at(*sched, 0) == 0.1
    assert abs(ws.lr_at(*sched, 250) - 1e-4) < 1e-18


def test_default_config_is_the_desk_scale_recipe(blobs_small):
    cfg = ws.harness.default_config(blobs_small, seed=4)
    assert cfg == TrainConfig(layer_dims=(8, 64, 3), epochs=30, seed=4,
                              milestones=(15, 25))


def test_config_text_round_trip():
    cfg = blob_config(use_reconstruction=True, class_filter=(0, 2))
    text = config_to_text(cfg)
    back = config_from_text(text)
    assert back == cfg


def test_config_text_skips_blank_and_comment_lines():
    cfg = blob_config(use_reconstruction=True, class_filter=(0, 2))
    text = "# a blobs run\n\n" + "".join(
        line + "   \n  # the key above, annotated\n"
        for line in config_to_text(cfg).splitlines(keepends=True))
    assert config_from_text(text) == cfg


def test_config_text_rejects_unknown_key():
    text = config_to_text(blob_config()) + "mystery = 3\n"
    with pytest.raises(ConfigError) as err:
        config_from_text(text)
    assert "mystery" in str(err.value)


def test_config_text_rejects_duplicate_key():
    text = config_to_text(blob_config()) + "epochs = 5\n"
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError,
                       match=rf"^line {lineno}: duplicate config key 'epochs'$"):
        config_from_text(text)


def test_config_text_rejects_bad_value():
    text = config_to_text(blob_config()).replace(
        "epochs = 30", "epochs = banana"
    )
    with pytest.raises(ConfigError):
        config_from_text(text)


def test_config_text_rejects_a_line_without_equals():
    text = config_to_text(blob_config()) + "epochs 5\n"
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError,
                       match=rf"^line {lineno}: expected 'key = value': "
                             r"'epochs 5'$"):
        config_from_text(text)


def test_config_text_rejects_a_missing_field():
    text = "".join(line for line in config_to_text(blob_config()).splitlines(
        keepends=True) if not line.startswith("epochs = "))
    with pytest.raises(ConfigError, match=r"^incomplete config: .*'epochs'"):
        config_from_text(text)


@pytest.mark.parametrize("key", list(TrainConfig.__dataclass_fields__))
def test_every_field_value_parses_or_is_a_config_error(key):
    base = blob_config(loss="softmax_ce_plus_center", use_reconstruction=True)
    text = config_to_text(base)
    kinds = {"null": type(None), "true": bool, "1": int, "1.5": float,
             '"x"': str, "[]": list, "[1]": list, "{}": dict}
    field_type = TrainConfig.__dataclass_fields__[key].type
    for value in JSON_PROBES:
        # The library call and the file line get the same verdict.
        try:
            library = TrainConfig(**{**asdict(base), key: json.loads(value)})
        except ConfigError:
            library = None
        try:
            cfg = config_from_text(config_with(text, key, value))
        except ConfigError:
            assert library is None, (key, value)
            continue
        assert cfg == library
        # Only a value of the field's own type gets through, an int in
        # place of a float included; a bool never counts as a number.
        kind = kinds[value]
        assert (kind is field_type or (kind, field_type) in
                ((list, tuple), (int, float)))
        assert config_from_text(config_to_text(cfg)) == cfg


@pytest.mark.parametrize("key, value", [
    ("epochs", 2.5), ("batch_size", 2.5), ("seed", 1.5),
    ("use_reconstruction", "no"), ("layer_dims", (32, 8.7, 3)),
    ("lam", float("nan")), ("base_lr", float("nan")),
    ("weight_decay", float("nan")), ("class_filter", (0, True)),
    ("data_source", 3), ("layer_dims", (np.int64(8), 4, 3)),
], ids=lambda v: v if isinstance(v, str) else repr(v).replace(" ", ""))
def test_library_config_rejects_a_wrong_typed_value(key, value):
    # Rejected by TrainConfig itself, so before train() sees any data.
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        blob_config(**{key: value})


def test_config_rejects_a_value_nested_too_deep():
    with pytest.raises(ConfigError, match="bad value for epochs"):
        config_from_text("epochs = " + "[" * 100_000)


def test_config_rejects_non_finite_numbers():
    for value in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ConfigError, match="lam must be a finite number"):
            config_from_text(config_with(config_to_text(blob_config()),
                                         "lam", value))


# --- training loop ----------------------------------------------------


def test_separable_blobs_train_accurately(blob_run):
    final = blob_run.records[-1]
    assert final.train_accuracy > 0.95
    assert blob_run.report.epsilon == final.epsilon


def test_metric_records_internally_consistent(blob_run):
    cfg = blob_run.config
    for rec in blob_run.records:
        assert rec.epsilon >= 0.0
        assert abs(
            rec.loss_total - (rec.loss_cls + cfg.lam * rec.loss_re)
        ) < 1e-9


def test_steps_and_epochs_enumerated(blob_run):
    records = blob_run.records
    assert [r.step for r in records] == list(range(len(records)))
    # 120 samples / batch 16 -> 8 batches per epoch, 30 epochs
    assert len(records) == 8 * 30
    assert records[0].epoch == 0
    assert records[-1].epoch == 29


def test_training_deterministic(blobs_small):
    a = train(blob_config(seed=3), blobs_small)
    b = train(blob_config(seed=3), blobs_small)
    assert a.records == b.records
    for x, y in zip(a.network.parameters(), b.network.parameters()):
        assert np.array_equal(x, y)


def test_seed_changes_trajectory(blobs_small):
    a = train(blob_config(seed=3), blobs_small)
    b = train(blob_config(seed=4), blobs_small)
    assert a.records != b.records


def test_class_count_mismatch(blobs_small):
    with pytest.raises(ConfigError, match="last width 5 != the data's class "
                                          "count 3"):
        train(blob_config(layer_dims=(8, 16, 5)), blobs_small)
    with pytest.raises(ConfigError, match="first width 9 != the data's input "
                                          "width 8"):
        train(blob_config(layer_dims=(9, 16, 3)), blobs_small)
    with pytest.raises(ConfigError):
        train(blob_config(layer_dims=(8,)), blobs_small)


def test_frozen_final_keeps_epsilon_constant(blobs_small):
    cfg = blob_config(freeze_final=True, final_init="semi_orthogonal", epochs=2)
    art = train(cfg, blobs_small)
    eps = {r.epsilon for r in art.records}
    assert len(eps) == 1
    assert art.report.epsilon < 1e-12


def test_freeze_final_keeps_the_decision_weight_out_of_sgd(blobs_small,
                                                           monkeypatch):
    cfg = blob_config(freeze_final=True, epochs=2)
    handed = []
    sgd_step = harness.optim.sgd_step

    def recording(params, *args):
        handed.append(len(params))
        return sgd_step(params, *args)

    monkeypatch.setattr(harness.optim, "sgd_step", recording)
    art = train(cfg, blobs_small)
    spec = ws.NetworkSpec(cfg.layer_dims)
    assert handed == [len(spec.parameter_layout()) - 1] * len(art.records)
    fresh = ws.init_network(spec, cfg.seed)
    trained = art.network.parameters()
    assert np.array_equal(trained[-1], fresh.final_weight)
    for p, p0 in zip(trained[:-1], fresh.parameters()):
        assert not np.array_equal(p, p0)


def test_backward_gets_the_reconstruction_w_seed_frozen_or_not(blobs_small,
                                                               monkeypatch):
    # The objective seeds the decision weight's gradient whenever the term is
    # on; freeze_final alone decides that SGD never applies it.
    seeds = []
    backward = harness.backward

    def recording(net, trace, logit_grad, latent_grad=None, w_grad=None):
        seeds.append((latent_grad is not None, w_grad is not None))
        return backward(net, trace, logit_grad, latent_grad, w_grad)

    monkeypatch.setattr(harness, "backward", recording)
    for freeze in (True, False):
        seeds.clear()
        train(blob_config(freeze_final=freeze, use_reconstruction=True,
                          epochs=1), blobs_small)
        assert seeds and set(seeds) == {(True, True)}


@pytest.mark.parametrize("freeze", [False, True], ids=["trained", "frozen"])
@pytest.mark.parametrize("use_re", [False, True], ids=["no-term", "term"])
@pytest.mark.parametrize("loss", harness.LOSS_KINDS)
def test_objective_is_the_public_losses_and_their_gradient(loss, use_re,
                                                           freeze):
    # The 6-9-5-4 net of the network tests' all-seeds gradient check.
    lam = 0.3  # large enough that the reconstruction part shows in the check
    cfg = blob_config(layer_dims=(6, 9, 5, 4), loss=loss, lam=lam,
                      use_reconstruction=use_re, freeze_final=freeze)
    rng = np.random.default_rng(29)
    net = ws.init_network(ws.NetworkSpec(cfg.layer_dims), 3)
    batch = rng.normal(size=(3, 6))
    labels = rng.integers(0, 4, size=3)
    given = rng.normal(size=(4, 5))
    centers = given.copy()
    trace = ws.forward(net, batch)
    parts, seeds, new_centers = harness._objective(cfg, net, trace, labels,
                                                   centers)

    cls, _ = ws.softmax_cross_entropy(trace.logits, labels)
    if loss == "softmax_ce_plus_center":
        c_value, _, want_centers = ws.center_loss(trace.latent, labels, given,
                                                  cfg.center_rate)
        cls += c_value
        assert np.array_equal(new_centers, want_centers)
    else:
        assert new_centers is centers
    assert np.array_equal(centers, given)
    re_value = (ws.reconstruction_loss(trace.latent, labels,
                                       net.final_weight)[0]
                if use_re else 0.0)
    assert parts == (cls, re_value, ws.total_loss(cls, re_value, lam))

    grads = ws.backward(net, trace, *seeds)
    params = [p.copy() for p in net.parameters()]
    live = net.replace_parameters(params)

    def total():
        t = ws.forward(live, batch)
        return harness._objective(cfg, live, t, labels, given.copy())[0][2]

    for p, g in zip(params, grads):
        assert relative_error(central_difference(total, p), g) < 1e-4


def test_center_loss_variant_runs(blobs_small):
    art = train(blob_config(loss="softmax_ce_plus_center", epochs=5),
                blobs_small)
    assert art.records[-1].train_accuracy > 0.5
    assert all(np.isfinite(r.loss_total) for r in art.records)


def test_nonfinite_loss_aborts_with_step_index(blobs_small, monkeypatch):
    from weightsep.harness import losses as loss_mod

    real = loss_mod.total_loss
    calls = {"n": 0}

    def poisoned(*args, **kwargs):
        total = real(*args, **kwargs)
        calls["n"] += 1
        return float("nan") if calls["n"] == 3 else total

    monkeypatch.setattr(loss_mod, "total_loss", poisoned)
    with pytest.raises(ws.NumericError) as err:
        train(blob_config(epochs=1), blobs_small)
    assert "step 2" in str(err.value)  # steps count from 0
    assert "last finite record" in str(err.value)
    last = re.search(r"last finite record: MetricRecord\(step=(\d+), .*"
                     r"epsilon=([^)]*)\)", str(err.value))
    assert last is not None and last.group(1) == "1"
    assert math.isfinite(float(last.group(2)))


@pytest.mark.parametrize("later_failure", ["loss", "gradient"])
def test_bad_epsilon_form_is_named_before_a_later_failing_step(
        blobs_small, monkeypatch, later_failure):
    # Step 1 gets an infinite trace form and step 3 of the same epoch fails
    # on its own; step 1 failed first, so its error is the one raised.
    stacked, total_loss, backward = (harness.stacked_epsilon,
                                     harness.losses.total_loss,
                                     harness.backward)
    calls = {"n": 0}

    def bad_step_1(ws_):
        eps, eps_trace = stacked(ws_)
        eps_trace[1] = np.inf  # the first epoch's stack starts at step 0
        return eps, eps_trace

    def nan_loss_at_step_3(*args):
        calls["n"] += 1
        return float("nan") if calls["n"] == 4 else total_loss(*args)

    def nan_gradient_at_step_3(*args):
        calls["n"] += 1
        grads = backward(*args)
        return [g * np.nan for g in grads] if calls["n"] == 4 else grads

    monkeypatch.setattr(harness, "stacked_epsilon", bad_step_1)
    if later_failure == "loss":
        monkeypatch.setattr(harness.losses, "total_loss", nan_loss_at_step_3)
    else:
        monkeypatch.setattr(harness, "backward", nan_gradient_at_step_3)
    with pytest.raises(ws.NumericError,
                       match=r"forms not finite or disagree at step 1: "):
        train(blob_config(epochs=1), blobs_small)
    assert calls["n"] == 4


@pytest.mark.parametrize("overrides", [
    dict(batch_size=7, epochs=3),  # 120 samples: a ragged last batch of 1
    dict(freeze_final=True, final_init="semi_orthogonal", epochs=2),
    dict(freeze_final=True, final_init="uniform_unit", epochs=2),
    dict(layer_dims=(8, 12, 16, 3), epochs=3, loss="softmax_ce_plus_center",
         use_reconstruction=True),
], ids=["ragged", "frozen-semi-orthogonal", "frozen-uniform-unit",
        "two-hidden-layers"])
def test_logged_epsilon_is_the_report_of_each_steps_weight(
        blobs_small, monkeypatch, overrides):
    # ε is computed at each epoch end from the weights the steps produced;
    # each must read as the checked report of that step's weight would.
    weights = []
    replace_parameters = harness.Network.replace_parameters

    def recording(net, params):
        weights.append(params[-1].copy())
        return replace_parameters(net, params)

    monkeypatch.setattr(harness.Network, "replace_parameters", recording)
    art = train(blob_config(**overrides), blobs_small)
    assert len(weights) == len(art.records)
    assert [r.epsilon for r in art.records] == \
        [ws.separability_report(w).epsilon for w in weights]
    assert art.report.epsilon == art.records[-1].epsilon


@pytest.mark.parametrize("final_init", harness.FINAL_INITS)
def test_wide_decision_layer_fails_before_training(monkeypatch, final_init):
    # 4 latent units for 10 classes: the decision matrix is wider than tall.
    ds = ws.synth_blobs(n_classes=10, per_class=20, dim=32, spread=0.05,
                        seed=3)
    calls = []
    sgd_step = harness.optim.sgd_step
    monkeypatch.setattr(harness.optim, "sgd_step",
                        lambda *args: calls.append(1) or sgd_step(*args))
    with pytest.raises(ws.OrientationError, match="more columns than rows"):
        train(TrainConfig(layer_dims=(32, 4, 10), epochs=3, seed=0,
                          batch_size=32, final_init=final_init), ds)
    assert len(calls) <= 1


@pytest.mark.parametrize("final_init", harness.FINAL_INITS)
def test_square_decision_layer_trains(blobs_small, final_init):
    # As many latent units as classes: the widest decision layer allowed.
    art = train(blob_config(layer_dims=(8, 3, 3), epochs=1,
                            final_init=final_init), blobs_small)
    assert art.network.final_weight.shape == (3, 3)


def pending_row(step, w):
    """One entry of train's pending list: step ``step``'s record fields but
    epsilon, then its decision weight ``w``."""
    return (step, 0, 0.0, 0.0, 0.0, 1.0, w)


def test_epsilon_sample_rejects_overflowing_forms():
    # Every entry of the error matrix and of its square is finite, but the
    # sums of squares overflow, so both forms come out infinite.
    with pytest.raises(ws.NumericError):
        harness._score_pending([pending_row(0, np.diag([1e77, 1e77]))], [])
    records = []
    harness._score_pending([pending_row(0, np.eye(3, 2))], records)
    assert records[0].epsilon == 0.0


@pytest.mark.parametrize("forms", [(np.inf, 1.0), (1.0, np.inf),
                                   (np.inf, np.inf), (np.nan, 1.0)])
def test_epsilon_sample_rejects_a_non_finite_form(monkeypatch, forms):
    monkeypatch.setattr(harness, "stacked_epsilon", lambda weights: (
        np.array(forms[:1]), np.array(forms[1:])))
    with pytest.raises(ws.NumericError, match="step 4"):
        harness._score_pending([pending_row(4, np.eye(1))], [])


def test_first_bad_epsilon_step_of_an_epoch_is_named(blobs_small, monkeypatch):
    # Steps 2 and 5 of the first epoch both get an infinite trace form; the
    # error names the earlier one.
    stacked_epsilon = harness.stacked_epsilon

    def bad_trace(weights):
        eps, eps_trace = stacked_epsilon(weights)
        eps_trace[[2, 5]] = np.inf
        return eps, eps_trace

    monkeypatch.setattr(harness, "stacked_epsilon", bad_trace)
    with pytest.raises(ws.NumericError, match=r"at step 2: .* vs inf$"):
        train(blob_config(epochs=1), blobs_small)


def test_a_batch_1_epoch_holds_decision_weights_up_to_the_cap():
    import tracemalloc

    # 1,200 batch-1 steps in one epoch, each leaving a 256 x 10 decision
    # weight of 20 KB: 24.6 MB held for one epoch-end pass, and as much again
    # for its stack. Scoring every EPSILON_PASS_STEPS steps holds a fifth.
    ds = ws.synth_blobs(n_classes=10, per_class=120, dim=32, spread=0.05,
                        seed=5)
    config = TrainConfig(layer_dims=(32, 256, 10), epochs=1, seed=0,
                         batch_size=1)
    weight_bytes = 256 * 10 * 8
    assert len(ds) > 4 * harness.EPSILON_PASS_STEPS
    tracemalloc.start()
    try:
        steps = len(train(config, ds).records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == len(ds)
    assert peak < 3 * harness.EPSILON_PASS_STEPS * weight_bytes


def test_epsilon_pass_cap_keeps_the_metric_log_bytes(blobs_small, monkeypatch):
    # 8 steps an epoch, scored in passes of 3, 3 and 2 under a cap of 3.
    config = blob_config(epochs=3, use_reconstruction=True)
    default = metrics_to_csv(train(config, blobs_small).records)
    passes = []
    stacked = harness.stacked_epsilon
    monkeypatch.setattr(harness, "EPSILON_PASS_STEPS", 3)
    monkeypatch.setattr(harness, "stacked_epsilon",
                        lambda ws_: passes.append(len(ws_)) or stacked(ws_))
    assert metrics_to_csv(train(config, blobs_small).records) == default
    assert passes == [3, 3, 2] * 3


def test_batch_accuracy_equals_float_mean(blobs_small, monkeypatch):
    # Each record's accuracy must equal float(np.mean(pred == labels)) for
    # the batch it was computed on, at a batch size that divides inexactly.
    preds, labels = [], []
    decide, batches = harness.decide_classes, harness.batches

    def recording_decide(logits):
        preds.append(decide(logits))
        return preds[-1]

    def recording_batches(*args):
        for feats, y in batches(*args):
            labels.append(y)
            yield feats, y

    monkeypatch.setattr(harness, "decide_classes", recording_decide)
    monkeypatch.setattr(harness, "batches", recording_batches)
    art = train(blob_config(epochs=2, batch_size=7), blobs_small)
    assert len(preds) == len(labels) == len(art.records)
    expected = [float(np.mean(p == y)) for p, y in zip(preds, labels)]
    assert [r.train_accuracy for r in art.records] == expected
    assert len(set(expected)) > 2


def test_reconstruction_loss_logged(blobs_small):
    art = train(blob_config(use_reconstruction=True, epochs=2),
                blobs_small)
    assert any(r.loss_re > 0 for r in art.records)
    off = train(blob_config(epochs=2), blobs_small)
    assert all(r.loss_re == 0.0 for r in off.records)


def test_train_step_composes_gradient_seeds(blobs_small):
    """One full-batch step of CE + center + reconstruction is backward fed
    dL/dlogits, center + lam * reconstruction dL/dlatent and lam times the
    reconstruction dL/dW, then one SGD update."""
    cfg = blob_config(epochs=1, batch_size=len(blobs_small), lam=0.3,
                      loss="softmax_ce_plus_center", use_reconstruction=True)
    art = train(cfg, blobs_small)
    assert len(art.records) == 1

    spec = ws.NetworkSpec(cfg.layer_dims)
    net = ws.init_network(spec, cfg.seed)
    feats, labels = next(ws.batches(blobs_small, cfg.batch_size, cfg.seed, 0))
    tr = ws.forward(net, feats)
    ce, logit_grad = ws.softmax_cross_entropy(tr.logits, labels)
    centers = np.zeros((spec.n_classes, spec.latent_dim))
    c, center_grad, _ = ws.center_loss(tr.latent, labels, centers,
                                       cfg.center_rate)
    re, re_latent, re_w = ws.reconstruction_loss(
        tr.latent, labels, net.final_weight)
    grads = ws.backward(net, tr, logit_grad, center_grad + cfg.lam * re_latent,
                        cfg.lam * re_w)
    params = net.parameters()
    velocity = tuple(np.zeros_like(p) for p in params)
    params, _ = ws.sgd_step(params, grads, velocity, cfg.base_lr, cfg.momentum,
                            cfg.weight_decay)
    for x, y in zip(art.network.parameters(), params):
        assert np.array_equal(x, y)
    rec = art.records[0]
    assert (rec.loss_cls, rec.loss_re) == (ce + c, re)
    assert rec.loss_total == ce + c + cfg.lam * re


@pytest.mark.parametrize("loss", ["softmax_ce", "softmax_ce_plus_center"])
def test_zero_lambda_drops_reconstruction_gradients(blobs_small, loss):
    off = train(blob_config(epochs=2, loss=loss), blobs_small)
    on = train(blob_config(epochs=2, loss=loss, use_reconstruction=True,
                           lam=0.0), blobs_small)
    for x, y in zip(off.network.parameters(), on.network.parameters()):
        assert np.array_equal(x, y)
    assert any(r.loss_re > 0 for r in on.records)
    assert all(r.loss_total == r.loss_cls for r in on.records)


# --- metrics CSV ------------------------------------------------------


def test_metrics_csv_schema_and_epsilon_format(blob_run):
    text = metrics_to_csv(blob_run.records)
    lines = text.strip().split("\n")
    assert lines[0] == "step,epoch,loss_cls,loss_re,loss_total,train_acc,epsilon"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    eps_field = first[-1]
    # scientific notation with three significant digits: d.dde[+-]dd
    assert len(eps_field.split("e")) == 2
    mantissa = eps_field.split("e")[0]
    assert len(mantissa) == 4 and mantissa[1] == "."


def test_metrics_csv_round_trip_consistency(tmp_path, blob_run):
    path = tmp_path / "metrics.csv"
    ws.write_metrics_csv(blob_run.records, path)
    rows = path.read_text().strip().split("\n")[1:]
    assert len(rows) == len(blob_run.records)
    for row, rec in zip(rows, blob_run.records):
        f = row.split(",")
        assert int(f[0]) == rec.step
        assert int(f[1]) == rec.epoch
        assert abs(float(f[2]) - rec.loss_cls) < 1e-9
        assert abs(float(f[6]) - rec.epsilon) <= 0.005 * max(rec.epsilon, 1e-300)


# --- checkpoints ------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, blob_run):
    path = tmp_path / "model.bin"
    save_checkpoint(blob_run.network, path)
    back = load_checkpoint(path)
    assert back.spec == blob_run.network.spec
    for a, b in zip(back.parameters(), blob_run.network.parameters()):
        assert np.array_equal(a, b)


def test_checkpoint_truncation_detected(tmp_path, blob_run):
    path = tmp_path / "model.bin"
    save_checkpoint(blob_run.network, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_corruption_detected(tmp_path, blob_run):
    path = tmp_path / "model.bin"
    save_checkpoint(blob_run.network, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "checksum" in str(err.value).lower()


def test_checkpoint_bad_magic(tmp_path, blob_run):
    path = tmp_path / "model.bin"
    save_checkpoint(blob_run.network, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _small_checkpoint(tmp_path):
    path = tmp_path / "small.bin"
    save_checkpoint(ws.init_network(ws.NetworkSpec((2, 3, 2)), 0), path)
    return path.read_bytes()


def _load_bytes(path, data):
    path.write_bytes(bytes(data))
    return load_checkpoint(path)


def test_every_truncation_and_bit_flip_is_a_typed_error(tmp_path):
    data = _small_checkpoint(tmp_path)
    path = tmp_path / "damaged.bin"
    for n in range(len(data)):
        with pytest.raises(WeightsepError):
            _load_bytes(path, data[:n])
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(WeightsepError):
            _load_bytes(path, flipped)


def test_every_bit_flip_past_the_checksum_loads_or_is_a_typed_error(tmp_path):
    # The flipped body gets a fresh checksum, so each flip reaches the header
    # and payload parsers instead of stopping at the checksum.
    body = _small_checkpoint(tmp_path)[:-4]
    path = tmp_path / "damaged.bin"
    loaded = 0
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flipped += struct.pack(">I", zlib.crc32(flipped) & 0xFFFFFFFF)
        try:
            _load_bytes(path, flipped)
            loaded += 1
        except WeightsepError:
            pass
    assert loaded > 0  # payload flips that stay finite do load


def _drop_layers(header):
    del header["layers"]
    return header


def _relabel_activation(header):
    header["layers"][0]["activation"] = "tanh"
    return header


def _string_width(header):
    header["layers"][0]["in"] = "8"
    return header


def _hidden_identity(header):
    # The one case that loaded while each layer named its activation.
    header["layers"][0]["activation"] = "identity"
    return header


def _relu_decision_layer(header):
    header["layers"][-1]["activation"] = "relu"
    return header


def _bool_width(header):
    header["layers"][0]["in"] = True
    return header


def _broken_chain(header):
    header["layers"][1]["in"] += 1
    return header


def _no_layer_entries(header):
    header["layers"] = []
    return header


def _drop_bias_entry(header):
    del header["arrays"][1]
    return header


def _wrong_shape(header):
    header["arrays"][0]["shape"] = [8, 17]
    return header


def _huge_shape(header):
    # 2**32 x 2**32 entries: an int64 product of the shape wraps to 0
    return {"version": 1,
            "layers": [{"in": 2**32, "out": 2**32, "activation": "identity"}],
            "arrays": [{"name": "layer0.weight", "shape": [2**32, 2**32]}]}


@pytest.mark.parametrize("mutate", [
    _drop_layers,
    lambda header: list(header.values()),
    lambda header: None,
    _relabel_activation,
    _string_width,
    _hidden_identity,
    _relu_decision_layer,
    _bool_width,
    _broken_chain,
    _no_layer_entries,
    _drop_bias_entry,
    _wrong_shape,
    _huge_shape,
], ids=["no-layers", "list", "null", "bad-activation", "string-width",
        "hidden-identity", "relu-decision", "bool-width", "broken-chain",
        "empty-layers", "missing-bias", "wrong-shape", "huge-shape"])
def test_checkpoint_malformed_header_is_format_error(tmp_path, blob_run, mutate):
    path = tmp_path / "model.bin"
    save_checkpoint(blob_run.network, path)
    rewrite_checkpoint(path, path, edit_header=mutate)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "header" in str(err.value)


@pytest.mark.parametrize("edit_header, edit_payload, what", [
    (None, lambda payload: payload[:-8], "shorter"),
    (None, lambda payload: payload + bytes(8), "longer"),
    (_huge_shape, None, "shorter"),
], ids=["shorter", "longer", "huge-widths"])
def test_checkpoint_payload_length_must_match_the_header(
        tmp_path, blob_run, edit_header, edit_payload, what):
    path = tmp_path / "model.bin"
    save_checkpoint(blob_run.network, path)
    rewrite_checkpoint(path, path, edit_header, edit_payload)
    with pytest.raises(FormatError,
                       match=f"payload {what} than header promises$"):
        load_checkpoint(path)


def test_checkpoint_deeply_nested_header_is_format_error(tmp_path):
    header = b"[" * 100_000
    blob = harness.CHECKPOINT_MAGIC + struct.pack(
        ">II", harness.CHECKPOINT_VERSION, len(header)) + header
    path = tmp_path / "deep.bin"
    path.write_bytes(blob + struct.pack(">I", zlib.crc32(blob) & 0xFFFFFFFF))
    with pytest.raises(FormatError, match="unreadable checkpoint header"):
        load_checkpoint(path)


def test_checkpoint_nonfinite_weights_are_numeric_error(tmp_path, blob_run):
    path = tmp_path / "model.bin"
    save_checkpoint(blob_run.network, path)
    nan = np.array([np.nan], dtype="<f8").tobytes()
    rewrite_checkpoint(path, path, edit_payload=lambda p: p[:-8] + nan)
    with pytest.raises(ws.NumericError) as err:
        load_checkpoint(path)
    assert "layer1.weight" in str(err.value)


def test_checkpoint_frozen_run_preserves_init(tmp_path, blobs_small):
    cfg = blob_config(freeze_final=True, final_init="semi_orthogonal", epochs=2)
    art = train(cfg, blobs_small)
    write_run_artifact(art, tmp_path / "run")
    back = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    assert back.spec == art.network.spec
    for a, b in zip(back.parameters(), art.network.parameters(), strict=True):
        assert np.array_equal(a, b)
    fresh = ws.init_network(ws.NetworkSpec(cfg.layer_dims), cfg.seed,
                            final_init="semi_orthogonal")
    assert np.array_equal(back.final_weight, fresh.final_weight)


def test_training_on_pixel_codes_equals_training_on_their_rows(tmp_path):
    codes = ws.synth_digits(per_class=20, seed=3)
    floats = ws.Dataset(codes.rows(), codes.labels, codes.n_classes)
    assert codes.features.dtype == np.uint8
    assert floats.features.dtype == np.float64
    cfg = TrainConfig(layer_dims=(784, 16, 10), epochs=2, seed=4,
                      batch_size=32, use_reconstruction=True, lam=0.01)
    nets = []
    for name, ds in (("codes", codes), ("floats", floats)):
        art = train(cfg, ds)
        write_run_artifact(art, tmp_path / name)
        nets.append(art.network)
    for name in ("metrics.csv", "config.txt", "checkpoint.bin"):
        assert ((tmp_path / "codes" / name).read_bytes()
                == (tmp_path / "floats" / name).read_bytes()), name
    assert np.array_equal(harness.latent_features(nets[0], codes),
                          harness.latent_features(nets[0], floats))
    assert (harness.evaluate_accuracy(nets[0], codes)
            == harness.evaluate_accuracy(nets[0], floats))


@pytest.fixture(scope="module")
def digits_net():
    """A 784-64-10 network after one epoch on a small digits split."""
    config = TrainConfig(layer_dims=(784, 64, 10), epochs=1, seed=2,
                         batch_size=32)
    return train(config, ws.synth_digits(per_class=20, seed=3)).network


def whole_split(net, ds):
    """Latents and accuracy from one forward call over every row."""
    trace = ws.forward(net, ds.rows())
    accuracy = float(np.mean(ws.decide_classes(trace.logits) == ds.labels))
    return trace.latent, accuracy


def test_blocked_evaluation_holds_no_float_copy_of_the_split(digits_net):
    import tracemalloc

    ds = ws.synth_digits(per_class=300, seed=3)
    assert ds.features.dtype == np.uint8
    tracemalloc.start()
    try:
        harness.evaluate_accuracy(digits_net, ds)
        latents = harness.latent_features(digits_net, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert latents.shape == (len(ds), 64)
    # Two 128-row blocks and the latents come to about 3.1 MB, where a
    # float64 copy of the 3,000-row split is 18.8 MB.
    assert peak < len(ds) * ds.dim * 8 / 4


def test_blocked_evaluation_keeps_the_bytes_of_the_cli_test_split(digits_net):
    ds = ws.synth_digits(per_class=100, seed=1_000_014)
    latents, accuracy = whole_split(digits_net, ds)
    assert harness.latent_features(digits_net, ds).tobytes() == latents.tobytes()
    assert harness.evaluate_accuracy(digits_net, ds) == accuracy


@pytest.mark.parametrize("n", [129, 2000, 5120])
def test_blocked_evaluation_matches_one_forward_call(digits_net, n):
    # Blocks may round differently from one large matmul, or from a 1-3
    # row remainder block, by far less than a decision margin.
    split = ws.synth_digits(per_class=512, seed=11)
    ds = ws.Dataset(split.features[:n], split.labels[:n], split.n_classes)
    latents, accuracy = whole_split(digits_net, ds)
    blocked = harness.latent_features(digits_net, ds)
    assert np.max(np.abs(blocked - latents)) <= 1e-12 * np.max(np.abs(latents))
    assert harness.evaluate_accuracy(digits_net, ds) == accuracy


# --- similarity and PCA export ---------------------------------------


def test_similarity_trivial_cases():
    w = np.array([[3.0, 0.0], [0.0, 4.0]])
    feats = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 8.0]]) / 8.0
    net = ws.init_network(ws.NetworkSpec((2, 2)), 0)
    net = net.replace_parameters([w])
    ds = ws.Dataset(feats, np.array([0, 1, 1]), 2)
    rows = similarity_report(net, ds)
    # class 0 mean latent = (0.375, 0) is collinear with column (3, 0)
    assert rows[0].cosine_distance < 1e-12
    assert abs(rows[0].euclidean - np.linalg.norm([3 - 0.375, 0.0])) < 1e-12
    # class 1 mean latent = (0, 0.75) collinear with (0, 4)
    assert rows[1].cosine_distance < 1e-12


def test_similarity_exact_match_is_zero():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    net = ws.init_network(ws.NetworkSpec((2, 2)), 0).replace_parameters([w])
    ds = ws.Dataset(w.copy(), np.array([0, 1]), 2)
    rows = similarity_report(net, ds)
    for r in rows:
        assert r.euclidean == 0.0
        assert r.cosine_distance < 1e-12


def test_similarity_of_a_zero_mean_latent():
    # relu(-x) is 0 for every x in [0, 1]: every hidden unit is dead, so each
    # class's mean latent is all zeros. Its cosine distance reads 1 beside a
    # column of norm 0.5, and 0 where the column is zero too.
    w = np.array([[0.5, 0.0], [0.0, 0.0]])
    net = ws.init_network(ws.NetworkSpec((2, 2, 2)), 0).replace_parameters(
        [-np.ones((2, 2)), np.zeros(2), w])
    ds = ws.Dataset(np.array([[0.2, 0.4], [0.6, 0.8]]), np.array([0, 1]), 2)
    rows = similarity_report(net, ds)
    assert [(r.euclidean, r.cosine_distance) for r in rows] == [(0.5, 1.0),
                                                                (0.0, 0.0)]


def test_similarity_empty_class_rejected():
    net = ws.init_network(ws.NetworkSpec((2, 2)), 0)
    ds = ws.Dataset(np.zeros((2, 2)), np.array([0, 0]), 2)
    with pytest.raises(ws.DataError):
        similarity_report(net, ds)


def test_export_pca_round_trip(tmp_path):
    rng = np.random.default_rng(50)
    latents = rng.normal(size=(20, 3))
    labels = rng.integers(0, 2, size=20)
    path = tmp_path / "cloud.csv"
    ws.export_pca(latents, labels, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "pc1,pc2,pc3,label"
    parsed = np.array([[float(x) for x in l.split(",")[:3]] for l in lines[1:]])
    # 3-D input, k=3: projection is a rigid motion of the centered cloud
    d_in = np.linalg.norm(latents[:, None] - latents[None], axis=2)
    d_out = np.linalg.norm(parsed[:, None] - parsed[None], axis=2)
    assert np.max(np.abs(d_in - d_out)) < 1e-8
    # variances non-increasing across components
    v = parsed.var(axis=0)
    assert v[0] >= v[1] >= v[2]
    # labels survive
    got = [int(l.split(",")[3]) for l in lines[1:]]
    assert got == list(labels)


def test_export_pca_needs_2d_latents(tmp_path):
    path = tmp_path / "cloud.csv"
    with pytest.raises(ws.ShapeError, match="latents must be 2-D"):
        ws.export_pca(np.arange(6.0), np.arange(6) % 2, path)
    assert not path.exists()


def test_export_pca_needs_one_label_per_latent_row(tmp_path):
    latents = np.random.default_rng(51).normal(size=(6, 4))
    path = tmp_path / "cloud.csv"
    for labels in (np.array([0, 1]), np.zeros((6, 1), dtype=int)):
        with pytest.raises(ws.ShapeError, match="one label per latent row"):
            ws.export_pca(latents, labels, path)
    assert not path.exists()


@pytest.mark.parametrize("labels", [[0.7, 1.2, 2.0, -3.9],
                                    [True, False, True, True]])
def test_export_pca_needs_integer_labels(tmp_path, labels):
    # int() would write these as 0, 1, 2, -3 and 1, 0, 1, 1
    latents = np.random.default_rng(52).normal(size=(4, 3))
    path = tmp_path / "cloud.csv"
    with pytest.raises(ws.DataError, match="labels must be integers"):
        ws.export_pca(latents, np.array(labels), path)
    assert not path.exists()


def test_export_pca_rejects_negative_labels(tmp_path):
    # No Dataset holds a negative label; this one was written as a -3 row.
    latents = np.random.default_rng(53).normal(size=(4, 3))
    path = tmp_path / "cloud.csv"
    with pytest.raises(ws.DataError, match="non-negative"):
        ws.export_pca(latents, np.array([-3, 1, 2, 0]), path)
    assert not path.exists()


# --- experiments (smoke scale) ----------------------------------------


def test_frozen_linearity_experiment_small(blobs_small):
    cfg = blob_config(epochs=10)
    res = ws.experiment_frozen_linearity(
        blobs_small, blobs_small, replace(cfg, seed=1)
    )
    assert max(res.orthonormal.epsilon_steps) < 1e-12
    # the random [-1,1] arm is frozen too: constant but visibly non-orthonormal
    assert len(set(res.random.epsilon_steps)) == 1
    assert res.random.epsilon > res.orthonormal.epsilon
    assert res.orthonormal.latents.shape == (len(blobs_small), 16)


def test_loss_comparison_needs_a_seed(blobs_small):
    with pytest.raises(ConfigError, match="^need at least one seed$"):
        ws.experiment_loss_comparison(blobs_small, blobs_small, seeds=(),
                                      config=blob_config())


def test_loss_comparison_experiment_small(blobs_small):
    cfg = blob_config(epochs=5)
    res = ws.experiment_loss_comparison(
        blobs_small, blobs_small, seeds=(0, 1), config=cfg
    )
    assert len(res.cells) == 4
    combos = {(c.loss, c.use_reconstruction) for c in res.cells}
    assert combos == {
        ("softmax_ce", True),
        ("softmax_ce", False),
        ("softmax_ce_plus_center", True),
        ("softmax_ce_plus_center", False),
    }
    for c in res.cells:
        assert len(c.accuracies) == 2
        assert all(e >= 0 for e in c.epsilons)
    # every cell saturates at accuracy 1.0 on the easy blobs, so the rank
    # correlation over cells is undefined and reported as NaN
    rho = res.rank_correlation
    assert np.isnan(rho) or -1.0 <= rho <= 1.0


# --- run artifact directory -------------------------------------------


def test_write_run_artifact_files(tmp_path, blob_run):
    out = tmp_path / "run"
    write_run_artifact(blob_run, out)
    assert (out / "config.txt").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.bin").exists()
    cfg = config_from_text((out / "config.txt").read_text())
    assert cfg == blob_run.config
    net = load_checkpoint(out / "checkpoint.bin")
    for a, b in zip(net.parameters(), blob_run.network.parameters()):
        assert np.array_equal(a, b)


class _HalfWriter:
    """A file that takes half of what it is given, then fails as a full disk
    would."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def test_failed_write_keeps_the_earlier_file_and_no_temp(tmp_path, blob_run,
                                                         monkeypatch):
    out = tmp_path / "run"
    write_run_artifact(blob_run, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["checkpoint.bin", "config.txt", "metrics.csv"]

    monkeypatch.setattr(harness, "open", lambda path, mode: _HalfWriter(
        open(path, mode)), raising=False)
    other = ws.init_network(blob_run.network.spec, 99)
    writes = [
        lambda: save_checkpoint(other, out / "checkpoint.bin"),
        lambda: write_metrics_csv(blob_run.records[:3], out / "metrics.csv"),
        lambda: write_run_artifact(blob_run, out),
    ]
    for write in writes:
        with pytest.raises(OSError):
            write()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_experiments_evaluate_each_trained_network_once(blobs_small,
                                                        monkeypatch):
    evaluated = []
    evaluate = harness.evaluate_accuracy

    def counted(net, ds):
        evaluated.append(net)
        return evaluate(net, ds)

    monkeypatch.setattr(harness, "evaluate_accuracy", counted)
    cfg = blob_config(epochs=3)
    ws.experiment_frozen_linearity(blobs_small, blobs_small,
                                   replace(cfg, seed=1))
    assert len(evaluated) == 2
    ws.experiment_loss_comparison(blobs_small, blobs_small, seeds=(0, 1, 2),
                                  config=cfg)
    assert len(evaluated) == 2 + 4 * 3
    assert len({id(net) for net in evaluated}) == len(evaluated)
