"""End-to-end checks of the command-line front end.

Commands run in-process through ``cli.main`` so output and exit codes are
easy to capture. Two subprocess tests run against this checkout's ``src/``
and need no install: one runs the ``weightsep`` console script declared in
``pyproject.toml`` the way an installed wrapper would, the other runs
``python -m weightsep``. The shared fixture trains once on small blobs and
reuses its checkpoint.
"""

import argparse
import contextlib
import gzip
import io
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import weightsep
from weightsep import DataError, Dataset, cli, harness, write_idx
from weightsep.cli import main
from weightsep.harness import config_from_text, config_to_text

from tests.support import (CORRUPT_GZIP, JSON_PROBES, ROOT, SINGLE_THREAD_ENV,
                           checkout_env, config_with, rewrite_checkpoint)

BLOB_ARGS = ["--data", "blobs", "--classes", "0,1,2",
             "--layer-dims", "32,16,3"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    """One completed `train` invocation: (exit code, stdout, run dir)."""
    run_dir = tmp_path_factory.mktemp("cli") / "run"
    rc, out, _ = run_cli(
        ["train", *BLOB_ARGS, "--epochs", "2", "--seed", "3",
         "--out", str(run_dir)]
    )
    return rc, out, run_dir


def test_train_writes_artifacts(train_run):
    rc, out, run_dir = train_run
    assert rc == 0
    for name in ("config.txt", "metrics.csv", "checkpoint.bin"):
        assert (run_dir / name).exists()
    assert "final separability:" in out
    assert "final test accuracy:" in out
    # --layer-dims 32,16,3 fits the data (32 inputs, 3 classes) and is kept
    cfg = config_from_text((run_dir / "config.txt").read_text())
    assert cfg.layer_dims == (32, 16, 3)


def test_train_evaluates_the_trained_network_once(tmp_path, monkeypatch):
    evaluated = []
    evaluate = harness.evaluate_accuracy

    def counted(net, ds):
        evaluated.append(net)
        return evaluate(net, ds)

    monkeypatch.setattr(harness, "evaluate_accuracy", counted)
    run_dir = tmp_path / "run"
    rc, out, err = run_cli(["train", *BLOB_ARGS, "--epochs", "3",
                            "--seed", "3", "--out", str(run_dir)])
    assert rc == 0, err
    assert len(evaluated) == 1
    net = harness.load_checkpoint(run_dir / "checkpoint.bin")
    test_ds = cli.resolve_datasets("blobs", (0, 1, 2), 3)[2]
    want = f"final test accuracy: {evaluate(net, test_ds):.4f}"
    assert want in out.splitlines()


def test_train_replay_from_config_file(train_run, tmp_path):
    _, _, run_dir = train_run
    rc, _, _ = run_cli(
        ["train", "--config", str(run_dir / "config.txt"),
         "--out", str(tmp_path / "replay")]
    )
    assert rc == 0
    a = (run_dir / "metrics.csv").read_text()
    b = (tmp_path / "replay" / "metrics.csv").read_text()
    assert a == b


def weightsep_one_thread(argv, cwd):
    """Run ``python -m weightsep`` with BLAS pinned to one thread, so a run's
    bytes do not hang on the thread split, and no data directory set."""
    env = checkout_env(**SINGLE_THREAD_ENV)
    env.pop("WEIGHTSEP_DATA_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "weightsep", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flags", [
    ["--data", "blobs", "--classes", "0,1,2", "--layer-dims", "32,16,3",
     "--epochs", "2", "--seed", "3"],
    ["--data", "digits", "--epochs", "1", "--seed", "2"],
], ids=["blobs-classes", "digits"])
def test_config_file_alone_replays_the_run_byte_for_byte(tmp_path, flags):
    weightsep_one_thread(["train", *flags, "--out", "r1"], tmp_path)
    weightsep_one_thread(["train", "--config", "r1/config.txt", "--out", "r2"],
                         tmp_path)
    for name in ("config.txt", "metrics.csv", "checkpoint.bin"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes(), name


@pytest.mark.parametrize("flags, data_source, class_filter", [
    (["--classes", "0,1,2,3", "--layer-dims", "32,16,4"], "blobs",
     (0, 1, 2, 3)),
    (["--data", "digits", "--layer-dims", "784,16,3"], "digits", (0, 1, 2)),
], ids=["classes", "data"])
def test_data_flags_override_the_config_file(train_run, tmp_path, flags,
                                             data_source, class_filter):
    _, _, run_dir = train_run
    rc, _, err = run_cli(["train", "--config", str(run_dir / "config.txt"),
                          *flags, "--epochs", "1", "--out", str(tmp_path / "r")])
    assert rc == 0, err
    cfg = config_from_text((tmp_path / "r" / "config.txt").read_text())
    assert (cfg.data_source, cfg.class_filter) == (data_source, class_filter)


def test_config_file_data_source_wins_over_the_env_var(train_run, tmp_path,
                                                       monkeypatch):
    _, _, run_dir = train_run
    monkeypatch.setenv("WEIGHTSEP_DATA_DIR", str(tmp_path / "absent"))
    rc, _, err = run_cli(["train", "--config", str(run_dir / "config.txt"),
                          "--epochs", "1", "--out", str(tmp_path / "r")])
    assert rc == 0, err
    cfg = config_from_text((tmp_path / "r" / "config.txt").read_text())
    assert cfg.data_source == "blobs"


def test_train_reads_the_config_file_once(train_run, tmp_path, monkeypatch):
    _, _, run_dir = train_run
    calls = []
    read = cli.read_config
    monkeypatch.setattr(cli, "read_config",
                        lambda path: calls.append(path) or read(path))
    rc, _, err = run_cli(["train", "--config", str(run_dir / "config.txt"),
                          "--epochs", "1", "--out", str(tmp_path / "r")])
    assert rc == 0, err
    assert calls == [str(run_dir / "config.txt")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--lam", "--base-lr", "--lr-factor",
                                  "--momentum", "--weight-decay"])
def test_non_finite_float_flag_exits_2_before_loading_data(
        tmp_path, monkeypatch, flag, value):
    def no_data(*args):
        raise AssertionError("data loaded before the flags were checked")

    monkeypatch.setattr(cli, "resolve_datasets", no_data)
    run_dir = tmp_path / "r"
    rc, _, err = run_cli(["train", "--data", "blobs", f"{flag}={value}",
                          "--out", str(run_dir)])
    assert rc == 2
    assert err.startswith("error:config:") and "a finite number" in err
    assert not run_dir.exists()


def fail_on_data_load(monkeypatch):
    def no_data(*args):
        raise AssertionError("data loaded before the values were checked")

    monkeypatch.setattr(cli, "resolve_datasets", no_data)


# key, config-file value, flag and flag value; each is out of range for the
# schedule, the batch plan, the SGD state or the seed.
BAD_VALUES = [
    ("momentum", "1.0", "--momentum", "1.0"),
    ("weight_decay", "-1", "--weight-decay", "-1"),
    ("base_lr", "0", "--base-lr", "0"),
    ("lr_factor", "1.5", "--lr-factor", "1.5"),
    ("milestones", "[5, 3]", "--milestones", "5,3"),
    ("batch_size", "0", "--batch-size", "0"),
    ("seed", "-1", "--seed", "-1"),
    ("seed", str(2**64), "--seed", str(2**64)),
    ("layer_dims", "[5]", "--layer-dims", "5"),
]


@pytest.mark.parametrize("by", ["file", "flag"])
@pytest.mark.parametrize("key, line, flag, value", BAD_VALUES,
                         ids=[f"{b[0]}={b[1]}" for b in BAD_VALUES])
def test_bad_config_value_exits_2_before_loading_data(
        tmp_path, monkeypatch, by, key, line, flag, value):
    fail_on_data_load(monkeypatch)
    argv = ["train", "--data", "blobs"]
    if by == "file":
        base = weightsep.TrainConfig(layer_dims=(32, 8, 10), epochs=1, seed=0)
        config = tmp_path / "config.txt"
        config.write_text(config_with(config_to_text(base), key, line))
        argv += ["--config", str(config)]
    else:
        argv += [f"{flag}={value}"]
    run_dir = tmp_path / "r"
    rc, _, err = run_cli(argv + ["--out", str(run_dir)])
    assert rc == 2, err
    assert err.startswith("error:config:")
    assert not run_dir.exists()


@pytest.mark.parametrize("by", ["file", "flag"])
@pytest.mark.parametrize("dims", [(784, 0, 10), (784, -3, 10)],
                         ids=["784,0,10", "784,-3,10"])
def test_bad_hidden_width_exits_2_before_loading_data(tmp_path, monkeypatch,
                                                      by, dims):
    fail_on_data_load(monkeypatch)
    argv = ["train", "--data", "digits"]
    if by == "file":
        base = weightsep.TrainConfig(layer_dims=(784, 64, 10), epochs=1, seed=0)
        config = tmp_path / "config.txt"
        config.write_text(config_with(config_to_text(base), "layer_dims",
                                      str(list(dims))))
        argv += ["--config", str(config)]
    else:
        argv += ["--layer-dims=" + ",".join(map(str, dims))]
    run_dir = tmp_path / "r"
    rc, _, err = run_cli(argv + ["--out", str(run_dir)])
    assert rc == 2, err
    assert err.startswith("error:config: layer_dims: hidden widths must be "
                          "positive"), err
    assert not run_dir.exists()


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
@pytest.mark.parametrize("argv", [
    ["similarity", "--data", "blobs", "--seed", "{seed}", "absent.bin"],
    ["export-pca", "--data", "blobs", "--seed", "{seed}",
     "--checkpoint", "absent.bin", "--out", "latents.csv"],
    ["loss-compare", "--data", "blobs", "--seeds", "0,{seed}"],
], ids=["similarity", "export-pca", "loss-compare"])
def test_seed_outside_the_64_bit_range_exits_2(tmp_path, monkeypatch, argv,
                                               seed):
    fail_on_data_load(monkeypatch)
    monkeypatch.chdir(tmp_path)
    rc, _, err = run_cli([a.format(seed=seed) for a in argv])
    assert rc == 2
    assert err.startswith(f"error:config: seed must be in [0, 2**64), got {seed}")
    assert not (tmp_path / "latents.csv").exists()


def test_eval_metric_prints_both_forms(train_run):
    _, _, run_dir = train_run
    rc, out, _ = run_cli(["eval-metric", str(run_dir / "checkpoint.bin")])
    assert rc == 0
    lines = [l for l in out.splitlines() if "separability" in l]
    assert len(lines) == 2
    values = [l.split(":")[1].strip() for l in lines]
    assert values[0] == values[1]  # both forms agree at printed precision


def test_similarity_lists_every_class(train_run):
    _, _, run_dir = train_run
    rc, out, _ = run_cli(
        ["similarity", *BLOB_ARGS[:4], "--seed", "3",
         str(run_dir / "checkpoint.bin")]
    )
    assert rc == 0
    body = [l for l in out.splitlines()[1:] if l.strip()]
    assert len(body) == 3
    assert [int(l.split()[0]) for l in body] == [0, 1, 2]


def test_export_pca_writes_csv(train_run, tmp_path):
    _, _, run_dir = train_run
    out_csv = tmp_path / "latents.csv"
    rc, out, _ = run_cli(
        ["export-pca", *BLOB_ARGS[:4], "--seed", "3",
         "--checkpoint", str(run_dir / "checkpoint.bin"),
         "--out", str(out_csv)]
    )
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "pc1,pc2,pc3,label"
    assert len(lines) == 301  # 3 classes x 100 test samples + header


@pytest.mark.parametrize("out", ["file/latents.csv", "dir"],
                         ids=["under-a-file", "a-directory"])
def test_export_pca_to_an_unwritable_path_exits_5(train_run, tmp_path, out):
    _, _, run_dir = train_run
    (tmp_path / "file").write_text("not a directory")
    (tmp_path / "dir").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    rc, _, err = run_cli(
        ["export-pca", *BLOB_ARGS[:4], "--seed", "3",
         "--checkpoint", str(run_dir / "checkpoint.bin"),
         "--out", str(tmp_path / out)]
    )
    assert rc == 5
    assert err.startswith("error:io:")
    # no partial or temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not any((tmp_path / "dir").iterdir())


def test_frozen_linearity_both_arms(tmp_path):
    rc, out, _ = run_cli(
        ["frozen-linearity", *BLOB_ARGS, "--seed", "1", "--epochs", "3",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert "orthonormal" in out and "random" in out
    assert (tmp_path / "latents_orthonormal.csv").exists()
    assert (tmp_path / "latents_random.csv").exists()


@pytest.mark.parametrize("data, classes", [("digits", (0, 1, 5)),
                                           ("idx", ())],
                         ids=["digits-hold-class-5", "idx-has-3-classes"])
def test_frozen_linearity_keeps_classes_0_1_5_by_default(tmp_path, monkeypatch,
                                                         data, classes):
    # With no --classes and no class_filter, the classes are 0, 1 and 5 if
    # the data hold class 5, else all of them.
    if data == "idx":
        author_digit_dir(tmp_path)
        data = str(tmp_path)
    runs = []
    experiment = harness.experiment_frozen_linearity

    def spy(train_ds, test_ds, config):
        runs.append((train_ds.n_classes, test_ds.n_classes, config))
        return experiment(train_ds, test_ds, config)

    monkeypatch.setattr(harness, "experiment_frozen_linearity", spy)
    rc, _, err = run_cli(["frozen-linearity", "--data", data, "--seed", "1",
                          "--epochs", "1", "--batch-size", "16"])
    assert rc == 0, err
    [(n_train, n_test, config)] = runs
    n_classes = len(classes) or 3
    assert (n_train, n_test) == (n_classes, n_classes)
    assert config.class_filter == classes
    assert config.layer_dims[-1] == n_classes


def test_loss_compare_table(capsys):
    rc, out, _ = run_cli(
        ["loss-compare", *BLOB_ARGS, "--seeds", "0,1", "--epochs", "2"]
    )
    assert rc == 0
    body = [l for l in out.splitlines() if l.startswith(" ")]
    assert len(body) >= 4
    assert "rank correlation" in out


# --- the options each subcommand reads ---------------------------------


def subcommand_parsers():
    parser = cli.make_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return parser, sub.choices


def options(parser):
    return {s for a in parser._actions for s in a.option_strings} - {
        "-h", "--help"}


RUN_OPTIONS = {
    "--data", "--classes", "--config", "--layer-dims", "--epochs", "--seed",
    "--loss", "--reconstruction", "--no-reconstruction", "--lam",
    "--batch-size", "--base-lr", "--milestones", "--lr-factor", "--momentum",
    "--weight-decay", "--freeze-final", "--final-init",
}

OPTION_SETS = {
    "train": RUN_OPTIONS | {"--out"},
    "frozen-linearity": RUN_OPTIONS - {"--freeze-final", "--final-init"}
    | {"--out"},
    "loss-compare": RUN_OPTIONS - {"--seed", "--loss", "--reconstruction",
                                   "--no-reconstruction"} | {"--seeds"},
    "similarity": {"--data", "--classes", "--seed"},
    "eval-metric": set(),
    "export-pca": {"--data", "--classes", "--seed", "--checkpoint", "--out"},
}


def test_each_subcommand_has_its_option_set():
    parser, subs = subcommand_parsers()
    assert {name: options(p) for name, p in subs.items()} == OPTION_SETS
    assert [len(OPTION_SETS[n]) for n in
            ("train", "frozen-linearity", "loss-compare")] == [19, 17, 15]
    assert not parser.allow_abbrev
    assert not any(p.allow_abbrev for p in subs.values())


@pytest.mark.parametrize("name", ["train", "frozen-linearity", "loss-compare"])
def test_every_run_flag_names_a_config_field(name):
    # build_config reads flags by TrainConfig field name, so a flag with any
    # other dest would be parsed and then ignored.
    readable = set(weightsep.TrainConfig.__dataclass_fields__) | {
        "help", "config", "out", "seeds"}
    _, subs = subcommand_parsers()
    assert {a.dest for a in subs[name]._actions} <= readable


def fields_the_experiment_sets(monkeypatch, run):
    """The TrainConfig fields whose values ``run(config)`` gives its training
    runs in place of the ones in ``config``."""
    base = weightsep.TrainConfig(layer_dims=(8, 4, 3), epochs=1, seed=0,
                                 batch_size=40)
    changed = set()
    train = harness.train

    def spy(config, ds):
        changed.update(k for k, v in asdict(config).items()
                       if v != getattr(base, k))
        return train(config, ds)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "train", spy)
        run(base)
    return changed


def test_no_experiment_flag_is_overwritten(monkeypatch, blobs_small):
    ds = blobs_small
    frozen = fields_the_experiment_sets(
        monkeypatch,
        lambda config: harness.experiment_frozen_linearity(ds, ds, config))
    compare = fields_the_experiment_sets(
        monkeypatch,
        lambda config: harness.experiment_loss_comparison(
            ds, ds, (config.seed, 1), config=config))
    assert frozen == {"freeze_final", "final_init"}
    assert compare == {"seed", "loss", "use_reconstruction"}
    _, subs = subcommand_parsers()
    for name, overwritten in (("frozen-linearity", frozen),
                              ("loss-compare", compare)):
        assert not {a.dest for a in subs[name]._actions} & overwritten


@pytest.mark.parametrize("argv", [
    ["train", "--lr", "0.5"],
    ["train", "--mom", "0.5"],
    ["train", "--data", "blobs", "--epoch", "1"],
    ["loss-compare", *BLOB_ARGS, "--seeds", "0", "--seed", "7"],
    ["loss-compare", *BLOB_ARGS, "--seeds", "0", "--loss", "softmax_ce"],
    ["loss-compare", *BLOB_ARGS, "--seeds", "0", "--no-reconstruction"],
    ["frozen-linearity", *BLOB_ARGS, "--seed", "0", "--freeze-final"],
    ["frozen-linearity", *BLOB_ARGS, "--seed", "0",
     "--final-init", "uniform_unit"],
    ["export-pca", "--checkpoint", "c.bin", "--out", "x.csv", "--see", "1"],
], ids=["train --lr", "train --mom", "train --epoch", "loss-compare --seed",
        "loss-compare --loss", "loss-compare --no-reconstruction",
        "frozen-linearity --freeze-final", "frozen-linearity --final-init",
        "export-pca --see"])
def test_unlisted_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


def test_loss_compare_draws_the_data_with_the_first_seed():
    rc, out, err = run_cli(
        ["loss-compare", *BLOB_ARGS, "--seeds", "3,4", "--epochs", "2"])
    assert rc == 0, err
    _, train_ds, test_ds = cli.resolve_datasets("blobs", (0, 1, 2), 3)
    config = harness.default_config(train_ds, seed=0)
    result = harness.experiment_loss_comparison(
        train_ds, test_ds, (3, 4),
        config=replace(config, layer_dims=(32, 16, 3), epochs=2))
    rows = [f"{c.loss:>24} {str(c.use_reconstruction):>6} "
            f"{c.mean_accuracy:>9.4f} "
            f"{weightsep.format_epsilon(c.mean_epsilon):>13}"
            for c in result.cells]
    rows.append("rank correlation (accuracy vs -separability): "
                f"{result.rank_correlation:+.3f}")
    assert out.splitlines()[1:] == rows


def test_digits_test_split_seed_wraps_to_64_bits(monkeypatch):
    # The largest seed is valid; its test split replays seed 1_000_002, as it
    # did when the streams masked every key to 64 bits.
    seeds = []
    monkeypatch.setattr(cli, "synth_digits",
                        lambda per_class, seed: seeds.append(seed))
    cli.resolve_datasets("digits", (), 2**64 - 1)
    assert seeds == [2**64 - 1, 1_000_002]


def test_experiment_subcommands_demand_seeds(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frozen-linearity", "--data", "blobs"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["loss-compare", "--data", "blobs"])
    assert e.value.code == 2


# --- error category -> exit code ---------------------------------------


def test_config_error_exits_2(tmp_path):
    rc, _, err = run_cli(
        ["train", "--data", "blobs", "--layer-dims", "32,x,3",
         "--out", str(tmp_path / "r")]
    )
    assert rc == 2
    assert err.startswith("error:config:")


@pytest.mark.parametrize("key", list(weightsep.TrainConfig.__dataclass_fields__))
def test_every_config_file_value_exits_0_or_2(tmp_path, key):
    base = weightsep.TrainConfig(
        layer_dims=(32, 8, 3), epochs=1, seed=0, batch_size=64,
        loss="softmax_ce_plus_center", use_reconstruction=True)
    text = config_to_text(base)
    config = tmp_path / "config.txt"
    for value in JSON_PROBES:
        config.write_text(config_with(text, key, value))
        rc, _, err = run_cli(["train", "--data", "blobs", "--classes", "0,1,2",
                              "--config", str(config),
                              "--out", str(tmp_path / "r")])
        assert rc in (0, 2), (value, err)
        assert "Traceback" not in err
        assert rc == 0 or err.startswith("error:config:"), (value, err)


@pytest.mark.parametrize("rate, rc", [("1.5", 2), ("0", 2), ("-2", 2),
                                      ("0.5", 0), ("1", 0)])
def test_center_rate_outside_zero_one_exits_2(tmp_path, rate, rc):
    base = weightsep.TrainConfig(layer_dims=(32, 8, 3), epochs=1, seed=0,
                                 batch_size=64, loss="softmax_ce_plus_center")
    config = tmp_path / "config.txt"
    config.write_text(config_with(config_to_text(base), "center_rate", rate))
    run_dir = tmp_path / "r"
    code, _, err = run_cli(["train", "--data", "blobs", "--classes", "0,1,2",
                            "--config", str(config), "--out", str(run_dir)])
    assert code == rc, err
    if rc == 2:
        assert err.startswith("error:config:") and "center_rate" in err
        assert not run_dir.exists()
    else:
        cfg = config_from_text((run_dir / "config.txt").read_text())
        assert cfg.center_rate == float(rate)


@pytest.mark.parametrize("dims, named", [
    ("0,5", ("first width 0", "input width 32")),
    ("32,5", ("last width 5", "class count 3")),
    ("5", ("an input and a class width", "(5,)")),
], ids=["0,5", "32,5", "5"])
def test_layer_dims_must_match_the_data(tmp_path, dims, named):
    run_dir = tmp_path / "r"
    rc, _, err = run_cli(["train", "--data", "blobs", "--classes", "0,1,2",
                          "--layer-dims", dims, "--epochs", "1",
                          "--out", str(run_dir)])
    assert rc == 2
    assert err.startswith("error:config:")
    assert all(text in err for text in named), err
    assert not run_dir.exists()


def test_config_file_layer_dims_must_match_the_data(tmp_path):
    base = weightsep.TrainConfig(layer_dims=(32, 8, 10), epochs=1, seed=0)
    config = tmp_path / "config.txt"
    config.write_text(config_to_text(base))
    rc, _, err = run_cli(["train", "--data", "blobs", "--classes", "0,1,2",
                          "--config", str(config), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert err.startswith("error:config: layer_dims: last width 10")
    assert "class count 3" in err


@pytest.mark.parametrize("data", [b"\xff\xfeepochs = 1\n",
                                  "epochs = 1\n".encode("utf-16")],
                         ids=["ff-fe", "utf-16"])
def test_config_file_that_is_not_utf8_exits_2(tmp_path, data):
    config = tmp_path / "config.txt"
    config.write_bytes(data)
    rc, _, err = run_cli(["train", "--data", "blobs", "--config", str(config),
                          "--out", str(tmp_path / "r")])
    assert rc == 2
    assert err.startswith("error:config:") and "UTF-8" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--data", "blobs", "--layer-dims", ",", "--epochs", "1"],
    ["loss-compare", "--data", "blobs", "--seeds", ",", "--epochs", "1"],
], ids=["layer-dims", "seeds"])
def test_empty_integer_list_exits_2(tmp_path, argv):
    rc, _, err = run_cli(argv + (["--out", str(tmp_path / "r")]
                                 if argv[0] == "train" else []))
    assert rc == 2
    assert err.startswith("error:config:")
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_empty_milestones_mean_no_milestones(tmp_path):
    rc, _, _ = run_cli(
        ["train", *BLOB_ARGS, "--epochs", "1", "--seed", "0",
         "--milestones", ",", "--out", str(tmp_path / "r")]
    )
    assert rc == 0
    cfg = config_from_text((tmp_path / "r" / "config.txt").read_text())
    assert cfg.milestones == ()


def test_data_error_exits_2(tmp_path):
    rc, _, err = run_cli(
        ["train", "--data", "blobs", "--classes", "0,99",
         "--out", str(tmp_path / "r")]
    )
    assert rc == 2
    assert err.startswith("error:data:")


def test_orientation_error_exits_2(tmp_path):
    # 2 latent units for 3 classes: decision matrix is wider than tall
    rc, _, err = run_cli(
        ["train", "--data", "blobs", "--classes", "0,1,2",
         "--layer-dims", "32,2,3", "--epochs", "1", "--seed", "0",
         "--out", str(tmp_path / "r")]
    )
    assert rc == 2
    assert err.startswith("error:orientation:")
    assert "transpose" in err or "columns" in err


def test_orientation_error_exits_2_for_more_classes_than_latent_units(
        tmp_path):
    # 4 latent units for the 10 blob classes.
    rc, out, err = run_cli(
        ["train", "--data", "blobs", "--layer-dims", "32,4,10",
         "--epochs", "1", "--seed", "0", "--out", str(tmp_path / "r")]
    )
    assert rc == 2
    assert err.startswith("error:orientation:")
    assert out == ""
    assert not (tmp_path / "r").exists()


def test_numeric_error_exits_4(tmp_path):
    rc, _, err = run_cli(
        ["train", *BLOB_ARGS, "--epochs", "2", "--seed", "0",
         "--base-lr", "1e30", "--out", str(tmp_path / "r")]
    )
    assert rc == 4
    assert re.fullmatch(r"error:numeric: [^\n]*\n", err)


def run_cli_unwarned(argv):
    """``run_cli``, failing on any warning the command raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(argv)
    assert [str(w.message) for w in caught] == []
    return result


def test_training_overflow_prints_only_its_typed_error(tmp_path):
    # Training's own finiteness checks turn the overflow into the typed
    # error, so numpy's warnings about it would only repeat that error.
    rc, out, err = run_cli_unwarned(["train", "--data", "blobs", "--epochs",
                                     "1", "--lam", "1e308", "--reconstruction",
                                     "--out", str(tmp_path / "r")])
    assert rc == 4
    assert err == ("error:numeric: separability forms not finite or disagree "
                   "at step 0: inf vs inf\n")
    assert out == ""
    assert not (tmp_path / "r").exists()


def test_format_error_exits_3(tmp_path):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"this is not a checkpoint")
    rc, _, err = run_cli(["eval-metric", str(bad)])
    assert rc == 3
    assert err.startswith("error:format:")


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "layers"},
    lambda h: [h],
], ids=["no-layers", "list"])
def test_malformed_checkpoint_header_exits_3(train_run, tmp_path, edit):
    _, _, run_dir = train_run
    bad = tmp_path / "bad.bin"
    rewrite_checkpoint(run_dir / "checkpoint.bin", bad, edit_header=edit)
    rc, _, err = run_cli(["eval-metric", str(bad)])
    assert rc == 3
    assert err.startswith("error:format:")
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda h: {**h, "extra": 1},
    lambda h: {**h, "version": 99},
    lambda h: {k: v for k, v in h.items() if k != "version"},
], ids=["extra-key", "version-99", "no-version"])
def test_a_header_save_checkpoint_never_writes_exits_3(train_run, tmp_path,
                                                       edit):
    # Readable widths and a matching payload: only the header bytes differ
    # from the ones save_checkpoint writes.
    _, _, run_dir = train_run
    bad = tmp_path / "bad.bin"
    rewrite_checkpoint(run_dir / "checkpoint.bin", bad, edit_header=edit)
    with pytest.raises(weightsep.FormatError, match="checkpoint header"):
        harness.load_checkpoint(bad)
    rc, _, err = run_cli(["eval-metric", str(bad)])
    assert rc == 3
    assert err.startswith("error:format:")


def test_nonfinite_checkpoint_exits_4(train_run, tmp_path):
    _, _, run_dir = train_run
    bad = tmp_path / "nan.bin"
    inf = np.array([np.inf], dtype="<f8").tobytes()
    rewrite_checkpoint(run_dir / "checkpoint.bin", bad,
                       edit_payload=lambda p: inf + p[8:])
    rc, _, err = run_cli(["eval-metric", str(bad)])
    assert rc == 4
    assert err.startswith("error:numeric:")


def edited_checkpoint(train_run, path, index, edit):
    """The ``train_run`` checkpoint with parameter ``index`` replaced by
    ``edit`` of it: finite values, written by save_checkpoint, that overflow
    in what a checkpoint command computes."""
    _, _, run_dir = train_run
    net = harness.load_checkpoint(run_dir / "checkpoint.bin")
    params = net.parameters()
    params[index] = edit(params[index])
    harness.save_checkpoint(net.replace_parameters(params), path)
    return str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda w: w * 1e160, "matrix: non-finite entries"),
    # W'W - I is 1e154 I: each squared entry is finite, their sum is not.
    (lambda w: weightsep.semi_orthogonal_init(16, 3, seed=0) * 1e77,
     "separability forms not finite: inf vs inf"),
], ids=["gram-overflows", "sum-overflows"])
def test_eval_metric_on_an_overflowing_decision_weight_prints_only_its_error(
        train_run, tmp_path, edit, message):
    ckpt = edited_checkpoint(train_run, tmp_path / "c.bin", -1, edit)
    rc, out, err = run_cli_unwarned(["eval-metric", ckpt])
    assert rc == 4
    assert out == ""
    assert err == f"error:numeric: {message}\n"


# W0 x 1e306 keeps the latents finite but overflows what each command
# computes from them; W0 x 1e308 overflows the forward pass itself.
@pytest.mark.parametrize("command, scale, message", [
    ("similarity", 1e306,
     "class 0: distances not finite (euclidean inf, cosine 1.0)"),
    ("similarity", 1e308, "rows 128-255: latents or logits not finite"),
    ("export-pca", 1e306, "pca_reduce: covariance has non-finite entries"),
    ("export-pca", 1e308, "rows 128-255: latents or logits not finite"),
], ids=["similarity-latents-finite", "similarity-latents-overflow",
        "export-pca-latents-finite", "export-pca-latents-overflow"])
def test_an_overflowing_checkpoint_prints_only_its_error(
        train_run, tmp_path, command, scale, message):
    ckpt = edited_checkpoint(train_run, tmp_path / "c.bin", 0,
                             lambda w: w * scale)
    out_csv = tmp_path / "latents.csv"
    argv = {"similarity": [ckpt],
            "export-pca": ["--checkpoint", ckpt, "--out", str(out_csv)]}
    rc, out, err = run_cli_unwarned(
        [command, *BLOB_ARGS[:4], "--seed", "3", *argv[command]])
    assert rc == 4
    assert out == ""
    assert err == f"error:numeric: {message}\n"
    assert not out_csv.exists()


def test_missing_file_exits_5(tmp_path):
    rc, _, err = run_cli(["eval-metric", str(tmp_path / "absent.bin")])
    assert rc == 5
    assert err.startswith("error:io:")


# --- dataset directory via environment ---------------------------------


def author_digit_dir(root):
    """A miniature 3-class IDX layout under the conventional filenames."""
    rng = np.random.default_rng(12)

    def pair(n_per_class, img_name, lbl_name):
        labels = np.repeat(np.arange(3), n_per_class)
        feats = np.clip(
            rng.normal(labels[:, None] / 3.0 + 0.3, 0.05, size=(len(labels), 4)),
            0.0, 1.0,
        )
        ds = Dataset(feats, labels, 3)
        write_idx(ds, root / img_name, root / lbl_name, image_shape=(2, 2))

    pair(20, "train-images-idx3-ubyte", "train-labels-idx1-ubyte")
    pair(8, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def test_data_dir_env_var(tmp_path, monkeypatch):
    data_dir = tmp_path / "idx"
    data_dir.mkdir()
    author_digit_dir(data_dir)
    monkeypatch.setenv("WEIGHTSEP_DATA_DIR", str(data_dir))
    run_dir = tmp_path / "run"
    rc, _, _ = run_cli(
        ["train", "--layer-dims", "4,8,3", "--epochs", "1", "--seed", "0",
         "--batch-size", "16", "--out", str(run_dir)]
    )
    assert rc == 0
    cfg = config_from_text((run_dir / "config.txt").read_text())
    assert cfg.data_source == str(data_dir)


def test_missing_data_dir_mentions_fetch_url(tmp_path):
    rc, _, err = run_cli(
        ["train", "--data", str(tmp_path / "empty"),
         "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    assert "http" in err


def empty_split_dir(tmp_path, prefix):
    """``author_digit_dir`` with its ``prefix`` ("train" or "t10k") pair
    replaced by the headers of a pair of no 2 x 2 images."""
    data_dir = tmp_path / "idx"
    data_dir.mkdir()
    author_digit_dir(data_dir)
    (data_dir / f"{prefix}-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x00000803, 0, 2, 2))
    (data_dir / f"{prefix}-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x00000801, 0))
    return data_dir


def test_an_empty_test_split_is_a_data_error(tmp_path):
    # A valid train pair and a t10k pair of no images: the load refuses the
    # split before any training, so nothing is printed or written. A child
    # process, so that numpy's warnings would reach its stderr.
    data_dir = empty_split_dir(tmp_path, "t10k")
    proc = subprocess.run(
        [sys.executable, "-m", "weightsep", "train", "--data", str(data_dir),
         "--layer-dims", "4,8,3", "--epochs", "1", "--seed", "1",
         "--batch-size", "16", "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=checkout_env(**SINGLE_THREAD_ENV),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:data:")
    assert "t10k-images-idx3-ubyte" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "run").exists()


def empty_split_argv(command, out, ckpt):
    """argv of ``command`` on a 3-class IDX directory, less ``--data``.
    ``ckpt`` does not exist, so a command that read it would exit 5."""
    train_args = ["--epochs", "1", "--batch-size", "16"]
    return {
        "train": ["train", "--layer-dims", "4,8,3", "--seed", "1", *train_args,
                  "--out", out],
        "frozen-linearity": ["frozen-linearity", "--seed", "1", *train_args,
                             "--out", out],
        "loss-compare": ["loss-compare", "--seeds", "1", *train_args],
        "similarity": ["similarity", "--seed", "2", ckpt],
        "export-pca": ["export-pca", "--seed", "2", "--checkpoint", ckpt,
                       "--out", out],
    }[command]


@pytest.mark.parametrize("prefix, command", [
    *(("t10k", c) for c in ("train", "frozen-linearity", "loss-compare",
                            "similarity", "export-pca")),
    *(("train", c) for c in ("train", "frozen-linearity", "loss-compare")),
])
def test_an_empty_split_stops_every_command_at_load(tmp_path, prefix, command):
    data_dir = empty_split_dir(tmp_path, prefix)
    out = tmp_path / "out"
    argv = empty_split_argv(command, str(out), str(tmp_path / "absent.bin"))
    rc, stdout, err = run_cli([argv[0], "--data", str(data_dir), *argv[1:]])
    assert rc == 2, err
    assert err.startswith(f"error:data: {data_dir / prefix}-images-idx3-ubyte:")
    assert stdout == ""
    assert not out.exists()


def test_a_failed_evaluation_leaves_no_run_behind(tmp_path, monkeypatch):
    def fail(net, ds):
        raise DataError("no evaluation")

    monkeypatch.setattr(harness, "evaluate_accuracy", fail)
    run_dir = tmp_path / "run"
    rc, out, err = run_cli(["train", *BLOB_ARGS, "--epochs", "1",
                            "--seed", "3", "--out", str(run_dir)])
    assert rc == 2
    assert err == "error:data: no evaluation\n"
    assert out == ""
    assert not run_dir.exists()


NO_SPACE = OSError(28, "No space left on device")


# The last library call each command makes, the call of it that fails, and
# the exit code and stderr line that failure documents.
@pytest.mark.parametrize("command, owner, name, call, error, rc, err_line", [
    ("train", harness, "write_run_artifact", 1, NO_SPACE, 5,
     "error:io: [Errno 28] No space left on device"),
    ("frozen-linearity", harness, "export_pca", 2, NO_SPACE, 5,
     "error:io: [Errno 28] No space left on device"),
    ("loss-compare", harness, "experiment_loss_comparison", 1,
     DataError("no table"), 2, "error:data: no table"),
    ("similarity", harness, "similarity_report", 1,
     weightsep.NumericError("no rows"), 4, "error:numeric: no rows"),
    ("eval-metric", cli, "separability_metric_trace_form", 1,
     weightsep.NumericError("no trace"), 4, "error:numeric: no trace"),
    ("export-pca", harness, "export_pca", 1, NO_SPACE, 5,
     "error:io: [Errno 28] No space left on device"),
], ids=["train", "frozen-linearity", "loss-compare", "similarity",
        "eval-metric", "export-pca"])
def test_a_command_whose_last_call_fails_prints_nothing_to_stdout(
        train_run, tmp_path, monkeypatch, command, owner, name, call, error,
        rc, err_line):
    real = getattr(owner, name)
    calls = []

    def fail_on_call(*args, **kwargs):
        calls.append(name)
        if len(calls) == call:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, fail_on_call)
    ckpt = str(train_run[2] / "checkpoint.bin")
    out_dir = str(tmp_path / "out")
    argv = {
        "train": ["train", *BLOB_ARGS, "--epochs", "1", "--seed", "3",
                  "--out", out_dir],
        "frozen-linearity": ["frozen-linearity", *BLOB_ARGS, "--epochs", "2",
                             "--seed", "3", "--out", out_dir],
        "loss-compare": ["loss-compare", *BLOB_ARGS, "--seeds", "0"],
        "similarity": ["similarity", *BLOB_ARGS[:4], "--seed", "3", ckpt],
        "eval-metric": ["eval-metric", ckpt],
        "export-pca": ["export-pca", *BLOB_ARGS[:4], "--seed", "3",
                       "--checkpoint", ckpt, "--out", out_dir],
    }[command]
    assert run_cli(argv) == (rc, "", err_line + "\n")
    assert len(calls) == call


def save_initial_checkpoint(path, dims):
    net = weightsep.init_network(weightsep.NetworkSpec(dims), seed=0)
    harness.save_checkpoint(net, path)
    return str(path)


def checkpoint_command(command, data, ckpt, out_csv):
    """argv of a checkpoint command reading ``data`` at seed 2."""
    if command == "similarity":
        return ["similarity", "--data", data, "--seed", "2", ckpt]
    return ["export-pca", "--data", data, "--seed", "2", "--checkpoint", ckpt,
            "--out", str(out_csv)]


@pytest.mark.parametrize("command", ["similarity", "export-pca"])
def test_checkpoint_commands_synthesize_only_the_test_split(
        tmp_path, monkeypatch, command):
    per_class = []
    synth = cli.synth_digits

    def spy(n, seed):
        per_class.append(n)
        return synth(n, seed)

    monkeypatch.setattr(cli, "synth_digits", spy)
    ckpt = save_initial_checkpoint(tmp_path / "c.bin", (784, 8, 10))
    rc, _, err = run_cli(checkpoint_command(command, "digits", ckpt,
                                            tmp_path / "x.csv"))
    assert rc == 0, err
    assert per_class == [cli.SYNTH_TEST_PER_CLASS]


def test_similarity_checks_the_class_count_before_any_forward_pass(
        tmp_path, monkeypatch):
    calls = []
    latent_features = harness.latent_features
    monkeypatch.setattr(
        harness, "latent_features",
        lambda *args: calls.append(1) or latent_features(*args))
    ckpt = save_initial_checkpoint(tmp_path / "c.bin", (32, 8, 5))
    rc, out, err = run_cli(["similarity", "--data", "blobs", "--seed", "2",
                            ckpt])
    assert rc == 2
    assert err == ("error:config: network has 5 decision columns, dataset "
                   "has 10 classes\n")
    assert out == ""
    assert calls == []


@pytest.mark.parametrize("command", ["similarity", "export-pca"])
def test_checkpoint_commands_need_only_the_test_pair(tmp_path, command):
    data_dir = tmp_path / "idx"
    data_dir.mkdir()
    author_digit_dir(data_dir)
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        (data_dir / name).unlink()
    ckpt = save_initial_checkpoint(tmp_path / "c.bin", (4, 8, 3))
    out_csv = tmp_path / "x.csv"
    rc, _, err = run_cli(checkpoint_command(command, str(data_dir), ckpt,
                                            out_csv))
    assert rc == 0, err
    if command == "export-pca":
        assert len(out_csv.read_text().splitlines()) == 1 + 3 * 8


@pytest.mark.parametrize("source", ["digits", "blobs", "idx"])
def test_export_pca_test_split_matches_resolve_datasets(tmp_path, source):
    # The test split alone is the one resolve_datasets builds with the train
    # split, so the export keeps its bytes.
    dims = {"digits": (784, 8, 10), "blobs": (32, 8, 10), "idx": (4, 8, 3)}
    ckpt = save_initial_checkpoint(tmp_path / "c.bin", dims[source])
    if source == "idx":
        author_digit_dir(tmp_path)
        source = str(tmp_path)
    out_csv = tmp_path / "x.csv"
    rc, _, err = run_cli(["export-pca", "--data", source, "--classes", "0,2",
                          "--seed", "2", "--checkpoint", ckpt,
                          "--out", str(out_csv)])
    assert rc == 0, err
    test_ds = cli.resolve_datasets(source, (0, 2), 2)[2]
    net = harness.load_checkpoint(ckpt)
    harness.export_pca(harness.latent_features(net, test_ds), test_ds.labels,
                       tmp_path / "want.csv")
    assert out_csv.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_oversized_idx_header_exits_3(tmp_path):
    author_digit_dir(tmp_path)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x00000803, 100000, 65536, 65536) + bytes(16))
    rc, _, err = run_cli(
        ["train", "--data", str(tmp_path), "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    assert err.startswith("error:format:")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", CORRUPT_GZIP)
def test_corrupt_gzip_data_file_exits_3(tmp_path, kind):
    author_digit_dir(tmp_path)
    img = tmp_path / "train-images-idx3-ubyte"
    gz = tmp_path / "train-images-idx3-ubyte.gz"
    gz.write_bytes(CORRUPT_GZIP[kind](gzip.compress(img.read_bytes())))
    img.unlink()
    rc, _, err = run_cli(
        ["train", "--data", str(tmp_path), "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    assert err.startswith("error:format:") and "corrupt gzip stream" in err
    assert "Traceback" not in err


def declared_console_script(name):
    """The ``module:attr`` target of console script *name* in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table by hand
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        scripts = dict(re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]+)"', table, re.M))
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    return scripts[name]


def test_console_script_installed():
    module, attr = declared_console_script("weightsep").split(":")
    # What an installer's wrapper script runs, with this checkout's src/
    # ahead of any other weightsep on the path.
    env = checkout_env()
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())",
         "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: weightsep")
    for name in ("train", "frozen-linearity", "loss-compare", "similarity",
                 "eval-metric", "export-pca"):
        assert name in proc.stdout


def test_python_dash_m_runs_without_install(tmp_path):
    # Runs this checkout's package as ``python -m weightsep``, with its src/
    # ahead of any other weightsep on the path.
    env = checkout_env()
    proc = subprocess.run(
        [sys.executable, "-m", "weightsep", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: weightsep")
    assert "eval-metric" in proc.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "weightsep", "eval-metric",
         str(tmp_path / "absent.bin")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 5
    assert bad.stderr.startswith("error:io:")


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
def test_an_unallocatable_network_is_a_memory_error(tmp_path):
    # The child caps its own address space at 2 GB before importing
    # weightsep, so a layer it cannot hold fails to allocate and nothing
    # large is ever touched. One BLAS thread keeps the import's own
    # reservations small on a many-core host.
    argv = ["train", "--data", "blobs", "--layer-dims",
            "32,1000000000000,10", "--epochs", "1",
            "--out", str(tmp_path / "run")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys; "
         "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
         "from weightsep.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, env=checkout_env(**SINGLE_THREAD_ENV),
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_CODES["memory"] == 6, proc.stderr
    assert proc.stderr.startswith("error:memory:")
    assert "Traceback" not in proc.stderr
