"""End-to-end checks of the command-line front end.

Commands run in-process through ``cli.main`` so output and exit codes are
easy to capture. Two subprocess tests run against this checkout's ``src/``
and need no install: one runs the ``weightsep`` console script declared in
``pyproject.toml`` the way an installed wrapper would, the other runs
``python -m weightsep``. The shared fixture trains once on small blobs and
reuses its checkpoint.
"""

import contextlib
import io
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weightsep
from weightsep import Dataset, config_from_text, write_idx
from weightsep.cli import main

from conftest import JSON_PROBES, config_with, rewrite_checkpoint

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


def test_train_replay_from_config_file(train_run, tmp_path):
    _, _, run_dir = train_run
    rc, _, _ = run_cli(
        ["train", *BLOB_ARGS, "--config", str(run_dir / "config.txt"),
         "--out", str(tmp_path / "replay")]
    )
    assert rc == 0
    a = (run_dir / "metrics.csv").read_text()
    b = (tmp_path / "replay" / "metrics.csv").read_text()
    assert a == b


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


def test_frozen_linearity_both_arms(tmp_path):
    rc, out, _ = run_cli(
        ["frozen-linearity", *BLOB_ARGS, "--seed", "1", "--epochs", "3",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert "orthonormal" in out and "random" in out
    assert (tmp_path / "latents_orthonormal.csv").exists()
    assert (tmp_path / "latents_random.csv").exists()


def test_loss_compare_table(capsys):
    rc, out, _ = run_cli(
        ["loss-compare", *BLOB_ARGS, "--seeds", "0,1", "--epochs", "2"]
    )
    assert rc == 0
    body = [l for l in out.splitlines() if l.startswith(" ")]
    assert len(body) >= 4
    assert "rank correlation" in out


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
    text = weightsep.config_to_text(base)
    config = tmp_path / "config.txt"
    for value in JSON_PROBES:
        config.write_text(config_with(text, key, value))
        rc, _, err = run_cli(["train", "--data", "blobs", "--classes", "0,1,2",
                              "--config", str(config),
                              "--out", str(tmp_path / "r")])
        assert rc in (0, 2), (value, err)
        assert "Traceback" not in err
        assert rc == 0 or err.startswith("error:config:"), (value, err)


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numeric_error_exits_4(tmp_path):
    rc, _, err = run_cli(
        ["train", *BLOB_ARGS, "--epochs", "2", "--seed", "0",
         "--base-lr", "1e30", "--out", str(tmp_path / "r")]
    )
    assert rc == 4
    assert "error:numeric:" in err


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


def test_nonfinite_checkpoint_exits_4(train_run, tmp_path):
    _, _, run_dir = train_run
    bad = tmp_path / "nan.bin"
    inf = np.array([np.inf], dtype="<f8").tobytes()
    rewrite_checkpoint(run_dir / "checkpoint.bin", bad,
                       edit_payload=lambda p: inf + p[8:])
    rc, _, err = run_cli(["eval-metric", str(bad)])
    assert rc == 4
    assert err.startswith("error:numeric:")


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
        ds = Dataset(feats, labels, 3, {c: c for c in range(3)})
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


def declared_console_script(name):
    """The ``module:attr`` target of console script *name* in pyproject.toml."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
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
    src = str(Path(weightsep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
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
    src = str(Path(weightsep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
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
