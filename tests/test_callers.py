"""Callers outside the package: the demo scripts, the README's library
tour, the acceptance tests and the benchmark.

Each reaches the package through names that a refactor can remove; these
tests fail in the suite rather than in a demo run or a benchmark run. The
same scan keeps ``weightsep.__all__`` to the names those callers reach. A
scan of the package's own source keeps whole-split decodes out of it.
"""

import ast
import importlib.util
import inspect
import re
import subprocess
import sys

import numpy as np
import pytest

import weightsep as ws
from tests.support import ROOT, SINGLE_THREAD_ENV, checkout_env


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def caller_sources():
    """``{where: python source}`` for every demo, every python block of the
    README, every benchmark module and the acceptance tests."""
    paths = [*sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    assert blocks
    for i, block in enumerate(blocks):
        sources[f"README.md python block {i + 1}"] = block
    return sources


def names_reached(source):
    """Names ``source`` reaches on the package: ``from weightsep import
    name``, and ``alias.name`` for each ``import weightsep [as alias]``."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "weightsep"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "weightsep":
            names.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            names.add(node.attr)
    return {name for name in names if not name.startswith("__")}


def is_submodule(name):
    return importlib.util.find_spec(f"weightsep.{name}") is not None


def test_the_surface_is_what_the_callers_reach():
    reached = {}
    for where, source in caller_sources().items():
        for name in names_reached(source):
            reached.setdefault(name, where)
    off_surface = [f"{where}: {name}" for name, where in sorted(reached.items())
                   if name not in ws.__all__ and not is_submodule(name)]
    assert not off_surface
    # Beyond what the callers reach, the surface holds only the typed
    # errors, which carry the exit-code contract.
    unreached = [name for name in ws.__all__ if name not in reached
                 and not (inspect.isclass(getattr(ws, name))
                          and issubclass(getattr(ws, name), ws.WeightsepError))]
    assert not unreached
    assert not [name for name in ws.__all__ if name.startswith("_")
                or inspect.ismodule(getattr(ws, name))]


def test_every_traced_binding_exists():
    tracing = load_tracing()
    bindings = [b for targets in tracing.TARGETS.values() for b in targets]
    assert bindings
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr in bindings if attr not in vars(owner)]
    assert not missing


def test_training_step_goes_through_traced_bindings(blobs_small):
    # A step that bypassed a traced binding (say, ``from .optim import
    # sgd_step`` in harness) would drop out of the benchmark's counts.
    tracing = load_tracing()
    config = ws.TrainConfig(layer_dims=(8, 16, 3), epochs=2, seed=0,
                            batch_size=16, loss="softmax_ce_plus_center",
                            use_reconstruction=True)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        steps = len(ws.train(config, blobs_small).records)
    assert steps > 0
    per_step = ("network.forward", "network.backward",
                "network.Network.replace_parameters",
                "losses.softmax_cross_entropy", "losses.center_loss",
                "losses.reconstruction_loss", "losses.one_hot",
                "losses.total_loss", "optim.sgd_step")
    assert {name: tracer.calls[name] for name in per_step} == \
        dict.fromkeys(per_step, steps)
    assert tracer.yields == steps
    # ε is computed for all steps in one pass at each epoch end; the checked
    # report runs once per run, on the final weight.
    per_run = ("separability.separability_report", "linalg.frobenius_norm_sq",
               "linalg.trace")
    assert {name: tracer.calls[name] for name in per_run} == \
        dict.fromkeys(per_run, 1)


def test_pca_export_goes_through_the_traced_eigensolver(tmp_path):
    # The benchmark times PCA through the ``linalg.jacobi_eigh`` binding; a
    # pca_reduce that called numpy's solver directly would move that time
    # out of the traced calls unnoticed.
    tracing = load_tracing()
    latents = np.random.default_rng(0).normal(size=(20, 6))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        ws.harness.export_pca(latents, np.arange(20) % 3, tmp_path / "p.csv")
    traced = ("harness.export_pca", "linalg.pca_reduce", "linalg.jacobi_eigh")
    assert {name: tracer.calls[name] for name in traced} == \
        dict.fromkeys(traced, 1)


def test_no_package_code_decodes_a_whole_split():
    # ``ds.rows()`` with no index decodes every row of a split to float64,
    # eight bytes a pixel code. The package decodes a batch or a block of
    # rows at a time; this finds a whole-split decode that comes back.
    found = []
    for path in sorted((ROOT / "src" / "weightsep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "rows"
                    and not node.args and not node.keywords):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"whole-split .rows() calls at {', '.join(found)}"


# digits_trend is left out: it trains the 30-epoch recipe (about 5 s).
@pytest.mark.parametrize("demo", ["separability_basics",
                                  "reconstruction_loss_tour", "train_blobs",
                                  "frozen_decision_layer"])
def test_demo_runs(tmp_path, demo):
    env = checkout_env(**SINGLE_THREAD_ENV)
    env.pop("WEIGHTSEP_DATA_DIR", None)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
