"""Output checks: invariants that hold for every seed, identity between
passes, and agreement with the outputs recorded for the default seed.

A check returns failure messages keyed by the index of the command whose
output failed; the runner counts each such command as a failed operation.
"""

import hashlib
import json
import math
import os
import re

from weightsep import harness
from weightsep.separability import format_epsilon

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Relative drift allowed against the reference. metrics.csv and the printed
# reports may drift by at most 1e-12 (plus one unit in the last printed
# digit, which such a drift can move). PCA projections depend on the
# eigensolver's stopping rule, so they get the accuracy of that rule.
DRIFT_TOL = 1e-12
PCA_TOL = 1e-8

# The reference keeps every line of a short output and every
# SAMPLE_EVERY-th line (plus the last) of a long one; the whole output is
# pinned by its sha256.
SAMPLE_EVERY = 25

_SPLIT = re.compile(r"[,\s]+")
_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def tolerance_for(key):
    return PCA_TOL if os.path.basename(key).startswith("latents") else DRIFT_TOL


def _number(token):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def tokens_match(ref, got, rel_tol):
    """Exact for words and integers; floats within ``rel_tol`` of the
    reference plus one unit in its 12th significant digit."""
    if ref == got:
        return True
    a, b = _number(ref), _number(got)
    if a is None or b is None or not any(c in ref for c in ".eE"):
        return False
    last_digit = 10.0 ** (math.floor(math.log10(abs(a))) - 11) if a else 0.0
    return abs(a - b) <= rel_tol * max(1.0, abs(a)) + last_digit


def lines_match(ref_line, got_line, rel_tol):
    ref, got = _SPLIT.split(ref_line.strip()), _SPLIT.split(got_line.strip())
    return len(ref) == len(got) and all(
        tokens_match(r, g, rel_tol) for r, g in zip(ref, got))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(text):
    lines = text.splitlines()
    if len(lines) <= 2 * SAMPLE_EVERY:
        keep = range(len(lines))
    else:
        keep = sorted({len(lines) - 1, *range(0, len(lines), SAMPLE_EVERY)})
    return {"sha256": sha256(text), "n_lines": len(lines),
            "lines": {str(i): lines[i] for i in keep}}


def compare_to_reference(entry, text, rel_tol):
    """None if ``text`` matches the recorded entry, else a message."""
    if sha256(text) == entry["sha256"]:
        return None
    lines = text.splitlines()
    if len(lines) != entry["n_lines"]:
        return f"{len(lines)} lines, reference has {entry['n_lines']}"
    for i, ref_line in entry["lines"].items():
        if not lines_match(ref_line, lines[int(i)], rel_tol):
            return f"line {i} {lines[int(i)]!r} != reference {ref_line!r}"
    return None


def load_reference():
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def save_reference(reference):
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def _train_invariants(stdout, metrics_text, checkpoint_text):
    rows = metrics_text.splitlines()[1:]
    steps = re.search(r"^steps: (\d+)$", stdout, re.MULTILINE)
    if steps is None or int(steps.group(1)) != len(rows) or not rows:
        return f"step count in stdout does not match {len(rows)} metric rows"
    eps, eps_trace = (float(line.split()[1])
                      for line in checkpoint_text.splitlines())
    if abs(eps - eps_trace) > harness.EPSILON_FORM_TOL * max(1.0, abs(eps)):
        return f"separability forms disagree: {eps!r} vs {eps_trace!r}"
    logged = rows[-1].split(",")[-1]
    if logged != format_epsilon(eps):
        return (f"last logged epsilon {logged} != checkpoint epsilon "
                f"{format_epsilon(eps)}")
    return None


def _eval_metric_invariants(stdout):
    forms = re.findall(r"^separability \(\w+ form\):\s+(\S+)$", stdout,
                       re.MULTILINE)
    if len(forms) != 2 or forms[0] != forms[1]:
        return f"eval-metric forms differ or are missing: {forms}"
    return None


def check_pass(workload, seed, result, first_outputs=None, reference=None):
    """Failure messages by command index for one pass.

    ``first_outputs`` are the outputs of the run's first pass, which every
    later pass must repeat byte for byte; ``reference`` holds the recorded
    default-seed outputs of this workload, or None on other seeds.
    """
    failures = {}

    def fail(index, message):
        failures.setdefault(index, []).append(message)

    commands = workload.commands(seed)
    for i, (cmd, res) in enumerate(zip(commands, result.commands)):
        if res.rc != 0:
            fail(i, f"{cmd.name} exited {res.rc}: {res.stderr.strip()}")
    for key, index in workload.outputs(seed).items():
        text = result.outputs.get(key)
        if text is None:
            fail(index, f"{key}: missing")
            continue
        if _NONFINITE.search(text):
            fail(index, f"{key}: non-finite value")
        if first_outputs is not None and text != first_outputs.get(key):
            fail(index, f"{key}: differs from the first pass of this run")
        if reference is not None:
            if key not in reference:
                fail(index, f"{key}: not in the reference")
                continue
            message = compare_to_reference(reference[key], text,
                                           tolerance_for(key))
            if message:
                fail(index, f"{key}: {message}")
    for i, (cmd, res) in enumerate(zip(commands, result.commands)):
        if i in failures:
            continue
        message = None
        if cmd.name == "train":
            message = _train_invariants(
                res.stdout, result.outputs["run/metrics.csv"],
                result.outputs["run/checkpoint.bin"])
        elif cmd.name == "eval-metric":
            message = _eval_metric_invariants(res.stdout)
        if message:
            fail(i, message)
    return failures
