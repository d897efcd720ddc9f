"""Record the default-seed baselines of every workload:

- reference.json: the outputs of one pass, which later runs at the default
  seed are compared against;
- counts.json: the count metrics of one traced unit (set-up plus one pass),
  such as ``network.forward.calls``. They repeat exactly, so a later change
  can cite them as counts.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known good; reference.json pins
the program's numbers, so re-recording it is a change to the benchmark.
"""

import json
import os
import shutil

from run import BENCH_DIR, WORK_DIR, check, tracing, workloads


def record(workload, seed):
    workloads.setup(workload, seed)
    result = workloads.collect_outputs(
        workload, seed, workloads.run_pass(workload, seed))
    failures = check.check_pass(workload, seed, result)
    if failures:
        raise SystemExit(f"{workload.name}: output check failed: {failures}")
    outputs = {key: check.reference_entry(text)
               for key, text in result.outputs.items()}

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        workloads.setup(workload, seed)
        workloads.run_pass(workload, seed)
    counts = {name: value for name, (value, unit)
              in tracing.per_layer_metrics([tracer], 1.0).items()
              if unit == "count"}
    return outputs, counts


def main():
    reference, counts = {}, {}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(WORK_DIR)
    try:
        for name, workload in workloads.WORKLOADS.items():
            reference[name], counts[name] = record(
                workload, workloads.DEFAULT_SEED)
            print(f"{name}: {len(reference[name])} outputs, "
                  f"{len(counts[name])} counts recorded")
    finally:
        os.chdir(cwd)
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    check.save_reference(reference)
    with open(BENCH_DIR / "counts.json", "w") as f:
        json.dump(counts, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
