import types

import pytest

import tracing
import workloads


def _fake_clock(step=1.0):
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]

    return clock


def _namespace():
    ns = types.SimpleNamespace()
    ns.leaf = lambda: None
    ns.inner = lambda: (ns.leaf(), ns.leaf())
    ns.outer = lambda: (ns.inner(), ns.leaf())
    return ns


def test_nested_self_times_sum_to_parent_span():
    ns = _namespace()
    tracer = tracing.Tracer(clock=_fake_clock())
    targets = {name: ((ns, name),) for name in ("outer", "inner", "leaf")}
    with tracing.installed(tracer, targets):
        tracer.enter("root")  # each clock read advances one tick
        ns.outer()
        tracer.exit()
    # root spans ticks 1..12; outer 2..11; inner 3..8 around two leaves.
    assert dict(tracer.self_s) == {"leaf": 3.0, "inner": 3.0, "outer": 3.0,
                                   "root": 2.0}
    assert sum(tracer.self_s.values()) == 12.0 - 1.0
    assert tracer.calls == {"outer": 1, "inner": 1, "leaf": 3}


def test_self_times_sum_to_parent_with_real_clock():
    ns = _namespace()
    tracer = tracing.Tracer()
    targets = {name: ((ns, name),) for name in ("outer", "inner", "leaf")}
    with tracing.installed(tracer, targets):
        tracer.enter("root")
        for _ in range(100):
            ns.outer()
        name, start, covered = tracer._stack[-1]
        tracer.exit()
    total = sum(tracer.self_s.values())
    assert covered == pytest.approx(total - tracer.self_s["root"])


def test_generator_span_records_gaps_between_yields():
    def gen(n):
        yield from range(n)

    ns = types.SimpleNamespace(gen=gen)
    tracer = tracing.Tracer(clock=_fake_clock())
    with tracing.installed(tracer, {"data.batches": ((ns, "gen"),)}):
        assert list(ns.gen(4)) == [0, 1, 2, 3]
        assert list(ns.gen(2)) == [0, 1]
    assert tracer.calls["data.batches"] == 2
    assert tracer.yields == 6
    assert len(tracer.step_s) == 6 - 2


def _bindings():
    return {(id(owner), attr): owner.__dict__[attr]
            for bindings in tracing.TARGETS.values()
            for owner, attr in bindings}


def test_wrappers_are_removed_after_tracing(tiny):
    before = _bindings()
    with tracing.installed(tracing.Tracer()):
        assert _bindings() != before
        workloads.run_pass(tiny, 3)
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("interrupted")
    assert _bindings() == before


def test_traced_counts_repeat_exactly(tiny):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            workloads.setup(tiny, 5)
            workloads.run_pass(tiny, 5)
        counts.append(tracing.counts_of(tracer))
    assert counts[0] == counts[1]
    calls = counts[0][0]
    assert calls["cli.main"] == 3  # warm-up, train, eval-metric
    assert calls["losses.center_loss"] == calls["optim.sgd_step"] > 0


def test_per_layer_metrics_cover_every_declared_name(tiny):
    tracers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            workloads.run_pass(tiny, 2)
        tracers.append(tracer)
    metrics = tracing.per_layer_metrics(tracers, 1.05)
    assert list(metrics) == tracing.per_layer_names()
    for name in tracing.SELF_TIMED:
        assert metrics[f"{name}.self_s"][0] > 0, name
    assert metrics["data.batches.yields"][0] == 2 * 40
