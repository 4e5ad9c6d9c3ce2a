"""Span self-time arithmetic, reconciliation, and the bindings the
tracer must patch."""

import sys

import pytest

from perfbench import layers
from perfbench.layers import TARGETS, Target, Tracer, install
from perfbench.report import layer_metrics
from perfbench.tests import fake_work
from perfbench.workloads import Outcome

MODULE = "perfbench.tests.fake_work"


@pytest.fixture
def fake_clock(monkeypatch):
    fake_work.CLOCK[0] = 0
    monkeypatch.setattr(layers, "perf_counter_ns",
                        lambda: fake_work.CLOCK[0])
    return fake_work.CLOCK


def _install(tracer, *targets):
    undo = []
    for target in targets:
        owner = fake_work.Work
        name = target.attr.split(".")[-1]
        original = owner.__dict__[name]
        setattr(owner, name, tracer.wrap(target, original))
        undo.append((owner, name, original))
    return undo


@pytest.fixture
def traced(fake_clock):
    tracer = Tracer()
    undo = _install(
        tracer,
        Target("outer", MODULE, "Work.outer"),
        Target("inner", MODULE, "Work.inner"),
        Target("window", MODULE, "Work.window", blocks=True),
        Target("fails", MODULE, "Work.fails"))
    yield tracer
    for owner, name, original in undo:
        setattr(owner, name, original)


def test_nested_self_time_subtracts_children(traced):
    traced.start()
    assert fake_work.Work().outer() == "done"
    traced.stop()
    assert traced.self_ns["outer"] == 7
    assert traced.self_ns["inner"] == 6
    assert traced.calls["inner"] == 2
    assert traced.region_ns == 13
    assert traced.attributed_ns() == traced.region_ns


def test_same_layer_recursion_counts_each_level_once(traced):
    traced.start()
    fake_work.Work().window(2)
    traced.stop()
    assert traced.self_ns["window"] == 15
    assert traced.calls["window"] == 3
    assert traced.region_ns == 15


def test_gc_pause_is_its_own_layer(traced):
    target = Target("collects", MODULE, "Work.collects")
    undo = _install(traced, target)
    try:
        traced.start()
        fake_work.Work().collects(traced)
        traced.stop()
    finally:
        for owner, name, original in undo:
            setattr(owner, name, original)
    assert traced.self_ns["collects"] == 4
    assert traced.self_ns[layers.GC_LAYER] == 5
    assert traced.gc_full == 1
    assert traced.attributed_ns() == traced.region_ns == 9


def test_real_collections_are_booked_and_reconcile(traced):
    import gc

    traced.start()
    gc.collect()
    traced.stop()
    assert traced.calls[layers.GC_LAYER] >= 1
    assert traced.gc_full >= 1
    assert traced.attributed_ns() <= traced.region_ns


def test_time_outside_spans_is_unattributed(traced, fake_clock):
    traced.start()
    fake_work.spend(4)
    fake_work.Work().inner()
    fake_work.spend(1)
    traced.stop()
    assert traced.attributed_ns() == 3
    assert traced.region_ns == 8


def test_raising_span_still_closes(traced):
    traced.start()
    with pytest.raises(RuntimeError):
        fake_work.Work().fails()
    fake_work.Work().inner()
    traced.stop()
    assert traced.self_ns["fails"] == 6
    assert traced.stack == []
    assert traced.attributed_ns() == traced.region_ns == 9


def test_nothing_is_booked_while_stopped(traced):
    fake_work.Work().outer()
    assert traced.attributed_ns() == 0
    traced.start()
    traced.stop()
    fake_work.Work().outer()
    assert traced.attributed_ns() == 0


def test_other_threads_are_not_booked(traced):
    import threading

    traced.start()
    worker = threading.Thread(target=fake_work.Work().outer)
    worker.start()
    worker.join()
    traced.stop()
    assert traced.attributed_ns() == 0


def test_reconciliation_sums_to_the_op_total(traced):
    traced.start()
    fake_work.spend(10)
    fake_work.Work().outer()
    traced.stop()
    outcome = Outcome(first_op=0.0, start=0.0, end=1.0,
                      latencies=[0.5, 0.5])
    values, units, reconciliation = layer_metrics(traced, outcome, 2.0)
    assert reconciliation["ok"]
    assert values["trace.op_ms"] == pytest.approx(23 / 1e6 / 2)
    assert values["unattributed.self_ms"] == pytest.approx(10 / 1e6 / 2)
    layer_sum = sum(values[f"{layer}.self_ms"] for layer in layers.LAYERS)
    extra = (traced.self_ns["outer"] + traced.self_ns["inner"]) / 1e6 / 2
    assert layer_sum + extra + values["unattributed.self_ms"] \
        == pytest.approx(values["trace.op_ms"])
    assert values["trace.overhead_pct"] == pytest.approx(0.0)
    assert set(values) == set(units)


def test_every_target_resolves():
    for target in TARGETS:
        owner, name, original = layers._resolve(target)
        assert callable(original), target


@pytest.fixture
def installed():
    tracer = Tracer()
    undo = install(tracer)
    yield tracer
    undo()


def _is_wrapped(fn):
    return hasattr(fn, "__perfbench_original__")


def test_patches_the_binding_each_caller_uses(installed):
    # ``parse`` is imported by name into the interpreter, which calls it
    # through that binding; ``openwpm_profile`` likewise into the scan
    # pipeline and the task manager; ``compile_program`` is imported
    # inside the calling function, so its defining module must change.
    import repro.core.scan.pipeline as pipeline
    import repro.jsengine.compiler as compiler
    import repro.jsengine.interpreter as interpreter
    import repro.jsengine.parser as parser
    import repro.openwpm.task_manager as task_manager

    for fn in (interpreter.parse, parser.parse, pipeline.openwpm_profile,
               task_manager.openwpm_profile, compiler.compile_program):
        assert _is_wrapped(fn), fn
    for name, module in sys.modules.items():
        if name.startswith("repro") and module is not None:
            assert not any(value is parser.parse.__perfbench_original__
                           for value in vars(module).values()), name


def test_uninstall_restores_originals():
    import repro.jsengine.interpreter as interpreter
    from repro.browser.window import BrowserWindow

    before = (interpreter.parse, BrowserWindow.__init__)
    undo = install(Tracer())
    assert _is_wrapped(interpreter.parse)
    undo()
    assert (interpreter.parse, BrowserWindow.__init__) == before


def test_js_engine_layers_see_a_fresh_script(installed):
    import random

    from repro.jsengine.builtins import Realm
    from repro.jsengine.interpreter import Interpreter, compile_enabled

    source = f"var probe = {random.random()}; probe + 1;"
    installed.start()
    Interpreter(Realm(random.Random(1))).run(source, "probe.js")
    installed.stop()
    assert installed.calls["jsengine.parse"] == 1
    assert installed.calls["jsengine.exec"] == 1
    assert installed.calls["jsengine.compile"] == \
        (1 if compile_enabled() else 0)
    assert installed.cache_deltas["misses"] == 1
