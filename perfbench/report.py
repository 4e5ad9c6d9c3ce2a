"""Per-layer metrics of a traced run, normalised per op."""

from __future__ import annotations

from typing import Dict, Tuple

from perfbench.layers import LAYERS, Tracer

#: Reconciliation tolerance: layer self times may overshoot the traced
#: region by this share of it (timer granularity) and no more.
RECONCILE_TOLERANCE = 0.001

#: Per-op counts of spans: metric -> layer.
CALL_COUNTS = {
    "browser.window.count": "browser.window",
    "jsengine.parse.count": "jsengine.parse",
    "jsengine.exec.count": "jsengine.exec",
    "net.fetch.count": "net.fetch",
    "sched.broker.messages": "sched.broker",
}
#: Per-op counters booked by the targets' ``after`` hooks.
HOOK_COUNTS = (
    "openwpm.js_instrument.wrapped",
    "openwpm.storage.commits",
    "core.fingerprint.capture.nodes",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{layer}.self_ms": "ms" for layer in LAYERS}
    units.update({name: "count" for name in (*CALL_COUNTS, *HOOK_COUNTS)})
    units.update({
        "browser.window.alloc_blocks": "blocks",
        "jsengine.ast_cache.hit_ratio": "ratio",
        "sched.queue.claims_per_completion": "ratio",
        "corpus.dedup_ratio": "ratio",
        "runtime.gc.full_collections": "count",
        "runtime.rss_growth_kb_per_op": "KB",
        "unattributed.self_ms": "ms",
        "trace.op_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


def layer_metrics(tracer: Tracer, outcome, untraced_ops_per_s: float
                  ) -> Tuple[Dict[str, float], Dict[str, str], dict]:
    """(values, units, reconciliation) of one traced run."""
    ops = outcome.ops
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = tracer.self_ns[layer] / 1e6 / ops
    for name, layer in CALL_COUNTS.items():
        values[name] = tracer.calls[layer] / ops
    for name in HOOK_COUNTS:
        values[name] = tracer.extra[name] / ops
    windows = tracer.calls["browser.window"]
    values["browser.window.alloc_blocks"] = \
        tracer.extra["browser.window.alloc_blocks"] / windows \
        if windows else 0.0
    cache = tracer.cache_deltas
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    values["jsengine.ast_cache.hit_ratio"] = \
        cache.get("hits", 0) / lookups if lookups else 0.0
    completions = tracer.extra["sched.queue.completions"]
    values["sched.queue.claims_per_completion"] = \
        tracer.extra["sched.queue.claims"] / completions \
        if completions else 0.0
    values["corpus.dedup_ratio"] = 0.0
    values["runtime.gc.full_collections"] = tracer.gc_full / ops
    # Set by in-process workloads that ran past their memory reading.
    values["runtime.rss_growth_kb_per_op"] = 0.0
    # Values only the workload can observe (e.g. claims made in worker
    # processes, read back from the queue's rows) take precedence.
    values.update(outcome.layer_values)

    op_ms = tracer.region_ns / 1e6 / ops
    attributed = tracer.attributed_ns() / 1e6 / ops
    values["unattributed.self_ms"] = op_ms - attributed
    values["trace.op_ms"] = op_ms
    traced_ops_per_s = ops / (outcome.end - outcome.start)
    values["trace.overhead_pct"] = \
        100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0)
    reconciliation = {
        "op_total_ms": op_ms,
        "layers_plus_unattributed_ms": attributed
        + values["unattributed.self_ms"],
        "unattributed_ms": values["unattributed.self_ms"],
        "ok": values["unattributed.self_ms"] >= -RECONCILE_TOLERANCE * op_ms
        and all(values[f"{layer}.self_ms"] >= 0 for layer in LAYERS),
    }
    return values, per_layer_units(), reconciliation
