"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer at
run time. Nothing under ``src/`` changes: a module-level function is
replaced in its defining module *and* in every loaded ``repro`` module
that bound it by name (``from x import f``), because the caller looks the
name up in its own namespace. Methods are replaced on their class.

A span records its wall time; a layer's self time is the span's time
minus the time of the spans nested inside it, whatever their layer.
Self times are only booked while the tracer is started, and only on the
thread that started it, so the sum of all self times never exceeds the
traced region and the remainder is the region's unattributed time.

Collections of Python's cyclic garbage collector are booked the same
way, as the ``runtime.gc`` layer: a pause on the traced thread is a
child of whatever span was open when the allocation triggered it, so it
leaves that span's self time. The collector itself is left alone.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module`` + dotted ``attr`` -> layer."""

    layer: str
    module: str
    attr: str
    #: Called as ``after(tracer, args, result)`` once the call returned.
    after: Optional[Hook] = None
    #: Book the allocated-block growth of outermost spans of the layer:
    #: what the call allocated and had not released on return. Blocks
    #: that collections inside the span freed are added back, so the
    #: figure does not depend on where collections happen to land.
    blocks: bool = False


def _count(name: str, predicate: Callable[[tuple, Any], bool] = None
           ) -> Hook:
    def hook(tracer: "Tracer", args: tuple, result: Any) -> None:
        if predicate is None or predicate(args, result):
            tracer.extra[name] += 1
    return hook


def _wrapped_count(tracer: "Tracer", args: tuple, result: Any) -> None:
    instrument, window = args[0], args[1]
    tracer.extra["openwpm.js_instrument.wrapped"] += \
        instrument.install_counts.get(id(window), 0)


def _template_nodes(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.extra["core.fingerprint.capture.nodes"] += len(result)


def _has_rows(args: tuple, result: Any) -> bool:
    # import_content_rows(rows) / import_ledger_rows(table, rows)
    # return before committing when handed nothing.
    return bool(args[-1])


_COMMIT = "openwpm.storage.commits"
_STORAGE = "repro.openwpm.storage"
_QUEUE = "repro.sched.jobs"
_CORPUS = "repro.corpus.store"

TARGETS: Tuple[Target, ...] = (
    Target("browser.window", "repro.browser.window",
           "BrowserWindow.__init__", blocks=True),
    Target("openwpm.js_instrument",
           "repro.openwpm.instruments.js_instrument",
           "JSInstrument.instrument_window", after=_wrapped_count),
    Target("browser.profiles", "repro.browser.profiles", "openwpm_profile"),
    Target("jsengine.parse", "repro.jsengine.parser", "parse"),
    Target("jsengine.compile", "repro.jsengine.compiler",
           "compile_program"),
    Target("jsengine.exec", "repro.jsengine.interpreter",
           "Interpreter.run_program"),
    Target("net.fetch", "repro.net.network", "Network.fetch"),
    Target("openwpm.http_instrument",
           "repro.openwpm.instruments.http_instrument",
           "HTTPInstrument.on_request"),
    Target("openwpm.cookie_instrument",
           "repro.openwpm.instruments.cookie_instrument",
           "CookieInstrument.on_cookie_change"),
    Target("openwpm.storage", _STORAGE, "StorageController.begin_visit"),
    Target("openwpm.storage", _STORAGE, "StorageController.end_visit",
           after=_count(_COMMIT)),
    Target("openwpm.storage", _STORAGE, "StorageController.commit",
           after=_count(_COMMIT)),
    Target("openwpm.storage", _STORAGE, "StorageController.import_visit",
           after=_count(_COMMIT)),
    Target("openwpm.storage", _STORAGE,
           "StorageController.import_content_rows",
           after=_count(_COMMIT, _has_rows)),
    Target("openwpm.storage", _STORAGE,
           "StorageController.import_ledger_rows",
           after=_count(_COMMIT, _has_rows)),
    Target("serve.rollups", "repro.serve.rollups",
           "RollupMaintainer.visit_committed"),
    Target("sched.queue", _QUEUE, "JobQueue.claim",
           after=_count("sched.queue.claims",
                        lambda args, result: result is not None)),
    Target("sched.queue", _QUEUE, "JobQueue.complete",
           after=_count("sched.queue.completions")),
    Target("sched.broker", "repro.sched.procpool",
           "CrawlBroker.handle_resolution"),
    Target("openwpm.merge", "repro.openwpm.merge", "merge_shards"),
    Target("core.scan.classify", "repro.core.scan.classify",
           "classify_site"),
    Target("corpus", _CORPUS, "ScriptCorpus.scan"),
    Target("corpus", _CORPUS, "ScriptCorpus.site_batch"),
    Target("corpus", _CORPUS, "ScriptCorpus.promote"),
    Target("corpus", _CORPUS, "ScriptCorpus.drop_staged"),
    Target("corpus", _CORPUS, "SiteBatch.add"),
    Target("corpus", _CORPUS, "SiteBatch.flush_visit"),
    Target("corpus", _CORPUS, "SiteBatch.commit"),
    Target("core.scan.results_store", "repro.core.scan.results_store",
           "ScanResultStore.save"),
    Target("core.fingerprint.capture", "repro.core.fingerprint.template",
           "capture_template", after=_template_nodes),
    Target("core.fingerprint.diff", "repro.core.fingerprint.surface",
           "diff_templates"),
)

#: The layer garbage-collector pauses are booked to.
GC_LAYER = "runtime.gc"

#: Every layer with a ``<layer>.self_ms`` metric, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [*(t.layer for t in TARGETS), GC_LAYER]))


class Tracer:
    """Span stack plus per-layer self time, call counts and counters."""

    def __init__(self) -> None:
        self.active = False
        self.thread: Optional[int] = None
        self.stack: List[List[int]] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self.region_ns = 0
        self._started_at = 0
        self._block_depth = 0
        #: Reads the AST cache's cumulative counters (set by
        #: :func:`install`); their growth while started is
        #: :attr:`cache_deltas`.
        self.cache_stats: Callable[[], Dict[str, int]] = dict
        self.cache_deltas: Dict[str, int] = defaultdict(int)
        self._cache_mark: Dict[str, int] = {}
        #: Full (generation 2) collections while started.
        self.gc_full = 0
        self._gc_started_at = 0
        self._gc_blocks_at = 0
        #: Blocks freed by collections inside ``blocks`` spans.
        self._gc_freed = 0

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        # Pauses on other threads stall the traced thread inside some
        # span too; booking them here would count that time twice.
        if not self.active or threading.get_ident() != self.thread:
            return
        if phase == "start":
            if self._block_depth:
                self._gc_blocks_at = sys.getallocatedblocks()
            self._gc_started_at = perf_counter_ns()
            return
        pause = perf_counter_ns() - self._gc_started_at
        self.self_ns[GC_LAYER] += pause
        self.calls[GC_LAYER] += 1
        self.gc_full += info["generation"] == 2
        if self.stack:
            self.stack[-1][0] += pause
        if self._block_depth:
            self._gc_freed += self._gc_blocks_at - sys.getallocatedblocks()

    def start(self) -> None:
        """Begin booking spans on the calling thread."""
        self._cache_mark = self.cache_stats()
        self.thread = threading.get_ident()
        gc.callbacks.append(self._on_gc)
        self._started_at = perf_counter_ns()
        self.active = True

    def stop(self) -> None:
        if not self.active:
            return
        self.active = False
        self.region_ns += perf_counter_ns() - self._started_at
        gc.callbacks.remove(self._on_gc)
        for key, value in self.cache_stats().items():
            self.cache_deltas[key] += value - self._cache_mark.get(key, 0)

    def attributed_ns(self) -> int:
        return sum(self.self_ns.values())

    def wrap(self, target: Target, fn: Callable) -> Callable:
        layer, after, blocks = target.layer, target.after, target.blocks
        tracer = self
        stack = self.stack
        self_ns = self.self_ns
        calls = self.calls
        get_ident = threading.get_ident
        allocated = sys.getallocatedblocks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            if blocks:
                tracer._block_depth += 1
                if tracer._block_depth == 1:
                    before = allocated()
                    freed = tracer._gc_freed
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if blocks:
                    tracer._block_depth -= 1
                    if tracer._block_depth == 0:
                        tracer.extra[layer + ".alloc_blocks"] += \
                            allocated() - before \
                            + tracer._gc_freed - freed
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced


def _resolve(target: Target) -> Tuple[Any, str, Any]:
    """(owner, attribute name, original) for *target*."""
    owner: Any = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)
    return owner, name, original


def _rebind(original: Any, replacement: Any) -> List[Tuple[Any, str]]:
    """Point every loaded ``repro`` module's binding of *original* at
    *replacement*; returns the (module, name) pairs changed."""
    changed = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name))
    return changed


def install(tracer: Tracer, targets: Tuple[Target, ...] = TARGETS
            ) -> Callable[[], None]:
    """Wrap every target; returns a function that undoes it."""
    from repro.jsengine.interpreter import ast_cache_stats

    tracer.cache_stats = ast_cache_stats
    undo: List[Tuple[Any, str, Any]] = []
    for target in targets:
        owner, name, original = _resolve(target)
        wrapper = tracer.wrap(target, original)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            undo.append((owner, name, original))
        else:
            for module, bound in _rebind(original, wrapper):
                undo.append((module, bound, original))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
