"""Engine-level (debugger-API-style) instrumentation.

The paper's concluding recommendation (Sec. 8, *Towards robust
instrumentation*): "Ideally, instrumentation is handled outside page
scope. For example, by leveraging the debugger API." This instrument
realises that design on the simulated engine: it registers an access
hook *inside the interpreter*, below the page's object layer, so

* no property descriptor is replaced — ``toString``, descriptors,
  prototypes, and stack traces are byte-identical to an uninstrumented
  browser (nothing for Listing 1 / Fig. 2 style checks to find);
* there is no injected script, no event channel, and no page-reachable
  state — the Listing 2 attacks have no surface at all;
* CSP is irrelevant (nothing enters the page);
* every frame's interpreter is hooked at creation, so the Listing 3
  same-tick iframe gap does not exist.

The trade-off the paper names — maintenance cost / engine coupling — is
visible here too: this class reaches into interpreter internals rather
than WebExtension APIs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.jsobject.objects import JSObject
from repro.openwpm.instruments.js_instrument import JSCallRecord

#: JS interface classes whose accesses are recorded, mapping the
#: class_name of instances/prototypes to the interface label used in
#: record symbols.
DEFAULT_MONITORED_INTERFACES: Dict[str, str] = {
    "Navigator": "Navigator",
    "NavigatorPrototype": "Navigator",
    "Screen": "Screen",
    "ScreenPrototype": "Screen",
    "WebGLRenderingContext": "WebGLRenderingContext",
    "WebGLRenderingContextPrototype": "WebGLRenderingContext",
    "CanvasRenderingContext2D": "CanvasRenderingContext2D",
    "CanvasRenderingContext2DPrototype": "CanvasRenderingContext2D",
    "Performance": "Performance",
    "PerformancePrototype": "Performance",
    "History": "History",
    "HistoryPrototype": "History",
    "Storage": "Storage",
    "OfflineAudioContextPrototype": "OfflineAudioContext",
}


class DebuggerJSInstrument:
    """Zero-footprint JS recording via the engine's access hook."""

    name = "debugger_js_instrument"
    frame_policy = "immediate"

    def __init__(self, storage: Any = None,
                 monitored: Optional[Dict[str, str]] = None,
                 hide_webdriver: bool = False) -> None:
        self.storage = storage
        self.monitored = monitored if monitored is not None \
            else dict(DEFAULT_MONITORED_INTERFACES)
        #: Optionally pair the zero-footprint recording with the
        #: Sec. 6.1.5 webdriver override (one exported getter; the only
        #: page-visible change this instrument can make).
        self.hide_webdriver = hide_webdriver
        self.records: List[JSCallRecord] = []
        self.install_counts: Dict[int, int] = {}
        self.blocked_urls: List[str] = []  # interface parity; stays empty
        self._hooked_windows: Set[int] = set()

    # ------------------------------------------------------------------
    def instrument_window(self, window: Any, context: Any) -> bool:
        if id(window) in self._hooked_windows:
            return True
        self._hooked_windows.add(id(window))

        def hook(kind: str, obj: JSObject, name: str, payload: Any) -> None:
            interface = self.monitored.get(obj.class_name)
            if interface is None:
                return
            if kind == "call":
                arguments = ",".join(
                    self._render(window, a) for a in payload)
                self._record(window, f"{interface}.{name}", "call", "",
                             arguments)
            else:
                self._record(window, f"{interface}.{name}", kind,
                             self._render(window, payload), "")

        window.interp.access_hook = hook
        if self.hide_webdriver and window.navigator_proto is not None:
            from repro.jsobject.descriptors import PropertyDescriptor

            getter = context.export_function(
                lambda interp, this, args: False, "webdriver",
                masquerade_name="webdriver")
            window.navigator_proto.properties["webdriver"] = \
                PropertyDescriptor.accessor(get=getter, enumerable=True)
        # Engine hooks do not modify a single page-visible property
        # (beyond the optional webdriver override above).
        self.install_counts[id(window)] = 0
        return True

    # ------------------------------------------------------------------
    def _render(self, window: Any, value: Any) -> str:
        try:
            return window.interp.to_string(value)[:256]
        except Exception:  # noqa: BLE001 - rendering must never break pages
            return "<unrenderable>"

    def _record(self, window: Any, symbol: str, operation: str,
                value: str, arguments: str) -> None:
        script_url = ""
        for frame in reversed(window.interp.call_stack):
            script_url = frame.script_url
            break
        record = JSCallRecord(
            symbol=symbol, operation=operation, value=value,
            arguments=arguments, call_stack="", script_url=script_url,
            document_url=str(window.url))
        self.records.append(record)
        if self.storage is not None:
            self.storage.record_javascript(
                document_url=record.document_url,
                script_url=record.script_url, symbol=symbol,
                operation=operation, value=value, arguments=arguments,
                call_stack="")

    # ------------------------------------------------------------------
    def symbols_accessed(self) -> List[str]:
        return [record.symbol for record in self.records]

    def clear_records(self) -> None:
        self.records.clear()
