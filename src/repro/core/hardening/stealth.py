"""The hardened JavaScript instrument (WPM_hide).

Differences from the vanilla instrument, keyed to the paper:

* **No DOM injection** — wrappers are installed directly from the
  content context via ``exportFunction`` (Sec. 6.1.2, 6.2.1): CSP cannot
  block installation and no ``getInstrumentJS`` residue exists.
* **Native-looking wrappers** — every wrapper is an exported function
  whose ``toString`` is the original native-code string (Sec. 6.1.1).
* **Private messaging** — records go to the background context through a
  channel captured in the wrapper's closure; there is no page-visible
  event dispatcher to hijack (defeats Listing 2, Sec. 6.2.1).
* **Per-prototype wrapping** — each prototype's own properties are
  wrapped in place on that prototype; nothing is copied down the chain
  (Sec. 6.1.4). The documented limitation applies: wrapping a shared
  prototype (EventTarget) instruments every interface inheriting it.
* **Clean stack traces** — exported wrappers add no interpreter frames,
  and errors crossing a wrapper are additionally scrubbed (Sec. 6.1.3).
* **Frame protection** — ``frame_policy = "immediate"``: new frames and
  popups are instrumented synchronously at creation, closing the
  Listing-3 window (Sec. 6.2.2).
* **webdriver hidden** — ``navigator.webdriver`` reads false while the
  access itself is still recorded (Sec. 6.1.5).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.hardening.errors import sanitize_error_stack
from repro.jsobject.descriptors import PropertyDescriptor
from repro.jsobject.errors import JSError
from repro.jsobject.functions import JSFunction
from repro.jsobject.objects import JSObject
from repro.jsobject.values import UNDEFINED
from repro.openwpm.instruments.js_instrument import (
    DEFAULT_TARGETS,
    JSCallRecord,
    TargetSpec,
)


def _interface_name(proto: JSObject, fallback: str) -> str:
    name = proto.class_name
    if name.endswith("Prototype"):
        return name[: -len("Prototype")]
    return fallback


class StealthJSInstrument:
    """Drop-in replacement for :class:`JSInstrument` with stealth."""

    name = "stealth_js_instrument"
    frame_policy = "immediate"

    def __init__(self, storage: Any = None,
                 targets: Optional[List[TargetSpec]] = None,
                 hide_webdriver: bool = True) -> None:
        self.storage = storage
        self.targets = targets if targets is not None else DEFAULT_TARGETS
        self.hide_webdriver = hide_webdriver
        self.records: List[JSCallRecord] = []
        self.install_counts: Dict[int, int] = {}
        #: Kept for interface parity with JSInstrument; stays empty —
        #: installation cannot be blocked by page policy.
        self.blocked_urls: List[str] = []
        self.frames_instrumented = 0

    # ==================================================================
    def instrument_window(self, window: Any, context: Any) -> bool:
        if window.parent is not None or window.is_popup:
            self.frames_instrumented += 1
        installed = 0
        for target in self.targets:
            obj = self._resolve_path(window, target.path)
            if isinstance(obj, JSObject):
                installed += self._instrument_object(window, context, obj,
                                                     target)
        if self.hide_webdriver:
            self._hide_webdriver(window, context)
        self.install_counts[id(window)] = installed
        return True

    def _resolve_path(self, window: Any, path: str) -> Any:
        obj: Any = window.window_object
        for part in path.split("."):
            if not isinstance(obj, JSObject):
                return UNDEFINED
            obj = obj.get(part, window.interp)
        return obj

    # ------------------------------------------------------------------
    def _instrument_object(self, window: Any, context: Any, obj: JSObject,
                           target: TargetSpec) -> int:
        realm = window.realm
        if target.is_prototype:
            chain = [obj]
            walker = obj.proto
        else:
            chain = []
            walker = obj.proto
        while walker is not None and walker is not realm.object_prototype \
                and walker is not realm.function_prototype:
            chain.append(walker)
            walker = walker.proto
        if not chain:
            chain = [obj]

        fallback_name = target.path.split(".")[0] \
            if not target.is_prototype else target.path.rsplit(".", 2)[0]
        installed = 0
        for proto in chain:
            interface = _interface_name(proto, fallback_name)
            for name, desc in list(proto.properties.items()):
                if name in target.exclude or name == "constructor":
                    continue
                if desc.meta.get("wpmhide_wrapped"):
                    continue
                if target.methods_only and not desc.is_accessor \
                        and not isinstance(desc.value, JSFunction):
                    continue
                wrapped = self._wrap_descriptor(
                    window, context, interface, name, desc,
                    methods_only=target.methods_only)
                if wrapped is None:
                    continue
                wrapped.meta["wpmhide_wrapped"] = True
                wrapped.meta["wpmhide_original"] = desc
                # Per-prototype: the wrapper replaces the property on the
                # SAME prototype it was found on — no pollution.
                proto.properties[name] = wrapped
                installed += 1
        return installed

    # ------------------------------------------------------------------
    def _wrap_descriptor(self, window: Any, context: Any, interface: str,
                         name: str, desc: PropertyDescriptor,
                         methods_only: bool
                         ) -> Optional[PropertyDescriptor]:
        symbol = f"{interface}.{name}"

        def log(operation: str, value: str = "", arguments: str = "") -> None:
            self._record(window, symbol, operation, value, arguments)

        if desc.is_accessor:
            original_get, original_set = desc.get, desc.set

            def stealth_get(interp, this, args):
                result = original_get.call(interp, this, []) \
                    if original_get is not None else UNDEFINED
                log("get", value=self._render(window, result))
                return result

            def stealth_set(interp, this, args):
                log("set", value=self._render(window,
                                              args[0] if args else UNDEFINED))
                if original_set is not None:
                    return original_set.call(interp, this, args)
                return UNDEFINED

            return PropertyDescriptor.accessor(
                get=context.export_function(stealth_get, name,
                                            masquerade_name=name),
                set=context.export_function(stealth_set, name,
                                            masquerade_name=name),
                enumerable=desc.enumerable, configurable=desc.configurable)

        value = desc.value
        if isinstance(value, JSFunction):
            original = value

            def stealth_call(interp, this, args):
                log("call", arguments=",".join(
                    self._render(window, a) for a in args))
                try:
                    return original.call(interp, this, args)
                except JSError as exc:
                    # Scrub any instrumentation trace before the page
                    # can observe the error (Sec. 6.1.3).
                    raise JSError(sanitize_error_stack(exc.value)) from exc

            wrapper = context.export_function(
                stealth_call, original.function_name or name,
                masquerade_name=original.function_name or name)
            return PropertyDescriptor(
                value=wrapper, writable=desc.writable,
                enumerable=desc.enumerable, configurable=desc.configurable)

        if methods_only:
            return None
        original_value = value

        def data_get(interp, this, args):
            log("get", value=self._render(window, original_value))
            return original_value

        def data_set(interp, this, args):
            log("set", value=self._render(window,
                                          args[0] if args else UNDEFINED))
            return UNDEFINED

        return PropertyDescriptor.accessor(
            get=context.export_function(data_get, name,
                                        masquerade_name=name),
            set=context.export_function(data_set, name,
                                        masquerade_name=name),
            enumerable=desc.enumerable, configurable=desc.configurable)

    # ------------------------------------------------------------------
    def _hide_webdriver(self, window: Any, context: Any) -> None:
        """navigator.webdriver reads false; the access is still logged."""
        proto = window.navigator_proto
        if proto is None:
            return

        def webdriver_get(interp, this, args):
            self._record(window, "Navigator.webdriver", "get", "false", "")
            return False

        desc = PropertyDescriptor.accessor(
            get=context.export_function(webdriver_get, "webdriver",
                                        masquerade_name="webdriver"),
            enumerable=True, configurable=True)
        desc.meta["wpmhide_wrapped"] = True
        proto.properties["webdriver"] = desc

    # ------------------------------------------------------------------
    def _render(self, window: Any, value: Any) -> str:
        try:
            return window.interp.to_string(value)[:256]
        except (JSError, TypeError):
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
