"""Lazy realm construction keeps the page-visible object graph.

Realm builtins, DOM prototypes, the window's host objects and the JS
instrument's wrappers are built on first touch (``LazyDescriptor``).
These tests pin what a page can observe against a golden file of the
eagerly built graph: own-key order, ``enumerable``/``configurable``,
accessor-vs-data and the ``toString`` of every function, for the window
global and every object on an instrumented prototype chain, in the six
OpenWPM setups and a stock Firefox.

To regenerate after an intentional change to the window graph::

    PYTHONPATH=src python tests/test_lazy_realms.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import weakref

from repro.browser.profiles import openwpm_profile, stock_firefox_profile
from repro.core.lab import LAB_URL, make_lab_network, make_window, \
    visit_with_scripts
from repro.jsobject.descriptors import LazyDescriptor, PropertyDescriptor
from repro.jsobject.functions import JSFunction, NativeFunction
from repro.jsobject.objects import JSObject
from repro.jsobject.values import UNDEFINED
from repro.openwpm import BrowserParams, OpenWPMExtension
from repro.openwpm.instruments.js_instrument import DEFAULT_TARGETS

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "realm_shapes.json"

SETUPS = [("macos", "regular"), ("macos", "headless"),
          ("ubuntu", "regular"), ("ubuntu", "headless"),
          ("ubuntu", "xvfb"), ("ubuntu", "docker")]

#: Objects with more own keys than this (the WebGL prototype with its
#: ~2k parameters) are pinned by count and digest instead of in full.
FULL_LISTING_LIMIT = 400


def _label(fn):
    """``native:<name>``, or a digest of a script function's source."""
    source = fn.to_source_string()
    if "[native code]" in source:
        return "native:" + source.split("(")[0][len("function "):]
    return "script:" + hashlib.sha256(source.encode()).hexdigest()[:12]


def _describe(name, desc):
    flags = ("e" if desc.enumerable else "-") + \
        ("c" if desc.configurable else "-")
    if desc.is_accessor:
        parts = [name, flags, "accessor"]
        for fn in (desc.get, desc.set):
            parts.append(_label(fn) if isinstance(fn, JSFunction)
                         else "none")
    else:
        value = desc.value
        parts = [name, flags + ("w" if desc.writable else "-"), "data",
                 _label(value) if isinstance(value, JSFunction)
                 else type(value).__name__]
    return "|".join(parts)


def _listing(obj):
    # Flags and key order first, before any field read builds a value.
    order = [(name, desc.enumerable, desc.configurable, desc.is_accessor)
             for name, desc in obj.properties.items()]
    entries = [_describe(name, desc) for name, desc in obj.properties.items()]
    assert order == [(name, desc.enumerable, desc.configurable,
                      desc.is_accessor)
                     for name, desc in obj.properties.items()]
    if len(entries) <= FULL_LISTING_LIMIT:
        return entries
    digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
    return {"count": len(entries), "sha256": digest}


def _chain_objects(window):
    """Window global, builtin prototypes and every target chain."""
    objects = {"window": window.window_object,
               "Object.prototype": window.realm.object_prototype,
               "Function.prototype": window.realm.function_prototype,
               "Array.prototype": window.realm.array_prototype,
               "document.__proto__": window.document.proto}
    for target in DEFAULT_TARGETS:
        obj = window.window_object
        for part in target.path.split("."):
            obj = obj.get(part, window.interp)
        if not isinstance(obj, JSObject):
            continue
        if not target.is_prototype:
            objects[target.path] = obj
        depth = 0
        walker = obj if target.is_prototype else obj.proto
        while walker is not None and walker is not \
                window.realm.object_prototype:
            objects[f"{target.path}{'.__proto__' * (depth + 1)}"
                    if not target.is_prototype
                    else f"{target.path}{'.__proto__' * depth}"] = walker
            walker = walker.proto
            depth += 1
    return objects


def _window_shape(window, installed=None):
    shape = {path: _listing(obj)
             for path, obj in _chain_objects(window).items()}
    if installed is not None:
        shape["installed"] = installed
    return shape


def realm_shapes():
    """The page-visible shape of each audited setup's lab window."""
    shapes = {}
    for os_name, mode in SETUPS:
        extension = OpenWPMExtension(BrowserParams(os_name=os_name,
                                                   display_mode=mode))
        _, window = make_window(openwpm_profile(os_name, mode),
                                extension=extension)
        shapes[f"openwpm/{os_name}/{mode}"] = _window_shape(
            window, extension.js_instrument.install_counts[id(window)])
    _, stock = make_window(stock_firefox_profile("ubuntu"))
    shapes["stock/ubuntu"] = _window_shape(stock)
    return shapes


class TestLazyDescriptor:
    def _entries(self):
        built = []
        target = JSObject()

        def factory(key):
            built.append(key)
            if key == "outer":
                # A build that reads another lazy entry of the same target.
                inner = target.get_own_descriptor("inner").value
                return NativeFunction(lambda i, t, a: inner, name=key)
            if key == "acc":
                return NativeFunction(lambda i, t, a: 1.0, name=key), None
            return NativeFunction(lambda i, t, a: key, name=key)

        for key, accessor in (("outer", False), ("inner", False),
                              ("acc", True)):
            target.properties[key] = LazyDescriptor(
                factory, key, accessor, enumerable=False)
        return target, built

    def test_flags_and_keys_do_not_build(self):
        target, built = self._entries()
        assert target.own_keys() == ["outer", "inner", "acc"]
        assert [d.is_accessor for d in target.properties.values()] == \
            [False, False, True]
        assert not any(d.enumerable for d in target.properties.values())
        assert target.enumerable_keys() == []
        assert built == []

    def test_first_read_builds_once_and_caches(self):
        target, built = self._entries()
        desc = target.properties["acc"]
        getter = desc.get
        assert desc.get is getter and desc.set is None
        assert type(desc) is PropertyDescriptor and desc.is_accessor
        assert target.get("acc") == 1.0
        assert built == ["acc"]

    def test_nested_build_yields_the_same_function(self):
        target, built = self._entries()
        outer = target.get("outer")
        assert outer.call(None, None, []) is target.get("inner")
        assert built == ["outer", "inner"]

    def test_write_before_read_skips_the_build(self):
        target, built = self._entries()
        assert target.set("inner", 5.0)
        assert target.get("inner") == 5.0
        assert built == []


class TestGoldenShapes:
    def test_every_setup_matches_the_eager_graph(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        shapes = realm_shapes()
        assert sorted(shapes) == sorted(golden)
        for setup, shape in shapes.items():
            for path, listing in shape.items():
                assert listing == golden[setup][path], (setup, path)


class TestIdentity:
    def test_descriptor_reads_return_the_same_getter(self):
        extension = OpenWPMExtension(BrowserParams())
        _, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["var p = Object.getPrototypeOf(navigator);"
             "var a = Object.getOwnPropertyDescriptor(p, 'userAgent');"
             "var b = Object.getOwnPropertyDescriptor(p, 'userAgent');"
             "window.sameGet = a.get === b.get;"
             "window.sameSet = a.set === b.set;"
             "var c = Object.getOwnPropertyDescriptor(p, 'sendBeacon');"
             "window.sameMethod = c.get === "
             "Object.getOwnPropertyDescriptor(p, 'sendBeacon').get;"
             "window.sameCall = navigator.sendBeacon === "
             "navigator.sendBeacon;"
             "window.samePush = [].push === [].push;"],
            extension=extension)
        window = result.top_window
        for name in ("sameGet", "sameSet", "sameMethod", "sameCall",
                     "samePush"):
            assert window.window_object.get(name, window.interp) is True, \
                name

    def test_frames_get_their_own_functions(self):
        # Sec. 5: every realm builds its own objects, so an iframe's
        # prototypes are fresh and unwrapped until instrumented.
        _, first = make_window(openwpm_profile("ubuntu", "regular"))
        _, second = make_window(openwpm_profile("ubuntu", "regular"))
        for pick in (lambda w: w.realm.array_prototype,
                     lambda w: w.navigator_proto,
                     lambda w: w.dom.event_target):
            a, b = pick(first), pick(second)
            for name, desc in a.properties.items():
                other = b.properties[name]
                if desc.is_accessor:
                    assert desc.get is not other.get, name
                elif isinstance(desc.value, JSFunction):
                    assert desc.value is not other.value, name


NESTED_WALK = """
var proto = Object.getPrototypeOf(navigator);
function walk() {
    var names = Object.getOwnPropertyNames(proto);
    var out = [];
    for (var i = 0; i < names.length; i++) {
        var d = Object.getOwnPropertyDescriptor(proto, names[i]);
        out.push(names[i] + "=" + d.get.call(navigator));
    }
    return out.join(";");
}
"""


class TestNestedBuilds:
    def _records(self, script):
        extension = OpenWPMExtension(BrowserParams())
        _, result = visit_with_scripts(openwpm_profile("ubuntu", "regular"),
                                       [NESTED_WALK + script],
                                       extension=extension)
        window = result.top_window
        records = [(r.symbol, r.operation, r.value, r.arguments)
                   for r in extension.js_instrument.records]
        return window.window_object.get("walked", window.interp), records

    def test_walk_inside_a_getter_matches_a_walk_in_order(self):
        # The outer getter's own thunk is being read when the walk
        # builds every other descriptor of the same prototype.
        nested = self._records(
            "Object.defineProperty(window, 'probe', "
            "{get: function () { return walk(); }, configurable: true});"
            "window.walked = probe;")
        in_order = self._records("window.walked = walk();")
        assert nested[0] == in_order[0]
        assert nested[1] == in_order[1]
        assert nested[0].count(";") >= 18


class TestAncestorOriginals:
    def test_wrapper_keeps_the_original_of_a_live_ancestor(self):
        # EventTarget.prototype stays reachable; overwriting its method
        # before the first touch must not reach the (lazy) wrapper that
        # the instrument copied onto Screen's prototype.
        extension = OpenWPMExtension(BrowserParams())
        _, result = visit_with_scripts(
            openwpm_profile("ubuntu", "regular"),
            ["var et = Object.getPrototypeOf(Object.getPrototypeOf(screen));"
             "et.addEventListener = function () { window.hijacked = 1; };"
             "screen.addEventListener('x', function () {});"],
            extension=extension)
        window = result.top_window
        assert window.window_object.get("hijacked", window.interp) \
            is UNDEFINED
        assert ("screen.addEventListener", "call") in [
            (r.symbol, r.operation)
            for r in extension.js_instrument.records]


class TestLaziness:
    def test_front_page_builds_few_wrappers(self):
        from repro.core.scan import ScanPipeline
        from repro.openwpm.instruments import js_instrument
        from repro.web import build_world

        world = build_world(site_count=20, seed=3)
        pipeline = ScanPipeline(world, client_id="lazy")
        built = []
        original = js_instrument._WrapperFactory.__call__

        def counting(self, name):
            built.append(name)
            return original(self, name)

        installed = []
        original_install = js_instrument.JSInstrument.instrument_window

        def counting_install(self, window, context):
            ok = original_install(self, window, context)
            installed.append(self.install_counts.get(id(window), 0))
            return ok

        js_instrument._WrapperFactory.__call__ = counting
        js_instrument.JSInstrument.instrument_window = counting_install
        try:
            pipeline.run(site_limit=10, visit_subpages=False)
        finally:
            js_instrument._WrapperFactory.__call__ = original
            js_instrument.JSInstrument.instrument_window = original_install
        assert sum(installed) > 1000
        assert len(built) < 0.05 * sum(installed)


class TestProfiles:
    def test_mutating_a_profile_does_not_leak_into_the_next(self):
        for make in (lambda: openwpm_profile("ubuntu", "regular"),
                     lambda: openwpm_profile("ubuntu", "headless"),
                     lambda: stock_firefox_profile("macos")):
            first = make()
            pristine = make()
            if first.webgl is not None:
                first.webgl["VENDOR"] = "mutated"
                first.webgl.clear()
            first.navigator["userAgent"] = "mutated"
            first.languages_extra.append("mutated")
            first.fonts.append("mutated")
            again = make()
            assert again == pristine
            if again.webgl is not None:
                assert again.webgl is not pristine.webgl

    def test_windows_share_only_unmodified_webgl_parameters(self):
        a = openwpm_profile("ubuntu", "xvfb")
        b = openwpm_profile("ubuntu", "xvfb")
        assert a.webgl_descriptors() is b.webgl_descriptors()
        changed = openwpm_profile("ubuntu", "xvfb")
        changed.webgl["VENDOR"] = "other"
        descriptors = changed.webgl_descriptors()
        assert descriptors is not a.webgl_descriptors()
        assert descriptors["VENDOR"].value == "other"
        _, window = make_window(changed)
        context = window.webgl_context
        assert context.get("VENDOR", window.interp) == "other"

    def test_freeze_leaves_shared_descriptors_alone(self):
        _, first = make_window(openwpm_profile("ubuntu", "regular"))
        first.run_script("Object.freeze(WebGLRenderingContext.prototype);")
        proto = first.window_object.get(
            "WebGLRenderingContext", first.interp).get(
            "prototype", first.interp)
        assert not proto.get_own_descriptor("VENDOR").configurable
        _, second = make_window(openwpm_profile("ubuntu", "regular"))
        assert second.webgl_context.proto.get_own_descriptor(
            "VENDOR").configurable


class TestRetention:
    def test_csp_blocked_window_is_released(self):
        from repro.browser.browser import Browser

        extension = OpenWPMExtension(BrowserParams())
        network = make_lab_network(csp_header="script-src 'none'")
        browser = Browser(openwpm_profile("ubuntu", "regular"), network,
                          client_id="lab", extension=extension)
        result = browser.visit(LAB_URL, wait=1.0)
        assert extension.js_instrument.blocked_urls == [LAB_URL]
        ref = weakref.ref(result.top_window)
        del result
        browser.visit(LAB_URL, wait=1.0)
        extension.instrumented_windows = []
        gc.collect()
        assert ref() is None


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(realm_shapes(), indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
