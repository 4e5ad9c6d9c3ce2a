"""JS-visible DOM interface prototypes.

Builds the prototype chain hierarchy for one page realm::

    element -> HTML<Tag>Element.prototype -> HTMLElement.prototype
            -> Element.prototype -> Node.prototype
            -> EventTarget.prototype -> Object.prototype

OpenWPM's instrument wraps functions found along these chains; the
multi-level structure is what exposes the prototype-pollution
fingerprint of the vanilla instrument (paper Fig. 2) and what the
hardened per-prototype wrapping preserves (Sec. 6.1.4).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.dom.document import Document
from repro.dom.events import DOMEvent
from repro.dom.node import Element, IFrameElement
from repro.jsengine.builtins import Realm
from repro.jsobject.errors import JSError
from repro.jsobject.functions import NativeAccessors, NativeFunction, \
    NativeMethods
from repro.jsobject.objects import JSObject
from repro.jsobject.values import NULL, UNDEFINED


def _throw_type_error(interp: Any, message: str) -> None:
    """Throw a TypeError carrying the interpreter's current stack."""
    if interp is not None:
        interp.throw("TypeError", message)
    raise JSError.type_error(message)


class DOMPrototypes:
    """All DOM interface prototypes for one realm."""

    def __init__(self, realm: Realm) -> None:
        self.realm = realm
        object_proto = realm.object_prototype

        self.event_target = JSObject(proto=object_proto,
                                     class_name="EventTargetPrototype")
        self.node = JSObject(proto=self.event_target,
                             class_name="NodePrototype")
        self.element = JSObject(proto=self.node,
                                class_name="ElementPrototype")
        self.html_element = JSObject(proto=self.element,
                                     class_name="HTMLElementPrototype")
        self.document = JSObject(proto=self.node,
                                 class_name="HTMLDocumentPrototype")
        self.event = JSObject(proto=object_proto, class_name="EventPrototype")

        self.per_tag: Dict[str, JSObject] = {}
        for tag in ("script", "iframe", "img", "canvas", "div", "span", "a",
                    "link", "p", "form", "input", "button", "html", "head",
                    "body", "h1", "h2"):
            self.per_tag[tag] = JSObject(
                proto=self.html_element,
                class_name=f"HTML{tag.capitalize()}ElementPrototype")

        self._install_event_target()
        self._install_node()
        self._install_element()
        self._install_iframe()
        self._install_canvas()
        self._install_document()

    # ------------------------------------------------------------------
    def proto_for_tag(self, tag: str) -> JSObject:
        return self.per_tag.get(tag.lower(), self.html_element)

    def _methods(self, target: JSObject, methods) -> None:
        """Non-enumerable methods, each built on first read."""
        factory = NativeMethods(self.realm.function_prototype)
        for name, fn in methods:
            factory.install(target, name, fn)

    def _accessors(self) -> NativeAccessors:
        """A factory for one target's accessors, each built on first read."""
        return NativeAccessors(self.realm.function_prototype)

    # ------------------------------------------------------------------
    def _install_event_target(self) -> None:
        proto = self.event_target

        def add_event_listener(interp, this, args):
            if len(args) < 2:
                # Real browsers throw here; errors raised beneath an
                # instrumentation wrapper expose its stack frames.
                _throw_type_error(
                    interp, "EventTarget.addEventListener: At least 2 "
                    "arguments required, but only "
                    f"{len(args)} passed")
            if hasattr(this, "add_listener"):
                event_type = interp.to_string(args[0]) if interp \
                    else str(args[0])
                this.add_listener(event_type, args[1])
            return UNDEFINED

        def remove_event_listener(interp, this, args):
            if len(args) >= 2 and hasattr(this, "remove_listener"):
                event_type = interp.to_string(args[0]) if interp \
                    else str(args[0])
                this.remove_listener(event_type, args[1])
            return UNDEFINED

        def dispatch_event(interp, this, args):
            event = args[0] if args else UNDEFINED
            if not isinstance(event, DOMEvent):
                _throw_type_error(interp,
                                  "dispatchEvent argument is not an Event")
            if hasattr(this, "host_dispatch"):
                return this.host_dispatch(event, interp)
            return False

        self._methods(proto, [("addEventListener", add_event_listener),
                              ("removeEventListener", remove_event_listener),
                              ("dispatchEvent", dispatch_event)])

    # ------------------------------------------------------------------
    def _install_node(self) -> None:
        proto = self.node

        def append_child(interp, this, args):
            child = args[0] if args else UNDEFINED
            if not isinstance(this, Element) and not isinstance(
                    this, Document):
                raise JSError.type_error("appendChild on non-node")
            if not isinstance(child, Element):
                raise JSError.type_error("appendChild argument is not a node")
            if isinstance(this, Document):
                return this.body.append_child(child, interp)
            return this.append_child(child, interp)

        def remove_child(interp, this, args):
            child = args[0] if args else UNDEFINED
            if isinstance(this, Element) and isinstance(child, Element):
                return this.remove_child(child)
            raise JSError.type_error("removeChild on non-node")

        def contains(interp, this, args):
            target = args[0] if args else UNDEFINED
            if isinstance(this, Element) and isinstance(target, Element):
                return any(descendant is target
                           for descendant in this.descendants())
            return False

        self._methods(proto, [("appendChild", append_child),
                              ("removeChild", remove_child),
                              ("contains", contains)])

    # ------------------------------------------------------------------
    def _install_element(self) -> None:
        proto = self.element

        def set_attribute(interp, this, args):
            if isinstance(this, Element) and len(args) >= 2:
                name = interp.to_string(args[0]) if interp else str(args[0])
                value = interp.to_string(args[1]) if interp else str(args[1])
                this.set_attribute(name, value)
            return UNDEFINED

        def get_attribute(interp, this, args):
            if isinstance(this, Element) and args:
                name = interp.to_string(args[0]) if interp else str(args[0])
                value = this.get_attribute(name)
                return value if value is not None else NULL
            return NULL

        def remove(interp, this, args):
            if isinstance(this, Element):
                this.remove()
            return UNDEFINED

        self._methods(proto, [("setAttribute", set_attribute),
                              ("getAttribute", get_attribute),
                              ("remove", remove)])

        def element_getter(attr: str, default: Any = ""):
            def getter(interp, this, args):
                if isinstance(this, Element):
                    return this.attributes.get(attr, default)
                return default
            return getter

        def element_setter(attr: str):
            def setter(interp, this, args):
                if isinstance(this, Element) and args:
                    value = interp.to_string(args[0]) if interp \
                        else str(args[0])
                    this.attributes[attr] = value
                    window_host = this.owner_document.window_host \
                        if this.owner_document is not None else None
                    if attr == "src" and window_host is not None:
                        if isinstance(this, IFrameElement) \
                                and this.is_attached():
                            window_host.load_iframe(this, interp)
                        elif this.tag_name == "img":
                            # Image loads start on src assignment even
                            # before attachment (tracking-pixel pattern).
                            from repro.net.http import ResourceType
                            window_host.issue_request(
                                value, ResourceType.IMAGE)
            return setter

        accessors = self._accessors()
        accessors.install(self.html_element, "id", element_getter("id"),
                          element_setter("id"))
        accessors.install(self.html_element, "className",
                          element_getter("class"), element_setter("class"))
        accessors.install(self.html_element, "src", element_getter("src"),
                          element_setter("src"))
        accessors.install(self.html_element, "href", element_getter("href"),
                          element_setter("href"))
        accessors.install(self.html_element, "type", element_getter("type"),
                          element_setter("type"))

        def text_getter(interp, this, args):
            if isinstance(this, Element):
                return this.text_content
            return ""

        def text_setter(interp, this, args):
            if isinstance(this, Element) and args:
                this.text_content = interp.to_string(args[0]) if interp \
                    else str(args[0])

        accessors.install(self.html_element, "textContent", text_getter,
                          text_setter)
        accessors.install(self.html_element, "text", text_getter, text_setter)

        def inner_html_getter(interp, this, args):
            if isinstance(this, Element):
                return getattr(this, "_inner_html", "")
            return ""

        def inner_html_setter(interp, this, args):
            if not isinstance(this, Element) or not args:
                return
            html = interp.to_string(args[0]) if interp else str(args[0])
            this._inner_html = html
            from repro.dom.html import parse_html_fragment
            document = this.owner_document
            for parsed in parse_html_fragment(html):
                element = document.create_element(parsed.tag)
                element.attributes.update(parsed.attributes)
                element.text_content = parsed.text
                this.append_child(element, interp)

        accessors.install(self.html_element, "innerHTML", inner_html_getter,
                          inner_html_setter)

    # ------------------------------------------------------------------
    def _install_iframe(self) -> None:
        proto = self.per_tag["iframe"]

        def content_window(interp, this, args):
            if isinstance(this, IFrameElement) \
                    and this.content_window is not None:
                return this.content_window.window_object
            return NULL

        def content_document(interp, this, args):
            if isinstance(this, IFrameElement) \
                    and this.content_window is not None:
                return this.content_window.document
            return NULL

        accessors = self._accessors()
        accessors.install(proto, "contentWindow", content_window)
        accessors.install(proto, "contentDocument", content_document)

    # ------------------------------------------------------------------
    def _install_canvas(self) -> None:
        proto = self.per_tag["canvas"]

        def get_context(interp, this, args):
            kind = "2d"
            if args:
                kind = interp.to_string(args[0]) if interp else str(args[0])
            if isinstance(this, Element) and this.owner_document is not None \
                    and this.owner_document.window_host is not None:
                context = this.owner_document.window_host.get_canvas_context(
                    kind)
                return context if context is not None else NULL
            return NULL

        self._methods(proto, [("getContext", get_context)])

    # ------------------------------------------------------------------
    def _install_document(self) -> None:
        proto = self.document

        def expect_document(this) -> Document:
            if not isinstance(this, Document):
                raise JSError.type_error("document method on non-document")
            return this

        def create_element(interp, this, args):
            document = expect_document(this)
            tag = interp.to_string(args[0]) if interp and args \
                else str(args[0]) if args else "div"
            return document.create_element(tag)

        def get_element_by_id(interp, this, args):
            document = expect_document(this)
            element_id = interp.to_string(args[0]) if interp and args else ""
            found = document.get_element_by_id(element_id)
            return found if found is not None else NULL

        def query_selector(interp, this, args):
            document = expect_document(this)
            selector = interp.to_string(args[0]) if interp and args else ""
            found = document.query_selector(selector)
            return found if found is not None else NULL

        def query_selector_all(interp, this, args):
            document = expect_document(this)
            selector = interp.to_string(args[0]) if interp and args else ""
            return self.realm.new_array(
                list(document.query_selector_all(selector)))

        def write(interp, this, args):
            document = expect_document(this)
            html = interp.to_string(args[0]) if interp and args else ""
            if document.window_host is not None:
                document.window_host.handle_document_write(html, interp)
            else:
                document.write(html, interp)
            return UNDEFINED

        self._methods(proto, [("createElement", create_element),
                              ("getElementById", get_element_by_id),
                              ("querySelector", query_selector),
                              ("querySelectorAll", query_selector_all),
                              ("write", write)])

        accessors = self._accessors()
        accessors.install(proto, "body",
                          lambda interp, this, args:
                          this.body if isinstance(this, Document) else NULL)
        accessors.install(proto, "head",
                          lambda interp, this, args:
                          this.head if isinstance(this, Document) else NULL)
        accessors.install(proto, "documentElement",
                          lambda interp, this, args:
                          this.document_element
                          if isinstance(this, Document) else NULL)
        accessors.install(proto, "readyState",
                          lambda interp, this, args:
                          this.ready_state if isinstance(this, Document)
                          else "loading")

        def cookie_getter(interp, this, args):
            if isinstance(this, Document):
                return this.cookie
            return ""

        def cookie_setter(interp, this, args):
            if isinstance(this, Document) and args:
                this.set_cookie(interp.to_string(args[0]) if interp
                                else str(args[0]))

        accessors.install(proto, "cookie", cookie_getter, cookie_setter)

    # ------------------------------------------------------------------
    def make_event_constructor(self) -> NativeFunction:
        """The ``CustomEvent`` / ``Event`` constructor for this realm."""

        def construct(interp, args):
            event_type = interp.to_string(args[0]) if interp and args \
                else str(args[0]) if args else ""
            detail: Any = UNDEFINED
            if len(args) > 1 and isinstance(args[1], JSObject):
                detail = args[1].get("detail", interp)
            return DOMEvent(event_type, detail, proto=self.event)

        constructor = NativeFunction(
            lambda interp, this, args: construct(interp, args),
            name="CustomEvent", proto=self.realm.function_prototype,
            constructor=construct)
        constructor.put("prototype", self.event, writable=False,
                        enumerable=False)
        return constructor
