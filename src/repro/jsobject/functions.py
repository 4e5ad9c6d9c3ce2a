"""Function objects.

Two concrete function kinds share the :class:`JSFunction` interface:

* :class:`NativeFunction` — implemented in Python (host/browser builtins).
  Its ``toString`` yields the canonical ``[native code]`` string, which is
  exactly what fingerprinting scripts check (paper, Listing 1).
* ``ScriptFunction`` (defined by the interpreter in
  :mod:`repro.jsengine.interpreter`) — defined by page JavaScript; its
  ``toString`` yields the original source text.

OpenWPM's vanilla instrumentation replaces native functions with *script*
wrappers, so their ``toString`` betrays the instrumentation. The hardened
variant installs native-looking exported functions instead
(:mod:`repro.core.hardening.export_function`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.jsobject.descriptors import LazyDescriptor
from repro.jsobject.objects import JSObject


class JSFunction(JSObject):
    """Base class for callable JS objects."""

    def __init__(self, name: str = "", proto: Optional[JSObject] = None) -> None:
        super().__init__(proto=proto, class_name="Function")
        self.function_name = name

    def call(self, interp: Any, this: Any, args: List[Any]) -> Any:
        """Invoke the function. ``interp`` may be None for host calls."""
        raise NotImplementedError

    def construct(self, interp: Any, args: List[Any]) -> Any:
        """Invoke as a constructor (``new F(...)``)."""
        raise NotImplementedError(
            f"{self.function_name or 'anonymous'} is not a constructor")

    def to_source_string(self) -> str:
        """The value returned by ``Function.prototype.toString``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.function_name or '(anonymous)'}>"


def native_source(name: str) -> str:
    """The exact ``toString`` output of an uninstrumented browser builtin."""
    return "function %s() {\n    [native code]\n}" % name


class NativeFunction(JSFunction):
    """A function implemented by the host (browser builtins, DOM APIs).

    ``fn`` receives ``(interp, this, args)`` and returns a JS value. The
    ``masquerade_name`` controls the name embedded in the native-code
    ``toString`` output; exported stealth wrappers reuse the original
    builtin's name so ``toString`` is indistinguishable from the original.
    """

    def __init__(self, fn: Callable[[Any, Any, List[Any]], Any],
                 name: str = "", proto: Optional[JSObject] = None,
                 masquerade_name: Optional[str] = None,
                 constructor: Optional[Callable[[Any, List[Any]], Any]] = None,
                 ) -> None:
        super().__init__(name=name, proto=proto)
        self._fn = fn
        self._constructor = constructor
        self.masquerade_name = masquerade_name if masquerade_name is not None else name

    def call(self, interp: Any, this: Any, args: List[Any]) -> Any:
        return self._fn(interp, this, args)

    def construct(self, interp: Any, args: List[Any]) -> Any:
        if self._constructor is None:
            return super().construct(interp, args)
        return self._constructor(interp, args)

    def to_source_string(self) -> str:
        return native_source(self.masquerade_name)


def native_function(name: str = "") -> Callable:
    """Decorator turning ``fn(interp, this, args)`` into a NativeFunction."""

    def wrap(fn: Callable[[Any, Any, List[Any]], Any]) -> NativeFunction:
        return NativeFunction(fn, name=name or fn.__name__)

    return wrap


# ---------------------------------------------------------------------------
# Lazy host functions
# ---------------------------------------------------------------------------
HostFn = Callable[[Any, Any, List[Any]], Any]


class NativeMethods:
    """Lazy-descriptor factory for the host methods of one object.

    :meth:`install` defines a method property at its final position; its
    :class:`NativeFunction` is built the first time the descriptor's
    value is read (see :class:`LazyDescriptor`).
    """

    __slots__ = ("function_prototype", "impls", "constructors")

    def __init__(self, function_prototype: Optional[JSObject]) -> None:
        self.function_prototype = function_prototype
        self.impls: Dict[str, HostFn] = {}
        self.constructors: Dict[str, Callable[[Any, List[Any]], Any]] = {}

    def install(self, target: JSObject, name: str, fn: HostFn,
                constructor: Optional[Callable[[Any, List[Any]], Any]]
                = None, enumerable: bool = False) -> None:
        self.impls[name] = fn
        if constructor is not None:
            self.constructors[name] = constructor
        target.properties[name] = LazyDescriptor(self, name, False,
                                                 enumerable=enumerable)

    def __call__(self, name: str) -> NativeFunction:
        return NativeFunction(self.impls[name], name=name,
                              proto=self.function_prototype,
                              constructor=self.constructors.get(name))


class NativeAccessors:
    """Lazy-descriptor factory for the host accessors of one object.

    The getter (and optional setter) of each property is a
    :class:`NativeFunction` named ``get <name>``/``set <name>`` whose
    ``toString`` shows the bare property name, built on first read.
    """

    __slots__ = ("function_prototype", "getters", "setters")

    def __init__(self, function_prototype: Optional[JSObject]) -> None:
        self.function_prototype = function_prototype
        self.getters: Dict[str, HostFn] = {}
        self.setters: Dict[str, HostFn] = {}

    def install(self, target: JSObject, name: str, getter: HostFn,
                setter: Optional[HostFn] = None,
                enumerable: bool = True) -> None:
        self.getters[name] = getter
        if setter is not None:
            self.setters[name] = setter
        target.properties[name] = LazyDescriptor(self, name, True,
                                                 enumerable=enumerable)

    def install_value(self, target: JSObject, name: str, value: Any,
                      enumerable: bool = True) -> None:
        """A getter-only accessor that always returns *value*."""
        self.install(target, name, lambda i, t, a: value,
                     enumerable=enumerable)

    def __call__(self, name: str
                 ) -> Tuple[NativeFunction, Optional[NativeFunction]]:
        proto = self.function_prototype
        get_fn = NativeFunction(self.getters[name], name=f"get {name}",
                                proto=proto, masquerade_name=name)
        setter = self.setters.get(name)
        if setter is None:
            return get_fn, None
        return get_fn, NativeFunction(setter, name=f"set {name}",
                                      proto=proto, masquerade_name=name)
