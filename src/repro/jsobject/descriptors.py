"""Property descriptors.

JavaScript properties are either *data* descriptors (a value plus
writability) or *accessor* descriptors (getter/setter functions). The
OpenWPM JavaScript instrument — and the attacks against it — work by
replacing descriptors, so the model implements them in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.jsobject.values import UNDEFINED


@dataclass
class PropertyDescriptor:
    """A JS property descriptor.

    Exactly one of the two shapes is populated:

    * data descriptor: ``value`` (+ ``writable``)
    * accessor descriptor: ``get`` / ``set``
    """

    value: Any = UNDEFINED
    get: Optional[Any] = None  # JSFunction or None
    set: Optional[Any] = None  # JSFunction or None
    writable: bool = True
    enumerable: bool = True
    configurable: bool = True
    #: Free-form metadata used by tooling (e.g. the instrumentation marks
    #: wrapped descriptors). Invisible to page scripts.
    meta: dict = field(default_factory=dict)

    @property
    def is_accessor(self) -> bool:
        return self.get is not None or self.set is not None

    @classmethod
    def data(cls, value: Any, writable: bool = True, enumerable: bool = True,
             configurable: bool = True) -> "PropertyDescriptor":
        """Build a data descriptor."""
        return cls(value=value, writable=writable, enumerable=enumerable,
                   configurable=configurable)

    @classmethod
    def accessor(cls, get: Any = None, set: Any = None, enumerable: bool = True,
                 configurable: bool = True) -> "PropertyDescriptor":
        """Build an accessor descriptor."""
        return cls(get=get, set=set, enumerable=enumerable,
                   configurable=configurable)

    def copy(self) -> "PropertyDescriptor":
        return PropertyDescriptor(
            value=self.value, get=self.get, set=self.set,
            writable=self.writable, enumerable=self.enumerable,
            configurable=self.configurable, meta=dict(self.meta),
        )


class LazyDescriptor(PropertyDescriptor):
    """A descriptor whose ``value``/``get``/``set`` are built on first read.

    Realms carry hundreds of host functions and instrument wrappers that
    a page rarely touches. A lazy entry fixes everything that shapes the
    object graph up front — its key and position in the owner's property
    table, ``writable``/``enumerable``/``configurable``, ``meta`` marks
    and whether it is an accessor — and defers the functions.

    ``factory(key)`` builds them: a ``(get, set)`` pair for an accessor,
    the value for a data property. One factory serves a whole target
    (a prototype, an instrumented object), so a lazy entry costs one
    small object. Lazy data properties always hold functions; plain
    constants stay ordinary descriptors.

    The first read of ``value``, ``get`` or ``set`` (or ``copy()``,
    equality, ``repr``) calls the factory once and turns this object
    into a plain :class:`PropertyDescriptor` in place, so the built
    functions are cached and every later read returns the same ones.
    A write before any read stores the written value without building.
    """

    __slots__ = ()

    def __init__(self, factory: Callable[[str], Any], key: str,
                 accessor: bool, writable: bool = True,
                 enumerable: bool = True, configurable: bool = True,
                 meta: Optional[dict] = None) -> None:
        self.factory = factory
        self.key = key
        self.accessor = accessor
        self.writable = writable
        self.enumerable = enumerable
        self.configurable = configurable
        self.meta = {} if meta is None else meta

    def _become_plain(self) -> dict:
        fields = self.__dict__
        del fields["factory"], fields["key"], fields["accessor"]
        self.__class__ = PropertyDescriptor
        return fields

    def _build(self) -> None:
        built = self.factory(self.key)
        accessor = self.accessor
        fields = self._become_plain()
        if accessor:
            fields["get"], fields["set"] = built
        else:
            fields["value"] = built

    @property
    def is_accessor(self) -> bool:
        return self.accessor

    @property
    def value(self) -> Any:
        self._build()
        return self.value

    @value.setter
    def value(self, new_value: Any) -> None:
        if self.accessor:
            self._build()
        else:
            self._become_plain()
        self.value = new_value

    @property
    def get(self) -> Any:
        self._build()
        return self.get

    @get.setter
    def get(self, new_get: Any) -> None:
        self._build()
        self.get = new_get

    @property
    def set(self) -> Any:
        self._build()
        return self.set

    @set.setter
    def set(self, new_set: Any) -> None:
        self._build()
        self.set = new_set
