"""Registry of Method M implementations.

GC is "designed as a pluggable cache, allowing any future component to be
incorporated" — this registry is the programmatic face of that claim for
Method M: new methods register a factory under a name and become available
to the runtime configuration, the examples and the benchmarks.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import UnknownMethodError
from repro.methods.base import MethodM
from repro.methods.ctindex import CTIndexMethod
from repro.methods.direct import DirectSIMethod
from repro.methods.graphgrep import GraphGrepSXMethod

MethodFactory = Callable[..., MethodM]

_REGISTRY: dict[str, MethodFactory] = {}


def register_method(name: str, factory: MethodFactory, overwrite: bool = False) -> None:
    """Register a Method M factory under a name."""
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"method {name!r} is already registered")
    _REGISTRY[key] = factory


def available_methods() -> list[str]:
    """Names of all registered methods."""
    return sorted(_REGISTRY)


def make_method(name: str, **kwargs) -> MethodM:
    """Instantiate a registered method by name."""
    key = name.lower()
    factory = _REGISTRY.get(key)
    if factory is None:
        raise UnknownMethodError(name, available_methods())
    return factory(**kwargs)


# built-in methods
register_method(DirectSIMethod.name, DirectSIMethod)
register_method(GraphGrepSXMethod.name, GraphGrepSXMethod)
# GRAPES filters with the same path features: one computation, two names
register_method("grapes", GraphGrepSXMethod)
register_method(CTIndexMethod.name, CTIndexMethod)
