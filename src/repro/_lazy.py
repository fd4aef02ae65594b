"""PEP 562 lazy exports, shared by the package ``__init__`` files."""

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` resolving ``exports`` (public name ->
    defining module) on first use and caching the value in ``namespace``."""

    def __getattr__(name: str):
        if name not in exports:
            package = namespace["__name__"]
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    return __getattr__, lambda: sorted(set(namespace) | set(exports))
