"""PEP 562 lazy exports, shared by the package facades ``repro`` and ``repro.sim``.

A facade names each export's home module; the module is imported only
when the name is first looked up, so importing the facade itself stays
as light as the packages it loads eagerly.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], homes: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of a facade.

    ``namespace`` is the facade's ``globals()``; ``homes`` maps a home
    module to the names the facade re-exports from it.
    """
    home_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name in home_of:
            return getattr(importlib.import_module(home_of[name]), name)
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home_of))

    return __getattr__, __dir__
