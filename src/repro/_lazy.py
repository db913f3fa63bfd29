"""The one PEP 562 re-export mechanism of the package façades.

``repro`` and each of its subpackages re-export names from their
submodules through one table, name -> submodule, and import a submodule
only when one of its names is first read.  ``import repro`` therefore
loads no subpackage, and a run loads only the modules it executes.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_getattr"]


def lazy_getattr(package: str, table: Mapping[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of *package*: a name in *table* is read
    from the submodule it maps to (relative to *package*), imported on
    first access, and then cached in the package's namespace."""

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
