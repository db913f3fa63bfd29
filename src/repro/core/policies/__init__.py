"""The tmem management policies evaluated in the paper."""

from ..._lazy import lazy_getattr

#: Each policy class, mapped to the module that defines and registers it
#: and loads on first access (PEP 562).
_LAZY = {
    "GreedyPolicy": "greedy",
    "StaticAllocPolicy": "static_alloc",
    "ReconfStaticPolicy": "reconf_static",
    "SmartAllocPolicy": "smart_alloc",
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "GreedyPolicy",
    "StaticAllocPolicy",
    "ReconfStaticPolicy",
    "SmartAllocPolicy",
]
