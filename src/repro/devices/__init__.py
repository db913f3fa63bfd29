"""Device models: host DRAM frame pool and the virtual swap disk."""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {"HostMemory": "dram", "VirtualDisk": "disk", "DiskStats": "disk"}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = ["HostMemory", "VirtualDisk", "DiskStats"]
