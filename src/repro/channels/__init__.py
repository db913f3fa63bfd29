"""Communication channels between kernel space and user space."""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {"NetlinkChannel": "netlink", "NetlinkMessage": "netlink"}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = ["NetlinkChannel", "NetlinkMessage"]
