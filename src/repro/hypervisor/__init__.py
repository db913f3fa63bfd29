"""Simulated Xen-like hypervisor with a Transcendent Memory backend.

The subpackage reproduces the hypervisor-side half of SmarTmem:

* :mod:`repro.hypervisor.tmem_store` — the key--value store behind the
  tmem interface (pools, objects, page keys -> page versions).
* :mod:`repro.hypervisor.accounting` — per-VM counters and node-wide
  counters matching Table I of the paper.
* :mod:`repro.hypervisor.tmem_backend` — Algorithm 1: admission control of
  puts against per-VM targets and the free-page count.
* :mod:`repro.hypervisor.virq` — the one-second statistics sampler that
  raises a VIRQ towards the privileged domain.
* :mod:`repro.hypervisor.hypercalls` — the narrow hypercall surface used
  by the guest-side Tmem Kernel Module.
* :mod:`repro.hypervisor.xen` — a facade that wires everything together
  and owns host memory.
"""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    "PageKey": "pages",
    "TmemPool": "tmem_store",
    "TmemStore": "tmem_store",
    **dict.fromkeys(("VmTmemAccount", "NodeInfo", "HypervisorAccounting"), "accounting"),
    **dict.fromkeys(("TmemBackend", "TmemOpResult", "TmemOpcode"), "tmem_backend"),
    **dict.fromkeys(("StatisticsSampler", "StatsSnapshot", "VmStatsSample"), "virq"),
    "HypercallInterface": "hypercalls",
    "Hypervisor": "xen",
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "PageKey",
    "TmemPool",
    "TmemStore",
    "VmTmemAccount",
    "NodeInfo",
    "HypervisorAccounting",
    "TmemBackend",
    "TmemOpResult",
    "TmemOpcode",
    "StatisticsSampler",
    "StatsSnapshot",
    "VmStatsSample",
    "HypercallInterface",
    "Hypervisor",
]
