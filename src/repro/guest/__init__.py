"""Guest (VM) model: kernel memory management, frontswap, TKM.

The guest side reproduces the parts of a Linux guest that matter to tmem:

* a resident-set model with an LRU/CLOCK page-frame-reclaim algorithm
  (:mod:`repro.guest.pfra`, :mod:`repro.guest.kernel`);
* the frontswap front end that tries tmem before the swap disk
  (:mod:`repro.guest.frontswap`) and the cleancache front end for clean
  page-cache pages (:mod:`repro.guest.cleancache`);
* the guest swap area on the virtual disk (:mod:`repro.guest.swap`);
* the Tmem Kernel Module that issues hypercalls and, in the privileged
  domain, relays statistics and targets (:mod:`repro.guest.tkm`);
* :class:`repro.guest.vm.VirtualMachine`, which glues a guest kernel to a
  workload and drives it on the simulation engine.
"""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    "SwapEntryAddresser": "addressing",
    **dict.fromkeys(("LruReclaim", "ClockArrayReclaim", "make_reclaimer"), "pfra"),
    **dict.fromkeys(("GuestKernel", "AccessOutcome", "GuestMemStats"), "kernel"),
    "FrontswapClient": "frontswap",
    "CleancacheClient": "cleancache",
    "SwapArea": "swap",
    "TmemKernelModule": "tkm",
    "PrivilegedTkm": "tkm",
    "VirtualMachine": "vm",
    "WorkloadRun": "vm",
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "SwapEntryAddresser",
    "LruReclaim",
    "ClockArrayReclaim",
    "make_reclaimer",
    "GuestKernel",
    "AccessOutcome",
    "GuestMemStats",
    "FrontswapClient",
    "CleancacheClient",
    "SwapArea",
    "TmemKernelModule",
    "PrivilegedTkm",
    "VirtualMachine",
    "WorkloadRun",
]
