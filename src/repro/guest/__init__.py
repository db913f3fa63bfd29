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

from .addressing import SwapEntryAddresser
from .pfra import LruReclaim, ClockArrayReclaim, make_reclaimer
from .kernel import GuestKernel, AccessOutcome, GuestMemStats
from .frontswap import FrontswapClient
from .cleancache import CleancacheClient
from .swap import SwapArea
from .tkm import TmemKernelModule, PrivilegedTkm
from .vm import VirtualMachine, WorkloadRun

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
