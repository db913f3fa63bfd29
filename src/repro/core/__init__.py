"""SmarTmem core: the Memory Manager and its high-level policies.

This subpackage is the paper's primary contribution:

* :mod:`repro.core.stats` — the policy output (``mm_out``), the MM-side
  row of Table I.  The policy input (``memstats``) is the statistics
  sampler's :class:`~repro.hypervisor.virq.StatsSnapshot` itself.
* :mod:`repro.core.policy` — the policy interface and registry.
* :mod:`repro.core.policies` — the four policies evaluated in the paper:
  ``greedy`` (default, no targets), ``static-alloc`` (Algorithm 2),
  ``reconf-static`` (Algorithm 3) and ``smart-alloc`` (Algorithm 4 with
  the Equation 1/2 normalisation).
* :mod:`repro.core.targets` — target-vector helpers implementing
  Equations 1 and 2.
* :mod:`repro.core.manager` — the Memory Manager user-space process that
  consumes statistics snapshots and emits target vectors.
"""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    "TargetVector": "stats",
    **dict.fromkeys(
        ("TmemPolicy", "PolicyDecision", "register_policy", "create_policy",
         "available_policies"),
        "policy",
    ),
    "proportional_scale": "targets",
    "equal_share": "targets",
    "MemoryManager": "manager",
    "GreedyPolicy": "policies.greedy",
    "StaticAllocPolicy": "policies.static_alloc",
    "ReconfStaticPolicy": "policies.reconf_static",
    "SmartAllocPolicy": "policies.smart_alloc",
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "TargetVector",
    "TmemPolicy",
    "PolicyDecision",
    "register_policy",
    "create_policy",
    "available_policies",
    "proportional_scale",
    "equal_share",
    "MemoryManager",
    "GreedyPolicy",
    "StaticAllocPolicy",
    "ReconfStaticPolicy",
    "SmartAllocPolicy",
]
