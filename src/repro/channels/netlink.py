"""Netlink-style channel between the TKM and the Memory Manager.

In the real SmarTmem stack the Tmem Kernel Module relays each statistics
snapshot to the user-space Memory Manager over a netlink socket, and the
MM's reply (the new target vector) travels back the same way before being
pushed into the hypervisor via a custom hypercall.

The simulated channel preserves the two properties that matter to the
policies: the one-sampling-interval cadence of messages, and a small,
configurable delivery latency (the statistics the MM acts on are always a
little stale).  Messages are delivered through the simulation engine so
the latency is part of simulated time, not wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

from ..sim.engine import SimulationEngine
from ..sim.events import EventPriority

__all__ = ["NetlinkMessage", "NetlinkChannel"]


@dataclass(frozen=True)
class NetlinkMessage:
    """One message on the channel."""

    kind: str
    payload: Any


class NetlinkChannel:
    """A unidirectional, latency-modelled message channel.

    Two instances are used per node: ``kernel -> user`` for statistics and
    ``user -> kernel`` for target vectors.  Delivery order is FIFO.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        latency_s: float = 0.0,
        name: str = "netlink",
    ) -> None:
        self._engine = engine
        self._latency = float(latency_s)
        self._name = name
        self._receivers: List[Callable[[NetlinkMessage], None]] = []
        #: Messages sent so far; the messages themselves are not kept.
        self.messages_sent = 0

    # -- wiring -------------------------------------------------------------
    def subscribe(self, receiver: Callable[[NetlinkMessage], None]) -> None:
        self._receivers.append(receiver)

    # -- sending -------------------------------------------------------------
    def send(self, kind: str, payload: Any) -> None:
        """Send a message; it is delivered after the channel latency."""
        message = NetlinkMessage(kind, payload)
        self.messages_sent += 1
        if self._latency > 0:
            # Bound method + argument instead of a per-message closure:
            # the engine's slab invokes ``self._deliver(message)``.
            self._engine.schedule_call_after(
                self._latency,
                self._deliver,
                message,
                priority=EventPriority.HYPERVISOR,
                label=f"{self._name}:{kind}",
            )
        else:
            self._deliver(message)

    def _deliver(self, message: NetlinkMessage) -> None:
        for receiver in self._receivers:
            receiver(message)
