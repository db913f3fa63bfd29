"""Modeled network channel between the nodes of a cluster.

Remote-tmem (RAMster-style) traffic crosses host boundaries, so unlike
the netlink channels inside one node it pays a *network* cost: a fixed
per-message latency plus a bandwidth-limited transfer term for the page
payload.  The channel provides three services:

* a **synchronous cost model** for the data path
  (:meth:`InterNodeChannel.reserve`): a spilled put or a remote get
  happens inside a guest's access burst, so its cost is simply added to
  the burst latency, exactly like a tmem hypercall's cost
  (:meth:`InterNodeChannel.reserve_burst` reserves a whole burst's
  pages in one call);
* **asynchronous bulk transfers** (:meth:`InterNodeChannel.
  transfer_async`) delivered through the simulation engine — VM
  migration uses this to model the guest-state copy;
* **asynchronous control messages** (:meth:`InterNodeChannel.send`) —
  the cluster coordinator uses this to ship capacity-rebalancing
  decisions to the nodes.

Contention model
----------------

Every directed node pair owns one *link*, a FIFO queue with a service
time proportional to the payload size.  In **contended** mode
(``contended=True``) a transfer must wait until the link's previous
payloads finish: a request issued at ``t`` for ``n`` pages starts at
``start = max(t, busy_until)``, occupies the link until ``start +
n * page_transfer_s``, and costs the caller::

    (start - t) + latency_s * 2 + n * page_transfer_s      (data path)
    (start - t) + latency_s     + n * page_transfer_s      (one-way)

so concurrent spills from multiple nodes queue behind each other
instead of overlapping for free.  The link tracks its queue depth (live
transfers), records it as a ``link_queue/<src>-><dst>`` trace, and
accumulates busy time and total queue wait for the per-link section of
cluster results.

The FIFO is :class:`LinkState`'s own: it keeps the finish time of every
payload still queued or on the wire (each payload's finish time is the
``busy_until`` it left behind) and retires them lazily.  The next
occupy of the link retires every finish time at or before its issue
instant, and so does the link's one pending *drain wake*, an engine
event at the last finish time it knew of, which re-arms itself while
the FIFO is not empty.  A retirement records its depth sample at the
payload's own finish time, so the trace and the depth counter are the
ones a completion event per payload would have produced, without one.
A payload finishing exactly at a later request's issue instant retires
before that request's sample, as a hypervisor-priority completion ran
ahead of the guest work that issued the request.

In the default **uncontended** mode the channel reproduces the
pre-queueing stateless cost model bit for bit: the cost of every
transfer is the precomputed ``latency + pages * page_transfer`` with no
queue wait, and no extra engine events are scheduled — single-host and
uncontended-cluster results are unchanged.

The channel also keeps transfer counters so analysis and tests can
audit how much data actually moved between nodes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.engine import SimulationEngine
from ..sim.events import EventPriority

__all__ = ["LinkState", "InterNodeChannel"]


class LinkState:
    """FIFO state and lifetime counters of one directed link.

    The FIFO (see "Contention model" above) is the deque of the finish
    times of the payloads still queued or on the wire.  While ``series``
    is set, every change of ``queue_depth`` is sampled into it.
    """

    __slots__ = (
        "src",
        "dst",
        "busy_until",
        "queue_depth",
        "max_queue_depth",
        "transfers",
        "pages",
        "busy_s",
        "queue_wait_s",
        "drops",
        "stall_s",
        "fail_fast",
        "wake_armed",
        "series",
        "_finish",
    )

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        #: Simulated time at which the last queued payload finishes.
        self.busy_until = 0.0
        #: Transfers currently queued or in flight.
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.transfers = 0
        self.pages = 0
        #: Accumulated service (payload) time.
        self.busy_s = 0.0
        #: Accumulated time transfers spent waiting behind earlier ones.
        self.queue_wait_s = 0.0
        #: Packets lost (and retransmitted) inside degradation windows.
        self.drops = 0
        #: Time synchronous transfers stalled waiting out partitions.
        self.stall_s = 0.0
        #: Bulk transfers that failed fast against a partition.
        self.fail_fast = 0
        #: True while the channel has a drain wake pending for the link.
        self.wake_armed = False
        #: The :class:`~repro.sim.trace.TraceSeries` of the depth samples.
        self.series: Optional[Any] = None
        #: Finish times of the payloads in the FIFO, oldest first.
        self._finish: Deque[float] = deque()

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def pending(self) -> bool:
        """True while a payload is queued or on the wire."""
        return bool(self._finish)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for the cluster result's ``links`` section.

        Degradation counters appear only when nonzero so fault-free runs
        keep the historical (pinned) key set.
        """
        out = {
            "transfers": self.transfers,
            "pages": self.pages,
            "busy_s": self.busy_s,
            "queue_wait_s": self.queue_wait_s,
            "max_queue_depth": self.max_queue_depth,
        }
        if self.drops:
            out["drops"] = self.drops
        if self.stall_s:
            out["stall_s"] = self.stall_s
        if self.fail_fast:
            out["fail_fast"] = self.fail_fast
        return out

    def retire(self, now: float) -> None:
        """Retire the payloads finished by *now*, each sampled at its
        own finish time."""
        finish = self._finish
        if not finish or finish[0] > now:
            return
        series = self.series
        depth = self.queue_depth
        while finish and finish[0] <= now:
            depth -= 1
            done = finish.popleft()
            if series is not None:
                series.append(done, depth)
        self.queue_depth = depth

    def occupy(
        self, pages: int, service: float, issue: float, now: float,
        count: int = 1,
    ) -> List[float]:
        """Queue *count* payloads of *pages* issued at *now*, in order.

        Each payload is served for *service* seconds from the first
        instant at or after *issue* that the link is free; returns their
        queue waits.  *issue* is *now* except for a transfer stalled
        behind a partition, which holds its queue slot from *now* but
        reaches the wire only at *issue*.  Callers add the propagation
        latency themselves.  Only payloads queued before this call can
        retire in it: one queued here finishes after *now*.
        """
        self.retire(now)
        series = self.series
        finish = self._finish
        busy = self.busy_until
        depth = self.queue_depth
        busy_s = self.busy_s
        queue_wait_s = self.queue_wait_s
        waits = []
        for _ in range(count):
            start = busy if busy > issue else issue
            wait = start - issue
            busy = start + service
            busy_s += service
            queue_wait_s += wait
            depth += 1
            if series is not None:
                series.append(now, depth)
            finish.append(busy)
            waits.append(wait)
        self.busy_until = busy
        self.transfers += count
        self.pages += count * pages
        self.busy_s = busy_s
        self.queue_wait_s = queue_wait_s
        self.queue_depth = depth
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        return waits


class InterNodeChannel:
    """Queueing latency/bandwidth model of the cluster interconnect.

    Parameters
    ----------
    engine:
        The shared simulation engine (used for deliveries/completions).
    latency_s:
        One-way propagation + protocol latency of a message.
    bandwidth_bytes_s:
        Sustained payload bandwidth of one link, in bytes per second.
    page_bytes:
        Size of one simulated page (the payload unit of remote tmem).
    contended:
        Enable per-link FIFO queueing.  Off by default: the uncontended
        channel is bit-identical to the historical stateless cost model.
    trace:
        Optional recorder for the ``link_queue/*`` depth traces
        (contended mode only).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        latency_s: float,
        bandwidth_bytes_s: float,
        page_bytes: int,
        name: str = "internode",
        contended: bool = False,
        trace: Optional["Any"] = None,
    ) -> None:
        if latency_s < 0:
            raise ConfigurationError(f"latency_s must be >= 0, got {latency_s}")
        if bandwidth_bytes_s <= 0:
            raise ConfigurationError(
                f"bandwidth_bytes_s must be > 0, got {bandwidth_bytes_s}"
            )
        if page_bytes <= 0:
            raise ConfigurationError(f"page_bytes must be > 0, got {page_bytes}")
        self._engine = engine
        self._latency = float(latency_s)
        self._bandwidth = float(bandwidth_bytes_s)
        self._page_bytes = int(page_bytes)
        self._name = name
        self._page_transfer_s = self._page_bytes / self._bandwidth
        self.contended = bool(contended)
        self._trace = trace
        self._links: Dict[Tuple[str, str], LinkState] = {}
        self.pages_moved = 0
        self.bytes_moved = 0
        self.messages_sent = 0
        #: True once degradation windows are installed; the undegraded
        #: channel never touches the fault machinery.
        self.degraded = False
        self._degradations: Dict[Tuple[str, str], Tuple[Any, ...]] = {}
        self._loss_rng: Dict[Tuple[str, str], Any] = {}

    #: Retransmission cap inside a lossy window: the data path is modeled
    #: as reliable-with-retries, so a draw streak longer than this is
    #: delivered anyway after paying for the lost attempts.
    MAX_RETRANSMITS = 8

    # -- fault injection ----------------------------------------------------
    def configure_degradations(
        self, link_faults: Any, rng_factory: Any
    ) -> None:
        """Install :class:`~repro.cluster.faults.LinkDegradation` windows.

        Loss draws come from one named RNG stream per directed link
        (``fault/link/<src>-><dst>``) so adding loss to one link never
        perturbs another link's draws or any workload stream.  Replaces
        any previously installed configuration.
        """
        by_link: Dict[Tuple[str, str], list] = {}
        for deg in link_faults:
            by_link.setdefault((deg.src, deg.dst), []).append(deg)
        self._degradations = {
            key: tuple(sorted(windows, key=lambda d: d.start_s))
            for key, windows in by_link.items()
        }
        self.degraded = bool(self._degradations)
        self._loss_rng = {}
        for (src, dst), windows in sorted(self._degradations.items()):
            if any(w.loss_probability > 0.0 for w in windows):
                self._loss_rng[(src, dst)] = rng_factory.stream(
                    f"fault/link/{src}->{dst}"
                )

    def window_at(self, src: str, dst: str, now: float) -> Optional[Any]:
        """The degradation window active on *src* -> *dst*, if any."""
        windows = self._degradations.get((src, dst))
        if not windows:
            return None
        for window in windows:
            if window.active_at(now):
                return window
            if window.start_s > now:
                break
        return None

    def partitioned(self, src: str, dst: str, now: float) -> bool:
        """True while a partition window cuts the directed link."""
        window = self.window_at(src, dst, now)
        return window is not None and window.partition

    def degraded_at(self, src: str, dst: str, now: float) -> bool:
        """True while any degradation window is active on the link."""
        return self.window_at(src, dst, now) is not None

    def timeout_cost_s(self, src: str, dst: str, now: float) -> float:
        """Cost of a data-path request that gets no answer.

        A probe against a partitioned link times out after a round trip
        at the window's (possibly inflated) latency; the spill path
        charges this per failed attempt.
        """
        window = self.window_at(src, dst, now)
        extra = window.extra_latency_s if window is not None else 0.0
        return 2.0 * (self._latency + extra)

    # -- cost model ---------------------------------------------------------
    @property
    def now(self) -> float:
        """The shared engine's clock (the time remote ops are issued at)."""
        return self._engine.now

    @property
    def latency_s(self) -> float:
        return self._latency

    @property
    def page_transfer_s(self) -> float:
        """Bandwidth term for one page payload."""
        return self._page_transfer_s

    def transfer_cost_s(self, pages: int = 1) -> float:
        """Uncontended one-way cost of *pages* payloads in one message."""
        if pages < 0:
            raise ConfigurationError(f"pages must be >= 0, got {pages}")
        return self._latency + pages * self._page_transfer_s

    def round_trip_cost_s(self, pages: int = 1) -> float:
        """Uncontended request/response cost with *pages* payloads one way.

        This is the floor of the data-path cost of a remote tmem
        operation: the request crosses the link, the payload (or
        acknowledgement) crosses back.  In contended mode the actual
        cost adds the link's queue wait (see :meth:`reserve`).
        """
        return 2.0 * self._latency + pages * self._page_transfer_s

    # -- link state ---------------------------------------------------------
    def link(self, src: str, dst: str) -> LinkState:
        """The directed link *src* -> *dst*, created on first use."""
        key = (src, dst)
        state = self._links.get(key)
        if state is None:
            state = self._links[key] = LinkState(src, dst)
        return state

    def links(self) -> Dict[str, LinkState]:
        """Live links keyed by ``"src->dst"``, in creation order."""
        return {state.name: state for state in self._links.values()}

    def describe_links(self) -> Dict[str, Dict[str, Any]]:
        """Per-link counters for the cluster result, sorted by name."""
        return {
            state.name: state.describe()
            for state in sorted(self._links.values(), key=lambda s: s.name)
        }

    @property
    def max_queue_depth(self) -> int:
        """Deepest FIFO backlog observed on any link."""
        if not self._links:
            return 0
        return max(state.max_queue_depth for state in self._links.values())

    def _occupy(
        self,
        state: LinkState,
        pages: int,
        now: float,
        service_s: Optional[float] = None,
        start_at: Optional[float] = None,
    ) -> float:
        """Queue *pages* on the link; returns the queue wait incurred.

        One :meth:`LinkState.occupy` with the nominal service time, unless
        *service_s* overrides it (a degradation window's bandwidth
        throttle stretches it); *start_at* defers service to a future
        instant (a sync transfer stalled behind a partition holds its
        queue slot from *now* but only occupies the wire from
        *start_at*).  Arms the link's drain wake.
        """
        service = (
            pages * self._page_transfer_s if service_s is None else service_s
        )
        self._open_series(state)
        (wait,) = state.occupy(
            pages, service, now if start_at is None else start_at, now
        )
        self._arm(state)
        return wait

    def _open_series(self, state: LinkState) -> None:
        """Give a link its ``link_queue`` trace before its first payload."""
        if state.series is None and self._trace is not None:
            state.series = self._trace.series(f"link_queue/{state.name}")

    def _arm(self, state: LinkState) -> None:
        """Make sure a drain wake is pending for a link with payloads."""
        if not state.wake_armed:
            state.wake_armed = True
            self._engine.schedule_call_at(
                state.busy_until,
                self._wake,
                state,
                priority=EventPriority.HYPERVISOR,
                label=f"{self._name}:wake:{state.name}",
            )

    def _wake(self, state: LinkState) -> None:
        """Drain wake: retire what finished, re-arm while payloads remain."""
        state.wake_armed = False
        state.retire(self._engine.now)
        if state.pending:
            self._arm(state)

    def retire(self, now: float) -> None:
        """Retire every link's payloads finished by *now*.

        The cluster calls this when its run stops, so the depth traces
        hold every payload finished by the last simulated instant, as
        one completion event per payload would have recorded them.
        """
        for state in self._links.values():
            state.retire(now)

    def reserve(self, src: str, dst: str, pages: int, now: float) -> float:
        """Synchronous data-path cost of a round-trip moving *pages*.

        The payload travels *src* -> *dst* (a spilled put) or is pulled
        back over the same directed link (a remote get names the hosting
        peer as *src*).  Uncontended: exactly the stateless round trip.
        Contended: the link's queue wait is added and the link stays
        busy for the payload's service time, so later transfers queue.
        """
        if pages < 0:
            raise ConfigurationError(f"pages must be >= 0, got {pages}")
        self.pages_moved += pages
        self.bytes_moved += pages * self._page_bytes
        if self.degraded:
            return self._reserve_degraded(src, dst, pages, now)
        if not self.contended:
            return self.round_trip_cost_s(pages)
        state = self.link(src, dst)
        wait = self._occupy(state, pages, now)
        return wait + self.round_trip_cost_s(pages)

    def reserve_burst(
        self, hops: Sequence[Tuple[str, str]], now: float
    ) -> List[float]:
        """:meth:`reserve` of one page per ``(src, dst)`` hop, in order.

        Returns each hop's cost.  Links are independent FIFOs, so each
        link queues its hops in one :meth:`LinkState.occupy` call.
        """
        count = len(hops)
        self.pages_moved += count
        self.bytes_moved += count * self._page_bytes
        if self.degraded:
            return [self._reserve_degraded(src, dst, 1, now) for src, dst in hops]
        round_trip = self.round_trip_cost_s(1)
        if not self.contended:
            return [round_trip] * count
        positions: Dict[Tuple[str, str], List[int]] = {}
        for position, hop in enumerate(hops):
            positions.setdefault(hop, []).append(position)
        costs = [round_trip] * count
        for (src, dst), on_link in positions.items():
            state = self.link(src, dst)
            self._open_series(state)
            waits = state.occupy(
                1, self._page_transfer_s, now, now, count=len(on_link)
            )
            for position, wait in zip(on_link, waits):
                costs[position] = wait + round_trip
            self._arm(state)
        return costs

    def _reserve_degraded(
        self, src: str, dst: str, pages: int, now: float
    ) -> float:
        """Degradation-aware synchronous cost (see :meth:`reserve`).

        Partition windows stall the caller until the link heals, then
        the transfer pays the (possibly still degraded) cost at heal
        time.  Active windows inflate latency and service time; loss
        windows add one timed-out attempt per seeded drop.  With no
        active window the arithmetic reduces to the nominal cost, so a
        link outside its windows is bit-identical to an undegraded one.
        """
        state = self.link(src, dst)
        stall = 0.0
        t = now
        window = self.window_at(src, dst, t)
        while window is not None and window.partition:
            stall += window.end_s - t
            state.stall_s += window.end_s - t
            t = window.end_s
            window = self.window_at(src, dst, t)
        latency = self._latency
        unit = self._page_transfer_s
        if window is not None:
            latency += window.extra_latency_s
            unit /= window.bandwidth_factor
        cost = 2.0 * latency + pages * unit
        if window is not None and window.loss_probability > 0.0:
            rng = self._loss_rng.get((src, dst))
            if rng is not None:
                drops = 0
                while (
                    drops < self.MAX_RETRANSMITS
                    and rng.random() < window.loss_probability
                ):
                    drops += 1
                if drops:
                    state.drops += drops
                    cost += drops * (2.0 * latency + pages * unit)
        if self.contended:
            cost += self._occupy(
                state, pages, now, service_s=pages * unit, start_at=t
            )
        return stall + cost

    def transfer_async(
        self,
        src: str,
        dst: str,
        pages: int,
        on_complete: Callable[[Any], None],
        arg: Any,
        *,
        priority: int = EventPriority.HYPERVISOR,
        label: str = "",
    ) -> float:
        """Move a bulk payload *src* -> *dst*; deliver *arg* on arrival.

        Used for VM-migration state copies.  Returns the total transfer
        duration (queue wait + one-way latency + service time); the
        completion callback fires through the engine after that delay.
        Unlike :meth:`reserve` this occupies the link in both modes —
        migration is new machinery with no pinned history.
        """
        if pages < 0:
            raise ConfigurationError(f"pages must be >= 0, got {pages}")
        now = self._engine.now
        state = self.link(src, dst)
        if self.degraded:
            window = self.window_at(src, dst, now)
            if window is not None and window.partition:
                # Fail fast: nothing crosses a partitioned link.  The
                # whole transfer is rescheduled at heal time (when it
                # re-evaluates any follow-on window).
                state.fail_fast += 1
                delay = window.end_s - now
                self._engine.schedule_call_after(
                    delay,
                    self._retry_transfer,
                    (src, dst, pages, on_complete, arg, priority, label),
                    priority=priority,
                    label=label or f"{self._name}:retry:{state.name}",
                )
                return delay
            if window is not None:
                unit = self._page_transfer_s / window.bandwidth_factor
                wait = self._occupy(state, pages, now, service_s=pages * unit)
                self.pages_moved += pages
                self.bytes_moved += pages * self._page_bytes
                cost = (
                    wait
                    + self._latency
                    + window.extra_latency_s
                    + pages * unit
                )
                self._engine.schedule_call_after(
                    cost,
                    on_complete,
                    arg,
                    priority=priority,
                    label=label or f"{self._name}:copy:{state.name}",
                )
                return cost
        wait = self._occupy(state, pages, now)
        self.pages_moved += pages
        self.bytes_moved += pages * self._page_bytes
        cost = wait + self.transfer_cost_s(pages)
        self._engine.schedule_call_after(
            cost,
            on_complete,
            arg,
            priority=priority,
            label=label or f"{self._name}:copy:{state.name}",
        )
        return cost

    def _retry_transfer(self, request: Tuple[Any, ...]) -> None:
        """Re-issue a bulk transfer that failed fast against a partition."""
        src, dst, pages, on_complete, arg, priority, label = request
        self.transfer_async(
            src, dst, pages, on_complete, arg, priority=priority, label=label
        )

    # -- accounting ---------------------------------------------------------
    def note_transfer(self, pages: int) -> None:
        """Record *pages* payload pages moved over the link.

        Retained for callers that account a transfer whose cost was paid
        elsewhere (the uncontended remote-tmem fast path).
        """
        self.pages_moved += pages
        self.bytes_moved += pages * self._page_bytes

    # -- control messages ---------------------------------------------------
    def send(
        self,
        kind: str,
        payload: Any,
        on_delivery: Callable[[Any], None],
        *,
        priority: int = EventPriority.HYPERVISOR,
    ) -> None:
        """Deliver *payload* to *on_delivery* after the one-way latency.

        Control messages carry no page payload and never queue on a
        link.
        """
        self.messages_sent += 1
        delay = self._latency
        if delay > 0:
            # Bound delivery callback + payload argument: the engine's
            # slab invokes ``on_delivery(payload)`` without a closure.
            self._engine.schedule_call_after(
                delay,
                on_delivery,
                payload,
                priority=priority,
                label=f"{self._name}:{kind}",
            )
        else:
            on_delivery(payload)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InterNodeChannel(latency={self._latency:g}s, "
            f"page_transfer={self._page_transfer_s:g}s, "
            f"contended={self.contended}, pages_moved={self.pages_moved})"
        )
