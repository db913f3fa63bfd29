"""Property tests for the queueing interconnect channel.

The contended :class:`~repro.channels.internode.InterNodeChannel` must be

* **deterministic** — the same request sequence yields the same costs,
  completion times and link counters, run after run (seeded workloads
  depend on this for bit-identical fingerprints);
* **conserving** — every enqueued transfer is delivered exactly once
  (an async transfer's delivery fires once, the queue depth drains back
  to zero, page counters add up);
* **FIFO per link** — transfers on one directed link complete in the
  order they were enqueued, never overlapping: each service window
  starts no earlier than the previous one ended;
* **the event-per-payload FIFO, without the events** — lazy retirement
  and one drain wake per link give every depth sample, counter, cost
  and delivery time that one completion event per payload gives.

The uncontended mode must stay bit-identical to the historical
stateless cost model: a reserve returns exactly the precomputed round
trip and schedules no engine events.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.internode import InterNodeChannel
from repro.cluster.faults import LinkDegradation
from repro.errors import ConfigurationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventPriority
from repro.sim.trace import TraceRecorder

PAGE = 4096
LATENCY = 25.0e-6
BANDWIDTH = 1.25e8


def make_channel(*, contended: bool, trace=None):
    engine = SimulationEngine()
    channel = InterNodeChannel(
        engine,
        latency_s=LATENCY,
        bandwidth_bytes_s=BANDWIDTH,
        page_bytes=PAGE,
        contended=contended,
        trace=trace,
    )
    return engine, channel


def random_requests(seed: int, count: int):
    """Deterministic stream of (at_s, src, dst, pages) requests."""
    rng = np.random.default_rng(seed)
    nodes = ["n1", "n2", "n3"]
    at = 0.0
    for _ in range(count):
        at += float(rng.uniform(0.0, 2e-4))
        src, dst = rng.choice(nodes, size=2, replace=False)
        yield at, str(src), str(dst), int(rng.integers(1, 32))


class TestUncontendedIdentity:
    def test_reserve_matches_stateless_round_trip(self):
        engine, channel = make_channel(contended=False)
        for pages in (0, 1, 7, 100):
            assert channel.reserve("a", "b", pages, 0.0) == (
                channel.round_trip_cost_s(pages)
            )

    def test_reserve_schedules_no_events(self):
        engine, channel = make_channel(contended=False)
        channel.reserve("a", "b", 5, 0.0)
        assert engine.pending_events == 0

    def test_note_transfer_accounting_is_preserved(self):
        engine, channel = make_channel(contended=False)
        channel.note_transfer(3)
        channel.reserve("a", "b", 2, 0.0)
        assert channel.pages_moved == 5
        assert channel.bytes_moved == 5 * PAGE


class TestContendedQueueing:
    def test_back_to_back_transfers_queue(self):
        engine, channel = make_channel(contended=True)
        service = 4 * channel.page_transfer_s
        first = channel.reserve("a", "b", 4, 0.0)
        second = channel.reserve("a", "b", 4, 0.0)
        assert first == channel.round_trip_cost_s(4)
        # The second transfer waits out the first one's service time.
        assert second == pytest.approx(service + channel.round_trip_cost_s(4))
        # Opposite direction is a different link: no wait.
        assert channel.reserve("b", "a", 4, 0.0) == channel.round_trip_cost_s(4)

    def test_queue_depth_traces_and_drain(self):
        trace = TraceRecorder()
        engine, channel = make_channel(contended=True, trace=trace)
        for _ in range(5):
            channel.reserve("a", "b", 10, 0.0)
        link = channel.link("a", "b")
        assert link.queue_depth == 5
        assert link.max_queue_depth == 5
        engine.run()
        assert link.queue_depth == 0
        series = trace.get("link_queue/a->b")
        values = list(series.values)
        assert max(values) == 5
        assert values[-1] == 0

    def test_zero_latency_send_is_immediate_when_uncontended(self):
        engine = SimulationEngine()
        channel = InterNodeChannel(
            engine, latency_s=0.0, bandwidth_bytes_s=BANDWIDTH,
            page_bytes=PAGE,
        )
        seen = []
        channel.send("k", 42, seen.append)
        assert seen == [42]

    def test_rejects_bad_parameters(self):
        engine = SimulationEngine()
        with pytest.raises(ConfigurationError):
            InterNodeChannel(engine, latency_s=-1.0,
                             bandwidth_bytes_s=1.0, page_bytes=PAGE)
        _, channel = make_channel(contended=True)
        with pytest.raises(ConfigurationError):
            channel.reserve("a", "b", -1, 0.0)


class TestConservationAndFifo:
    """Randomized request streams: delivery exactly once, FIFO per link."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2019])
    def test_async_transfers_conserve_and_fifo(self, seed):
        engine, channel = make_channel(contended=True)
        delivered = []
        expected_pages = 0
        order = {}
        for i, (at, src, dst, pages) in enumerate(
            random_requests(seed, 200)
        ):
            expected_pages += pages
            order.setdefault((src, dst), []).append(i)
            engine.schedule_call_at(
                at,
                (lambda s=src, d=dst, p=pages, idx=i: channel.transfer_async(
                    s, d, p,
                    lambda arg: delivered.append(arg),
                    (idx, s, d, p),
                )),
            )
        engine.run()

        # Exactly-once delivery, nothing left queued.
        assert len(delivered) == 200
        assert sorted(idx for idx, *_ in delivered) == list(range(200))
        assert channel.pages_moved == expected_pages
        for link in channel.links().values():
            assert link.queue_depth == 0

        # Per-link FIFO: deliveries on one directed link happen in
        # enqueue order.
        per_link = {}
        for idx, src, dst, _pages in delivered:
            per_link.setdefault((src, dst), []).append(idx)
        for key, got in per_link.items():
            assert got == order[key]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_request_stream_is_deterministic(self, seed):
        def run_once():
            engine, channel = make_channel(contended=True)
            costs = []
            for at, src, dst, pages in random_requests(seed, 150):
                engine.schedule_call_at(
                    at,
                    (lambda s=src, d=dst, p=pages:
                     costs.append(channel.reserve(s, d, p, engine.now))),
                )
            engine.run()
            summary = {
                name: (link.transfers, link.pages, link.busy_s,
                       link.queue_wait_s, link.max_queue_depth)
                for name, link in channel.links().items()
            }
            return costs, summary

        first_costs, first_summary = run_once()
        second_costs, second_summary = run_once()
        # Bit-identical, not approximately equal.
        assert first_costs == second_costs
        assert first_summary == second_summary
        assert any(wait > 0 for *_x, wait, _d in first_summary.values())

    def test_service_windows_never_overlap(self):
        """FIFO service: each window starts after the previous ends."""
        engine, channel = make_channel(contended=True)
        windows = []
        for at, src, dst, pages in random_requests(5, 100):
            if (src, dst) != ("n1", "n2"):
                continue

            def issue(p=pages, t=at):
                link = channel.link("n1", "n2")
                before = link.busy_until
                channel.reserve("n1", "n2", p, engine.now)
                start = max(before, engine.now)
                windows.append((start, link.busy_until))

            engine.schedule_call_at(at, issue)
        engine.run()
        assert len(windows) > 5
        for (_s1, e1), (s2, _e2) in zip(windows, windows[1:]):
            assert s2 >= e1


class TestPartitionedBulkTransfer:
    """A bulk transfer issued into a partition fails fast and is
    re-issued at heal time (``InterNodeChannel._retry_transfer``)."""

    PAGES = 8

    def _transfer_at_2(self, windows):
        engine, channel = make_channel(contended=True)
        channel.configure_degradations(
            [
                LinkDegradation("n1", "n2", start, end, partition=True)
                for start, end in windows
            ],
            rng_factory=None,
        )
        issued = []
        fired = []

        def issue(_arg):
            issued.append(channel.transfer_async(
                "n1", "n2", self.PAGES,
                lambda arg: fired.append((engine.now, arg)), "state",
            ))

        engine.schedule_call_after(2.0, issue, None)
        engine.run()
        return channel, issued, fired

    def test_retry_fires_after_the_heal(self):
        channel, issued, fired = self._transfer_at_2([(1.0, 5.0)])
        # The call reports the heal delay; the copy starts at t = 5.
        assert issued == [3.0]
        assert fired == [(5.0 + channel.transfer_cost_s(self.PAGES), "state")]
        link = channel.describe_links()["n1->n2"]
        assert link["fail_fast"] == 1
        assert link["transfers"] == 1 and link["pages"] == self.PAGES

    def test_back_to_back_partitions_fail_fast_twice(self):
        channel, issued, fired = self._transfer_at_2([(1.0, 5.0), (5.0, 7.0)])
        # The retry at t = 5 meets the second partition and waits again.
        assert issued == [3.0]
        assert fired == [(7.0 + channel.transfer_cost_s(self.PAGES), "state")]
        link = channel.describe_links()["n1->n2"]
        assert link["fail_fast"] == 2
        assert link["transfers"] == 1 and link["pages"] == self.PAGES


class EventPerPayloadChannel(InterNodeChannel):
    """The oracle: the contended FIFO with one completion event per
    payload, as the channel scheduled it before retirement went lazy.

    The completion fires at the payload's finish time, the link's new
    ``busy_until``, at hypervisor priority; it decrements the depth and
    samples it.  A burst reservation is one :meth:`reserve` per hop.
    (The channel used to schedule the completion ``(issue - now) + wait
    + service`` after *now*, which can land one ulp after
    ``busy_until``; no pinned fingerprint depends on the difference.)
    """

    def _occupy(self, state, pages, now, service_s=None, start_at=None):
        service = (
            pages * self.page_transfer_s if service_s is None else service_s
        )
        issue = now if start_at is None else start_at
        start = state.busy_until if state.busy_until > issue else issue
        wait = start - issue
        state.busy_until = start + service
        state.transfers += 1
        state.pages += pages
        state.busy_s += service
        state.queue_wait_s += wait
        state.queue_depth += 1
        if state.queue_depth > state.max_queue_depth:
            state.max_queue_depth = state.queue_depth
        self._sample(state, now)
        self._engine.schedule_call_at(
            state.busy_until, self._complete, state,
            priority=EventPriority.HYPERVISOR,
        )
        return wait

    def _complete(self, state):
        state.queue_depth -= 1
        self._sample(state, self._engine.now)

    def _sample(self, state, now):
        self._trace.record(f"link_queue/{state.name}", now, state.queue_depth)

    def reserve_burst(self, hops, now):
        return [self.reserve(src, dst, 1, now) for src, dst in hops]


NODES = ("n0", "n1", "n2")


@st.composite
def link_streams(draw):
    """Requests over 2-3 nodes: when each is issued, and what it is."""
    nodes = NODES[: draw(st.integers(2, 3))]
    hop = st.sampled_from(list(itertools.permutations(nodes, 2)))
    step = st.fixed_dictionaries({
        # "gap": after the previous request; "finish": exactly when the
        # named link's last payload finishes (or now, if it has).
        "when": st.one_of(
            st.tuples(st.just("gap"), st.sampled_from([0.0, 1e-5, 3e-5])),
            st.tuples(st.just("gap"), st.floats(0.0, 2e-4)),
            st.tuples(st.just("finish"), hop),
        ),
        "op": st.sampled_from(["reserve", "async", "burst"]),
        "hop": hop,
        "pages": st.integers(1, 4),
        "hops": st.lists(hop, min_size=1, max_size=6),
    })
    steps = draw(st.lists(step, min_size=1, max_size=25))
    return {
        "steps": steps,
        # Stop right after this request, as a cluster run stops right
        # after the guest step that leaves every VM idle.
        "stop": draw(st.one_of(st.none(), st.integers(0, len(steps) - 1))),
    }


def run_stream(channel_cls, stream):
    """Issue *stream* as guest-priority events; returns what it saw."""
    engine = SimulationEngine()
    trace = TraceRecorder()
    channel = channel_cls(
        engine, latency_s=LATENCY, bandwidth_bytes_s=BANDWIDTH,
        page_bytes=PAGE, contended=True, trace=trace,
    )
    steps = stream["steps"]
    seen = []
    issued = []

    def schedule(i):
        kind, value = steps[i]["when"]
        at = engine.now
        if kind == "gap":
            at += value
        else:
            link = channel.links().get("->".join(value))
            if link is not None and link.busy_until > at:
                at = link.busy_until
        engine.schedule_call_at(at, issue, i, priority=EventPriority.WORKLOAD)

    def issue(i):
        step = steps[i]
        src, dst = step["hop"]
        now = engine.now
        if step["op"] == "reserve":
            seen.append((now, channel.reserve(src, dst, step["pages"], now)))
        elif step["op"] == "burst":
            seen.append((now, channel.reserve_burst(step["hops"], now)))
        else:
            seen.append((now, channel.transfer_async(
                src, dst, step["pages"],
                lambda arg: seen.append(("delivered", arg, engine.now)), i,
            )))
        issued.append(i)
        if i + 1 < len(steps):
            schedule(i + 1)

    schedule(0)
    stop = stream["stop"]
    if stop is None:
        engine.run()
    else:
        engine.run(stop_when=lambda: len(issued) > stop)
        if channel_cls is InterNodeChannel:
            channel.retire(engine.now)
    links = {
        name: (link.busy_until, link.queue_depth, link.describe())
        for name, link in channel.links().items()
    }
    return seen, trace.to_dict(), links, engine.now, channel.pages_moved


class TestFifoOracle:
    """Lazy retirement against the event-per-payload FIFO."""

    @settings(deadline=None)
    @given(stream=link_streams())
    def test_matches_one_completion_event_per_payload(self, stream):
        assert run_stream(InterNodeChannel, stream) == run_stream(
            EventPerPayloadChannel, stream
        )

    def test_a_payload_finishing_at_a_reserve_instant_retires_first(self):
        """A payload whose finish time is a later reserve's issue instant
        leaves the FIFO before that reserve samples the depth: its
        completion ran at hypervisor priority, ahead of the guest step
        that issued the reserve.  Here the link's drain wake is pending
        at a later finish, so the reserve itself retires the payload."""
        trace = TraceRecorder()
        engine, channel = make_channel(contended=True, trace=trace)
        link = channel.link("a", "b")
        channel.reserve_burst([("a", "b"), ("a", "b")], 0.0)
        first = channel.page_transfer_s
        second = first + channel.page_transfer_s
        assert link.busy_until == second
        costs = []
        engine.schedule_call_at(
            first,
            lambda: costs.append(channel.reserve("a", "b", 1, engine.now)),
            priority=EventPriority.WORKLOAD,
        )
        engine.run(until=first)
        assert link.queue_depth == 2
        assert link.max_queue_depth == 2
        # The reserve waits only for the second payload.
        assert costs == [(second - first) + channel.round_trip_cost_s(1)]
        engine.run()
        third = link.busy_until
        assert trace.get("link_queue/a->b").as_tuples() == [
            (0.0, 1.0), (0.0, 2.0),
            (first, 1.0), (first, 2.0),
            (second, 1.0), (third, 0.0),
        ]
        assert link.queue_depth == 0
