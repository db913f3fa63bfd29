"""Scalar vs batched guest-memory engine equivalence.

The batched access engine must be *bit-identical* to the scalar
reference: same counters, same cumulative latency floats, same traces,
same scenario results for the same seed.  These tests drive both engines
through identical histories — kernel-level randomized bursts and full
scenario runs under every paper policy — and compare everything that is
observable.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.channels.internode import InterNodeChannel
from repro.config import GuestConfig, SimulationConfig
from repro.errors import SwapError
from repro.guest.frontswap import FrontswapClient
from repro.guest.kernel import GuestKernel
from repro.guest.swap import SwapStats
from repro.hypervisor.pages import PageKey
from repro.hypervisor.remote_tmem import RemoteTmemBackend
from repro.hypervisor.tmem_backend import TmemBackend
from repro.hypervisor.xen import Hypervisor
from repro.scenarios.library import usemem_scenario
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceRecorder
from repro.units import SCENARIO_UNITS


def build_kernel(engine_kind, *, ram_pages, tmem_pages, reclaim="lru",
                 target=None, swap_pages=512):
    config = SimulationConfig(
        guest=GuestConfig(access_engine=engine_kind, reclaim_algorithm=reclaim)
    )
    sim = SimulationEngine()
    hv = Hypervisor(
        sim, config, host_memory_pages=4096, tmem_pool_pages=tmem_pages
    )
    record = hv.create_domain("vm", ram_pages=ram_pages)
    frontswap = None
    if tmem_pages > 0:
        hv.register_tmem_client(record.vm_id)
        frontswap = FrontswapClient(
            record.vm_id, record.frontswap_pool_id, hv.hypercalls
        )
        if target is not None:
            hv.accounting.set_target(record.vm_id, target)
    kernel = GuestKernel(
        record.vm_id,
        ram_pages=ram_pages,
        swap_pages=swap_pages,
        config=config,
        disk=hv.swap_disk,
        frontswap=frontswap,
    )
    return kernel, hv


def assert_kernels_identical(scalar, batched, hv_s, hv_b):
    assert scalar.stats == batched.stats
    assert set(scalar._resident.pages()) == set(batched._resident.pages())
    assert scalar.swap.used_pages == batched.swap.used_pages
    assert scalar.swap.stats == batched.swap.stats
    assert scalar.tmem_pages == batched.tmem_pages
    assert scalar.memory_footprint_pages() == batched.memory_footprint_pages()
    assert hv_s.swap_disk.stats == hv_b.swap_disk.stats
    assert hv_s.swap_disk.busy_until == hv_b.swap_disk.busy_until
    if scalar.frontswap is not None:
        assert scalar.frontswap.stats == batched.frontswap.stats
        assert scalar.frontswap._stored == batched.frontswap._stored
        acc_s = hv_s.accounting.account(scalar.vm_id)
        acc_b = hv_b.accounting.account(batched.vm_id)
        assert acc_s == acc_b


BURSTS = st.lists(
    st.lists(st.integers(0, 50), min_size=0, max_size=40),
    min_size=1,
    max_size=25,
)


class TestKernelLevelEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(bursts=BURSTS, tmem_pages=st.sampled_from([0, 3, 16, 64]),
           reclaim=st.sampled_from(["lru", "clock"]))
    def test_random_bursts(self, bursts, tmem_pages, reclaim):
        scalar, hv_s = build_kernel(
            "scalar", ram_pages=12, tmem_pages=tmem_pages, reclaim=reclaim
        )
        batched, hv_b = build_kernel(
            "batched", ram_pages=12, tmem_pages=tmem_pages, reclaim=reclaim
        )
        now = 0.0
        for burst in bursts:
            out_s = scalar.access(burst, now=now)
            out_b = batched.access(burst, now=now)
            assert out_s == out_b
            # Both planners rely on it: from the first miss that finds
            # RAM full, every miss evicts exactly one victim.
            for kernel in (scalar, batched):
                assert kernel.resident_pages <= kernel.usable_ram_pages
            now += 0.25
        assert_kernels_identical(scalar, batched, hv_s, hv_b)

    @settings(deadline=None, max_examples=25)
    @given(bursts=BURSTS, frees=st.lists(st.integers(0, 50), max_size=20),
           targets=st.lists(st.one_of(st.none(), st.integers(0, 20)),
                            max_size=25))
    # The last burst starts one page over a target of 0: its fault from
    # tmem pays the deficit back, and the eviction after that fault must
    # still be refused.
    @example(bursts=[[1, 9, 10, 0], [3, 4, 5, 6, 7, 8], [1, 2]], frees=[],
             targets=[None, None, 0])
    def test_bursts_with_frees_and_target(self, bursts, frees, targets):
        # A tight target forces put failures; frees exercise batched flush.
        # A target may also move before a burst (None keeps the current
        # one), as the Memory Manager's write-back does between bursts,
        # and may drop below the VM's usage.
        scalar, hv_s = build_kernel(
            "scalar", ram_pages=10, tmem_pages=32, target=5
        )
        batched, hv_b = build_kernel(
            "batched", ram_pages=10, tmem_pages=32, target=5
        )
        now = 0.0
        for i, burst in enumerate(bursts):
            target = targets[i] if i < len(targets) else None
            if target is not None:
                hv_s.accounting.set_target(scalar.vm_id, target)
                hv_b.accounting.set_target(batched.vm_id, target)
            lat_s = scalar.access(burst, now=now).latency_s
            lat_b = batched.access(burst, now=now).latency_s
            assert lat_s == lat_b
            if i == len(bursts) // 2:
                assert scalar.free(frees, now=now) == batched.free(frees, now=now)
            now += 0.25
        assert_kernels_identical(scalar, batched, hv_s, hv_b)

    def test_sequential_sweep_matches(self):
        """The usemem-style pattern: linear sweeps over an oversized set."""
        scalar, hv_s = build_kernel("scalar", ram_pages=32, tmem_pages=24)
        batched, hv_b = build_kernel("batched", ram_pages=32, tmem_pages=24)
        now = 0.0
        for _sweep in range(4):
            for start in range(0, 64, 8):
                burst = np.arange(start, start + 8)
                out_s = scalar.access(burst, now=now)
                out_b = batched.access(burst, now=now)
                assert out_s == out_b
                now += 0.01
        assert_kernels_identical(scalar, batched, hv_s, hv_b)

    def test_intra_burst_reaccess_of_evicted_page(self):
        """A burst that re-touches a page it evicted earlier must ship its
        open tmem segment mid-burst and still match the scalar path."""
        scalar, hv_s = build_kernel("scalar", ram_pages=5, tmem_pages=16)
        batched, hv_b = build_kernel("batched", ram_pages=5, tmem_pages=16)
        warm = list(range(4))
        scalar.access(warm, now=0.0)
        batched.access(warm, now=0.0)
        # usable RAM is 4: page 0 is evicted when 4..7 arrive, then
        # re-accessed at the end of the same burst.
        tricky = [4, 5, 6, 7, 0, 4, 0]
        out_s = scalar.access(tricky, now=1.0)
        out_b = batched.access(tricky, now=1.0)
        assert out_s == out_b
        assert out_s.faults_from_tmem > 0
        assert_kernels_identical(scalar, batched, hv_s, hv_b)

    @pytest.mark.parametrize("reclaim", ["lru", "clock"])
    @pytest.mark.parametrize("tmem_pages", [0, 3])
    def test_swap_overflow_leaves_the_same_disk_and_swap_state(
        self, tmem_pages, reclaim
    ):
        """A swap area that fills mid-burst raises on the same burst in both
        engines, and the disk and swap bookkeeping stop at the same state:
        the refused page's disk write is accounted, its slot is not."""
        engines = {}
        for kind in ("scalar", "batched"):
            kernel, hv = build_kernel(
                kind, ram_pages=12, tmem_pages=tmem_pages, reclaim=reclaim,
                swap_pages=8,
            )
            failed_at = None
            for index, start in enumerate(range(0, 60, 20)):
                try:
                    kernel.access(range(start, start + 20), now=index * 0.25)
                except SwapError:
                    failed_at = index
                    break
            engines[kind] = (kernel, hv.swap_disk, failed_at)
        scalar, disk_s, failed_s = engines["scalar"]
        batched, disk_b, failed_b = engines["batched"]
        assert failed_s is not None and failed_s == failed_b
        assert scalar.swap.stats == batched.swap.stats == SwapStats(8, 0, 8)
        assert disk_s.stats == disk_b.stats
        assert disk_s.stats.writes == 9
        assert disk_s.busy_until == disk_b.busy_until


#: One step in a guest process's life: a burst, a free, the loss of some
#: tmem copies (a node failure; the ints pick held pages) or the
#: process's exit.
LIFE_STEPS = st.one_of(
    st.tuples(st.just("access"), st.lists(st.integers(0, 24), max_size=16)),
    st.tuples(st.just("free"), st.lists(st.integers(0, 24), max_size=8)),
    st.tuples(st.just("lose"),
              st.lists(st.integers(0, 24), min_size=1, max_size=8)),
    st.tuples(st.just("exit"), st.just([])),
)


def lose_tmem_copies(kernel, hv, picks, now):
    """Drop the tmem copies of the held pages *picks* index (any pages
    when none is held) behind the guest's back, as a node failure does,
    and let the guest write them to its swap area."""
    fs = kernel.frontswap
    held = sorted(fs.held_pages)
    pages = [held[i % len(held)] for i in picks] if held else picks
    for page in pages:
        if fs.holds(page):
            hv.backend.flush_page(
                kernel.vm_id, fs.pool_id,
                PageKey(fs.pool_id, *divmod(page, fs.pages_per_object)),
            )
    kernel.recover_lost_tmem_pages(pages, now=now)


class TestOneHomePerPage:
    """Every page the process touched and did not free lives in exactly
    one place: guest RAM, the swap area or tmem (frontswap's held map)."""

    @settings(deadline=None)
    @given(steps=st.lists(LIFE_STEPS, min_size=1, max_size=30),
           tmem_pages=st.sampled_from([0, 3, 16]),
           reclaim=st.sampled_from(["lru", "clock"]))
    # Pages 0-3 are evicted to tmem; 0 and 1 lose their copies, fault
    # back from swap, and the exit frees every page from all three homes.
    @example(steps=[("access", list(range(10))), ("lose", [0, 1]),
                    ("access", [0, 1, 2]), ("exit", [])],
             tmem_pages=16, reclaim="lru")
    def test_every_live_page_has_one_home(self, steps, tmem_pages, reclaim):
        for engine_kind in ("scalar", "batched"):
            kernel, hv = build_kernel(
                engine_kind, ram_pages=6, tmem_pages=tmem_pages,
                reclaim=reclaim,
            )
            live = set()
            now = 0.0
            for kind, pages in steps:
                if kind == "access":
                    kernel.access(pages, now=now)
                    live.update(pages)
                elif kind == "free":
                    kernel.free(pages, now=now)
                    live.difference_update(pages)
                elif kind == "lose":
                    if kernel.frontswap is not None:
                        lose_tmem_copies(kernel, hv, pages, now)
                else:
                    freed = kernel.stats.freed_pages
                    kernel.release_all(now=now)
                    assert kernel.stats.freed_pages - freed == len(live)
                    live.clear()
                resident = set(kernel._resident.pages())
                swapped = set(kernel.swap.slots)
                held = set(kernel.frontswap.held_pages
                           if kernel.frontswap is not None else ())
                assert resident.isdisjoint(swapped)
                assert resident.isdisjoint(held)
                assert swapped.isdisjoint(held)
                assert resident | swapped | held == live
                assert kernel.memory_footprint_pages() == len(live)
                now += 0.25


@st.composite
def cluster_runs(draw):
    """Node 0 of a small cluster, its VM's RAM and bursts, and the
    target installed before each burst (``None`` keeps the current one)."""
    nodes = draw(st.integers(2, 4))
    n_bursts = draw(st.integers(1, 10))
    return {
        "frames": draw(st.integers(0, 6)),
        "peer_frames": [draw(st.integers(0, 6)) for _ in range(nodes - 1)],
        "contended": draw(st.booleans()),
        "ram_pages": draw(st.integers(3, 12)),
        "reclaim": draw(st.sampled_from(["lru", "clock"])),
        "bursts": [
            draw(st.lists(st.integers(0, 30), max_size=30))
            for _ in range(n_bursts)
        ],
        "targets": [
            draw(st.one_of(st.none(), st.integers(0, 8)))
            for _ in range(n_bursts)
        ],
        "frees": [
            draw(st.lists(st.integers(0, 30), max_size=4))
            for _ in range(n_bursts)
        ],
    }


def build_cluster_kernel(engine_kind, run):
    """A guest kernel on node 0 of *run*'s cluster, spilling to its peers
    over one channel; returns the kernel and the cluster's parts."""
    config = SimulationConfig(
        guest=GuestConfig(
            access_engine=engine_kind, reclaim_algorithm=run["reclaim"]
        )
    )
    sim = SimulationEngine()
    trace = TraceRecorder()
    domids = itertools.count(1)
    hypervisors = [
        Hypervisor(
            sim, config, host_memory_pages=4096, tmem_pool_pages=pages,
            domid_allocator=lambda counter=domids: next(counter),
        )
        for pages in [run["frames"], *run["peer_frames"]]
    ]
    channel = InterNodeChannel(
        sim, latency_s=25e-6, bandwidth_bytes_s=1.25e9, page_bytes=4096,
        contended=run["contended"], trace=trace,
    )
    backends = [
        RemoteTmemBackend(f"n{i}", hv, channel, trace=trace)
        for i, hv in enumerate(hypervisors)
    ]
    for backend in backends:
        backend.connect(
            [peer for peer in backends if peer is not backend],
            spill_client_id=next(domids),
        )
    hv = hypervisors[0]
    record = hv.create_domain("vm", ram_pages=run["ram_pages"])
    hv.register_tmem_client(record.vm_id)
    backends[0].register_home_vm(record.vm_id)
    kernel = GuestKernel(
        record.vm_id,
        ram_pages=run["ram_pages"],
        swap_pages=512,
        config=config,
        disk=hv.swap_disk,
        frontswap=FrontswapClient(
            record.vm_id, record.frontswap_pool_id, hv.hypercalls
        ),
    )
    return kernel, SimpleNamespace(
        sim=sim, trace=trace, hypervisors=hypervisors, channel=channel,
        backends=backends,
    )


def cluster_view(kernel, cluster):
    """Everything a burst on node 0 can touch, in comparable form."""
    for hv in cluster.hypervisors:
        hv.check_invariants()
    disk = cluster.hypervisors[0].swap_disk
    return {
        "stats": kernel.stats,
        "frontswap": (kernel.frontswap._stored, kernel.frontswap.stats),
        "swap": (kernel.swap.used_pages, kernel.swap.stats),
        "disk": (disk.stats, disk.busy_until),
        "free": [hv.free_tmem_pages for hv in cluster.hypervisors],
        "remote": [backend.stats for backend in cluster.backends],
        "trace": cluster.trace.to_dict(),
        "links": {
            name: tuple(getattr(link, slot) for slot in link.__slots__)
            for name, link in cluster.channel.links().items()
        },
        "moved": (cluster.channel.pages_moved, cluster.channel.bytes_moved),
        "pending": cluster.sim.pending_events,
    }


class TestClusterNodeEquivalence:
    """Scalar and batched kernels agree on a cluster node, where bursts
    spill to and fetch from peers: a put resolved mid-burst as spilled,
    or a fetched page evicted again in the same burst, reaches the
    sequential planner's segment boundaries."""

    @settings(deadline=None)
    @given(run=cluster_runs())
    def test_random_bursts_on_a_cluster_node(self, run):
        scalar, cluster_s = build_cluster_kernel("scalar", run)
        batched, cluster_b = build_cluster_kernel("batched", run)
        now = 0.0
        for burst, target, frees in zip(
            run["bursts"], run["targets"], run["frees"]
        ):
            if target is not None:
                for kernel, cluster in ((scalar, cluster_s),
                                        (batched, cluster_b)):
                    cluster.hypervisors[0].accounting.set_target(
                        kernel.vm_id, target
                    )
            assert scalar.access(burst, now=now) == batched.access(
                burst, now=now
            )
            assert scalar.free(frees, now=now) == batched.free(frees, now=now)
            now += 0.25
        assert cluster_view(scalar, cluster_s) == cluster_view(
            batched, cluster_b
        )


POLICIES = ["no-tmem", "greedy", "static-alloc", "reconf-static",
            "smart-alloc:P=2"]


def run_usemem(policy, engine_kind, *, reclaim="lru", scale=0.1, seed=7):
    config = SimulationConfig(
        units=SCENARIO_UNITS,
        guest=GuestConfig(access_engine=engine_kind, reclaim_algorithm=reclaim),
    )
    runner = ScenarioRunner(
        usemem_scenario(scale=scale), policy, config=config, seed=seed
    )
    result = runner.run()
    kernel_stats = {name: vm.kernel.stats for name, vm in runner.vms.items()}
    return result, kernel_stats


class TestScenarioLevelEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_usemem_scenario_identical(self, policy):
        scalar, stats_s = run_usemem(policy, "scalar")
        batched, stats_b = run_usemem(policy, "batched")

        # Guest kernel statistics: every counter and every cumulative
        # latency float must match exactly.
        assert stats_s == stats_b

        # Scenario results: per-VM aggregates, run timings, phase timings.
        assert scalar.vms == batched.vms
        assert scalar.simulated_duration_s == batched.simulated_duration_s
        assert scalar.snapshots == batched.snapshots
        assert scalar.target_updates == batched.target_updates

        # Tmem usage traces (the data behind Figures 4/6/8/10).
        if policy != "no-tmem":
            names_s = sorted(n for n in scalar.trace.names())
            names_b = sorted(n for n in batched.trace.names())
            assert names_s == names_b
            for name in names_s:
                series_s = scalar.trace.get(name)
                series_b = batched.trace.get(name)
                assert np.array_equal(series_s.times, series_b.times)
                assert np.array_equal(series_s.values, series_b.values)

    def test_usemem_scenario_identical_with_clock(self):
        scalar, stats_s = run_usemem("greedy", "scalar", reclaim="clock")
        batched, stats_b = run_usemem("greedy", "batched", reclaim="clock")
        assert stats_s == stats_b
        assert scalar.vms == batched.vms


class TestPlannerEquivalence:
    """The sequential planner builds the replay inputs the vector plan
    builds: a run whose every burst with a miss goes through
    ``_plan_and_replay_misses`` fingerprints as the unpatched run."""

    @pytest.mark.parametrize("scenario, policy", [
        ("usemem-scenario", "smart-alloc"),
        # No frontswap: every victim goes straight to disk.
        ("usemem-scenario", "no-tmem"),
        ("many-vms:n=4", "static-alloc"),
        # Remote puts and gets with queue-aware network costs.
        ("contended:nodes=2", "smart-alloc"),
    ])
    def test_sequential_planner_matches_vector_plan(self, monkeypatch,
                                                    scenario, policy):
        spec = scenario_by_name(scenario, scale=0.1)
        vector = run_scenario(spec, policy, seed=7)
        monkeypatch.setattr(
            GuestKernel, "_vector_plan_misses", lambda *args: False
        )
        sequential = run_scenario(spec, policy, seed=7)
        assert sequential.fingerprint() == vector.fingerprint()


def count_calls(monkeypatch, counts, cls, name):
    """Count calls of ``cls.name`` into ``counts[name]``, and the calls
    that returned ``None`` (a declined burst) into ``counts["declined"]``."""
    original = getattr(cls, name)
    counts[name] = 0
    counts.setdefault("declined", 0)

    def counted(self, *args, **kwargs):
        counts[name] += 1
        result = original(self, *args, **kwargs)
        counts["declined"] += result is None
        return result

    monkeypatch.setattr(cls, name, counted)


class TestClosedFormCoverage:
    """The paper's target-based policies take the closed-form tmem path,
    on a single host and with remote tmem attached."""

    @pytest.mark.parametrize("policy", ["static-alloc", "reconf-static",
                                        "smart-alloc"])
    @pytest.mark.parametrize("scenario", ["usemem-scenario", "scenario-1"])
    def test_single_host_bursts_never_stage(self, monkeypatch, scenario,
                                            policy):
        counts = {}
        count_calls(monkeypatch, counts, TmemBackend, "execute_planned")
        config = SimulationConfig(units=SCENARIO_UNITS)
        run_scenario(scenario_by_name(scenario, scale=0.1), policy,
                     config=config, seed=7)
        assert counts["execute_planned"] > 0
        assert counts["declined"] == 0

    @pytest.mark.parametrize("scenario, engine", [
        ("contended:nodes=4", "exact"),
        ("hotnode:nodes=3", "exact"),
        ("cluster:nodes=3", "exact"),
        ("contended:nodes=4", "epoch"),
    ])
    def test_cluster_bursts_never_stage(self, monkeypatch, scenario, engine):
        """Remote spill and fetch ride the closed form: no planned burst
        is declined, the bursts that reach a peer go through one
        remote_burst call each, and no page reaches a peer one at a
        time, from the sequential planner included."""
        counts = {}
        count_calls(monkeypatch, counts, TmemBackend, "execute_planned")
        count_calls(monkeypatch, counts, RemoteTmemBackend, "remote_burst")
        per_page = {}
        count_calls(monkeypatch, per_page, RemoteTmemBackend, "spill_put")
        count_calls(monkeypatch, per_page, RemoteTmemBackend, "remote_get")
        spec = scenario_by_name(scenario, scale=0.1)
        if engine == "exact":
            run_scenario(spec, "smart-alloc", seed=7)
        else:
            run_scenario(spec, "smart-alloc", shards=2, seed=7,
                         inline=True, cluster_engine="epoch")
        assert counts["execute_planned"] > 0
        assert counts["declined"] == 0
        assert counts["remote_burst"] > 0
        assert per_page["spill_put"] == per_page["remote_get"] == 0
