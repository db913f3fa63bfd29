"""Tests for the tmem backend: Algorithm 1's admission control."""

import copy
import itertools
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.channels.internode import InterNodeChannel
from repro.cluster.epoch import EpochContext
from repro.config import SimulationConfig
from repro.devices.dram import HostMemory
from repro.errors import ClusterError, HypercallError, TmemError
from repro.hypervisor.accounting import HypervisorAccounting
from repro.hypervisor.pages import PageKey
from repro.hypervisor.remote_tmem import RemoteTmemBackend
from repro.hypervisor.tmem_backend import TmemBackend
from repro.hypervisor.tmem_store import TmemStore
from repro.hypervisor.xen import Hypervisor
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceRecorder
from repro.units import SCENARIO_UNITS


def build_backend(tmem_pages=8, vms=(1,)):
    host = HostMemory(1024)
    host.grow_tmem_pool(tmem_pages)
    store = TmemStore()
    accounting = HypervisorAccounting(host)
    backend = TmemBackend(host, store, accounting)
    pools = {}
    for vm in vms:
        accounting.register_vm(vm)
        pools[vm] = store.create_pool(vm).pool_id
    return backend, accounting, host, pools


def key(i, pool=0):
    return PageKey(pool, 0, i)


class TestPutAdmission:
    def test_put_succeeds_with_free_pages_and_no_target(self):
        backend, acc, host, pools = build_backend()
        result = backend.put(1, pools[1], key(0), version=1, now=0.0)
        assert result.succeeded
        assert acc.account(1).tmem_used == 1
        assert host.tmem_used_pages == 1

    def test_put_fails_when_pool_exhausted(self):
        backend, acc, host, pools = build_backend(tmem_pages=2)
        assert backend.put(1, pools[1], key(0), version=1, now=0.0).succeeded
        assert backend.put(1, pools[1], key(1), version=1, now=0.0).succeeded
        result = backend.put(1, pools[1], key(2), version=1, now=0.0)
        assert not result.succeeded
        assert acc.account(1).tmem_used == 2

    def test_put_fails_at_target(self):
        """Algorithm 1 line 5: tmem_used >= mm_target means E_TMEM."""
        backend, acc, host, pools = build_backend(tmem_pages=8)
        acc.set_target(1, 2)
        assert backend.put(1, pools[1], key(0), version=1, now=0.0).succeeded
        assert backend.put(1, pools[1], key(1), version=1, now=0.0).succeeded
        assert not backend.put(1, pools[1], key(2), version=1, now=0.0).succeeded
        # Free pages remain but the target blocks further puts.
        assert host.tmem_free_pages == 6

    def test_put_with_zero_target_always_fails(self):
        backend, acc, host, pools = build_backend()
        acc.set_target(1, 0)
        assert not backend.put(1, pools[1], key(0), version=1, now=0.0).succeeded

    def test_put_counters_track_totals_and_successes(self):
        backend, acc, host, pools = build_backend(tmem_pages=1)
        backend.put(1, pools[1], key(0), version=1, now=0.0)
        backend.put(1, pools[1], key(1), version=1, now=0.0)  # fails, pool full
        account = acc.account(1)
        assert account.puts_total == 2
        assert account.puts_succ == 1
        assert account.puts_failed == 1
        assert account.cumul_puts_failed == 1

    def test_duplicate_put_overwrites_in_place(self):
        """A put to an existing key must not consume a second frame."""
        backend, acc, host, pools = build_backend(tmem_pages=4)
        backend.put(1, pools[1], key(0), version=1, now=0.0)
        result = backend.put(1, pools[1], key(0), version=9, now=1.0)
        assert result.succeeded
        assert acc.account(1).tmem_used == 1
        got = backend.get(1, pools[1], key(0))
        assert got.version == 9

    def test_replace_put_succeeds_even_when_pool_is_full(self):
        """A replace in place needs no free frame."""
        backend, acc, host, pools = build_backend(tmem_pages=1)
        assert backend.put(1, pools[1], key(0), version=1, now=0.0).succeeded
        assert host.tmem_free_pages == 0
        assert backend.put(1, pools[1], key(0), version=5, now=1.0).succeeded
        assert acc.account(1).tmem_used == 1
        assert backend.get(1, pools[1], key(0)).version == 5

    def test_target_below_usage_blocks_but_keeps_pages(self):
        """Targets may drop below current usage; pages are not reclaimed."""
        backend, acc, host, pools = build_backend(tmem_pages=8)
        for i in range(4):
            backend.put(1, pools[1], key(i), version=1, now=0.0)
        acc.set_target(1, 2)
        assert acc.account(1).tmem_used == 4
        assert not backend.put(1, pools[1], key(9), version=1, now=0.0).succeeded
        # Releasing below target re-enables puts.
        backend.flush_page(1, pools[1], key(0))
        backend.flush_page(1, pools[1], key(1))
        backend.flush_page(1, pools[1], key(2))
        assert backend.put(1, pools[1], key(9), version=1, now=0.0).succeeded


class TestGetAndFlush:
    def test_get_returns_latest_version_and_is_exclusive(self):
        backend, acc, host, pools = build_backend()
        backend.put(1, pools[1], key(3), version=7, now=0.0)
        result = backend.get(1, pools[1], key(3))
        assert result.succeeded and result.version == 7
        assert acc.account(1).tmem_used == 0
        assert host.tmem_used_pages == 0
        # A second get misses: the page was removed.
        assert not backend.get(1, pools[1], key(3)).succeeded

    def test_get_miss_reports_failure(self):
        backend, acc, host, pools = build_backend()
        assert not backend.get(1, pools[1], key(0)).succeeded
        assert acc.account(1).gets_total == 1

    def test_cleancache_get_is_not_exclusive(self):
        backend, acc, host, pools = build_backend()
        store_pool = backend._store.create_pool(1, persistent=False)
        backend.put(1, store_pool.pool_id, key(0, store_pool.pool_id), version=1, now=0.0)
        first = backend.get(1, store_pool.pool_id, key(0, store_pool.pool_id))
        second = backend.get(1, store_pool.pool_id, key(0, store_pool.pool_id))
        assert first.succeeded and second.succeeded

    def test_flush_page_frees_capacity(self):
        backend, acc, host, pools = build_backend(tmem_pages=1)
        backend.put(1, pools[1], key(0), version=1, now=0.0)
        assert not backend.put(1, pools[1], key(1), version=1, now=0.0).succeeded
        assert backend.flush_page(1, pools[1], key(0)).succeeded
        assert backend.put(1, pools[1], key(1), version=1, now=0.0).succeeded

    def test_flush_missing_page_fails_gracefully(self):
        backend, acc, host, pools = build_backend()
        assert not backend.flush_page(1, pools[1], key(5)).succeeded

    def test_flush_object_removes_group(self):
        backend, acc, host, pools = build_backend(tmem_pages=16)
        for i in range(5):
            backend.put(1, pools[1], PageKey(pools[1], 7, i), version=1, now=0.0)
        backend.put(1, pools[1], PageKey(pools[1], 8, 0), version=1, now=0.0)
        result = backend.flush_object(1, pools[1], 7)
        assert result.succeeded and result.pages_flushed == 5
        assert acc.account(1).tmem_used == 1

    def test_destroy_vm_releases_everything(self):
        backend, acc, host, pools = build_backend(tmem_pages=8, vms=(1, 2))
        for i in range(3):
            backend.put(1, pools[1], key(i), version=1, now=0.0)
        backend.put(2, pools[2], key(0, pools[2]), version=1, now=0.0)
        freed = backend.destroy_vm(1)
        assert freed == 3
        assert host.tmem_used_pages == 1


class TestMultiVmIsolation:
    def test_vms_have_separate_key_spaces(self):
        backend, acc, host, pools = build_backend(vms=(1, 2))
        backend.put(1, pools[1], key(0, pools[1]), version=1, now=0.0)
        backend.put(2, pools[2], key(0, pools[2]), version=2, now=0.0)
        assert backend.get(1, pools[1], key(0, pools[1])).version == 1
        assert backend.get(2, pools[2], key(0, pools[2])).version == 2

    def test_one_vm_can_exhaust_the_pool_without_targets(self):
        """The greedy failure mode the paper demonstrates."""
        backend, acc, host, pools = build_backend(tmem_pages=4, vms=(1, 2))
        for i in range(4):
            assert backend.put(1, pools[1], key(i, pools[1]), version=1, now=0.0).succeeded
        assert not backend.put(2, pools[2], key(0, pools[2]), version=1, now=0.0).succeeded

    def test_targets_protect_capacity_for_other_vms(self):
        """With targets, a greedy VM cannot crowd out its neighbour."""
        backend, acc, host, pools = build_backend(tmem_pages=4, vms=(1, 2))
        acc.set_target(1, 2)
        acc.set_target(2, 2)
        for i in range(4):
            backend.put(1, pools[1], key(i, pools[1]), version=1, now=0.0)
        assert acc.account(1).tmem_used == 2
        assert backend.put(2, pools[2], key(0, pools[2]), version=1, now=0.0).succeeded

    def test_unregistered_vm_rejected(self):
        backend, acc, host, pools = build_backend()
        with pytest.raises(HypercallError):
            backend.put(99, 0, key(0), version=1, now=0.0)


class TestAccountingInvariants:
    @settings(deadline=None, max_examples=50)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "flush"]),
                st.integers(1, 2),
                st.integers(0, 15),
            ),
            max_size=200,
        ),
        target1=st.one_of(st.none(), st.integers(0, 10)),
        target2=st.one_of(st.none(), st.integers(0, 10)),
    )
    def test_random_operation_sequences_preserve_invariants(
        self, ops, target1, target2
    ):
        """Property: counters and frame pool stay consistent for any op mix."""
        backend, acc, host, pools = build_backend(tmem_pages=8, vms=(1, 2))
        if target1 is not None:
            acc.set_target(1, target1)
        if target2 is not None:
            acc.set_target(2, target2)
        version = 0
        for op, vm, idx in ops:
            version += 1
            k = key(idx, pools[vm])
            if op == "put":
                backend.put(vm, pools[vm], k, version=version, now=float(version))
            elif op == "get":
                backend.get(vm, pools[vm], k)
            else:
                backend.flush_page(vm, pools[vm], k)
            acc.check_invariants()
            host.check_invariants()
            assert 0 <= host.tmem_used_pages <= 8
            for account in acc.accounts():
                assert account.tmem_used >= 0
                if account.has_target and account.mm_target == 0:
                    # A zero target admits nothing beyond already-held pages.
                    assert account.tmem_used <= 8


class TestHypervisorFacade:
    def test_create_and_register_domain(self, engine, config):
        hv = Hypervisor(engine, config, host_memory_pages=2048, tmem_pool_pages=128)
        record = hv.create_domain("vm", ram_pages=256)
        hv.register_tmem_client(record.vm_id)
        assert record.frontswap_pool_id is not None
        assert hv.accounting.vm_count == 1
        hv.check_invariants()

    def test_destroy_domain_releases_ram_and_tmem(self, engine, config):
        hv = Hypervisor(engine, config, host_memory_pages=2048, tmem_pool_pages=128)
        record = hv.create_domain("vm", ram_pages=256)
        hv.register_tmem_client(record.vm_id)
        hv.backend.put(
            record.vm_id, record.frontswap_pool_id, key(0), version=1, now=0.0
        )
        before = hv.host_memory.vm_reserved_pages
        hv.destroy_domain(record.vm_id)
        assert hv.host_memory.vm_reserved_pages == before - 256
        assert hv.host_memory.tmem_used_pages == 0
        hv.check_invariants()

    def test_cannot_create_domains_beyond_host_memory(self, engine, config):
        hv = Hypervisor(engine, config, host_memory_pages=512, tmem_pool_pages=256)
        hv.create_domain("vm1", ram_pages=200)
        with pytest.raises(Exception):
            hv.create_domain("vm2", ram_pages=200)


#: Slots per tmem object in the planned-path tests: small, so that put
#: and get pages share objects and a get can empty an object a put then
#: recreates.  The burst strategies draw it or :data:`GUEST_PPO`.
PPO = 4

#: The guest's slots per object: every drawn page lies in object 0, so
#: the burst takes the planned path's bulk object-0 branch.
GUEST_PPO = 2 ** 20


def page_key(pool_id, page_no, ppo=PPO):
    return PageKey(pool_id, *divmod(page_no, ppo))


@st.composite
def planned_bursts(draw):
    """A preloaded pool, a target and one burst in the planner's shape:
    leading gets, then puts with at most one get after each put."""
    frames = draw(st.integers(1, 12))
    stored = draw(st.integers(0, frames))
    # Frames held by a second VM, so the free frames and the target's
    # headroom vary independently.
    other = draw(st.integers(0, frames - stored))
    # Unset, 0, or anywhere below, at or above the VM's usage.
    target = draw(st.one_of(st.none(), st.integers(0, frames + 2)))
    get_order = draw(st.permutations(range(stored)))
    leading = draw(st.integers(0, stored))
    n_puts = draw(st.integers(0, 10))
    gets_left = stored - leading
    get_after = []
    for _ in range(n_puts):
        flag = gets_left > 0 and draw(st.booleans())
        gets_left -= flag
        get_after.append(flag)
    n_gets = leading + sum(get_after)
    # Put pages follow the stored ones, in any order: fresh keys that
    # may share an object with a get page.
    put_pages = [stored + i for i in draw(st.permutations(range(n_puts)))]
    return {
        "ppo": draw(st.sampled_from([PPO, GUEST_PPO])),
        "frames": frames,
        "stored": stored,
        "other": other,
        "target": target,
        "get_pages": list(get_order[:n_gets]),
        "leading": leading,
        "get_after": get_after,
        "put_pages": put_pages,
    }


def preloaded_backend(burst):
    backend, acc, host, pools = build_backend(
        tmem_pages=burst["frames"], vms=(1, 2)
    )
    ppo = burst["ppo"]
    for page_no in range(burst["stored"]):
        assert backend.put(
            1, pools[1], page_key(pools[1], page_no, ppo),
            version=page_no + 1, now=0.0,
        ).succeeded
    for page_no in range(burst["other"]):
        assert backend.put(
            2, pools[2], page_key(pools[2], page_no, ppo), version=1,
            now=0.0,
        ).succeeded
    if burst["target"] is not None:
        acc.set_target(1, burst["target"])
    return backend, acc, host, pools


def gets_before_puts(burst):
    """Per put, the number of the burst's gets ahead of it."""
    gets_done = burst["leading"]
    counts = []
    for get_after in burst["get_after"]:
        counts.append(gets_done)
        gets_done += get_after
    return counts


def scalar_burst(backend, vm, pool_id, burst, first_version, now):
    """Issue *burst* through the scalar put and get, one op at a time,
    in the planner's order: the leading gets, then each put and the get
    after it.  Returns the closed form's outcome in comparable form:
    per-kind flags (2 remote, 1 local, 0 failed), the get versions and
    the network cost of each remote put and get, read right after it."""
    put_flags, get_flags, versions, put_costs, get_costs = [], [], [], [], []
    gets = iter(burst["get_pages"])
    ppo = burst["ppo"]

    def get():
        result = backend.get(vm, pool_id, page_key(pool_id, next(gets), ppo))
        get_flags.append(2 if result.remote else int(result.succeeded))
        versions.append(result.version)
        if result.remote:
            get_costs.append(backend.remote_extra_latency_s)

    for _ in range(burst["leading"]):
        get()
    for i, (page_no, get_after) in enumerate(
        zip(burst["put_pages"], burst["get_after"])
    ):
        result = backend.put(
            vm, pool_id, page_key(pool_id, page_no, ppo),
            version=first_version + i, now=now,
        )
        put_flags.append(2 if result.remote else int(result.succeeded))
        if result.remote:
            put_costs.append(backend.remote_extra_latency_s)
        if get_after:
            get()
    return put_flags, get_flags, versions, put_costs, get_costs


class TestExecutePlanned:
    """The closed-form planned path against the same ops through the
    scalar entry points, one at a time."""

    @settings(deadline=None)
    @given(burst=planned_bursts())
    # One frame, held by the VM, and a target of 0: the VM is one page
    # over its target, so its get pays the deficit back and the put
    # after it is still refused.
    @example(burst={
        "ppo": PPO, "frames": 1, "stored": 1, "other": 0, "target": 0,
        "get_pages": [0], "leading": 1, "get_after": [False],
        "put_pages": [1],
    })
    def test_closed_form_matches_the_op_walk(self, burst):
        planned_side = preloaded_backend(burst)
        scalar_side = preloaded_backend(burst)
        first_version = 100
        get_pages = burst["get_pages"]
        put_pages = burst["put_pages"]

        backend, acc, host, pools = planned_side
        planned = backend.execute_planned(
            1, pools[1], put_pages, first_version, get_pages,
            gets_before_puts(burst), burst["ppo"], now=1.0,
        )
        assert planned is not None
        put_statuses, get_versions, get_flags, put_costs, get_costs = planned
        # A single host serves every op locally.
        assert (get_flags, put_costs, get_costs) == (None, (), ())

        s_backend, s_acc, s_host, s_pools = scalar_side
        s_put_flags, s_get_flags, s_versions, _, _ = scalar_burst(
            s_backend, 1, s_pools[1], burst, first_version, now=1.0
        )

        n_puts = len(put_pages)
        assert ([1] * n_puts if put_statuses is None else put_statuses) == s_put_flags
        assert s_get_flags == [1] * len(get_pages)
        assert get_versions == s_versions
        assert acc.account(1) == s_acc.account(1)
        assert host.tmem_free_pages == s_host.tmem_free_pages
        assert host.tmem_used_pages == s_host.tmem_used_pages
        pool = backend._store.get_pool(1, pools[1])
        s_pool = s_backend._store.get_pool(1, s_pools[1])
        assert pool.radix() == s_pool.radix()
        assert len(pool) == len(s_pool)
        acc.check_invariants()
        host.check_invariants()

    @pytest.mark.parametrize("ppo", [PPO, GUEST_PPO])
    @pytest.mark.parametrize("stored, get_pages", [
        ((), [99]),
        (((20, 3), (21, 4), (7, 5)), [20, 21, 99]),
        # A hit after the first miss, then a second miss.
        (((20, 3), (21, 4), (7, 5)), [20, 99, 7, 98]),
    ])
    def test_get_miss_leaves_the_pool_as_it_was(self, stored, get_pages,
                                                ppo):
        """A planned get that misses raises naming the first missed
        page, and restores every page the gets popped, on the per-page
        walk and on the bulk object-0 branch: nothing is left in the
        pool uncounted."""
        backend, acc, host, pools = build_backend(tmem_pages=8)
        for page_no, version in stored:
            backend.put(1, pools[1], page_key(pools[1], page_no, ppo),
                        version=version, now=0.0)
        pool = backend._store.get_pool(1, pools[1])
        radix = {obj: dict(pages) for obj, pages in pool.radix().items()}
        account = copy.copy(acc.account(1))
        free = host.tmem_free_pages

        # Page 99 is (object 24, index 3) at 4 pages per object, and
        # (0, 99) at the guest's.
        with pytest.raises(TmemError, match=re.escape(str(divmod(99, ppo)))):
            backend.execute_planned(
                1, pools[1], [10, 11], 1, get_pages, [0, 0], ppo, now=1.0
            )
        assert pool.radix() == radix
        assert len(pool) == len(stored)
        assert acc.account(1) == account
        assert host.tmem_free_pages == free
        assert host.tmem_used_pages == len(stored)
        acc.check_invariants()
        host.check_invariants()

    def test_targets_take_the_closed_form_and_ephemeral_pools_raise(self):
        """A target keeps a single-host burst on the closed form, and a
        planned burst is a frontswap (persistent) burst."""
        backend, acc, host, pools = build_backend(tmem_pages=8)
        acc.set_target(1, 1)
        assert backend.execute_planned(
            1, pools[1], [0, 1], 1, [], [0, 0], PPO, now=0.0
        ) == ([1, 0], [], None, (), ())
        ephemeral = backend._store.create_pool(1, persistent=False)
        with pytest.raises(TmemError, match="persistent pool"):
            backend.execute_planned(
                1, ephemeral.pool_id, [0], 1, [], [0], PPO, now=0.0
            )


@st.composite
def remote_bursts(draw):
    """A small cluster, some of the VM's pages already spilled, and one
    burst in the planner's shape (see :func:`planned_bursts`)."""
    nodes = draw(st.integers(2, 4))
    frames = draw(st.integers(0, 6))
    peer_frames = [draw(st.integers(0, 4)) for _ in range(nodes - 1)]
    # Stored before the burst: the local pool fills first, then peers.
    stored = draw(st.integers(0, frames + sum(peer_frames)))
    # The first *freed* stored pages (all local) are flushed again, so
    # the local pool can have free frames while pages sit on peers.
    freed = draw(st.integers(0, min(stored, frames)))
    target = draw(st.one_of(st.none(), st.integers(0, frames + 2)))
    held = stored - freed
    get_order = draw(st.permutations(range(freed, stored)))
    leading = draw(st.integers(0, held))
    n_puts = draw(st.integers(0, 10))
    gets_left = held - leading
    get_after = []
    for _ in range(n_puts):
        flag = gets_left > 0 and draw(st.booleans())
        gets_left -= flag
        get_after.append(flag)
    n_gets = leading + sum(get_after)
    put_pages = [stored + i for i in draw(st.permutations(range(n_puts)))]
    return {
        "ppo": draw(st.sampled_from([PPO, GUEST_PPO])),
        "frames": frames,
        "peer_frames": peer_frames,
        "stored": stored,
        "freed": freed,
        "target": target,
        # Foreign ephemeral pages node 0 hosts for node 1 (live port
        # only; the epoch port never materializes hosted pages).
        "hosted": draw(st.integers(0, 3)),
        "contended": draw(st.booleans()),
        "port": draw(st.sampled_from(["live", "epoch"])),
        # Epoch window quota per peer for the burst.
        "quota": [draw(st.integers(0, 3)) for _ in range(nodes - 1)],
        "get_pages": list(get_order[:n_gets]),
        "leading": leading,
        "get_after": get_after,
        "put_pages": put_pages,
    }


def remote_cluster(burst):
    """Wired nodes on one engine with node 0's VM preloaded as *burst*
    says; returns the pieces the comparison reads."""
    engine = SimulationEngine()
    config = SimulationConfig(units=SCENARIO_UNITS)
    trace = TraceRecorder()
    domids = itertools.count(1)
    hypervisors = [
        Hypervisor(
            engine, config, host_memory_pages=256, tmem_pool_pages=pages,
            domid_allocator=lambda counter=domids: next(counter),
        )
        for pages in [burst["frames"], *burst["peer_frames"]]
    ]
    channel = InterNodeChannel(
        engine, latency_s=25e-6, bandwidth_bytes_s=1.25e9, page_bytes=4096,
        contended=burst["contended"], trace=trace,
    )
    epoch = None
    if burst["port"] == "epoch":
        epoch = EpochContext(
            latency_s=25e-6, page_transfer_s=4096 / 1.25e9,
            contended=burst["contended"],
        )
    backends = [
        RemoteTmemBackend(f"n{i}", h, channel, trace=trace, port=epoch)
        for i, h in enumerate(hypervisors)
    ]
    for backend in backends:
        backend.connect(
            [peer for peer in backends if peer is not backend],
            spill_client_id=next(domids),
        )
    names = [backend.node_name for backend in backends[1:]]
    if epoch is not None:
        # The preload spills against the peers' frames, as live would.
        epoch.begin_window(dict(zip(names, burst["peer_frames"])), {})
    host = hypervisors[0]
    vm = host.create_domain("vm", ram_pages=64).vm_id
    backends[0].register_home_vm(vm)
    pool = host.register_tmem_client(vm).frontswap_pool_id
    ppo = burst["ppo"]
    for page_no in range(burst["stored"]):
        assert host.backend.put(
            vm, pool, page_key(pool, page_no, ppo), version=page_no + 1,
            now=0.0,
        ).succeeded
    for page_no in range(burst["freed"]):
        assert host.backend.flush_page(
            vm, pool, page_key(pool, page_no, ppo)
        ).succeeded
    if epoch is None and burst["hosted"]:
        # Node 1 spills cleancache pages into node 0's free frames; a
        # put node 0 admits at zero free frames then reclaims them.
        peer = hypervisors[1]
        cc_vm = peer.create_domain("cc", ram_pages=16).vm_id
        peer.register_tmem_client(cc_vm, frontswap=False, cleancache=True)
        backends[1].register_home_vm(cc_vm)
        backends[1].set_peers([backends[0]])
        for index in range(min(burst["hosted"], host.free_tmem_pages)):
            assert backends[1].spill_put(
                cc_vm, 0, index, 1, 0.0, ephemeral=True
            )
        backends[1].set_peers(backends)
    if burst["target"] is not None:
        host.accounting.set_target(vm, burst["target"])
    if epoch is not None:
        busy = {
            f"{src}->{dst}": 2e-5 * (i + 1)
            for i, (src, dst) in enumerate(itertools.permutations(["n0", *names], 2))
        }
        epoch.begin_window(dict(zip(names, burst["quota"])), busy)
    return SimpleNamespace(
        engine=engine, channel=channel, trace=trace, epoch=epoch,
        hypervisors=hypervisors, backends=backends, vm=vm, pool=pool,
    )


def cluster_state(side):
    """Everything a burst may touch, in comparable form."""
    owner = side.backends[0]
    holder = owner.port.holder_name

    def index(spill_index):
        # Lists keep dict order: the index must evolve as the walk's.
        return [
            (vm, [(obj, [(i, holder(leaf)) for i, leaf in slots.items()])
                  for obj, slots in objects.items()])
            for vm, objects in spill_index.items()
        ]

    host = side.hypervisors[0]
    return {
        "account": host.accounting.account(side.vm),
        "free": [h.free_tmem_pages for h in side.hypervisors],
        "radix": host.store.get_pool(side.vm, side.pool).radix(),
        "spill_accounts": [copy.copy(b._spill_account) for b in side.backends],
        "spill_pools": [
            b._hypervisor.store.get_pool(b._spill_client_id, b._spill_pool_id).radix()
            for b in side.backends
        ],
        "index": index(owner._spill_index),
        "ephemeral_pools": [
            b._hypervisor.store.get_pool(
                b._spill_client_id, b._ephemeral_pool_id
            ).radix()
            for b in side.backends
        ],
        "ephemeral_index": [index(b._ephemeral_index) for b in side.backends],
        "hosted": [
            (key, b.node_name) for key, b in owner._hosted_ephemeral.items()
        ],
        "stats": [b.stats for b in side.backends],
        "last_extra_s": owner.last_extra_s,
        "links": {
            name: (link.busy_until, link.transfers, link.queue_wait_s,
                   link.max_queue_depth, link.queue_depth)
            for name, link in side.channel.links().items()
        },
        "moved": (side.channel.pages_moved, side.channel.bytes_moved),
        "trace": {
            name: series for name, series in side.trace.to_dict().items()
            if name.startswith(
                ("remote_spill/", "remote_dropped/", "link_queue/")
            )
        },
        "pending": side.engine.pending_events,
        "epoch": None if side.epoch is None else (
            side.epoch.drain(), side.epoch._consumed, side.epoch._local_busy,
        ),
    }


class TestExecutePlannedRemote:
    """The closed form with remote tmem attached against the same ops
    through the scalar entry points, one at a time."""

    @settings(deadline=None)
    @given(burst=remote_bursts())
    # Every peer is full.  The first put is refused everywhere, the get
    # fetches the VM's one remote page back and frees that peer's only
    # frame, and the second put takes it: the run of refused puts around
    # a remote get is not one bulk refusal.
    @example(burst={
        "ppo": PPO, "frames": 0, "peer_frames": [1], "stored": 1, "freed": 0,
        "hosted": 0, "target": None, "contended": True, "port": "live",
        "quota": [0], "get_pages": [0], "leading": 0,
        "get_after": [True, False], "put_pages": [1, 2],
    })
    # Node 0 hosts two foreign ephemeral pages in its only free frames.
    # The first put reclaims one, the get frees a frame for the second,
    # the third reclaims the other and the fourth spills to the peer.
    @example(burst={
        "ppo": PPO, "frames": 3, "peer_frames": [2], "stored": 3, "freed": 2,
        "hosted": 2, "target": None, "contended": False, "port": "live",
        "quota": [0], "get_pages": [2], "leading": 0,
        "get_after": [True, False, False, False], "put_pages": [3, 4, 5, 6],
    })
    def test_closed_form_matches_the_op_walk(self, burst):
        planned_side = remote_cluster(burst)
        scalar_side = remote_cluster(burst)
        first_version = 100
        get_pages = burst["get_pages"]
        put_pages = burst["put_pages"]

        side = planned_side
        planned = side.hypervisors[0].backend.execute_planned(
            side.vm, side.pool, put_pages, first_version, get_pages,
            gets_before_puts(burst), burst["ppo"], now=1.0,
        )
        assert planned is not None
        put_flags, get_versions, get_flags, put_costs, get_costs = planned

        side = scalar_side
        s_put_flags, s_get_flags, s_versions, s_put_costs, s_get_costs = (
            scalar_burst(
                side.hypervisors[0].backend, side.vm, side.pool, burst,
                first_version, now=1.0,
            )
        )
        assert (put_flags or [1] * len(put_pages)) == s_put_flags
        assert (get_flags or [1] * len(get_pages)) == s_get_flags
        assert get_versions == s_versions
        assert list(put_costs) == s_put_costs
        assert list(get_costs) == s_get_costs
        assert cluster_state(planned_side) == cluster_state(scalar_side)
        for hypervisor in planned_side.hypervisors:
            hypervisor.check_invariants()

    @pytest.mark.parametrize("ppo", [PPO, GUEST_PPO])
    def test_a_get_missing_everywhere_comes_back_failed(self, ppo):
        """A page neither the pool nor a peer holds is a failed get, as
        the scalar get reports it; the guest then raises."""
        burst = {
            "ppo": ppo, "frames": 2, "peer_frames": [2], "stored": 0,
            "freed": 0,
            "hosted": 0, "target": None, "contended": False, "port": "live",
            "quota": [0],
        }
        side = remote_cluster(burst)
        planned = side.hypervisors[0].backend.execute_planned(
            side.vm, side.pool, [], 1, [7], [], ppo, now=1.0
        )
        assert planned == (None, [None], [0], [], [])
        assert side.hypervisors[0].store.get_pool(
            side.vm, side.pool
        ).radix() == {}

    @pytest.mark.parametrize("path", ["scalar", "planned"])
    def test_a_vanished_remote_copy_names_its_holder(self, path):
        """A persistent page its holder dropped behind the owner's back
        is a lost copy: the spill index is out of step with the peer's
        pool, and both the scalar get and a burst fetching the page
        raise instead of reporting a miss."""
        burst = {
            "ppo": PPO, "frames": 0, "peer_frames": [1, 2], "stored": 3,
            "freed": 0,
            "hosted": 0, "target": None, "contended": True, "port": "live",
            "quota": [0, 0],
        }
        side = remote_cluster(burst)
        owner = side.backends[0]
        # Page 0 went to n2 (most free frames), page 1 to n1 (a tie
        # keeps wiring order) and page 2 to n2, which now drops it.
        object_id, index = divmod(2, PPO)
        spill_object = side.vm * 2 ** 32 + object_id
        assert owner._spill_index[side.vm][object_id][index].node_name == "n2"
        assert side.backends[2].drop_spill(spill_object, index)
        message = (
            rf"VM {side.vm} page \({object_id}, {index}\) lives on 'n2' "
            "but the peer does not hold it"
        )
        with pytest.raises(ClusterError, match=message):
            if path == "scalar":
                owner.remote_get(side.vm, object_id, index)
            else:
                # A fetch n1 serves and a put n1 hosts come first.
                side.hypervisors[0].backend.execute_planned(
                    side.vm, side.pool, [9], 100, [1, 2], [1], PPO,
                    now=1.0,
                )
