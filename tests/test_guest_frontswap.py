"""Tests for addressing, frontswap, cleancache and the swap area."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.config import GuestConfig, SimulationConfig
from repro.errors import SwapError, TmemKeyError
from repro.guest.addressing import SwapEntryAddresser
from repro.guest.cleancache import CleancacheClient
from repro.guest.frontswap import FrontswapClient
from repro.guest.kernel import GuestKernel
from repro.guest.swap import SwapArea
from repro.hypervisor.xen import Hypervisor
from repro.sim.engine import SimulationEngine


class TestSwapEntryAddresser:
    def test_key_roundtrip(self):
        addresser = SwapEntryAddresser(pool_id=0, pages_per_object=1024)
        key = addresser.key_for(5000)
        assert key.object_id == 4 and key.index == 904
        assert key.object_id * addresser.pages_per_object + key.index == 5000

    def test_different_pages_different_keys(self):
        addresser = SwapEntryAddresser(pool_id=0)
        assert addresser.key_for(1) != addresser.key_for(2)

    def test_negative_page_rejected(self):
        with pytest.raises(TmemKeyError):
            SwapEntryAddresser(pool_id=0).key_for(-1)

    def test_object_of_groups_pages(self):
        addresser = SwapEntryAddresser(pool_id=0, pages_per_object=100)
        assert addresser.object_of(50) == 0
        assert addresser.object_of(150) == 1

    @given(page=st.integers(min_value=0, max_value=2**40))
    def test_roundtrip_property(self, page):
        addresser = SwapEntryAddresser(pool_id=0)
        key = addresser.key_for(page)
        assert key.object_id * addresser.pages_per_object + key.index == page


class TestSwapArea:
    def test_store_and_load(self):
        swap = SwapArea(10)
        swap.store(4)
        assert 4 in swap and swap.used_pages == 1
        swap.load(4)
        assert 4 not in swap and swap.used_pages == 0
        assert swap.stats.swap_outs == 1 and swap.stats.swap_ins == 1

    def test_store_same_page_twice_is_a_rewrite(self):
        swap = SwapArea(10)
        swap.store(4)
        swap.store(4)
        assert swap.used_pages == 1

    def test_capacity_enforced(self):
        swap = SwapArea(2)
        swap.store(1)
        swap.store(2)
        with pytest.raises(SwapError):
            swap.store(3)

    def test_load_missing_page_rejected(self):
        with pytest.raises(SwapError):
            SwapArea(4).load(9)

    def test_discard_is_idempotent(self):
        swap = SwapArea(4)
        swap.store(1)
        assert swap.discard(1) is True
        assert swap.discard(1) is False

    def test_peak_usage_tracked(self):
        swap = SwapArea(10)
        for p in range(5):
            swap.store(p)
        for p in range(5):
            swap.load(p)
        assert swap.stats.peak_used_pages == 5

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(SwapError):
            SwapArea(0)


def build_clients(engine, config, tmem_pages=16, cleancache=False):
    hv = Hypervisor(engine, config, host_memory_pages=2048, tmem_pool_pages=tmem_pages)
    record = hv.create_domain("vm", ram_pages=128)
    hv.register_tmem_client(record.vm_id, frontswap=True, cleancache=cleancache)
    fs = FrontswapClient(record.vm_id, record.frontswap_pool_id, hv.hypercalls)
    cc = None
    if cleancache:
        cc = CleancacheClient(record.vm_id, record.cleancache_pool_id, hv.hypercalls)
    return hv, record, fs, cc


class TestFrontswapClient:
    def test_store_then_load_roundtrip(self, engine, config):
        hv, record, fs, _ = build_clients(engine, config)
        stored, latency = fs.store(42, now=0.0)
        assert stored and latency > 0
        assert fs.holds(42) and fs.pages_in_tmem == 1
        hit, _ = fs.load(42)
        assert hit
        assert not fs.holds(42)
        assert fs.stats.succ_stores == 1 and fs.stats.loads == 1

    def test_store_fails_when_pool_full(self, engine, config):
        hv, record, fs, _ = build_clients(engine, config, tmem_pages=2)
        assert fs.store(1, now=0.0)[0]
        assert fs.store(2, now=0.0)[0]
        stored, _ = fs.store(3, now=0.0)
        assert not stored
        assert fs.stats.failed_stores == 1
        assert not fs.holds(3)

    def test_load_of_unknown_page_is_a_miss(self, engine, config):
        hv, record, fs, _ = build_clients(engine, config)
        hit, _ = fs.load(7)
        assert not hit
        assert fs.stats.failed_loads == 1

    def test_invalidate_releases_capacity(self, engine, config):
        hv, record, fs, _ = build_clients(engine, config, tmem_pages=1)
        fs.store(1, now=0.0)
        ok, _ = fs.invalidate(1)
        assert ok
        assert fs.store(2, now=0.0)[0]

    def test_invalidate_unknown_page_is_noop(self, engine, config):
        hv, record, fs, _ = build_clients(engine, config)
        ok, latency = fs.invalidate(9)
        assert not ok and latency == 0.0

    def test_invalidate_area_flushes_everything(self, engine, config):
        hv, record, fs, _ = build_clients(engine, config, tmem_pages=8)
        for p in range(5):
            fs.store(p, now=0.0)
        flushed, latency = fs.invalidate_area()
        assert flushed == 5 and latency > 0
        assert fs.pages_in_tmem == 0
        assert hv.host_memory.tmem_used_pages == 0

    def test_a_planned_burst_shares_each_version_int_with_the_pool(self, engine, config):
        """The held map and the pool hold the very same version objects,
        so a stored page costs one int, not two; the version audit of a
        planned get is unchanged.  300 puts take versions past the
        interpreter's cached small ints."""
        hv, record, fs, _ = build_clients(engine, config, tmem_pages=512)
        pages = list(range(300))
        fs.execute_planned(pages, [], [0] * len(pages), now=0.0)
        bucket = hv.store.get_pool(record.vm_id, record.frontswap_pool_id).radix()[0]
        assert all(fs._stored[page] is bucket[page] for page in pages)
        fs.execute_planned([], pages[-3:], [], now=1.0)
        assert fs.stats.loads == 3 and fs.pages_in_tmem == 297

    def test_version_consistency_detects_store_order(self, engine, config):
        """A get must return the data of the most recent put."""
        hv, record, fs, _ = build_clients(engine, config)
        fs.store(3, now=0.0)
        fs.load(3)
        fs.store(3, now=1.0)
        hit, _ = fs.load(3)
        assert hit  # no GuestError: version matched the latest store


class TestCleancacheClient:
    def test_put_and_get_hit(self, engine, config):
        hv, record, fs, cc = build_clients(engine, config, cleancache=True)
        ok, _ = cc.put_page(10, now=0.0)
        assert ok
        hit, _ = cc.get_page(10)
        assert hit
        # Cleancache gets are not exclusive: a second lookup still hits.
        hit2, _ = cc.get_page(10)
        assert hit2
        assert cc.stats.hit_ratio == 1.0

    def test_miss_is_not_an_error(self, engine, config):
        hv, record, fs, cc = build_clients(engine, config, cleancache=True)
        hit, _ = cc.get_page(99)
        assert not hit
        assert cc.stats.misses == 1

    def test_invalidate_page(self, engine, config):
        hv, record, fs, cc = build_clients(engine, config, cleancache=True)
        cc.put_page(5, now=0.0)
        cc.invalidate_page(5)
        hit, _ = cc.get_page(5)
        assert not hit

    def test_invalidate_inode_flushes_group(self, engine, config):
        hv, record, fs, cc = build_clients(engine, config, cleancache=True, tmem_pages=32)
        for p in range(4):
            cc.put_page(p, now=0.0)
        flushed, _ = cc.invalidate_inode(0)
        assert flushed == 4

    def test_frontswap_and_cleancache_share_the_pool(self, engine, config):
        hv, record, fs, cc = build_clients(engine, config, cleancache=True, tmem_pages=2)
        assert fs.store(0, now=0.0)[0]
        assert cc.put_page(0, now=0.0)[0]
        # Pool is now full for both clients.
        assert not fs.store(1, now=0.0)[0]
        assert not cc.put_page(1, now=0.0)[0]


class TestFreeFilePages:
    """Freeing clean file pages (``GuestKernel._free_file``): the page
    cache drops them and every cleancache copy is invalidated."""

    def _run(self, access_engine):
        config = SimulationConfig(guest=GuestConfig(access_engine=access_engine))
        hv, record, fs, cc = build_clients(
            SimulationEngine(), config, tmem_pages=64, cleancache=True
        )
        kernel = GuestKernel(
            record.vm_id, ram_pages=24, swap_pages=256, config=config,
            disk=hv.swap_disk, frontswap=fs, cleancache=cc,
        )
        kernel.access(range(100, 104), now=0.0)  # anonymous pages
        # 40 clean file reads through a smaller page cache: the oldest
        # file pages are evicted into cleancache.
        kernel.access(range(40), now=0.0, write=False)
        evicted = [p for p in range(40) if p not in kernel._file_resident]
        cached = [p for p in range(40) if p in kernel._file_resident]
        assert evicted and cached
        pool = hv.store.get_pool(record.vm_id, record.cleancache_pool_id)
        assert len(pool) == len(evicted)
        freed = evicted[:5] + cached[:5] + [100, 101]
        latency = kernel.free(freed, now=1.0)
        return SimpleNamespace(
            kernel=kernel, cc=cc, pool=pool, evicted=evicted, freed=freed,
            latency=latency,
        )

    def test_free_drops_cached_copies(self):
        run = self._run("batched")
        kernel = run.kernel
        file_freed = run.freed[:10]
        assert not any(p in kernel._file_resident for p in file_freed)
        assert kernel._file_pages.isdisjoint(file_freed)
        # One invalidation per freed file page; the five evicted ones
        # leave the ephemeral pool.
        assert run.cc.stats.invalidates == len(file_freed)
        assert len(run.pool) == len(run.evicted) - 5
        assert not any(run.cc.get_page(p)[0] for p in run.evicted[:5])
        assert kernel.stats.freed_pages == len(run.freed)
        assert run.latency > 0.0

    def test_scalar_and_batched_engines_agree(self):
        scalar = self._run("scalar")
        batched = self._run("batched")
        assert scalar.kernel.stats == batched.kernel.stats
        assert scalar.cc.stats == batched.cc.stats
        assert scalar.pool.radix() == batched.pool.radix()
        assert scalar.latency == batched.latency
