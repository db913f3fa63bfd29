"""Tests for tmem page keys and the key--value store."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TmemKeyError, TmemPoolError
from repro.hypervisor.pages import PageKey
from repro.hypervisor.tmem_store import TmemStore


class TestPageKey:
    def test_valid_key(self):
        key = PageKey(0, 5, 10)
        assert key.object_id == 5 and key.index == 10

    def test_negative_pool_rejected(self):
        with pytest.raises(TmemKeyError):
            PageKey(-1, 0, 0)

    def test_object_id_over_64_bits_rejected(self):
        with pytest.raises(TmemKeyError):
            PageKey(0, 2**64, 0)

    def test_index_over_32_bits_rejected(self):
        with pytest.raises(TmemKeyError):
            PageKey(0, 0, 2**32)

    def test_keys_are_hashable_and_comparable(self):
        assert PageKey(0, 1, 2) == PageKey(0, 1, 2)
        assert len({PageKey(0, 1, 2), PageKey(0, 1, 2), PageKey(0, 1, 3)}) == 2


class TestTmemPool:
    def test_insert_lookup_remove(self):
        store = TmemStore()
        pool = store.create_pool(vm_id=1)
        key = PageKey(pool.pool_id, 3, 7)
        pool.insert(key, 5)
        assert key in pool
        assert pool.lookup(key) == 5
        assert pool.remove(key) == 5
        assert pool.lookup(key) is None
        assert key not in pool
        assert len(pool) == 0

    def test_insert_replaces_the_version_in_place(self):
        store = TmemStore()
        pool = store.create_pool(vm_id=1)
        key = PageKey(pool.pool_id, 0, 4)
        pool.insert(key, 1)
        pool.insert(key, 2)
        assert len(pool) == 1
        assert pool.lookup(key) == 2

    def test_version_zero_is_a_stored_page(self):
        """A stored version may be 0: lookups return it, not a miss."""
        store = TmemStore()
        pool = store.create_pool(vm_id=1)
        key = PageKey(pool.pool_id, 2, 0)
        pool.insert(key, 0)
        assert pool.lookup(key) == 0
        assert pool.remove(key) == 0
        assert len(pool) == 0
        assert pool.radix() == {}

    def test_remove_missing_returns_none(self):
        store = TmemStore()
        pool = store.create_pool(vm_id=1)
        assert pool.remove(PageKey(pool.pool_id, 0, 0)) is None

    def test_remove_object_drops_all_its_pages(self):
        store = TmemStore()
        pool = store.create_pool(vm_id=1)
        for idx in range(5):
            pool.insert(PageKey(pool.pool_id, 9, idx), 1)
        pool.insert(PageKey(pool.pool_id, 2, 0), 1)
        assert pool.remove_object(9) == 5
        assert len(pool) == 1

    def test_clear(self):
        store = TmemStore()
        pool = store.create_pool(vm_id=1)
        for idx in range(3):
            pool.insert(PageKey(pool.pool_id, 0, idx), 1)
        assert pool.clear() == 3
        assert len(pool) == 0


class TestTmemStore:
    def test_pool_ids_increase_per_vm(self):
        store = TmemStore()
        p0 = store.create_pool(vm_id=1)
        p1 = store.create_pool(vm_id=1)
        q0 = store.create_pool(vm_id=2)
        assert (p0.pool_id, p1.pool_id) == (0, 1)
        assert q0.pool_id == 0

    def test_get_pool_unknown_raises(self):
        store = TmemStore()
        with pytest.raises(TmemPoolError):
            store.get_pool(1, 0)

    def test_destroy_vm_pools(self):
        store = TmemStore()
        a = store.create_pool(vm_id=1)
        b = store.create_pool(vm_id=1, persistent=False)
        c = store.create_pool(vm_id=2)
        a.insert(PageKey(a.pool_id, 0, 0), 1)
        b.insert(PageKey(b.pool_id, 0, 1), 1)
        c.insert(PageKey(c.pool_id, 0, 2), 1)
        assert store.destroy_vm_pools(1) == 2
        assert store.pages_held_by(1) == 0
        assert store.pages_held_by(2) == 1

    def test_counting_helpers(self):
        store = TmemStore()
        pool = store.create_pool(vm_id=3)
        for idx in range(4):
            pool.insert(PageKey(pool.pool_id, 0, idx), 1)
        assert store.pages_held_by(3) == 4
        assert store.total_pages() == 4
        assert store.pool_count() == 1

    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 50)), max_size=100
        )
    )
    def test_insert_is_idempotent_per_key(self, keys):
        """Inserting the same key twice keeps exactly one entry per key."""
        store = TmemStore()
        pool = store.create_pool(vm_id=1)
        for object_id, index in keys:
            pool.insert(PageKey(pool.pool_id, object_id, index), 1)
        assert len(pool) == len(set(keys))

    def test_per_vm_index_survives_pool_destruction(self):
        store = TmemStore()
        a = store.create_pool(1)
        b = store.create_pool(1)
        store.create_pool(2)
        assert [p.pool_id for p in store.pools_of(1)] == [a.pool_id, b.pool_id]
        assert store.destroy_vm_pools(1) == 0
        assert list(store.pools_of(1)) == []
        with pytest.raises(TmemPoolError):
            store.get_pool(1, a.pool_id)
        assert store.pool_count() == 1
        assert [p.owner_vm for p in store.pools_of(2)] == [2]
