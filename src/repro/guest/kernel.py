"""Guest kernel memory-management model.

:class:`GuestKernel` tracks the resident set of a VM's anonymous pages and
services the page-access bursts produced by workloads:

* An access to a resident page is a cheap hit (``resident_access_latency``).
* An access to a non-resident page is a major fault.  The fault is served,
  in order of preference, from tmem via frontswap (a get hypercall), from
  the guest swap area on the virtual disk, or by zero-filling a page that
  was never evicted (first touch).
* When the resident set would exceed the usable RAM, the page-frame
  reclaim algorithm selects victims.  Each victim is offered to tmem via a
  frontswap put; if the put fails the page is written to the swap disk.

The kernel returns the total latency of every burst so the VM driver can
advance its virtual time; the latency breakdown and the fault counters are
kept in :class:`GuestMemStats` for analysis.  This is exactly the coupling
through which the SmarTmem policies affect application running time: a
policy that lets a VM keep more pages in tmem converts multi-millisecond
disk faults into microsecond hypercalls.

Two burst-servicing engines are provided, selected by
``SimulationConfig.guest.access_engine``:

* ``"scalar"`` — the page-at-a-time reference implementation;
* ``"batched"`` (default) — classifies the burst at once: fully resident
  bursts take a vectorized hit path (one batch touch, one counter
  update), and bursts with misses are *planned* (victim selection,
  tmem/swap/first-touch classification) with cheap guest-local set
  algebra or, where that cannot be proven safe, page by page.  Either
  planner ships the tmem traffic through closed-form planned tmem
  hypercalls and hands the same inputs to one latency replay pass,
  which reproduces the scalar accumulation order bit for bit.

Both engines produce identical statistics, traces and scenario results
for the same seed; ``tests/test_access_equivalence.py`` enforces this.

Burst semantics note: a burst's resident-access cost is charged once for
the whole burst (``pages_accessed * resident_access_latency_s``) rather
than accumulated page by page as earlier revisions did.  This is the
batch-friendly canonical definition both engines implement; it shifts
disk submit timestamps by nanoseconds relative to pre-batching revisions
(different float accumulation order), so seeded results are comparable
*between the two engines*, not with outputs recorded before this change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, List, Sequence, Optional

import numpy as np

from ..config import SimulationConfig
from ..devices.disk import VirtualDisk
from ..errors import ConfigurationError, SwapError
from .cleancache import CleancacheClient
from .frontswap import FrontswapClient
from .pfra import make_reclaimer
from .swap import SwapArea

__all__ = [
    "AccessOutcome",
    "GuestMemStats",
    "GuestKernel",
]

@dataclass
class AccessOutcome:
    """Result of servicing one page-access burst."""

    latency_s: float = 0.0
    pages_accessed: int = 0
    minor_hits: int = 0
    major_faults: int = 0
    faults_from_tmem: int = 0
    faults_from_disk: int = 0
    first_touches: int = 0
    evictions: int = 0
    evictions_to_tmem: int = 0
    evictions_to_disk: int = 0
    failed_tmem_puts: int = 0


@dataclass
class GuestMemStats:
    """Cumulative memory-management statistics for one VM."""

    accesses: int = 0
    minor_hits: int = 0
    major_faults: int = 0
    faults_from_tmem: int = 0
    faults_from_disk: int = 0
    first_touches: int = 0
    evictions: int = 0
    evictions_to_tmem: int = 0
    evictions_to_disk: int = 0
    failed_tmem_puts: int = 0
    time_in_tmem_ops_s: float = 0.0
    time_in_disk_io_s: float = 0.0
    time_in_resident_access_s: float = 0.0
    freed_pages: int = 0

    def absorb(self, outcome: AccessOutcome) -> None:
        self.accesses += outcome.pages_accessed
        self.minor_hits += outcome.minor_hits
        self.major_faults += outcome.major_faults
        self.faults_from_tmem += outcome.faults_from_tmem
        self.faults_from_disk += outcome.faults_from_disk
        self.first_touches += outcome.first_touches
        self.evictions += outcome.evictions
        self.evictions_to_tmem += outcome.evictions_to_tmem
        self.evictions_to_disk += outcome.evictions_to_disk
        self.failed_tmem_puts += outcome.failed_tmem_puts

    @property
    def fault_ratio(self) -> float:
        return self.major_faults / self.accesses if self.accesses else 0.0


class GuestKernel:
    """Memory management of one guest operating system."""

    def __init__(
        self,
        vm_id: int,
        *,
        ram_pages: int,
        swap_pages: int,
        config: SimulationConfig,
        disk: VirtualDisk,
        frontswap: Optional[FrontswapClient] = None,
        cleancache: Optional[CleancacheClient] = None,
    ) -> None:
        if ram_pages <= 0:
            raise ConfigurationError(f"ram_pages must be > 0, got {ram_pages}")
        self.vm_id = vm_id
        self._config = config
        self._disk = disk
        self._frontswap = frontswap
        self._cleancache = cleancache
        self._usable_ram = config.guest.usable_ram_pages(ram_pages)
        self._ram_pages = ram_pages
        self._resident = make_reclaimer(config.guest.reclaim_algorithm)
        self._swap = SwapArea(swap_pages)
        # File (page-cache) state: only populated on clean-read bursts of
        # cleancache-enabled VMs; empty otherwise.
        self._file_resident = make_reclaimer(config.guest.reclaim_algorithm)
        self._file_pages: set[int] = set()
        self._batched = config.guest.access_engine != "scalar"
        self.stats = GuestMemStats()

    # -- introspection ---------------------------------------------------------
    @property
    def ram_pages(self) -> int:
        return self._ram_pages

    @property
    def usable_ram_pages(self) -> int:
        """RAM available to workload pages after the kernel's own share."""
        return self._usable_ram

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def swap(self) -> SwapArea:
        return self._swap

    @property
    def frontswap(self) -> Optional[FrontswapClient]:
        return self._frontswap

    @property
    def cleancache(self) -> Optional[CleancacheClient]:
        return self._cleancache

    @property
    def tmem_pages(self) -> int:
        return self._frontswap.pages_in_tmem if self._frontswap else 0

    def is_resident(self, page: int) -> bool:
        return page in self._resident

    def rebind_disk(self, disk: VirtualDisk) -> None:
        """Point guest swap I/O at another node's virtual disk (migration)."""
        self._disk = disk

    def recover_lost_tmem_pages(
        self, pages: Sequence[int], *, now: float
    ) -> int:
        """Re-materialise frontswap pages whose tmem copy was lost.

        A node failure destroys tmem contents (local pages of the dying
        node's VMs, and remote-spilled pages it hosted for peers).  The
        affected pages are dirty anonymous pages, so they must survive:
        the recovery path writes them to the guest's swap area — the
        "refault from disk" fallback — as one background disk write that
        occupies the (shared-storage) disk queue but is not charged to
        any in-flight burst.  Returns the number of pages recovered.
        """
        fs = self._frontswap
        if fs is None:
            return 0
        recovered = 0
        for page in pages:
            if fs.forget(page) is None:
                # Not tracked (already faulted back or freed meanwhile).
                continue
            self._swap.store(page)
            recovered += 1
        if recovered:
            self._disk.write(now, recovered, vm_id=self.vm_id)
        return recovered

    def memory_footprint_pages(self) -> int:
        """Pages the workload has touched and not freed (any location).

        Every such page has exactly one home — guest RAM, the swap area
        or tmem (frontswap's held map) — so the footprint is the sum of
        the three sizes.
        """
        return len(self._resident) + self._swap.used_pages + self.tmem_pages

    # -- burst validation --------------------------------------------------------
    @staticmethod
    def _as_page_list(pages: Sequence[int] | Iterable[int]) -> List[int]:
        """Materialize a burst as a list of ints, rejecting negatives."""
        if isinstance(pages, np.ndarray):
            if len(pages) and int(pages.min()) < 0:
                raise ConfigurationError(
                    f"negative page number {int(pages.min())}"
                )
            return pages.tolist()
        page_list = [int(p) for p in pages]
        if page_list:
            smallest = min(page_list)
            if smallest < 0:
                raise ConfigurationError(f"negative page number {smallest}")
        return page_list

    # -- the reclaim path --------------------------------------------------------
    def _evict_one(self, now: float, outcome: AccessOutcome) -> None:
        """Evict one victim page: try tmem first, then the swap disk."""
        victim = self._resident.select_victim()
        outcome.evictions += 1
        # Anonymous pages being reclaimed are treated as dirty: they must be
        # preserved somewhere (this is the frontswap path of the paper).
        if self._frontswap is not None:
            stored, latency = self._frontswap.store(victim, now=now)
            outcome.latency_s += latency
            self.stats.time_in_tmem_ops_s += latency
            if stored:
                outcome.evictions_to_tmem += 1
                return
            outcome.failed_tmem_puts += 1
        # Tmem refused the page (no capacity or over target): swap to disk.
        # The request is issued after the latency already accumulated in
        # this burst — the guest has one swap I/O outstanding at a time.
        disk_latency = self._disk.write(
            now + outcome.latency_s, 1, vm_id=self.vm_id
        )
        self._swap.store(victim)
        outcome.latency_s += disk_latency
        self.stats.time_in_disk_io_s += disk_latency
        outcome.evictions_to_disk += 1

    def _make_room(self, now: float, outcome: AccessOutcome) -> None:
        while len(self._resident) >= self._usable_ram:
            self._evict_one(now, outcome)

    # -- fault handling -----------------------------------------------------------
    def _fault_in(self, page: int, now: float, outcome: AccessOutcome) -> None:
        """Bring a non-resident page into RAM."""
        outcome.major_faults += 1
        outcome.latency_s += self._config.guest.fault_overhead_s

        if self._frontswap is not None and self._frontswap.holds(page):
            hit, latency = self._frontswap.load(page)
            outcome.latency_s += latency
            self.stats.time_in_tmem_ops_s += latency
            if hit:
                outcome.faults_from_tmem += 1
                return
        if page in self._swap:
            disk_latency = self._disk.read(
                now + outcome.latency_s, 1, vm_id=self.vm_id
            )
            self._swap.load(page)
            outcome.latency_s += disk_latency
            self.stats.time_in_disk_io_s += disk_latency
            outcome.faults_from_disk += 1
            return
        # Never evicted before: first touch, zero-fill, no I/O.
        outcome.first_touches += 1

    # -- public API -----------------------------------------------------------------
    def access(
        self,
        pages: Sequence[int] | Iterable[int],
        *,
        now: float,
        write: bool = True,
    ) -> AccessOutcome:
        """Service a burst of page accesses issued at simulated time *now*.

        ``write=True`` bursts model anonymous memory (dirty when evicted,
        preserved through frontswap or swap), which matches the paper's
        frontswap-only evaluation.  ``write=False`` bursts on a VM with
        cleancache enabled are clean file reads and take the page-cache
        path of :meth:`_access_file` instead; without cleancache they are
        treated as anonymous accesses, as earlier revisions did.

        The burst is atomic: it is validated up front, the resident-access
        cost is charged once for the whole burst, and eviction/fault I/O is
        sequenced in page order.  Which engine services it is decided by
        ``config.guest.access_engine``; both produce identical outcomes.
        """
        page_list = self._as_page_list(pages)
        if not write and self._cleancache is not None:
            return self._access_file(page_list, now)
        if self._batched:
            return self._access_batched(page_list, now)
        return self._access_scalar(page_list, now)

    # -- the file (page-cache) path ----------------------------------------------
    def _drop_file_page(self, now: float, outcome: AccessOutcome) -> None:
        """Drop the coldest clean file page, offering it to cleancache.

        Clean pages need no write-back: if cleancache declines the page
        (or is absent) the page is simply discarded — losing it is always
        legal, which is exactly why the ephemeral pools may be reclaimed
        by the hypervisor at any time.
        """
        victim = self._file_resident.select_victim()
        outcome.evictions += 1
        cc = self._cleancache
        if cc is not None:
            stored, latency = cc.put_page(victim, now=now)
            outcome.latency_s += latency
            self.stats.time_in_tmem_ops_s += latency
            if stored:
                outcome.evictions_to_tmem += 1
                return
            outcome.failed_tmem_puts += 1

    def _file_cache_budget(self) -> int:
        """Frames the page cache may occupy: whatever anon memory left over.

        Mirrors Linux's reclaim preference — clean page cache yields
        before anonymous memory is swapped — lazily: anon growth shrinks
        the file cache at the start of the next file burst.  The cache
        always keeps at least one frame so a scan can stream through it.
        """
        return max(1, self._usable_ram - len(self._resident))

    def _access_file(self, page_list: List[int], now: float) -> AccessOutcome:
        """Service a clean file-read burst through the guest page cache.

        A miss consults cleancache (the ephemeral tmem pool) before the
        disk, exactly as the kernel's page-cache read path does.  This is
        a single implementation shared by every access engine — file
        bursts have no engine-dependent plan/replay split — so scalar
        and batched runs of a cleancache scenario are identical by
        construction.
        """
        outcome = AccessOutcome()
        outcome.pages_accessed = len(page_list)
        cc = self._cleancache
        file_resident = self._file_resident
        budget = self._file_cache_budget()
        while len(file_resident) > budget:
            self._drop_file_page(now, outcome)
        for page in page_list:
            if page in file_resident:
                file_resident.touch(page)
                outcome.minor_hits += 1
                continue
            if page in self._resident:
                # Also live as a dirty anonymous page: a clean read of it
                # is an ordinary resident hit.
                self._resident.touch(page)
                outcome.minor_hits += 1
                continue
            while len(file_resident) >= budget:
                self._drop_file_page(now, outcome)
            outcome.major_faults += 1
            outcome.latency_s += self._config.guest.fault_overhead_s
            hit = False
            if cc is not None:
                hit, latency = cc.get_page(page)
                outcome.latency_s += latency
                self.stats.time_in_tmem_ops_s += latency
            if hit:
                outcome.faults_from_tmem += 1
            else:
                disk_latency = self._disk.read(
                    now + outcome.latency_s, 1, vm_id=self.vm_id
                )
                outcome.latency_s += disk_latency
                self.stats.time_in_disk_io_s += disk_latency
                outcome.faults_from_disk += 1
            file_resident.insert(page)
            self._file_pages.add(page)
        self._charge_resident_accesses(outcome)
        self.stats.absorb(outcome)
        return outcome

    # -- scalar reference engine --------------------------------------------------
    def _access_scalar(self, page_list: List[int], now: float) -> AccessOutcome:
        """Page-at-a-time reference implementation of :meth:`access`."""
        outcome = AccessOutcome()
        for page in page_list:
            outcome.pages_accessed += 1
            if page in self._resident:
                self._resident.touch(page)
                outcome.minor_hits += 1
                continue
            # Major fault: free a frame if needed, then fault the page in.
            self._make_room(now, outcome)
            self._fault_in(page, now, outcome)
            self._resident.insert(page)
        self._charge_resident_accesses(outcome)
        self.stats.absorb(outcome)
        return outcome

    def _charge_resident_accesses(self, outcome: AccessOutcome) -> None:
        """Charge the per-page access cost for the whole burst at once."""
        access_time = (
            outcome.pages_accessed * self._config.guest.resident_access_latency_s
        )
        outcome.latency_s += access_time
        self.stats.time_in_resident_access_s += access_time

    # -- batched engine -----------------------------------------------------------
    def _access_batched(self, page_list: List[int], now: float) -> AccessOutcome:
        """Burst-at-once implementation of :meth:`access`.

        Fully resident bursts are handled with one batch membership check
        and one batch touch.  Otherwise the burst is *planned*: a
        guest-local pass classifies every access (hit, eviction target,
        fault source) using the reclaimer's batch victim selection and the
        frontswap/swap membership sets.  Its tmem traffic ships through
        closed-form planned hypercalls: one for the whole burst
        (:meth:`_vector_plan_misses`) or, from the sequential planner,
        one per segment (:meth:`_plan_and_replay_misses`).  Both planners
        hand :meth:`_replay_burst` the same inputs, and that one replay
        accumulates latencies and issues disk I/O in exactly the order
        the scalar engine would have — making the two engines
        bit-identical.
        """
        outcome = AccessOutcome()
        n = len(page_list)
        outcome.pages_accessed = n
        resident = self._resident

        if resident.contains_all(page_list):
            # Vectorized hit path: the whole burst is resident.
            resident.touch_many(page_list)
            outcome.minor_hits = n
            self._charge_resident_accesses(outcome)
            self.stats.absorb(outcome)
            return outcome

        if not self._vector_plan_misses(page_list, now, outcome):
            self._plan_and_replay_misses(page_list, now, outcome)
        self._charge_resident_accesses(outcome)
        self.stats.absorb(outcome)
        return outcome

    def _vector_plan_misses(
        self, page_list: List[int], now: float, outcome: AccessOutcome
    ) -> bool:
        """Whole-burst set-algebra plan for the dominant sweep shapes.

        Applies when the reclaimer's victim choice is insert-order
        independent (strict LRU) and the burst's victims are provably
        disjoint from the burst itself.  Then the whole burst classifies
        up front — resident hits, tmem hits, swap faults, first touches —
        victims for every eviction are selected in one batch, recency
        updates collapse into one bulk promote, and the tmem traffic
        ships in one closed-form planned hypercall, whose flags and
        remote costs :meth:`_replay_burst` reads.  Returns False when a
        precondition fails and the sequential planner must run instead.

        Bursts made of *distinct* pages classify with C-speed membership
        maps.  Bursts with duplicate occurrences (the zipf-shaped
        workloads re-touch hot pages within one burst) take one Python
        classification pass instead: only the *first* occurrence of a
        non-resident page is a major fault — every re-occurrence is a
        minor hit of the freshly faulted page — so the miss sequence is
        the first-occurrence subsequence and the eviction interleaving
        is identical to the distinct case over that subsequence.

        Why up-front victim selection is exact here: victims pop from the
        LRU cold end while burst pages only ever move to the hot end, so
        as long as none of the k coldest pages is part of the burst, the
        k victims a page-at-a-time walk would pick are exactly the k
        coldest pages at burst start, in cold order.
        """
        resident = self._resident
        if not resident.batch_victims_stable:
            return False
        n = len(page_list)
        size = len(resident)
        # dict.fromkeys is the C-speed dedup that also preserves first-
        # occurrence order — exactly the order misses must fault in.
        distinct_map = dict.fromkeys(page_list)
        contains = resident.members().__contains__
        hit_mask: Optional[List[bool]] = None
        hit_distinct: Optional[List[int]] = None
        if len(distinct_map) == n:
            # Distinct pages: C-speed membership map.
            hit_mask = list(map(contains, page_list))
            n_hits = sum(hit_mask)
            if n_hits:
                misses = [p for p, hit in zip(page_list, hit_mask) if not hit]
            else:
                misses = page_list
            resident_in_burst = n_hits
            burst_resident = distinct_map.keys()
        else:
            # Duplicate occurrences: classify first occurrences only —
            # every re-occurrence is a minor hit whichever way the first
            # occurrence resolved (resident, or faulted in by the burst).
            distinct = list(distinct_map)
            mask = list(map(contains, distinct))
            resident_in_burst = sum(mask)
            if resident_in_burst:
                misses = [p for p, hit in zip(distinct, mask) if not hit]
                hit_distinct = [p for p, hit in zip(distinct, mask) if hit]
            else:
                misses = distinct
                hit_distinct = []
            n_hits = n - len(misses)
            burst_resident = None  # built only if the peek check runs
        n_miss = len(misses)
        free_slots = self._usable_ram - size
        victims_needed = n_miss - free_slots if n_miss > free_slots else 0
        if victims_needed > size - resident_in_burst:
            # Victims would dip into this burst's own pages: the plan
            # would no longer be insert-order independent.
            return False
        if victims_needed and resident_in_burst:
            upcoming = resident.peek_victims(victims_needed)
            if upcoming is None:
                return False
            if burst_resident is None:
                burst_resident = set(hit_distinct)
            if not burst_resident.isdisjoint(upcoming):
                # A burst page is among the k coldest: whether it escapes
                # eviction depends on intra-burst access order, which only
                # the sequential planner tracks.
                return False

        fs = self._frontswap
        in_swap = list(map(self._swap.slots.__contains__, misses))
        victims = resident.select_victims(victims_needed)
        # Without frontswap there is no tmem traffic, and every victim
        # goes straight to disk.
        put_flags = get_flags = None
        put_costs: Sequence[float] = ()
        get_costs: Sequence[float] = ()
        if fs is None:
            in_tmem = [False] * n_miss
        else:
            in_tmem = list(map(fs.held_pages.__contains__, misses))
            get_pages = [p for p, held in zip(misses, in_tmem) if held]
            if victims_needed or get_pages:
                # Closed-form planned path: the burst's put/get
                # interleaving is known up front (puts are consecutive
                # from miss index ``free_slots`` on, with at most one
                # exclusive get between consecutive puts), so the
                # hypervisor resolves the whole admission sequence in
                # closed form instead of an op walk, targets and peer
                # nodes included.
                if victims_needed:
                    # Exclusive prefix counts of gets, sliced to the put
                    # positions (miss index ``free_slots`` onward).
                    gets_before_puts = list(
                        islice(
                            accumulate(in_tmem, initial=0),
                            free_slots,
                            n_miss,
                        )
                    )
                else:
                    gets_before_puts = []
                put_flags, _versions, get_flags, put_costs, get_costs = (
                    fs.execute_planned(
                        victims, get_pages, gets_before_puts, now=now
                    )
                )

        if n_hits:
            # The classification already split the burst: promote inserts
            # the fresh pages and replays the occurrences as touches,
            # leaving recency exactly as a scalar walk would (each page
            # ordered by its last occurrence).
            resident.promote_burst_planned(misses, page_list)
        else:
            resident.insert_many(page_list)
        outcome.minor_hits = n_hits
        self._replay_burst(
            misses, in_tmem, in_swap, victims, free_slots,
            put_flags, get_flags, put_costs, get_costs, now, outcome,
        )
        return True

    def _plan_and_replay_misses(
        self, page_list: List[int], now: float, outcome: AccessOutcome
    ) -> None:
        """Page-by-page plan of a burst the vector plan cannot prove safe.

        Walks the burst as the scalar engine does and builds the inputs
        :meth:`_replay_burst` takes from the vector plan.  The resident
        set never exceeds the usable RAM at a burst boundary, so the
        misses from index ``free_slots`` on each evict exactly one
        victim, selected as the miss needs its frame.  A victim written
        to the swap area earlier in the burst makes its later fault a
        swap fault.

        The tmem traffic ships in *segments*: the victims to put, the
        pages to get, and for each put the number of gets before it.
        Each miss evicts at most one victim and then issues at most one
        get, the shape :meth:`FrontswapClient.execute_planned
        <repro.guest.frontswap.FrontswapClient.execute_planned>` resolves
        in closed form, so one planned hypercall at the burst's *now*
        ships a segment.  A segment never names one page twice; it ships

        * when a page is accessed while its put is unresolved: its fault
          source depends on the put's outcome (rare: an intra-burst
          re-access of a page evicted earlier in the burst);
        * before the put of a victim that this segment fetched, as the
          puts and gets of a planned burst are disjoint (a burst that
          cycles through the whole of RAM);
        * at the end of the burst.
        """
        fs = self._frontswap
        resident = self._resident
        free_slots = self._usable_ram - len(resident)

        misses: List[int] = []
        in_tmem: List[bool] = []
        in_swap: List[bool] = []
        victims: List[int] = []
        put_flags: List[int] = []
        get_flags: List[int] = []
        put_costs: List[float] = []
        get_costs: List[float] = []
        # The open segment, and every page it names: a missed page in it
        # has an unresolved put, a victim in it was fetched by the segment.
        seg_puts: List[int] = []
        seg_gets: List[int] = []
        seg_before: List[int] = []
        seg_pages: set[int] = set()
        #: pages that will be written to the swap area during the replay.
        pending_swap: set[int] = set()

        def ship() -> None:
            # One planned hypercall for the open segment, then resolve it.
            flags, _versions, gflags, pcosts, gcosts = fs.execute_planned(
                seg_puts, seg_gets, seg_before, now=now
            )
            if flags is None:
                put_flags.extend([1] * len(seg_puts))
            else:
                put_flags.extend(flags)
                # A refused put's victim goes to the swap area; a page a
                # peer absorbed (flag 2) is stored like a local one.
                pending_swap.update(
                    victim for victim, flag in zip(seg_puts, flags) if not flag
                )
            get_flags.extend([1] * len(seg_gets) if gflags is None else gflags)
            put_costs.extend(pcosts)
            get_costs.extend(gcosts)
            seg_puts.clear()
            seg_gets.clear()
            seg_before.clear()
            seg_pages.clear()

        touch_hit = resident.touch_if_resident
        insert = resident.insert
        select_victim = resident.select_victim
        holds = fs.held_pages.__contains__ if fs is not None else None
        in_swap_slots = self._swap.slots.__contains__
        minor_hits = 0

        for page in page_list:
            if touch_hit(page):
                minor_hits += 1
                continue
            if len(misses) >= free_slots:
                victim = select_victim()
                victims.append(victim)
                if fs is None:
                    pending_swap.add(victim)
                else:
                    if victim in seg_pages:
                        # Fetched by this segment: the put opens the next.
                        ship()
                    seg_before.append(len(seg_gets))
                    seg_puts.append(victim)
                    seg_pages.add(victim)
            if page in seg_pages:
                # Its put is unresolved, and the fault source depends on
                # the outcome: ship, then classify with resolved state.
                ship()
            misses.append(page)
            if holds is not None and holds(page):
                in_tmem.append(True)
                in_swap.append(False)
                seg_gets.append(page)
                seg_pages.add(page)
            else:
                in_tmem.append(False)
                in_swap.append(in_swap_slots(page) or page in pending_swap)
                pending_swap.discard(page)
            insert(page)

        if seg_pages:
            ship()
        outcome.minor_hits = minor_hits
        self._replay_burst(
            misses, in_tmem, in_swap, victims, free_slots,
            put_flags, get_flags, put_costs, get_costs, now, outcome,
        )

    def _replay_burst(
        self,
        misses: List[int],
        in_tmem: List[bool],
        in_swap: List[bool],
        victims: Sequence[int],
        free_slots: int,
        put_flags: Optional[List[int]],
        get_flags: Optional[List[int]],
        put_costs: Sequence[float],
        get_costs: Sequence[float],
        now: float,
        outcome: AccessOutcome,
    ) -> None:
        """Accumulate a planned burst's latencies and issue its I/O in
        scalar order.

        Walks the misses in order.  Miss ``j`` first evicts victim
        ``j - free_slots`` when ``j >= free_slots`` — offered to tmem,
        or straight to disk without frontswap — and then faults in from
        tmem (*in_tmem*), from the swap disk (*in_swap*) or by
        zero-fill.  Every float addition mirrors one addition the scalar
        engine performs, with the same constants and in the same order,
        so the burst latency, the cumulative time counters and the disk
        queue evolution are bit-identical across engines.

        *put_flags* and *get_flags* hold one flag per put and per tmem
        get (1 local, 2 remote, 0 refused put), or are ``None`` when
        every op was local and succeeded.  *put_costs* and *get_costs*
        hold the network cost of each remote put and each remote get, in
        order; a remote op accumulates as the single float the hypercall
        layer returns on the scalar path (base + extra in one add), or
        the engines would drift by rounding order.  On an uncontended
        interconnect every cost equals the constant round-trip; on a
        contended one each carries its own queue wait — which the scalar
        path observed identically, because both engines issue the channel
        reservations in the same order at the same timestamps.

        Swap I/O is served inline: each single-page request applies the
        disk's FIFO rule (see :mod:`repro.devices.disk`) to locals, with
        the operations of ``VirtualDisk._service`` in their order, and
        the swap-slot bookkeeping of ``SwapArea.store``/``load`` with
        the same checks and errors.  A tmem fault leaves the slots alone:
        a page held in tmem has no swap slot.  The end state is
        written back once, in a ``finally``, so a :class:`SwapError`
        escaping mid-burst leaves the disk and swap area where the scalar
        engine leaves them.
        """
        config = self._config
        put_lat = config.tmem_put_latency_s
        fail_lat = config.tmem_failed_put_latency_s
        get_lat = config.tmem_get_latency_s
        fault_overhead = config.guest.fault_overhead_s
        puts = self._frontswap is not None
        stats = self.stats
        disk = self._disk
        read_s = disk.read_service_1p
        write_s = disk.write_service_1p
        busy = disk.busy_until
        busy_time = disk.stats.busy_time_s
        wait = disk.stats.total_wait_time_s
        swap = self._swap
        slots = swap.slots
        capacity = swap.capacity_pages
        peak = swap.stats.peak_used_pages

        acc = outcome.latency_s
        tmem_time = stats.time_in_tmem_ops_s
        disk_time = stats.time_in_disk_io_s
        evictions_to_tmem = from_tmem = first = 0
        reads = writes = swap_outs = swap_ins = 0
        i = put_cursor = get_cursor = 0

        try:
            for j, page in enumerate(misses):
                if j >= free_slots:
                    if puts and (put_flags is None or put_flags[i]):
                        if put_flags is None or put_flags[i] == 1:
                            acc += put_lat
                            tmem_time += put_lat
                        else:  # a peer absorbed the page
                            lat = put_lat + put_costs[put_cursor]
                            put_cursor += 1
                            acc += lat
                            tmem_time += lat
                        evictions_to_tmem += 1
                    else:
                        if puts:  # the refused put's hypercall comes first
                            acc += fail_lat
                            tmem_time += fail_lat
                        # Swap-out: disk write, then the slot.
                        victim = victims[i]
                        t = now + acc
                        start = busy if busy > t else t
                        busy = start + write_s
                        disk_latency = busy - t
                        busy_time += write_s
                        wait += disk_latency
                        writes += 1
                        if victim not in slots:
                            used = len(slots)
                            if used >= capacity:
                                raise SwapError(
                                    f"swap area full ({capacity} pages); "
                                    "guest would OOM"
                                )
                            slots.add(victim)
                            swap_outs += 1
                            if used >= peak:
                                peak = used + 1
                        acc += disk_latency
                        disk_time += disk_latency
                    i += 1
                acc += fault_overhead
                if in_tmem[j]:
                    if get_flags is None or get_flags[from_tmem] == 1:
                        acc += get_lat
                        tmem_time += get_lat
                    else:  # fetched from a peer
                        lat = get_lat + get_costs[get_cursor]
                        get_cursor += 1
                        acc += lat
                        tmem_time += lat
                    from_tmem += 1
                elif in_swap[j]:
                    # Swap-in: disk read, then the slot.
                    t = now + acc
                    start = busy if busy > t else t
                    busy = start + read_s
                    disk_latency = busy - t
                    busy_time += read_s
                    wait += disk_latency
                    reads += 1
                    if page not in slots:
                        raise SwapError(f"page {page} is not in the swap area")
                    slots.remove(page)
                    swap_ins += 1
                    acc += disk_latency
                    disk_time += disk_latency
                else:
                    first += 1
        finally:
            if reads or writes:
                disk.commit_burst(busy, busy_time, wait, self.vm_id, reads, writes)
                swap_stats = swap.stats
                swap_stats.swap_outs += swap_outs
                swap_stats.swap_ins += swap_ins
                swap_stats.peak_used_pages = peak

        outcome.latency_s = acc
        outcome.evictions = len(victims)
        outcome.evictions_to_tmem = evictions_to_tmem
        outcome.evictions_to_disk = writes
        outcome.failed_tmem_puts = writes if puts else 0
        outcome.major_faults = len(misses)
        outcome.faults_from_tmem = from_tmem
        outcome.faults_from_disk = reads
        outcome.first_touches = first
        stats.time_in_tmem_ops_s = tmem_time
        stats.time_in_disk_io_s = disk_time

    # -- freeing ------------------------------------------------------------------
    def free(self, pages: Sequence[int] | Iterable[int], *, now: float) -> float:
        """Release pages the workload no longer needs.

        Frees resident frames, discards swap slots and flushes tmem copies
        (the flush path of Algorithm 1), one page at a time under either
        engine.  Returns the latency incurred by the flush hypercalls.
        """
        page_list = self._as_page_list(pages)
        if self._file_pages:
            file_pages = [p for p in page_list if p in self._file_pages]
            if file_pages:
                # Split before freeing: _free_file forgets the file pages.
                anon = [p for p in page_list if p not in self._file_pages]
                latency = self._free_file(file_pages, now)
                if anon:
                    latency += self._free_anon(anon)
                return latency
        return self._free_anon(page_list)

    def _free_file(self, page_list: List[int], now: float) -> float:
        """Release clean file pages (the file was truncated or deleted).

        Drops the page-cache copies and invalidates any cleancache copy —
        the guest must flush, or a later read of a recycled page number
        could observe stale ephemeral data.
        """
        del now  # flush hypercalls carry no queueing in this model
        latency = 0.0
        cc = self._cleancache
        for page in page_list:
            self._file_pages.discard(page)
            if page in self._file_resident:
                self._file_resident.remove(page)
            if cc is not None:
                _, flush_latency = cc.invalidate_page(page)
                latency += flush_latency
                self.stats.time_in_tmem_ops_s += flush_latency
            self.stats.freed_pages += 1
        return latency

    def _free_anon(self, page_list: List[int]) -> float:
        latency = 0.0
        for page in page_list:
            if page in self._resident:
                self._resident.remove(page)
            self._swap.discard(page)
            if self._frontswap is not None and self._frontswap.holds(page):
                _, flush_latency = self._frontswap.invalidate(page)
                latency += flush_latency
                self.stats.time_in_tmem_ops_s += flush_latency
            self.stats.freed_pages += 1
        return latency

    def release_all(self, *, now: float) -> float:
        """Release every page the current process owns (process exit).

        Anonymous memory is freed, the swap area is emptied, and every
        tmem copy is flushed (the kernel issues flush-object hypercalls on
        swapoff / area invalidation).  The freed count is the footprint
        read before the flush empties frontswap's held map.  Returns the
        flush latency.
        """
        del now  # present for interface symmetry with access()/free()
        self.stats.freed_pages += self.memory_footprint_pages()
        latency = 0.0
        if self._frontswap is not None:
            _, latency = self._frontswap.invalidate_area()
            self.stats.time_in_tmem_ops_s += latency
        for page in list(self._resident.pages()):
            self._resident.remove(page)
        self._swap.clear()
        if self._file_pages:
            # Unmount path: drop the page cache and flush the ephemeral
            # pool one inode at a time (cleancache's invalidate_fs).
            cc = self._cleancache
            if cc is not None:
                objects = sorted({cc.object_of(p) for p in self._file_pages})
                for object_id in objects:
                    _, flush_latency = cc.invalidate_inode(object_id)
                    latency += flush_latency
                    self.stats.time_in_tmem_ops_s += flush_latency
            for page in list(self._file_resident.pages()):
                self._file_resident.remove(page)
            self.stats.freed_pages += len(self._file_pages)
            self._file_pages.clear()
        return latency

    def shutdown(self, *, now: float) -> float:
        """Release every page (guest shutdown); returns flush latency."""
        return self.release_all(now=now)
