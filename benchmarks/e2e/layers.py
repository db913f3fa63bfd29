"""Outside-in layer tracer for the end-to-end benchmark.

The simulator has no tracing of its own.  This module wraps the public
entry points of each layer at class level, from the benchmark's side, so
nothing under ``src/`` changes when tracing is on.  Every wrapped call
records one span: the call site, its start and end, and the span that
encloses it.  Spans live in flat ``array`` buffers while the program runs.
:meth:`Tracer.summary` turns them into per-layer call counts and self time
at the end. A layer's self time is the time of its spans minus the time of
the spans nested inside them.

Only the calling process is traced.  Shard workers start from a fresh
interpreter, so for the sharded workloads the layers that run inside the
workers do not appear here: the report covers the parent side only.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

__all__ = ["LAYERS", "Tracer"]

#: layer -> (module, classes, public methods).  A method is wrapped on each
#: listed class whose own body defines it, so inherited defaults and
#: overrides are both covered exactly once.  The order is the report order.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {
    "guest": ("repro.guest.kernel", ("GuestKernel",), ("access", "free")),
    "reclaim": (
        "repro.guest.pfra",
        ("PageReclaimer", "LruReclaim", "ClockArrayReclaim"),
        (
            "contains_all",
            "touch_many",
            "insert_many",
            "select_victims",
            "peek_victims",
            "promote_burst_planned",
        ),
    ),
    "tmem": (
        "repro.hypervisor.hypercalls",
        ("HypercallInterface",),
        (
            "tmem_batch",
            "tmem_planned",
            "tmem_put",
            "tmem_get",
            "tmem_flush_page",
            "tmem_flush_object",
        ),
    ),
    "disk": (
        "repro.devices.disk",
        ("VirtualDisk",),
        ("read", "write", "read_one", "write_one", "commit_replay"),
    ),
    "remote": (
        "repro.hypervisor.remote_tmem",
        ("RemoteTmemBackend",),
        ("spill_put", "remote_get", "remote_flush", "remote_flush_object"),
    ),
    "channel": (
        "repro.channels.internode",
        ("InterNodeChannel",),
        ("reserve", "transfer_async", "send"),
    ),
    "mm": ("repro.core.manager", ("MemoryManager",), ("process_snapshot",)),
    # __iter__ itself is trivial; the span is put around each step the
    # returned iterator yields, which is where the workload does its work.
    "workload": ("repro.workloads.base", ("Workload",), ("__iter__",)),
    # The two outermost layers report self time only: everything nested
    # inside them is another layer's.
    "engine": ("repro.sim.engine", ("SimulationEngine",), ("run",)),
    "shard": ("repro.cluster.sharded", ("ShardedClusterRunner",), ("run",)),
    "epoch": (
        "repro.cluster.epoch",
        ("EpochDriver",),
        ("absorb_init", "window_command", "absorb"),
    ),
}


class Tracer:
    """Class-level span recorder for the layers in :data:`LAYERS`.

    Use as a context manager, or call :meth:`install` and
    :meth:`uninstall`.  Install before the runner is built, and call
    :meth:`reset` right before ``run()`` so that set-up spans are left out.
    """

    def __init__(self) -> None:
        #: (layer, "Class.method") of each call site; spans store the index.
        self.sites: List[Tuple[str, str]] = []
        self._site = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        #: Index of the innermost open span, -1 outside every span.
        self._current = [-1]
        self._saved: List[Tuple[type, str, Any]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> "Tracer":
        if self._saved:
            return self
        for layer, (module_name, class_names, methods) in LAYERS.items():
            module = importlib.import_module(module_name)
            for class_name in class_names:
                cls = getattr(module, class_name)
                for method in methods:
                    original = cls.__dict__.get(method)
                    if original is None:
                        continue
                    site = len(self.sites)
                    self.sites.append((layer, f"{class_name}.{method}"))
                    if method == "__iter__":
                        wrapped = self._wrap_iter(site, original)
                    else:
                        wrapped = self._wrap(site, original)
                    self._saved.append((cls, method, original))
                    setattr(cls, method, wrapped)
        return self

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def reset(self) -> None:
        """Forget every span recorded so far."""
        for buffer in (self._site, self._parent, self._start, self._end):
            del buffer[:]
        self._current[0] = -1

    # -- recording --------------------------------------------------------
    def _wrap(self, site: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        sites, parents = self._site, self._parent
        starts, ends = self._start, self._end
        current = self._current
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            sites.append(site)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                current[0] = parents[index]

        return functools.update_wrapper(traced, fn)

    def _wrap_iter(self, site: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        wrap = self._wrap

        def traced_iter(instance: Any) -> Any:
            step = wrap(site, fn(instance).__next__)

            def steps() -> Any:
                while True:
                    try:
                        yield step()
                    except StopIteration:
                        return

            return steps()

        return functools.update_wrapper(traced_iter, fn)

    # -- reporting --------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls`` and ``self_s``; plus the epoch extras.

        ``epoch`` also gets ``barriers`` (absorbed windows) and ``wait_s``,
        the time from each ``window_command`` returning to the following
        ``absorb`` being entered: worker compute plus pipe IPC.
        """
        names = list(LAYERS)
        layer_of_site = np.array([names.index(layer) for layer, _ in self.sites])
        site = np.frombuffer(self._site, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        duration = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        layer = layer_of_site[site]
        calls = np.bincount(layer, minlength=len(names))
        inclusive = np.bincount(layer, weights=duration, minlength=len(names))
        nested = parent >= 0
        covered = np.bincount(
            layer[parent[nested]], weights=duration[nested], minlength=len(names)
        )
        out = {
            name: {"calls": int(calls[i]), "self_s": float(inclusive[i] - covered[i])}
            for i, name in enumerate(names)
        }
        out["epoch"].update(self._epoch_waits())
        return out

    def _epoch_waits(self) -> Dict[str, float]:
        command = self.sites.index(("epoch", "EpochDriver.window_command"))
        absorb = self.sites.index(("epoch", "EpochDriver.absorb"))
        site = np.frombuffer(self._site, dtype=np.uint16)
        barriers = 0
        wait_s = 0.0
        last_command_end = None
        for index in np.flatnonzero((site == command) | (site == absorb)).tolist():
            if site[index] == command:
                last_command_end = self._end[index]
            else:
                barriers += 1
                if last_command_end is not None:
                    wait_s += self._start[index] - last_command_end
                    last_command_end = None
        return {"barriers": barriers, "wait_s": wait_s}

    def dump(self, path: str) -> None:
        """Write every span to *path* (``.npz``): the full span record."""
        np.savez_compressed(
            path,
            site_names=np.array([f"{layer}:{name}" for layer, name in self.sites]),
            site=np.frombuffer(self._site, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )
