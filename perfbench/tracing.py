"""Spans around the public entry points of each pimlite module, kept in memory.

The program itself has no trace hooks, so the spans are added from outside:
for the duration of a traced phase the module-level entry points of
``comm``, ``processing`` and ``apps`` (and ``LockTable.acquire``) are
replaced by wrappers and restored afterwards, and the device and registry
built for each op get instance-level wrappers.

Every span adds its duration minus the time covered by its direct child
spans (its *self time*) to a per-name total.  Spans nest strictly, so the
self times of all spans opened under an op add up to that op's duration.

Span names are the layers: ``device.dma``, ``device.host_xfer``,
``device.sched`` (``launch_kernel``), ``processing.kernel`` (one tasklet
resumption), ``management``, ``comm.<fn>``, ``processing.<fn>``,
``processing.host_fold`` (an accumulate callback outside any kernel),
``apps.<callback>``, ``apps.datagen``, ``apps.run`` and ``op`` (the root).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from pimlite import apps, comm, device, processing


class Tracer:
    """Per-name self-time totals, call counts and plain counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.plans: list = []  # ReductionPlan returned by each array_red call
        self.spans: list | None = None  # (name, start, end, depth) while recording
        self.in_kernel = 0
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]  # start, time covered by child spans
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if self.spans is not None:
                    self.spans.append((name, frame[0], end, len(stack)))

        return traced


class _Resumptions:
    """Stands in for a kernel's generator; each ``next()`` is one span."""

    def __init__(self, tracer: Tracer, gen) -> None:
        self._step = tracer.wrap("processing.kernel", gen.__next__)
        self._counts = tracer.counts

    def __next__(self):
        self._counts["device.kernel_steps"] += 1
        return self._step()


def _launch_kernel(tracer: Tracer, launch):
    sched = tracer.wrap("device.sched", launch)

    def launch_kernel(kernel, num_tasklets, params=None, **kwargs):
        body = tracer.wrap("processing.kernel", kernel)

        def traced_kernel(ctx, p):
            r = body(ctx, p)
            return _Resumptions(tracer, r) if hasattr(r, "__next__") else r

        tracer.in_kernel += 1
        try:
            return sched(traced_kernel, num_tasklets, params, **kwargs)
        finally:
            tracer.in_kernel -= 1

    return launch_kernel


def instrument_op(tracer: Tracer, dev, mgmt) -> None:
    """Wrap the entry points of one op's device and registry."""
    for name in ("dma_read", "dma_write"):
        setattr(dev, name, tracer.wrap("device.dma", getattr(dev, name)))
    cores = dev.config.num_cores
    counts = tracer.counts
    parallel = tracer.wrap("device.host_xfer", dev.host_parallel_transfer)
    serial = tracer.wrap("device.host_xfer", dev.host_serial_transfer)

    def host_parallel_transfer(direction, host, bank_offset, nbytes_per_core):
        counts["device.host_xfer.bytes"] += cores * nbytes_per_core
        return parallel(direction, host, bank_offset, nbytes_per_core)

    def host_serial_transfer(core, direction, host_slice, bank_offset, nbytes):
        counts["device.host_xfer.bytes"] += nbytes
        return serial(core, direction, host_slice, bank_offset, nbytes)

    dev.host_parallel_transfer = host_parallel_transfer
    dev.host_serial_transfer = host_serial_transfer
    dev.launch_kernel = _launch_kernel(tracer, dev.launch_kernel)
    for name in ("lookup", "register", "free"):
        setattr(mgmt, name, tracer.wrap("management", getattr(mgmt, name)))


def _create_handle(tracer: Tracer, create):
    """Wrap the user callbacks of every handle an app registers."""

    def create_handle(mgmt, kind, **kwargs):
        for key, name in (("map_func", "apps.map"), ("init_func", "apps.init"),
                          ("map_to_val_func", "apps.map_to_val")):
            if kwargs.get(key) is not None:
                kwargs[key] = tracer.wrap(name, kwargs[key])
        acc = kwargs.get("acc_func")
        if acc is not None:
            in_kernel = tracer.wrap("apps.acc", acc)
            on_host = tracer.wrap("processing.host_fold", acc)
            kwargs["acc_func"] = lambda dst, src: \
                (in_kernel if tracer.in_kernel else on_host)(dst, src)
        return create(mgmt, kind, **kwargs)

    return create_handle


def _array_red(tracer: Tracer, red):
    traced = tracer.wrap("processing.array_red", red)

    def array_red(*args, **kwargs):
        plan = traced(*args, **kwargs)
        tracer.plans.append(plan)
        return plan

    return array_red


def _load_batch_views(tracer: Tracer, load):
    counts = tracer.counts

    def load_batch_views(*args):
        counts["processing.kernel.batches"] += 1
        return load(*args)

    return load_batch_views


def _lock_acquire(tracer: Tracer, acquire):
    counts = tracer.counts

    def lock_acquire(table, tasklet_id, indices):
        counts["device.lock.acquisitions"] += len(indices)
        return acquire(table, tasklet_id, indices)

    return lock_acquire


@contextmanager
def instrumented(tracer: Tracer):
    """Install the module-level wrappers for the duration of the block."""
    patches = [(comm, n, tracer.wrap(f"comm.{n}", getattr(comm, n)))
               for n in ("scatter", "gather", "broadcast")]
    patches += [(processing, n, tracer.wrap(f"processing.{n}", getattr(processing, n)))
                for n in ("array_map", "array_zip", "update_context")]
    patches += [
        (processing, "array_red", _array_red(tracer, processing.array_red)),
        (processing, "create_handle", _create_handle(tracer, processing.create_handle)),
        (processing, "_load_batch_views",
         _load_batch_views(tracer, processing._load_batch_views)),
        (device.LockTable, "acquire", _lock_acquire(tracer, device.LockTable.acquire)),
    ]
    patches += [(apps, n, tracer.wrap("apps.datagen", getattr(apps, n)))
                for n in dir(apps) if n.startswith("make_")]
    saved = [(obj, n, getattr(obj, n)) for obj, n, _ in patches]
    try:
        for obj, n, wrapper in patches:
            setattr(obj, n, wrapper)
        yield
    finally:
        for obj, n, original in saved:
            setattr(obj, n, original)
