"""Iterators over device-resident arrays: map, keyed reduction, and zip.

Execution strategy: inputs stream through per-tasklet scratchpad buffers in
aligned batches.  One planner, :func:`plan_iterator`, computes the batch
from the element sizes, the DMA command limit and the remaining scratchpad
budget, throttles the tasklet count and lays out the scratchpad; every
iterator runs exactly the plan it returns.  Map, a materializing zip and a
reduction validate their arguments and then run through one function,
``_iterate``: it plans before anything moves, broadcasts the handle's
context on first use, creates the output array, launches the kernel with one
job record and folds a reduction's partials on the host.  The job holds the
registry records of the arrays the launch touches (its streamed inputs, the
resident context, the output), not copies of their fields.  The kernel
computes no DMA command: it issues, in order, the commands that
:func:`dma_schedule` derives from the job once per launch, where the context
reads and a reduction's partial writes, alike on every core, appear once.
The cores run in lockstep: consecutive cores with the same element count and
the same context bytes form a run, and each batch step runs once per run
(the scheduled reads, one callback over the rows of all the run's cores, the
write).  One loader, ``_load_batch_views``, issues a batch's reads and
returns the scratchpad rows the callback reads; one function,
``_interleave``, lays out zipped elements, in the zip slot and in a map or
zip's bulk pass.  Every core of a run issues the same commands, so each one
is issued for the run at once, as a ``range`` of cores: one command per
core, moved as one copy.  Cores are independent, so the bytes, counters and
commands are those of running the cores one after another, and a launch's
transfer log records are in core order.  A map or materializing zip moves
every element from the input banks to the output banks in chunks, through a
host buffer, one callback per chunk, and then issues its commands from the
same schedule in the same order.  Only each tasklet's last two batches step
through the scratchpad, without a callback: their bytes overwrite all that
the earlier batches would leave there, so the counters, the log, the
scratchpads and the output padding end as the per-batch steps leave them.
Reductions keep their accumulators in the scratchpad in one of two variants
(one shared array behind per-entry locks, or one private array per tasklet
merged ring-style); each core then writes its partial result into its copy
of the output array, and the host folds the copies with ``acc_func`` and
rewrites core 0's.  Zip is lazy: it records the two source arrays and the
next iterator streams both of them, combining batches in the scratchpad;
zipping an already-lazy array forces physical materialization (laziness is
one level deep).

Callback contract.  All buffers are C-contiguous uint8 rows, which
callbacks reinterpret with ``.view(dtype)``.  ``map_func`` sees chunks of
bank rows (copies; its output is copied to the banks), ``map_to_val_func``
scratchpad batches (copies when they span several cores).  One call may
receive the rows of several cores, stacked core by core: a callback must
treat rows independently, and it sees one copy of the context, the one all
those cores hold.

``map_func(src, dst, ctx)``
    ``src`` is ``(m, in_size)``, ``dst`` is ``(m, out_size)``; fill ``dst``
    elementwise.  ``ctx`` is the broadcast context bytes or None.

``init_func(accum)``
    ``accum`` is ``(k * entries, entry_size)``: the accumulators of ``k``
    cores and tasklets.  Must write the identity of ``acc_func`` into every
    row: per-tasklet and per-core partial results are merged with
    ``acc_func`` afterwards.

``map_to_val_func(src, ctx) -> (vals, keys)``
    ``vals`` is any C-contiguous array of ``m * entry_size`` bytes (one entry
    per input element), ``keys`` is ``m`` output indices: integers in ``[0,
    n)`` for ``n`` entries.  Keys of any other dtype (float, bool, complex,
    object) are refused, not truncated; the range is checked in one pass
    over the keys read as uint64, where a negative key is ``>= 2**63``.
    The kernel has read ``vals`` and ``keys`` before it calls
    ``map_to_val_func`` again, and it never writes to them, so a callback
    may return views of buffers that it reuses and overwrites call to call.

``acc_func(dst, src)``
    ``dst[i] ⊕= src[i]`` over entry rows, in place.  ``⊕`` must be commutative
    and associative; results are then independent of how work was split.

A reduce handle may declare ``⊕`` instead of passing ``acc_func``:
``combine=(ufunc, dtype)`` with an integer or bool ``dtype`` and one of the
ufuncs that are commutative and associative there (``add``, ``multiply``,
``bitwise_and/or/xor``, ``maximum``, ``minimum``, ``logical_and/or/xor``,
``gcd``, ``lcm``) mapping ``(dtype, dtype)`` to ``dtype``.  Anything else,
``subtract`` or a float ``⊕`` say, is refused with ``InvalidCombiner``: its
result would depend on the work split.
Entry rows are then ``entry_size // dtype.itemsize`` values of ``dtype``.
``acc_func`` is derived as ``ufunc(dst, src, out=dst)`` over those values and,
when ``init_func`` is omitted, the accumulator is filled with
``ufunc.identity``.  The kernel folds each batch with one ``ufunc.at``: on
the entries' row indices themselves when an entry holds one value, else on
``np.repeat(row * w, w)`` plus a lane pattern ``0..w-1`` tiled once per run
for ``w`` values per entry.  An opaque ``acc_func`` is folded by a stride
tree over the key-sorted rows, one vectorized call per stride.
The ring merge and the host fold call ``acc_func`` either way, so both paths
move the same bytes and give the same results: the ring merge hands a
declared combiner's ``acc_func`` the accumulators' value views to fold in
place, one ufunc call per step and tasklet, and an opaque one entry rows.

A callback that raises, or a ``map_to_val_func`` that returns the wrong
number of bytes or keys, non-integer keys or a key outside the output
(``InvalidArgument``), propagates out of the iterator.

Rollback rule.  Every public operation that raises (a registry call, a
collective, a handle call, an iterator or a whole ``apps.run_*``), whatever
the exception, leaves the registry, the bank cursor, the traffic counters,
the transfer log, ``last_plan`` and the handle's resident context as they
were before the call, although the call may have moved bytes before the
error.  Bank and scratchpad bytes are undefined after a failed call.  One
context manager, :meth:`ManagementContext.rollback`, does the undoing for
all of them: it frees the ids registered inside it, newest first, and puts
the counters, ``last_plan`` and the log back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import comm
from .device import LockTable, byte_array, round_up, split_dma
from .errors import (
    ElementTooLarge,
    DistributionMismatch,
    HandleKindMismatch,
    HostBufferInvalid,
    InvalidArgument,
    InvalidCombiner,
    InvalidHandleKind,
    LengthMismatch,
    MissingCallback,
    NoFeasiblePlan,
    WrongLayout,
)
from .management import (
    LAYOUT_LAZY_ZIP,
    LAYOUT_REPLICATED,
    ArrayMetadata,
    ManagementContext,
)

MAP = "map"
REDUCE = "reduce"
ZIP = "zip"

VARIANT_SHARED = "shared_accumulator"
VARIANT_PRIVATE = "thread_private"

# tasklet counts tried when throttling; 12 keeps the core pipeline saturated
TASKLET_CANDIDATES = (12, 8, 4, 2, 1)

# rows, across a run's cores, of one chunk of a map or zip's full batch rounds
_BULK_ROWS = 1 << 16

# ufuncs that are commutative and associative on integers and bools, so a
# declared combiner gives the same result however the work is split
_ASSOCIATIVE_UFUNCS = frozenset((
    np.add, np.multiply, np.bitwise_and, np.bitwise_or, np.bitwise_xor,
    np.maximum, np.minimum, np.logical_and, np.logical_or, np.logical_xor,
    np.gcd, np.lcm))


@dataclass
class Handle:
    """A registered bundle of user callbacks plus optional broadcast context.

    The context bytes are pushed to every core the first time an iterator
    uses the handle, can be refreshed in place with ``update_context`` and
    are freed with ``free_handle``.  ``combine`` is the declared
    ``(ufunc, dtype)`` combiner of a reduce handle, or None.
    """

    kind: str
    map_func: object = None
    init_func: object = None
    map_to_val_func: object = None
    acc_func: object = None
    combine: tuple[np.ufunc, np.dtype] | None = None
    context: np.ndarray | None = None
    id: str = ""
    ctx_array_id: str | None = None

    @property
    def context_size(self) -> int:
        return 0 if self.context is None else self.context.size


def _as_context_bytes(context) -> np.ndarray | None:
    if context is None:
        return None
    return np.ascontiguousarray(byte_array(context)).view(np.uint8).ravel().copy()


def _check_combine(combine, init_func) -> tuple[np.ufunc, np.dtype]:
    """Validate a ``combine=(ufunc, dtype)`` declaration."""
    try:
        ufunc, dtype = combine
        dtype = np.dtype(dtype)
    except (TypeError, ValueError):
        raise InvalidCombiner(f"combine must be (ufunc, dtype), got {combine!r}") from None
    if not (isinstance(ufunc, np.ufunc) and ufunc.nin == 2 and ufunc.nout == 1):
        raise InvalidCombiner(f"combiner must be a binary numpy ufunc, got {ufunc!r}")
    if ufunc not in _ASSOCIATIVE_UFUNCS:
        raise InvalidCombiner(
            f"{ufunc.__name__} is not both commutative and associative, so results "
            f"would depend on the work split")
    if dtype.kind not in "biu":
        raise InvalidCombiner(
            f"combiner dtype must be integer or bool, got {dtype}; other kinds "
            f"are not associative, so results would depend on the work split")
    try:
        loop = ufunc.resolve_dtypes((dtype, dtype, None))
    except TypeError:
        loop = None
    if loop != (dtype, dtype, dtype):
        raise InvalidCombiner(f"{ufunc.__name__} does not map ({dtype}, {dtype}) to {dtype}")
    if init_func is None and ufunc.identity is None:
        raise MissingCallback(f"{ufunc.__name__} has no identity; the handle needs init_func")
    return ufunc, dtype


def _combine_callbacks(ufunc: np.ufunc, dtype: np.dtype, init_func):
    """The ``acc_func`` derived from a declared combiner, and ``init_func``
    or, when that is None, one that fills the accumulator with the identity."""
    def acc_func(dst, src):
        a = dst.view(dtype)
        ufunc(a, src.view(dtype), out=a)

    if init_func is None:
        identity = np.array(ufunc.identity).astype(dtype)

        def init_func(accum):
            accum.view(dtype)[:] = identity

    return acc_func, init_func


def create_handle(mgmt: ManagementContext, kind: str, *, map_func=None,
                  init_func=None, map_to_val_func=None, acc_func=None,
                  combine=None, context=None) -> Handle:
    """Validate the callback bundle for ``kind`` and give it an id.

    A reduce handle takes either ``acc_func`` or ``combine=(ufunc, dtype)``;
    with ``combine``, ``acc_func`` is derived and ``init_func`` defaults to
    filling the accumulator with the ufunc's identity.
    """
    if kind not in (MAP, REDUCE, ZIP):
        raise InvalidHandleKind(f"kind must be map/reduce/zip, got {kind!r}")
    if combine is not None:
        if kind != REDUCE:
            raise InvalidCombiner(f"combine is declared on reduce handles, not {kind}")
        if acc_func is not None:
            raise InvalidCombiner("give either combine or acc_func, not both")
        combine = _check_combine(combine, init_func)
        acc_func, init_func = _combine_callbacks(*combine, init_func)
    if kind == MAP and map_func is None:
        raise MissingCallback("map handle needs map_func")
    if kind == REDUCE:
        for name, fn in (("init_func", init_func),
                         ("map_to_val_func", map_to_val_func),
                         ("acc_func", acc_func)):
            if fn is None:
                raise MissingCallback(f"reduce handle needs {name}")
    return Handle(kind=kind, map_func=map_func, init_func=init_func,
                  map_to_val_func=map_to_val_func, acc_func=acc_func,
                  combine=combine, context=_as_context_bytes(context),
                  id=mgmt.new_handle_id())


def update_context(mgmt: ManagementContext, handle: Handle, context) -> None:
    """Replace the handle's context; re-broadcast in place if already resident."""
    ctx = _as_context_bytes(context)
    if ctx is None:
        raise HostBufferInvalid("context must not be None")
    if handle.ctx_array_id is not None:
        if ctx.size != handle.context_size:
            raise HostBufferInvalid(
                f"resident context holds {handle.context_size} bytes; it can only "
                f"be replaced by as many, got {ctx.size}")
        meta = mgmt.lookup(handle.ctx_array_id)
        comm._push_replicated(mgmt.device, ctx, meta.bank_offset,
                              meta.padded_chunk_bytes)
    handle.context = ctx


def free_handle(mgmt: ManagementContext, handle: Handle) -> None:
    """Free the handle's resident context, if any.  The handle stays usable:
    the next iterator that uses it broadcasts the context again."""
    if handle.ctx_array_id is not None:
        mgmt.free(handle.ctx_array_id)
        handle.ctx_array_id = None


# --- batch sizing --------------------------------------------------------------


def _dma_batch_bound(type_sizes, dma_max_bytes: int, dma_alignment: int):
    """Largest element count whose per-stream transfer is legal for every
    stream, plus the granularity all batch counts must keep."""
    group = 1
    for ts in type_sizes:
        group = math.lcm(group, math.lcm(ts, dma_alignment) // ts)
    cap = min(dma_max_bytes // ts for ts in type_sizes)
    batch = (cap // group) * group
    if batch <= 0:
        raise ElementTooLarge(
            f"no aligned batch of element sizes {tuple(type_sizes)} fits in a "
            f"{dma_max_bytes}-byte command")
    return batch, group


def compute_batch_elems(type_size: int, dma_max_bytes: int = 2048,
                        dma_alignment: int = 8) -> int:
    """Largest element count per DMA command: the batch byte size must stay
    within the command limit and on an alignment boundary."""
    if type_size < 1:
        raise InvalidArgument("type_size must be >= 1")
    batch, _ = _dma_batch_bound([type_size], dma_max_bytes, dma_alignment)
    return batch


def _tasklet_candidates(max_tasklets: int) -> list[int]:
    cands = [t for t in TASKLET_CANDIDATES if t <= max_tasklets]
    if not cands or cands[0] != max_tasklets:
        cands.insert(0, max_tasklets)
    return cands


# --- planning -------------------------------------------------------------------


@dataclass(frozen=True)
class IteratorPlan:
    """What one iterator kernel runs with, as handed to ``launch_kernel``.

    The scratchpad holds the broadcast context at offset 0, the accumulators
    from ``accum_base`` (``accum_slot`` bytes each: one per tasklet when
    thread-private, one in total when shared), then one block of
    ``block_bytes`` per tasklet from ``blocks_base``.  The ``*_rel`` offsets
    are relative to a tasklet's block: one slot per input stream, the slot
    where zipped streams are combined, and the slot written back to the bank.
    ``occupancy_bytes`` is the whole claim.
    """

    variant: str | None  # None for map and zip
    num_tasklets: int
    batch_elems: int
    stream_rels: tuple[int, ...]
    combine_rel: int | None
    out_rel: int | None
    accum_base: int
    accum_slot: int
    blocks_base: int
    block_bytes: int
    occupancy_bytes: int


def plan_iterator(config, kind: str, in_sizes, out_size: int, *,
                  output_len: int = 0, variant: str = "auto",
                  context_bytes: int = 0) -> IteratorPlan:
    """Choose tasklets and batch size and lay out the scratchpad of one
    iterator kernel.  Every iterator calls this before it allocates anything.

    ``in_sizes`` are the element sizes of the streamed inputs (two or more
    when a zip is streamed).  ``out_size`` is the element size that a map or
    a zip materialization writes back, or the entry size of a reduction with
    ``output_len`` entries.  A reduction's ``variant`` is ``private``
    (thread-private accumulators, also what ``auto`` means) or ``shared``.

    Tasklet counts are tried from ``max_tasklets`` down the candidate list.
    A count above one is skipped when its accumulators plus one full DMA
    command per tasklet exceed the usable scratchpad (the context is not
    counted in this cap); one tasklet may run any batch that fits.  Otherwise
    the batch is the largest multiple of the DMA granularity, up to the DMA
    bound, whose buffers fit beside the context and the accumulators; the
    first count with a batch wins.  The granularity fills every buffer (the
    DMA'd element sizes and, for zipped streams, their sum) with whole
    alignment units, so the buffers claim exactly ``tasklets * batch *
    sum(buffer sizes)`` bytes.
    """
    align = config.dma_alignment
    usable = config.usable_scratchpad_bytes
    in_sizes = list(in_sizes)
    multi = len(in_sizes) > 1
    buffers = in_sizes + ([sum(in_sizes)] if multi else [])
    if kind == REDUCE:
        if output_len < 1 or out_size < 1:
            raise InvalidArgument("output_len and output_elem_bytes must be >= 1")
        if variant not in ("auto", "private", "shared"):
            raise InvalidArgument(f"variant must be auto/shared/private, got {variant!r}")
        variant = VARIANT_SHARED if variant == "shared" else VARIANT_PRIVATE
        accum_slot = round_up(output_len * out_size, align)
        dma_sizes = in_sizes
    else:
        variant, accum_slot = None, 0
        dma_sizes = in_sizes + [out_size]
        if kind == MAP:
            buffers.append(out_size)
    batch0, group = _dma_batch_bound(dma_sizes, config.dma_max_bytes, align)
    ctx_pad = round_up(context_bytes, align)
    for tasklets in _tasklet_candidates(config.max_tasklets):
        accum = accum_slot * (tasklets if variant == VARIANT_PRIVATE else 1)
        if tasklets > 1 and accum + tasklets * config.dma_max_bytes > usable:
            continue
        avail = max(usable - ctx_pad - accum, 0)
        batch = min(batch0, avail // (tasklets * sum(buffers)) // group * group)
        if batch:
            break
    else:
        raise NoFeasiblePlan(
            f"{context_bytes} B of context, {accum_slot} B of accumulator and "
            f"streaming buffers do not fit {usable} B of scratchpad with any "
            f"tasklet count (DRAM-resident accumulators are not supported)")
    rels = list(itertools.accumulate((batch * size for size in buffers), initial=0))
    combine_rel = rels[len(in_sizes)] if multi else None
    blocks_base = ctx_pad + accum
    return IteratorPlan(
        variant=variant, num_tasklets=tasklets, batch_elems=batch,
        stream_rels=tuple(rels[:len(in_sizes)]), combine_rel=combine_rel,
        out_rel={MAP: rels[-2], ZIP: combine_rel}.get(kind),
        accum_base=ctx_pad, accum_slot=accum_slot, blocks_base=blocks_base,
        block_bytes=rels[-1], occupancy_bytes=blocks_base + tasklets * rels[-1])


# --- shared kernel machinery -----------------------------------------------------


def _physical_streams(mgmt: ManagementContext, meta: ArrayMetadata) -> list[ArrayMetadata]:
    """The records of the arrays an iterator over ``meta`` streams: a lazy
    zip's two sources, or ``meta`` itself."""
    if meta.layout == LAYOUT_LAZY_ZIP:
        parts = [mgmt.lookup(src) for src in meta.zip_sources]
        assert all(p.layout != LAYOUT_LAZY_ZIP for p in parts), "zip nesting escaped"
        return parts
    if meta.layout == LAYOUT_REPLICATED:
        raise WrongLayout(f"{meta.id} is replicated; iterators need scattered input")
    return [meta]


@dataclass
class _Job:
    """One iterator kernel launch: the handle whose callbacks run, the plan,
    the per-core element counts, and the registry records of the streamed
    inputs, of the resident context (None without one) and of the output (a
    reduction's ``len`` entries of ``type_size`` bytes)."""

    handle: Handle
    plan: IteratorPlan
    per_core_elems: tuple[int, ...]
    in_streams: tuple[ArrayMetadata, ...]
    ctx: ArrayMetadata | None
    out: ArrayMetadata


def dma_schedule(config, job: _Job) -> tuple:
    """Every DMA command of ``job``'s kernel, as ``(context, runs,
    partial)`` in the order a core issues them.

    ``context`` are tasklet 0's context reads at kernel entry and
    ``partial`` the writes of a reduction's partial result after the merge:
    every core issues the same ones, so they appear once per launch.
    ``runs`` maps each per-core element count to its tasklets: ``tasklets[t]``
    are tasklet ``t``'s batches in order, each ``(m, reads, write)``: ``m``
    elements, one read per input stream and the write of the batch's output
    (None in a reduction).  Reads are ``(bank offset, scratch offset,
    nbytes)``, writes ``(scratch offset, bank offset, nbytes)``.  A pure
    function of the plan, the records and counts in ``job`` and ``config``:
    cores with the same count share one entry of ``runs``.
    """
    plan, align, step, out = job.plan, config.dma_alignment, config.dma_max_bytes, job.out
    b, num_t = plan.batch_elems, plan.num_tasklets
    context = () if job.ctx is None else split_dma(
        job.ctx.bank_offset, 0, job.ctx.padded_chunk_bytes, step)
    partial = () if plan.variant is None else split_dma(
        plan.accum_base, out.bank_offset, plan.accum_slot, step)
    runs = {}
    for local in set(job.per_core_elems):
        tasklets = []
        for t in range(num_t):
            base = plan.blocks_base + t * plan.block_bytes
            batches = []
            for lo in range(t * b, local, num_t * b):  # batches go round-robin
                m = min(b, local - lo)
                reads = tuple((s.bank_offset + lo * s.type_size, base + rel,
                               round_up(m * s.type_size, align))
                              for s, rel in zip(job.in_streams, plan.stream_rels))
                write = None if plan.out_rel is None else (
                    base + plan.out_rel, out.bank_offset + lo * out.type_size,
                    round_up(m * out.type_size, align))
                batches.append((m, reads, write))
            tasklets.append(tuple(batches))
        runs[local] = tuple(tasklets)
    return context, runs, partial


def _iterate(mgmt: ManagementContext, kind: str, handle: Handle, in_streams,
             dest_id: str, out_size: int, out_per_core: tuple[int, ...], *,
             output_len: int = 0, variant: str = "auto") -> IteratorPlan:
    """Plan and run an iterator of ``kind`` over the records ``in_streams``
    into a new array ``dest_id`` of ``out_per_core`` elements of
    ``out_size`` bytes per core; return the plan that ran.

    In order: plan with :func:`plan_iterator` (its errors come before
    anything moves), broadcast the handle's context on its first use, create
    the output, launch the kernel with the job and its DMA schedule, fold a
    reduction's per-core partials on the host and push them to core 0, and
    record the context and the plan as executed.  A call that raises
    follows the rollback rule of the module docstring.
    """
    device = mgmt.device
    plan = plan_iterator(device.config, kind, [s.type_size for s in in_streams],
                         out_size, output_len=output_len, variant=variant,
                         context_bytes=handle.context_size)
    ctx_id, ctx = handle.ctx_array_id, None
    with mgmt.rollback():
        if handle.context_size:
            if ctx_id is None:
                ctx_id = f"__ctx_{handle.id}"
                comm.broadcast(mgmt, ctx_id, handle.context, handle.context_size, 1)
            ctx = mgmt.lookup(ctx_id)
        out = mgmt.create(dest_id, out_size, out_per_core)
        job = _Job(handle, plan, in_streams[0].per_core_elems, tuple(in_streams), ctx, out)
        device.launch_kernel(_iterator_kernel, plan.num_tasklets,
                             (job, dma_schedule(device.config, job)),
                             scratch_bytes=plan.occupancy_bytes)
        if plan.variant is not None:
            combined = comm._fold_copies(device, handle.acc_func, out.bank_offset,
                                         out.padded_chunk_bytes, out.len, out_size)
            device.host_serial_transfer(0, comm.TO_PIM, combined, out.bank_offset,
                                        out.padded_chunk_bytes)
    handle.ctx_array_id, mgmt.last_plan = ctx_id, plan
    return plan


def _as_entry_rows(arr, m: int, entry_bytes: int) -> np.ndarray:
    flat = np.ascontiguousarray(arr).view(np.uint8).ravel()
    if flat.size != m * entry_bytes:
        raise InvalidArgument(
            f"callback returned {flat.size} bytes, expected {m}x{entry_bytes}")
    return flat.reshape(m, entry_bytes)


def _scatter_accumulate(accum: np.ndarray, vals: np.ndarray, keys: np.ndarray,
                        acc_func) -> None:
    """Fold value rows into ``accum[key]`` using only the binary combiner.

    The rows are sorted by key and each key's rows folded in place by a
    stride tree: at stride ``s`` (1, 2, 4, ...), a row whose rank within its
    key is a multiple of ``2s`` takes in the row at rank ``+s``, in one
    vectorized ``acc_func`` call per stride; then each key's first row is
    folded into ``accum``.  Valid because the combiner is commutative and
    associative.
    """
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], vals[order]
    first = np.diff(k, prepend=-1) != 0  # keys are >= 0: row 0 starts a key
    starts = np.flatnonzero(first)
    key_of = np.cumsum(first) - 1
    pos = np.arange(k.size)
    rank = pos - starts[key_of]
    room = np.append(starts[1:], k.size)[key_of] - pos  # rows left in the key
    stride = 1
    while (left := np.flatnonzero((rank % (2 * stride) == 0) & (room > stride))).size:
        merged = v[left]  # fancy index -> fresh writable copy
        acc_func(merged, v[left + stride])
        v[left] = merged
        stride *= 2
    slot = accum[k[starts]]
    acc_func(slot, v[starts])
    accum[k[starts]] = slot


# --- lockstep kernel ----------------------------------------------------------------


def _core_groups(per_core_elems, contexts) -> list[tuple[int, int]]:
    """Split the cores into runs ``(first, end)`` of consecutive cores with
    the same element count and, when ``contexts`` holds each core's context
    bytes as one row, the same context.  The cores of a run execute the same
    schedule on the same data layout and context, so the kernel runs each of
    their batch steps once for the whole run."""
    counts = np.asarray(per_core_elems)
    cut = counts[1:] != counts[:-1]
    if contexts is not None:
        cut |= (contexts[1:] != contexts[:-1]).any(axis=1)
    bounds = [0, *(np.flatnonzero(cut) + 1).tolist(), len(counts)]
    return list(zip(bounds[:-1], bounds[1:]))


def _elements(rows: np.ndarray, start: int, n: int, size: int) -> np.ndarray:
    """Elements ``0..n-1`` of ``size`` bytes from byte ``start`` of each of
    ``rows``, a run's bank or scratchpad rows, as a ``(cores, n, size)`` view."""
    return rows[:, start:start + n * size].reshape(len(rows), n, size)


def _interleave(dst: np.ndarray, banks: np.ndarray, sources, n: int) -> None:
    """Fill ``dst``, ``(cores, n, element bytes)``, with zipped elements: the
    first ``n`` elements of each of ``sources``, ``(bank offset, element
    size)`` pairs in the run's bank rows ``banks``, side by side in order.
    Each stream is copied in the widest unsigned word that divides 8 and
    every element size, so it moves in whole words."""
    word = np.dtype(f"u{math.gcd(8, *(size for _, size in sources))}")
    words, col = dst.view(word), 0
    for offset, size in sources:
        width = size // word.itemsize
        words[:, :, col:col + width] = _elements(banks, offset, n, size).view(word)
        col += width


def _load_batch_views(device, job: _Job, cores: range, t: int, m: int,
                      reads) -> np.ndarray:
    """Load tasklet ``t``'s batch of ``m`` elements on a run of ``cores``
    and return the ``(cores, m, in_size)`` scratchpad rows a callback reads.

    The batch's scheduled ``reads`` go through ``device.dma_read``, one
    command per core for each read.  The rows are the stream slot, or for
    zipped streams the zip slot, filled with :func:`_interleave` from the
    bank rows that the reads have just copied: the same bytes, but a copy
    between two slots of the one scratchpad array would go through a
    temporary.  Called once per run and batch that goes through the
    scratchpad: every batch of a reduction, and the last two batch rounds of
    a map or zip, which replay them without a callback (:func:`_stream_run`).
    """
    for bank, slot, nbytes in reads:
        device.dma_read(cores, bank, slot, nbytes)
    plan, sizes = job.plan, [s.type_size for s in job.in_streams]
    rel = plan.stream_rels[0] if plan.combine_rel is None else plan.combine_rel
    batch = _elements(device.scratchpads[cores.start:cores.stop],
                      plan.blocks_base + t * plan.block_bytes + rel, m, sum(sizes))
    if plan.combine_rel is not None:
        _interleave(batch, device.banks[cores.start:cores.stop],
                    [(bank, size) for (bank, _, _), size in zip(reads, sizes)], m)
    return batch


def _iterator_kernel(device, params) -> None:
    """The kernel of every iterator, in lockstep over cores.

    It issues the context reads on all cores at once (every core reads the
    same offsets), splits the cores into runs with :func:`_core_groups` and
    runs each batch step once per run: the scheduled reads, one callback
    over the rows of all the run's cores, then the write, each command
    issued for the run's range of cores (a map or zip calls back over
    chunks of bank rows instead, see :func:`_stream_run`).  Cores are
    independent, so this moves the same bytes and commands as running them
    one after another; ``launch_kernel`` puts the log records back in core
    order.
    """
    job, (context, runs, partial) = params
    everyone = range(len(job.per_core_elems))
    for bank, slot, nbytes in context:
        device.dma_read(everyone, bank, slot, nbytes)
    contexts = None if job.ctx is None else device.scratchpads[:, :job.ctx.len]
    for first, end in _core_groups(job.per_core_elems, contexts):
        tasklets = runs[job.per_core_elems[first]]
        ctx = None if contexts is None else contexts[first]
        if job.plan.variant is None:
            _stream_run(device, job, tasklets, first, end, ctx)
        else:
            _red_run(device, job, tasklets, partial, first, end, ctx)


# --- map / zip-materialize kernel -------------------------------------------------


def _stream_run(device, job: _Job, tasklets, first: int, end: int, ctx) -> None:
    """Map or materializing zip on cores ``first..end-1``, which share the
    scheduled ``tasklets`` and the context ``ctx``.

    Every element goes straight from the input banks to the output banks
    first (:func:`_bulk_pass`), so a map's callback runs there only.  Then
    each tasklet's commands are issued from ``tasklets`` in the order the
    per-batch steps issue them: its full batch rounds with nothing to move,
    as no later step reads the scratchpad bytes they would leave, and its
    last two batches replayed through its scratchpad slots without a
    callback (the reads and the zip slot by :func:`_load_batch_views`, a
    map's output slot filled from the output banks, the write), so the
    scratchpads and the output padding end as the per-batch steps leave
    them."""
    banks, scratch = device.banks[first:end], device.scratchpads[first:end]
    cores, local = range(first, end), job.per_core_elems[first]
    if local:
        _bulk_pass(banks, job, local, ctx)
    for t, batches in enumerate(tasklets):
        commands = []
        for _, reads, (slot, bank, nbytes) in batches[:-2]:
            commands += [("dma_read", *read) for read in reads]
            commands.append(("dma_write", bank, slot, nbytes))
        device._issue(cores, commands)
        for m, reads, (slot, bank, nbytes) in batches[-2:]:
            _load_batch_views(device, job, cores, t, m, reads)
            if job.handle.map_func is not None:  # the padding stays the slot's
                size = job.out.type_size
                _elements(scratch, slot, m, size)[...] = _elements(banks, bank, m, size)
            device.dma_write(cores, slot, bank, nbytes)


def _bulk_pass(banks: np.ndarray, job: _Job, elems: int, ctx) -> None:
    """The ``elems`` elements of every core of a run, whose bank rows are
    ``banks``, straight from the input streams to the output, in chunks of
    about ``_BULK_ROWS`` rows across the run's cores and at least one batch
    per core.  The streams are interleaved by :func:`_interleave` into a
    host buffer, as in the zip slot: interleaving straight into the output,
    another view of the bank array, would copy each source column through a
    temporary.  A map calls ``map_func`` once per chunk, over the chunk's
    rows of all the cores, and nowhere else; a materializing zip copies the
    buffer to its output."""
    cores, size = banks.shape[0], job.out.type_size
    in_size = sum(s.type_size for s in job.in_streams)
    chunk = min(max(job.plan.batch_elems, _BULK_ROWS // cores), elems)
    map_func = job.handle.map_func
    src_buf = np.empty(cores * chunk * in_size, np.uint8)  # reused across chunks
    if map_func is not None:
        dst_buf = np.empty(cores * chunk * size, np.uint8)
    for lo in range(0, elems, chunk):
        n = min(chunk, elems - lo)
        rows = src_buf[:cores * n * in_size].reshape(cores, n, in_size)
        _interleave(rows, banks, [(s.bank_offset + lo * s.type_size, s.type_size)
                                  for s in job.in_streams], n)
        if map_func is not None:
            dst = dst_buf[:cores * n * size].reshape(cores * n, size)
            map_func(rows.reshape(cores * n, in_size), dst, ctx)
            rows = dst.reshape(cores, n, size)
        _elements(banks, job.out.bank_offset + lo * size, n, size)[...] = rows


def array_map(mgmt: ManagementContext, src_id: str, dest_id: str,
              output_type_size: int, handle: Handle) -> IteratorPlan:
    """Apply the handle's map function to every element of ``src_id`` and
    register the result under ``dest_id`` with the same distribution.
    Returns the plan that was executed."""
    meta = mgmt.lookup(src_id)
    mgmt.check_new_id(dest_id)
    if handle.kind != MAP:
        raise HandleKindMismatch(f"array_map needs a map handle, got {handle.kind}")
    if output_type_size < 1:
        raise InvalidArgument("output_type_size must be >= 1")
    return _iterate(mgmt, MAP, handle, _physical_streams(mgmt, meta), dest_id,
                    output_type_size, meta.per_core_elems)


def array_zip(mgmt: ManagementContext, src1_id: str, src2_id: str, dest_id: str,
              materialize: bool = False) -> IteratorPlan | None:
    """Combine two equally distributed arrays element by element.

    Normally this is lazy: no device traffic, the result just names its two
    sources, and None is returned.  When an input is itself lazy (laziness is
    one level deep) or ``materialize`` is set, the combined array is built
    physically by streaming batches and interleaving elements, and the
    executed plan is returned.
    """
    a = mgmt.lookup(src1_id)
    b = mgmt.lookup(src2_id)
    mgmt.check_new_id(dest_id)
    if a.len != b.len:
        raise LengthMismatch(f"{src1_id} has {a.len} elements, {src2_id} {b.len}")
    if a.per_core_elems != b.per_core_elems:
        raise DistributionMismatch(
            f"{src1_id} and {src2_id} are split differently across cores")
    out_type_size = a.type_size + b.type_size
    if not materialize and LAYOUT_LAZY_ZIP not in (a.layout, b.layout):
        mgmt.create(dest_id, out_type_size, a.per_core_elems, LAYOUT_LAZY_ZIP,
                    (src1_id, src2_id))
        return None
    # a zip handle has no callbacks: the kernel writes the combined batches
    return _iterate(mgmt, ZIP, Handle(ZIP),
                    _physical_streams(mgmt, a) + _physical_streams(mgmt, b), dest_id,
                    out_type_size, a.per_core_elems)


# --- keyed reduction ---------------------------------------------------------------


def _red_run(device, job: _Job, tasklets, partial, first: int, end: int,
             ctx) -> None:
    """Keyed reduction on cores ``first..end-1``, which share the scheduled
    ``tasklets`` and the context ``ctx``; ``partial`` are the launch's
    partial-result writes.

    The accumulators of all these cores (one per tasklet when private) are
    one C-contiguous array of entry rows, row ``(core * copies + tasklet) * n
    + key``: the scratchpad slots themselves when they already lie that way
    (one core, no padding between copies), else a copy.  They are
    initialized, folded and merged there and copied back before each core
    writes its partial.  Each batch step loads its rows with
    :func:`_load_batch_views` and calls ``map_to_val_func`` on them, stacked
    core by core, and folds what it returns, without writing to it, before
    the next step calls it again.  Each tasklet's rows of key 0 for a full
    batch are computed once, so a batch's row index is its keys plus those
    rows.  Keys must be integers in ``[0, n)``, checked in one pass as
    uint64.  A declared combiner folds each batch step with one 1-D
    ``ufunc.at`` over the entries' values: on the row index itself when an
    entry holds one value, else on the index repeated ``w`` times, scaled by
    ``w``, plus the run's lane pattern.  Private accumulators are then merged by
    :func:`_ring_merge`, on every core of the run at once.
    """
    plan, handle = job.plan, job.handle
    n, d = job.out.len, job.out.type_size
    cores, num_t = end - first, plan.num_tasklets
    private = plan.variant == VARIANT_PRIVATE
    copies = num_t if private else 1
    scratch = device.scratchpads[first:end]
    accum_slots = _elements(scratch, plan.accum_base, copies, plan.accum_slot)[:, :, :n * d]
    accum = np.ascontiguousarray(accum_slots.reshape(cores * copies * n, d))
    handle.init_func(accum)
    b = plan.batch_elems
    if handle.combine is None:
        def fold(rows, idx):
            _scatter_accumulate(accum, rows, idx, handle.acc_func)
    else:
        ufunc, dtype = handle.combine
        w = d // dtype.itemsize  # values per entry
        target = accum.view(dtype).reshape(-1)
        if w == 1:
            def fold(rows, idx):
                ufunc.at(target, idx, rows.view(dtype).reshape(-1))
        else:
            lanes = np.tile(np.arange(w), cores * b)

            def fold(rows, idx):  # value j of entry i is value i * w + j
                flat = np.repeat(idx * w, w)
                flat += lanes[:flat.size]
                ufunc.at(target, flat, rows.view(dtype).reshape(-1))
    # the run's entry locks: each core's table of n entries, side by side
    locks = None if private else LockTable(cores * n)
    core_rows = np.arange(cores) * (copies * n)
    map_to_val = handle.map_to_val_func
    for t, batches in enumerate(tasklets):
        # row of key 0 for each element of a batch: its core's (and, when
        # private, this tasklet's) table
        table_rows = core_rows + t * n if private else core_rows
        full_batch_rows = np.repeat(table_rows, b)
        for m, reads, _ in batches:
            batch = _load_batch_views(device, job, range(first, end), t, m, reads)
            vals, keys = map_to_val(batch.reshape(cores * m, -1), ctx)
            rows = _as_entry_rows(vals, cores * m, d)
            ks = np.asarray(keys)
            if ks.dtype.kind not in "iu":
                raise InvalidArgument(f"reduction keys must be integers, got {ks.dtype}")
            ks = ks.astype(np.int64, copy=False).ravel()
            if ks.size != cores * m:
                raise InvalidArgument(
                    f"callback returned {ks.size} keys for {cores * m} elements")
            if ks.view(np.uint64).max() >= n:  # a negative key wraps to >= 2**63
                raise InvalidArgument(f"reduction key outside [0, {n})")
            idx = ks + (full_batch_rows if m == b else np.repeat(table_rows, m))
            if private:
                fold(rows, idx)
            else:
                uniq = np.unique(idx)
                locks.acquire(t, uniq)
                fold(rows, idx)
                locks.release(t, uniq)
    if private:
        _ring_merge(accum.reshape(cores, num_t, n, d), handle)
    accum_slots[...] = accum.reshape(accum_slots.shape)
    for scratch_off, bank, nbytes in partial:  # each core's to its output copy
        device.dma_write(range(first, end), scratch_off, bank, nbytes)


def _ring_merge(copies: np.ndarray, handle: Handle) -> None:
    """Merge the private accumulators ``copies``, ``(cores, tasklets, n,
    entry_size)``, ring-style, each step on every core at once: at step
    ``s`` tasklet ``t`` folds tasklet ``t - 1``'s segment ``(t - 1 - s) mod
    tasklets`` into its own (segment ``i`` is entries ``i·n // tasklets`` up
    to ``(i + 1)·n // tasklets``), so after ``tasklets - 1`` steps each
    tasklet owns one fully reduced segment; then the segments are assembled
    into copy 0 for a single writer.  No two folds of a step touch the same
    segment of the same copy, so their order within the step does not
    matter.  A declared combiner's ``acc_func`` folds the ``(cores, entries,
    entry_size)`` views in place, one ufunc call per step and tasklet; an
    opaque one gets entry rows, which are copies when there are several
    cores, and its result is copied back."""
    cores, num_t, n, d = copies.shape
    for step in range(num_t - 1):
        for t in range(num_t):
            seg = (t - 1 - step) % num_t
            lo_e, hi_e = seg * n // num_t, (seg + 1) * n // num_t
            if hi_e > lo_e:
                mine, theirs = copies[:, t, lo_e:hi_e], copies[:, t - 1, lo_e:hi_e]
                if handle.combine is not None:
                    handle.acc_func(mine, theirs)
                else:
                    rows = mine.reshape(-1, d)
                    handle.acc_func(rows, theirs.reshape(-1, d))
                    mine[...] = rows.reshape(mine.shape)
    for t in range(1, num_t):
        own = (t + 1) % num_t
        lo_e, hi_e = own * n // num_t, (own + 1) * n // num_t
        copies[:, 0, lo_e:hi_e] = copies[:, t, lo_e:hi_e]


def array_red(mgmt: ManagementContext, src_id: str, dest_id: str,
              output_type_size: int, output_len: int, handle: Handle,
              variant: str = "auto") -> IteratorPlan:
    """Keyed reduction: every input element maps to (value, output index) and
    is accumulated into that entry.

    Every core writes its partial result into its copy of the output array;
    the host pulls those, folds them with the handle's accumulation function
    and rewrites core 0's copy, so the combined output is on core 0 under
    ``dest_id``.  Returns the plan that was executed.
    """
    meta = mgmt.lookup(src_id)
    mgmt.check_new_id(dest_id)
    if handle.kind != REDUCE:
        raise HandleKindMismatch(f"array_red needs a reduce handle, got {handle.kind}")
    comm._check_combiner_fits(handle, output_type_size)
    return _iterate(mgmt, REDUCE, handle, _physical_streams(mgmt, meta), dest_id,
                    output_type_size,
                    (output_len,) + (0,) * (mgmt.device.config.num_cores - 1),
                    output_len=output_len, variant=variant)
