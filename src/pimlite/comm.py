"""Collective data movement between the host and the cores.

Host-to-core primitives (broadcast / scatter / gather) and core-to-core
collectives (allreduce / allgather).  The cores have no direct link to each
other, so the core-to-core collectives are host-mediated: gather to the host,
combine there, push back out.

Parallel transfer commands require the same slice size on every core, so the
planner pads every chunk up to an alignment multiple and never splits an
element across cores.  Pad bytes are zero-filled, which keeps roundtrips and
log assertions exact.  Buffers that the host pulls into are not filled
first: a to-host transfer writes every byte of its exact-shape buffer.
Gather pulls an array that a single core holds, such as a reduction's
output, with one serial transfer of that core's bytes instead, so the empty
chunks of the other cores never cross to the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import TO_HOST, TO_PIM, byte_array, round_up
from .errors import (
    HandleKindMismatch,
    HostBufferInvalid,
    InvalidArgument,
    InvalidCombiner,
    WrongLayout,
)
from .management import (
    LAYOUT_REPLICATED,
    LAYOUT_SCATTERED,
    ManagementContext,
    chunk_footprint,
)


@dataclass(frozen=True)
class TransferPlan:
    """How one host array is split into equal-sized padded per-core chunks."""

    per_core_elems: tuple[int, ...]
    padded_chunk_bytes: int


def plan_scatter(length: int, type_size: int, num_cores: int,
                 dma_alignment: int = 8) -> TransferPlan:
    """Split ``length`` elements almost evenly across cores.

    Each chunk boundary falls on a whole-element *and* alignment boundary:
    counts are rounded up to multiples of ``lcm(type_size, alignment) /
    type_size`` elements, leading cores take the rounded-up base count, one
    core takes the remainder, trailing cores may take zero.
    """
    if length < 0 or type_size < 1 or num_cores < 1:
        raise InvalidArgument("length >= 0, type_size >= 1, num_cores >= 1 required")
    group = math.lcm(type_size, dma_alignment) // type_size
    base = 0
    if length:
        base = round_up(-(-length // num_cores), group)
    counts = []
    remaining = length
    for _ in range(num_cores):
        take = min(base, remaining)
        counts.append(take)
        remaining -= take
    return TransferPlan(tuple(counts), chunk_footprint(counts, type_size, dma_alignment))


def _as_flat_bytes(host, length: int, type_size: int) -> np.ndarray:
    flat = np.ascontiguousarray(byte_array(host)).view(np.uint8).ravel()
    if flat.size != length * type_size:
        raise HostBufferInvalid(
            f"host buffer holds {flat.size} bytes, expected {length * type_size}")
    return flat


def _push_replicated(device, data: np.ndarray, bank_offset: int, padded: int) -> None:
    """Write the bytes ``data``, zero-padded to ``padded``, at ``bank_offset``
    of every bank in one parallel transfer."""
    buf = np.zeros((device.config.num_cores, padded), np.uint8)
    buf[:, :data.size] = data
    device.host_parallel_transfer(TO_PIM, buf, bank_offset, padded)


def _fold_copies(device, acc_func, bank_offset: int, padded: int, length: int,
                 type_size: int) -> np.ndarray:
    """Pull every core's ``padded``-byte copy at ``bank_offset`` in one
    parallel transfer and fold the first ``length`` elements of each into
    core 0's with ``acc_func``; return the folded copy, zero-padded."""
    buf = np.empty((device.config.num_cores, padded), np.uint8)
    device.host_parallel_transfer(TO_HOST, buf, bank_offset, padded)
    nbytes = length * type_size
    out = np.zeros(padded, np.uint8)
    out[:nbytes] = buf[0, :nbytes]
    combined = out[:nbytes].reshape(length, type_size)
    for core in range(1, device.config.num_cores):
        acc_func(combined, buf[core, :nbytes].reshape(length, type_size))
    return out


def _check_combiner_fits(handle, entry_bytes: int) -> None:
    """Refuse a handle whose declared combiner dtype does not divide the
    entry size, before the caller moves anything."""
    combine = getattr(handle, "combine", None)
    if combine is not None and entry_bytes % combine[1].itemsize:
        raise InvalidCombiner(f"{entry_bytes}-byte entries are not whole {combine[1]} values")


def broadcast(mgmt: ManagementContext, array_id: str, host, length: int,
              type_size: int) -> None:
    """Copy one host array to every core and register it as replicated."""
    device = mgmt.device
    flat = _as_flat_bytes(host, length, type_size)
    with mgmt.rollback():
        meta = mgmt.create(array_id, type_size, (length,) * device.config.num_cores,
                           LAYOUT_REPLICATED)
        if meta.padded_chunk_bytes:
            _push_replicated(device, flat, meta.bank_offset, meta.padded_chunk_bytes)


def scatter(mgmt: ManagementContext, array_id: str, host, length: int,
            type_size: int) -> None:
    """Split a host array into per-core chunks with one parallel transfer."""
    device = mgmt.device
    flat = _as_flat_bytes(host, length, type_size)
    plan = plan_scatter(length, type_size, device.config.num_cores,
                        device.config.dma_alignment)
    with mgmt.rollback():
        meta = mgmt.create(array_id, type_size, plan.per_core_elems)
        padded, cores = meta.padded_chunk_bytes, device.config.num_cores
        if padded:
            # every core before the last non-empty one takes exactly
            # ``padded`` bytes, so the chunks are consecutive slices of ``flat``
            if flat.size == cores * padded:
                buf = flat.reshape(cores, padded)
            else:
                buf = np.zeros((cores, padded), np.uint8)
                buf.reshape(-1)[:flat.size] = flat
            device.host_parallel_transfer(TO_PIM, buf, meta.bank_offset, padded)


def gather(mgmt: ManagementContext, array_id: str) -> np.ndarray:
    """Reassemble a scattered array, stripping the padding.

    An array that exactly one core holds, on a device of several cores (a
    reduction's output, on core 0), comes back in one serial transfer of that
    core's ``round_up(len * type_size, dma_alignment)`` bytes.  Any other
    array comes back in one parallel transfer of ``padded_chunk_bytes`` per
    core; on a one-core device the two move the same bytes, and the parallel
    one is used.

    Returns the raw bytes as a new uint8 array of ``len * type_size``
    entries; callers reinterpret with ``.view(dtype)``.
    """
    device = mgmt.device
    meta = mgmt.lookup(array_id)
    if meta.layout != LAYOUT_SCATTERED:
        raise WrongLayout(f"{array_id} is {meta.layout}, gather needs scattered")
    if meta.len == 0:
        return np.empty(0, np.uint8)
    nbytes, cores = meta.len * meta.type_size, device.config.num_cores
    holders = [core for core, count in enumerate(meta.per_core_elems) if count]
    if len(holders) == 1 and cores > 1:
        pulled = chunk_footprint((meta.len,), meta.type_size, device.config.dma_alignment)
        buf = np.empty(pulled, np.uint8)
        device.host_serial_transfer(holders[0], TO_HOST, buf, meta.bank_offset, pulled)
        return buf[:nbytes]
    padded = meta.padded_chunk_bytes
    buf = np.empty((cores, padded), np.uint8)
    device.host_parallel_transfer(TO_HOST, buf, meta.bank_offset, padded)
    if nbytes == cores * padded:  # no padding: the chunks are the array
        return buf.reshape(-1)
    return np.concatenate([buf[core, :count * meta.type_size]
                           for core, count in enumerate(meta.per_core_elems) if count])


def allreduce(mgmt: ManagementContext, array_id: str, handle) -> None:
    """Combine equal-length per-core copies in place.

    Every core's copy is pulled to the host, folded elementwise with the
    handle's accumulation function, and the combined array is pushed back to
    all cores at the same address.
    """
    device = mgmt.device
    meta = mgmt.lookup(array_id)
    if meta.layout != LAYOUT_REPLICATED:
        raise WrongLayout(f"{array_id} is {meta.layout}, allreduce needs replicated")
    if getattr(handle, "acc_func", None) is None:
        raise HandleKindMismatch("allreduce needs a handle with an acc_func")
    _check_combiner_fits(handle, meta.type_size)
    if meta.len == 0:
        return
    with mgmt.rollback():
        combined = _fold_copies(device, handle.acc_func, meta.bank_offset,
                                meta.padded_chunk_bytes, meta.len, meta.type_size)
        _push_replicated(device, combined, meta.bank_offset, meta.padded_chunk_bytes)


def allgather(mgmt: ManagementContext, array_id: str, new_id: str) -> None:
    """Give every core the full concatenation of a scattered array, registered
    as a new replicated array."""
    meta = mgmt.lookup(array_id)
    mgmt.check_new_id(new_id)  # before anything is pulled
    with mgmt.rollback():
        broadcast(mgmt, new_id, gather(mgmt, array_id), meta.len, meta.type_size)
