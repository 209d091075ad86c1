"""Deterministic software model of a banked processing-in-memory machine.

The machine is a set of identical cores, each owning a private DRAM bank and
a small scratchpad.  A core only ever touches its own bank, and only through
explicit DMA commands that must be aligned and at most a size limit
(8 bytes and 2048 bytes by :class:`DeviceConfig` default).
Cores that issue the same command at once may issue it as one call over a
``range`` of consecutive cores: one command per core, checked once and moved
as one copy.
The host reaches the banks through serial (one core) or parallel (all cores,
equal-sized slices) transfer commands.  There is no core-to-core channel:
anything collective has to go through the host.

A kernel is called once per launch with the device and its parameters, and
acts for every core and tasklet through the device's DMA calls; the launch
checks the tasklet count and the scratchpad footprint the kernel declares.
The scratchpad is a budget that a launch's claim must fit and the far end of
every DMA command; a launch itself leaves its bytes as they are.

There is no timing model.  Traffic counters (bytes moved and commands issued)
are the only performance proxy.

Banks and scratchpads are private anonymous memory in base pages.  A bank
allocation is populated when it is made, one ``madvise`` per core row, so the
program's first writes there take no page fault; bytes, counters and the
transfer log are the same either way.  A scratchpad page is backed only when
a byte of it is first written.
"""

from __future__ import annotations

import mmap
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .errors import (
    AlignmentViolation,
    HostBufferInvalid,
    InvalidArgument,
    LockMisuse,
    OutOfBankMemory,
    OutOfBounds,
    ScratchpadOverflow,
    SizeLimitViolation,
    TaskletCountInvalid,
    UnequalSliceSizes,
)

TO_PIM = "to_pim"
TO_HOST = "to_host"


def round_up(n: int, align: int) -> int:
    return -(-n // align) * align


def byte_array(buf):
    """A bytes-like object as a read-only uint8 array; anything else as is."""
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return np.frombuffer(bytes(buf), np.uint8)
    return buf


def split_dma(src: int, dst: int, nbytes: int, max_bytes: int) -> tuple:
    """``nbytes`` from ``src`` to ``dst`` as ``(src, dst, nbytes)`` commands
    of at most ``max_bytes`` each, in address order."""
    return tuple((src + done, dst + done, min(max_bytes, nbytes - done))
                 for done in range(0, nbytes, max_bytes))


@dataclass(frozen=True)
class DeviceConfig:
    """Geometry and hardware limits of the simulated machine.

    ``scratchpad_reserve_bytes`` is headroom kept free for the runtime/stack;
    kernels may claim at most ``scratchpad_bytes - scratchpad_reserve_bytes``.
    """

    num_cores: int
    dram_bank_bytes: int = 64 << 20
    scratchpad_bytes: int = 64 << 10
    max_tasklets: int = 12
    dma_max_bytes: int = 2048
    dma_alignment: int = 8
    scratchpad_reserve_bytes: int = 8 << 10
    log_transfers: bool = False

    def __post_init__(self) -> None:
        for name in ("num_cores", "max_tasklets", "dma_max_bytes", "dma_alignment"):
            if getattr(self, name) < 1:
                raise InvalidArgument(f"{name} must be >= 1")
        for name in ("dram_bank_bytes", "scratchpad_reserve_bytes"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be >= 0")
        if self.dma_max_bytes % self.dma_alignment != 0:
            raise InvalidArgument("dma_alignment must divide dma_max_bytes")
        if self.dma_max_bytes > self.scratchpad_bytes:
            raise InvalidArgument("dma_max_bytes must not exceed scratchpad_bytes")
        if self.scratchpad_reserve_bytes >= self.scratchpad_bytes:
            raise InvalidArgument("reserve leaves no usable scratchpad")

    @property
    def usable_scratchpad_bytes(self) -> int:
        return self.scratchpad_bytes - self.scratchpad_reserve_bytes


@dataclass
class TrafficStats:
    """Cumulative byte/command counters; the model's performance proxy."""

    host_to_pim_bytes: int = 0
    pim_to_host_bytes: int = 0
    dram_to_scratch_bytes: int = 0
    scratch_to_dram_bytes: int = 0
    dma_commands: int = 0
    parallel_transfers: int = 0
    serial_transfers: int = 0
    kernel_launches: int = 0

    def copy(self) -> "TrafficStats":
        return replace(self)

    @property
    def bank_scratch_bytes(self) -> int:
        """Total bytes moved between DRAM banks and scratchpads."""
        return self.dram_to_scratch_bytes + self.scratch_to_dram_bytes


@dataclass(frozen=True)
class TransferRecord:
    """One mutation-log entry; written only when ``log_transfers`` is set."""

    op: str  # dma_read | dma_write | parallel | serial
    direction: str
    core: int  # -1 means all cores (parallel command)
    bank_offset: int
    scratch_offset: int | None
    nbytes: int  # per-core bytes for parallel commands

    def as_line(self) -> str:
        scratch = "-" if self.scratch_offset is None else str(self.scratch_offset)
        return (
            f"{self.op}\t{self.direction}\tcore={self.core}\t"
            f"offset={self.bank_offset}\tscratch={scratch}\tsize={self.nbytes}"
        )


class LockTable:
    """One mutex per output entry.

    Tasklets run one after another, so acquisition cannot block; the table
    still tracks ownership to catch double-acquires and releases by a tasklet
    that does not hold the lock, and counts acquisitions for inspection.
    """

    def __init__(self, num_entries: int):
        self._owner = np.full(num_entries, -1, np.int32)
        self.acquisitions = 0

    def acquire(self, tasklet_id: int, indices: np.ndarray) -> None:
        if (self._owner[indices] != -1).any():
            raise LockMisuse("entry lock already held")
        self._owner[indices] = tasklet_id
        self.acquisitions += int(len(indices))

    def release(self, tasklet_id: int, indices: np.ndarray) -> None:
        if (self._owner[indices] != tasklet_id).any():
            raise LockMisuse("releasing a lock that is not held by this tasklet")
        self._owner[indices] = -1


_LINUX = sys.platform.startswith("linux")
# Linux's advice (5.14+) to back a range with writable pages at once; older
# Python versions do not name it
_MADV_POPULATE_WRITE = getattr(mmap, "MADV_POPULATE_WRITE", 23)


def _zeroed_rows(rows: int, row_bytes: int, what: str) -> np.ndarray:
    """A zeroed, writable, C-contiguous ``(rows, row_bytes)`` uint8 array in
    a private anonymous memory mapping, its ``base``.  The OS backs a page
    only when a byte of it is first touched or :func:`_populate` asks for
    it, in base pages whatever the host's transparent huge page setting, so
    resident memory grows with the bytes the program uses, not with the
    geometry.  A mapping the OS refuses raises ``OutOfBankMemory`` before
    anything is reserved."""
    size = rows * row_bytes
    try:
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE) if size else bytearray()
    except (OSError, OverflowError, ValueError) as exc:
        raise OutOfBankMemory(
            f"cannot map {rows} {what} of {row_bytes} bytes: {exc}") from exc
    if size and _LINUX:
        with suppress(OSError):  # a kernel built without huge pages refuses it
            buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray((rows, row_bytes), np.uint8, buffer=buf)


def _populate(rows: np.ndarray, start: int, stop: int) -> None:
    """Back bytes ``[start, stop)`` of every row of a :func:`_zeroed_rows`
    array with writable pages now, one ``madvise`` per row from the page
    that holds ``start``, so the first writes there take no page fault;
    :meth:`PimDevice.alloc` calls it for the bytes it reserves in the banks.
    Nothing is populated off Linux or for an empty range.  If the kernel
    refuses (before 5.14, or out of memory), the rest of the pages fault on
    first touch as they would without this call.  No byte changes."""
    if not _LINUX or stop <= start:
        return
    mapping, row_bytes, page = rows.base, rows.shape[1], mmap.PAGESIZE
    with suppress(OSError):
        for row in range(0, rows.size, row_bytes):
            first = (row + start) // page * page
            mapping.madvise(_MADV_POPULATE_WRITE, first, row + stop - first)


class PimDevice:
    """The simulated machine: banks, scratchpads, DMA engine, kernel launch.

    The host-side API (alloc, transfers, launch) is meant to be driven from a
    single control thread.  Everything is deterministic: the same sequence of
    calls produces bit-identical bank contents and identical counters.

    ``banks`` and ``scratchpads`` are ``(num_cores, bytes)`` uint8 arrays that
    start as zeros.  Each lives in a private anonymous memory mapping in
    base pages; the banks are populated per allocation, the scratchpads only
    where a byte is written (by ``dma_read``), so the process's resident
    memory grows with the bytes reserved or touched, not with
    ``num_cores * dram_bank_bytes``.  A geometry whose mapping the OS
    refuses raises ``OutOfBankMemory``.
    """

    def __init__(self, config: DeviceConfig):
        self.config = config
        self.banks = _zeroed_rows(config.num_cores, config.dram_bank_bytes, "banks")
        self.scratchpads = _zeroed_rows(config.num_cores, config.scratchpad_bytes,
                                        "scratchpads")
        self.cursors = [0] * config.num_cores
        self.stats = TrafficStats()
        self.transfer_log: list[TransferRecord] = []

    # -- symmetric bump allocation --------------------------------------------

    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` (rounded up to alignment) at the same offset in
        every bank and return that offset.  The reserved bytes of every bank
        are populated (:func:`_populate`), which leaves their contents as
        they were."""
        if nbytes < 0:
            raise InvalidArgument("nbytes must be non-negative")
        aligned = round_up(nbytes, self.config.dma_alignment)
        offset = self.cursors[0]
        assert all(c == offset for c in self.cursors), "allocator lost symmetry"
        if offset + aligned > self.config.dram_bank_bytes:
            raise OutOfBankMemory(
                f"request of {aligned} bytes at cursor {offset} exceeds "
                f"bank size {self.config.dram_bank_bytes}"
            )
        _populate(self.banks, offset, offset + aligned)
        self.cursors = [offset + aligned] * self.config.num_cores
        return offset

    def dealloc(self, offset: int, nbytes: int) -> bool:
        """Roll the cursor back if this is the most recent allocation.

        Returns True when the space was reclaimed.  Non-top regions are left
        in place (bump-allocator discipline).
        """
        aligned = round_up(nbytes, self.config.dma_alignment)
        if self.cursors[0] == offset + aligned:
            self.cursors = [offset] * self.config.num_cores
            return True
        return False

    # -- DMA between a core's bank and its scratchpad --------------------------

    def _check_dma(self, dram_offset: int, scratch_offset: int, nbytes: int) -> None:
        """Raise for the first rule that the command breaks, if any."""
        cfg = self.config
        if nbytes <= 0 or nbytes > cfg.dma_max_bytes:
            raise SizeLimitViolation(
                f"DMA size {nbytes} outside (0, {cfg.dma_max_bytes}]"
            )
        for name, value in (("size", nbytes), ("dram offset", dram_offset),
                            ("scratch offset", scratch_offset)):
            if value % cfg.dma_alignment != 0:
                raise AlignmentViolation(
                    f"DMA {name} {value} not a multiple of {cfg.dma_alignment}"
                )
        if dram_offset < 0 or dram_offset + nbytes > cfg.dram_bank_bytes:
            raise OutOfBounds(f"bank range [{dram_offset}, +{nbytes}) out of bounds")
        if scratch_offset < 0 or scratch_offset + nbytes > cfg.scratchpad_bytes:
            raise OutOfBounds(f"scratch range [{scratch_offset}, +{nbytes}) out of bounds")

    def _issue(self, cores: range, commands) -> None:
        """Check, count and log ``commands`` on each core of ``cores``, without
        moving a byte: the caller moves them itself.  A command
        is ``(op, dram offset, scratch offset, nbytes)``, ``op`` being
        ``"dma_read"`` or ``"dma_write"``, in the order each core issues them;
        they count and log as issuing them one by one on ``cores`` does.
        ``cores`` must be a non-empty step-1 range of the device's cores.
        Every command is checked before any is counted or logged, so one
        that breaks a rule leaves the counters and the log as they were."""
        cfg = self.config
        if not (cores.step == 1 and 0 <= cores.start < cores.stop <= cfg.num_cores):
            raise OutOfBounds(f"{cores!r} is not a core or a non-empty step-1 "
                              f"range of the {cfg.num_cores} cores")
        reads = writes = 0
        for op, dram_offset, scratch_offset, nbytes in commands:
            self._check_dma(dram_offset, scratch_offset, nbytes)
            if op == "dma_read":
                reads += nbytes
            else:
                writes += nbytes
        n = len(cores)
        self.stats.dram_to_scratch_bytes += reads * n
        self.stats.scratch_to_dram_bytes += writes * n
        self.stats.dma_commands += len(commands) * n
        if cfg.log_transfers:
            self.transfer_log.extend(
                TransferRecord(op, "dram_to_scratch" if op == "dma_read"
                               else "scratch_to_dram", c, dram, scratch, nbytes)
                for op, dram, scratch, nbytes in commands for c in cores)

    def _dma(self, op: str, core, dram_offset: int, scratch_offset: int,
             nbytes: int) -> None:
        """The one DMA path that moves bytes: :meth:`_issue` the command, then
        copy it.  ``core`` is a core or a ``range(first, end)`` of cores with
        step 1; a core is the range of that core alone.  The command is
        checked once, as every core has the same geometry.  A rejected
        command moves nothing."""
        cores = core if isinstance(core, range) else range(core, core + 1)
        self._issue(cores, ((op, dram_offset, scratch_offset, nbytes),))
        rows = slice(cores.start, cores.stop)
        bank = self.banks[rows, dram_offset:dram_offset + nbytes]
        scratch = self.scratchpads[rows, scratch_offset:scratch_offset + nbytes]
        if op == "dma_read":
            scratch[...] = bank
        else:
            bank[...] = scratch

    def dma_read(self, core, dram_offset: int, scratch_offset: int, nbytes: int) -> None:
        """Copy bank -> scratchpad: one hardware command on ``core``, or one
        on each core of a ``range`` of cores, moved as one 2-D copy."""
        self._dma("dma_read", core, dram_offset, scratch_offset, nbytes)

    def dma_write(self, core, scratch_offset: int, dram_offset: int, nbytes: int) -> None:
        """Copy scratchpad -> bank: one hardware command on ``core``, or one
        on each core of a ``range`` of cores, moved as one 2-D copy."""
        self._dma("dma_write", core, dram_offset, scratch_offset, nbytes)

    # -- host <-> bank transfers ------------------------------------------------

    def _host_transfer(self, direction: str, core: int | None, host,
                       bank_offset: int, nbytes: int) -> None:
        """The one host <-> bank path: check everything, then move, count and
        log.  ``core`` is None for a parallel transfer, whose ``host`` holds
        one ``nbytes`` row per core, or the core of a serial transfer, whose
        ``host`` is one row.  A rejected transfer moves nothing."""
        cfg = self.config
        if core is not None and not 0 <= core < cfg.num_cores:
            raise OutOfBounds(f"core {core} out of range")
        if nbytes < 0:
            raise SizeLimitViolation("negative transfer size")
        if nbytes % cfg.dma_alignment or bank_offset % cfg.dma_alignment:
            raise AlignmentViolation(
                f"host transfer offset {bank_offset} / size {nbytes} not "
                f"{cfg.dma_alignment}-byte aligned")
        if bank_offset < 0 or bank_offset + nbytes > cfg.dram_bank_bytes:
            raise OutOfBounds(f"bank range [{bank_offset}, +{nbytes}) out of bounds")
        if direction not in (TO_PIM, TO_HOST):
            raise InvalidArgument(f"unknown direction {direction!r}")
        if direction == TO_HOST and not (isinstance(host, np.ndarray)
                                         and host.flags.writeable):
            raise HostBufferInvalid("to_host needs a writable array to fill in place")
        host = byte_array(host)
        if not isinstance(host, np.ndarray):
            raise HostBufferInvalid(f"host buffer must be a uint8 array, got {type(host)}")
        if host.dtype != np.uint8:  # a wider element would be truncated
            raise HostBufferInvalid(f"host buffer must be uint8, got {host.dtype}")
        span = self.banks[slice(None) if core is None else core,
                          bank_offset:bank_offset + nbytes]
        if host.shape != span.shape:
            raise UnequalSliceSizes(
                f"host buffer of shape {host.shape} for a transfer of {span.shape} bytes")
        if direction == TO_PIM:
            span[:] = host
            self.stats.host_to_pim_bytes += span.size
        else:
            host[:] = span
            self.stats.pim_to_host_bytes += span.size
        if core is None:
            self.stats.parallel_transfers += 1
        else:
            self.stats.serial_transfers += 1
        if cfg.log_transfers:
            self.transfer_log.append(TransferRecord(
                "parallel" if core is None else "serial", direction,
                -1 if core is None else core, bank_offset, None, nbytes))

    def host_parallel_transfer(self, direction: str, host, bank_offset: int,
                               nbytes_per_core: int) -> None:
        """Move equal-sized slices between the host and every core's bank in
        one parallel command.

        ``host`` is a (num_cores, nbytes_per_core) uint8 array.  For
        ``to_host`` it must be writable and is filled in place; anything
        else, a list of rows or an array of another dtype or shape included,
        raises before a byte moves.
        """
        self._host_transfer(direction, None, host, bank_offset, nbytes_per_core)

    def host_serial_transfer(self, core: int, direction: str, host_slice,
                             bank_offset: int, nbytes: int) -> None:
        """Single-core variant of the host transfer; same alignment rules.
        ``host_slice`` is a 1-D uint8 array or a bytes-like object; for
        ``to_host`` it must be a writable uint8 array, filled in place.
        Anything else raises before a byte moves."""
        self._host_transfer(direction, core, host_slice, bank_offset, nbytes)

    # -- kernel execution ---------------------------------------------------------

    def launch_kernel(self, kernel, num_tasklets: int, params: object = None,
                      scratch_bytes: int = 0) -> None:
        """Check the launch's claims, then call ``kernel(device, params)`` once.

        ``num_tasklets`` must be within ``1..max_tasklets`` and
        ``scratch_bytes``, the kernel's declared scratchpad footprint
        (buffers + accumulators), must be non-negative and fit the usable
        budget; a launch that breaks any of these rules raises before the
        kernel runs.  The claim populates nothing and leaves the scratchpad
        bytes as they are.  Cores are independent, so a kernel may act for
        several cores at once: the launch's log records are stable-sorted by
        core, the order that running the cores one after another gives.
        """
        cfg = self.config
        if not 1 <= num_tasklets <= cfg.max_tasklets:
            raise TaskletCountInvalid(
                f"num_tasklets {num_tasklets} outside 1..{cfg.max_tasklets}")
        if scratch_bytes < 0:
            raise InvalidArgument(f"scratch_bytes {scratch_bytes} is negative")
        if scratch_bytes > cfg.usable_scratchpad_bytes:
            raise ScratchpadOverflow(
                f"kernel claims {scratch_bytes} B, usable scratchpad is "
                f"{cfg.usable_scratchpad_bytes} B")
        log_start = len(self.transfer_log)
        kernel(self, params)
        if cfg.log_transfers:
            self.transfer_log[log_start:] = sorted(self.transfer_log[log_start:],
                                                   key=attrgetter("core"))
        self.stats.kernel_launches += 1
