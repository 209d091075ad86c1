"""Host-side registry of device-resident arrays.

Arrays live at the same bank offset on every core (symmetric allocation).
A metadata record tracks how the elements are split across cores and how much
padded space each per-core chunk occupies.  Lazily zipped arrays own no
storage of their own; they only name their two constituents.  The framework
makes every array with :meth:`ManagementContext.create`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .device import PimDevice, round_up
from .errors import ArrayInUse, DuplicateArrayId, InvalidArgument, UnknownArrayId

LAYOUT_SCATTERED = "scattered"
LAYOUT_REPLICATED = "replicated"
LAYOUT_LAZY_ZIP = "lazy_zip"


def chunk_footprint(per_core_elems, type_size: int, dma_alignment: int) -> int:
    """The padded per-core chunk of an array: its largest per-core chunk,
    rounded up to the DMA alignment."""
    return round_up(max(per_core_elems, default=0) * type_size, dma_alignment)


@dataclass
class ArrayMetadata:
    """Everything the framework needs to find and move one array.

    ``per_core_elems`` holds whole element counts (no element is ever split
    across cores).  For scattered arrays the counts sum to ``len``; replicated
    arrays hold all ``len`` elements on every core.  ``padded_chunk_bytes`` is
    the aligned per-core footprint used by parallel transfers.
    """

    id: str
    len: int
    type_size: int
    bank_offset: int | None
    per_core_elems: tuple[int, ...]
    padded_chunk_bytes: int
    layout: str = LAYOUT_SCATTERED
    zip_sources: tuple[str, str] | None = None

    def validate(self, dma_alignment: int) -> None:
        if self.len < 0 or self.type_size < 1:
            raise InvalidArgument(f"{self.id}: bad len/type_size")
        if self.padded_chunk_bytes % dma_alignment != 0:
            raise InvalidArgument(f"{self.id}: padded chunk not aligned")
        if self.layout == LAYOUT_SCATTERED:
            if sum(self.per_core_elems) != self.len:
                raise InvalidArgument(f"{self.id}: per-core counts do not sum to len")
        elif self.layout == LAYOUT_REPLICATED:
            if any(c != self.len for c in self.per_core_elems):
                raise InvalidArgument(f"{self.id}: replicated copies must be full length")
        elif self.layout == LAYOUT_LAZY_ZIP:
            if self.zip_sources is None or self.bank_offset is not None:
                raise InvalidArgument(f"{self.id}: lazy zip owns no storage")
            if sum(self.per_core_elems) != self.len:
                raise InvalidArgument(f"{self.id}: per-core counts do not sum to len")
        else:
            raise InvalidArgument(f"{self.id}: unknown layout {self.layout!r}")
        if any(c * self.type_size > self.padded_chunk_bytes
               for c in self.per_core_elems if self.layout != LAYOUT_LAZY_ZIP):
            raise InvalidArgument(f"{self.id}: per-core bytes exceed padded chunk")


class ManagementContext:
    """Registry of arrays, bound to one device.

    ``last_plan`` is the plan of the most recent iterator kernel that ran
    (None before the first); reports read the executed plan from it.

    Meant to be driven from a single control thread; nothing here is
    concurrency-safe and nothing persists across processes.
    """

    def __init__(self, device: PimDevice):
        self.device = device
        self.registry: dict[str, ArrayMetadata] = {}
        self.last_plan = None
        self._handle_counter = 0

    def lookup(self, array_id: str) -> ArrayMetadata:
        try:
            return self.registry[array_id]
        except KeyError:
            raise UnknownArrayId(array_id) from None

    def check_new_id(self, array_id: str) -> None:
        if array_id in self.registry:
            raise DuplicateArrayId(array_id)

    def create(self, array_id: str, type_size: int, per_core_elems,
               layout: str = LAYOUT_SCATTERED,
               zip_sources: tuple[str, str] | None = None) -> ArrayMetadata:
        """Register an array of ``per_core_elems[c]`` elements of ``type_size``
        bytes on core ``c`` (a replicated one holds its ``len`` on every core)
        and reserve its padded chunk.  A taken id, a bad record or a full bank
        leaves nothing behind; a lazy zip reserves no bank space at all."""
        lazy = layout == LAYOUT_LAZY_ZIP
        length = (max(per_core_elems, default=0) if layout == LAYOUT_REPLICATED
                  else sum(per_core_elems))
        padded = 0 if lazy else chunk_footprint(per_core_elems, type_size,
                                                self.device.config.dma_alignment)
        meta = ArrayMetadata(id=array_id, len=length, type_size=type_size,
                             bank_offset=None, per_core_elems=tuple(per_core_elems),
                             padded_chunk_bytes=padded, layout=layout,
                             zip_sources=zip_sources)
        with self.rollback():
            self.register(meta)
            if not lazy:
                meta.bank_offset = self.device.alloc(padded)
        return meta

    def register(self, meta: ArrayMetadata) -> None:
        self.check_new_id(meta.id)
        if len(meta.per_core_elems) != self.device.config.num_cores:
            raise InvalidArgument(f"{meta.id}: need one count per core")
        meta.validate(self.device.config.dma_alignment)
        self.registry[meta.id] = meta

    def free(self, array_id: str) -> None:
        """Drop the id.  Bank space is reclaimed only when the array was the
        most recent allocation (LIFO discipline).  An array that a lazy zip
        still names cannot be freed; free the zip first."""
        meta = self.lookup(array_id)
        users = [m.id for m in self.registry.values()
                 if m.layout == LAYOUT_LAZY_ZIP and array_id in m.zip_sources]
        if users:
            raise ArrayInUse(f"{array_id} is a source of lazy zip {', '.join(users)}")
        del self.registry[array_id]
        if meta.bank_offset is not None:  # a lazy zip owns no storage
            self.device.dealloc(meta.bank_offset, meta.padded_chunk_bytes)

    @contextmanager
    def rollback(self):
        """Undo the block's effects on the host side if it raises, whatever
        the exception: free the ids registered inside it, newest first, which
        also returns their bank space to the bump cursor, then restore the
        traffic counters in place (callers may hold the object) and
        ``last_plan``, and cut the transfer log back.  Bank and scratchpad
        bytes are not restored."""
        device = self.device
        ids, log_len = set(self.registry), len(device.transfer_log)
        counters, last_plan = vars(device.stats).copy(), self.last_plan
        try:
            yield
        except BaseException:
            for array_id in reversed([a for a in self.registry if a not in ids]):
                self.free(array_id)
            vars(device.stats).update(counters)
            del device.transfer_log[log_len:]
            self.last_plan = last_plan
            raise

    def new_handle_id(self) -> str:
        self._handle_counter += 1
        return f"h{self._handle_counter}"
