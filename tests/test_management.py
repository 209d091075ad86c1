import numpy as np
import pytest

from conftest import TEST_BANK_BYTES, host_state, make_mgmt
from pimlite import comm, processing
from pimlite.errors import (
    ArrayInUse,
    DuplicateArrayId,
    InvalidArgument,
    OutOfBankMemory,
    UnknownArrayId,
)
from pimlite.management import (
    LAYOUT_LAZY_ZIP,
    LAYOUT_REPLICATED,
    LAYOUT_SCATTERED,
    ArrayMetadata,
)


def scatter_u32(mgmt, name, values):
    arr = np.asarray(values, np.uint32)
    comm.scatter(mgmt, name, arr, arr.size, 4)
    return arr


def test_lookup_after_scatter(mgmt):
    scatter_u32(mgmt, "t1", range(10))
    meta = mgmt.lookup("t1")
    assert meta.len == 10
    assert meta.type_size == 4
    assert meta.layout == LAYOUT_SCATTERED
    # the registered split is exactly what the transfer planner computes
    plan = comm.plan_scatter(10, 4, 2, mgmt.device.config.dma_alignment)
    assert meta.per_core_elems == plan.per_core_elems
    assert meta.padded_chunk_bytes == plan.padded_chunk_bytes


def test_lookup_missing_id(mgmt):
    with pytest.raises(UnknownArrayId):
        mgmt.lookup("missing")


def test_map_output_is_registered_scattered(mgmt):
    scatter_u32(mgmt, "t1", range(8))

    def double(src, dst, ctx):
        out = dst.view(np.uint32)
        np.multiply(src.view(np.uint32), 2, out=out)

    handle = processing.create_handle(mgmt, processing.MAP, map_func=double)
    processing.array_map(mgmt, "t1", "t2", 4, handle)
    meta = mgmt.lookup("t2")
    assert meta.layout == LAYOUT_SCATTERED
    assert meta.per_core_elems == mgmt.lookup("t1").per_core_elems


def test_register_rejects_duplicates(mgmt):
    scatter_u32(mgmt, "t1", range(4))
    with pytest.raises(DuplicateArrayId):
        scatter_u32(mgmt, "t1", range(4))


def test_free_releases_the_name(mgmt):
    scatter_u32(mgmt, "t1", range(4))
    mgmt.free("t1")
    with pytest.raises(UnknownArrayId):
        mgmt.lookup("t1")
    scatter_u32(mgmt, "t1", range(6))  # name reusable
    assert mgmt.lookup("t1").len == 6


def test_free_unknown_id(mgmt):
    with pytest.raises(UnknownArrayId):
        mgmt.free("nope")


def test_free_most_recent_rolls_cursor_back(mgmt):
    scatter_u32(mgmt, "a", range(100))
    before = mgmt.device.cursors[0]
    scatter_u32(mgmt, "b", range(50))
    meta = mgmt.lookup("b")
    mgmt.free("b")
    assert mgmt.device.cursors[0] == before
    assert before == meta.bank_offset


def test_free_non_recent_keeps_cursor(mgmt):
    scatter_u32(mgmt, "a", range(100))
    scatter_u32(mgmt, "b", range(50))
    top = mgmt.device.cursors[0]
    mgmt.free("a")
    assert mgmt.device.cursors[0] == top


def test_lazy_zip_records_own_no_storage(mgmt):
    scatter_u32(mgmt, "a", range(8))
    scatter_u32(mgmt, "b", range(8))
    cursor = mgmt.device.cursors[0]
    processing.array_zip(mgmt, "a", "b", "ab")
    meta = mgmt.lookup("ab")
    assert meta.layout == LAYOUT_LAZY_ZIP
    assert meta.bank_offset is None
    assert meta.zip_sources == ("a", "b")
    assert mgmt.device.cursors[0] == cursor
    mgmt.free("ab")
    assert mgmt.device.cursors[0] == cursor


def test_zip_source_cannot_be_freed_while_the_zip_is_registered(mgmt):
    # freeing "b" and scattering 100..107 under its name used to make the
    # zip read the new data
    scatter_u32(mgmt, "a", range(8))
    scatter_u32(mgmt, "b", range(8))
    processing.array_zip(mgmt, "a", "b", "ab")
    registry, cursor = dict(mgmt.registry), mgmt.device.cursors[0]
    with pytest.raises(ArrayInUse):
        mgmt.free("b")
    assert mgmt.registry == registry and mgmt.device.cursors[0] == cursor
    with pytest.raises(DuplicateArrayId):
        scatter_u32(mgmt, "b", range(100, 108))

    def second(src, dst, ctx):
        dst.view(np.uint32)[:, 0] = src.view(np.uint32)[:, 1]

    handle = processing.create_handle(mgmt, processing.MAP, map_func=second)
    processing.array_map(mgmt, "ab", "out", 4, handle)
    assert np.array_equal(comm.gather(mgmt, "out").view(np.uint32), np.arange(8))
    mgmt.free("out")
    mgmt.free("ab")
    mgmt.free("b")
    assert set(mgmt.registry) == {"a"}


def test_metadata_validation():
    meta = ArrayMetadata(id="x", len=10, type_size=4, bank_offset=0,
                         per_core_elems=(4, 4), padded_chunk_bytes=16)
    with pytest.raises(ValueError):
        meta.validate(8)  # counts sum to 8, not 10


def test_no_overlapping_registrations(mgmt):
    scatter_u32(mgmt, "a", range(64))
    comm.broadcast(mgmt, "c", np.arange(5, dtype=np.uint32), 5, 4)
    scatter_u32(mgmt, "b", range(32))
    regions = [(m.bank_offset, m.bank_offset + m.padded_chunk_bytes)
               for m in mgmt.registry.values() if m.layout != LAYOUT_LAZY_ZIP]
    regions.sort()
    for (lo1, hi1), (lo2, hi2) in zip(regions, regions[1:]):
        assert hi1 <= lo2


def test_replicated_metadata_shape(mgmt):
    comm.broadcast(mgmt, "c", np.arange(5, dtype=np.uint32), 5, 4)
    meta = mgmt.lookup("c")
    assert meta.layout == LAYOUT_REPLICATED
    assert meta.per_core_elems == (5, 5)


class TestCreate:
    def test_reserves_the_padded_footprint_of_the_largest_chunk(self, mgmt):
        meta = mgmt.create("s", 12, (3, 2))
        assert (meta.len, meta.bank_offset, meta.padded_chunk_bytes) == (5, 0, 40)
        assert mgmt.lookup("s") is meta
        assert mgmt.device.cursors == [40, 40]
        rep = mgmt.create("r", 4, (5, 5), LAYOUT_REPLICATED)
        assert (rep.len, rep.bank_offset, rep.padded_chunk_bytes) == (5, 40, 24)

    def test_a_lazy_zip_reserves_nothing(self, mgmt):
        mgmt.create("a", 4, (4, 4))
        mgmt.create("b", 4, (4, 4))
        zipped = mgmt.create("ab", 8, (4, 4), LAYOUT_LAZY_ZIP, ("a", "b"))
        assert (zipped.bank_offset, zipped.padded_chunk_bytes) == (None, 0)
        assert mgmt.device.cursors == [32, 32]

    @pytest.mark.parametrize("args,error", [
        (("t1", 4, (4, 4)), DuplicateArrayId),
        (("z", 0, (4, 4)), InvalidArgument),
        (("z", 4, (4,)), InvalidArgument),
        (("z", 4, (TEST_BANK_BYTES, 0)), OutOfBankMemory),
    ], ids=["taken-id", "type-size", "one-count", "bank-full"])
    def test_a_refused_array_reserves_nothing(self, mgmt, args, error):
        scatter_u32(mgmt, "t1", range(4))
        registry, cursors = dict(mgmt.registry), list(mgmt.device.cursors)
        with pytest.raises(error):
            mgmt.create(*args)
        assert mgmt.registry == registry and mgmt.device.cursors == cursors


class Raised(BaseException):
    """Not an ``Exception``: ``rollback`` must undo whatever the block raises."""


class TestRollback:
    def test_a_raising_block_leaves_the_host_state_as_it_found_it(self):
        mgmt = make_mgmt(log_transfers=True)
        scatter_u32(mgmt, "t1", range(10))
        mgmt.last_plan = "before"
        before = host_state(mgmt)
        with pytest.raises(Raised):
            with mgmt.rollback():
                scatter_u32(mgmt, "a", range(6))
                comm.broadcast(mgmt, "c", np.arange(4, dtype=np.uint32), 4, 4)
                mgmt.last_plan = "inside"
                raise Raised
        assert host_state(mgmt) == before
        assert list(mgmt.registry) == ["t1"]

    def test_ids_are_freed_newest_first(self, mgmt, monkeypatch):
        freed = []
        free = mgmt.free
        monkeypatch.setattr(mgmt, "free", lambda array_id: (freed.append(array_id),
                                                            free(array_id)))
        with pytest.raises(Raised):
            with mgmt.rollback():
                for name in ("a", "b", "c"):
                    scatter_u32(mgmt, name, range(4))
                raise Raised
        assert freed == ["c", "b", "a"]
        assert mgmt.device.cursors == [0, 0]

    def test_a_clean_block_keeps_its_effects(self):
        mgmt = make_mgmt(log_transfers=True)
        with mgmt.rollback():
            scatter_u32(mgmt, "a", range(6))
            mgmt.last_plan = "inside"
        assert list(mgmt.registry) == ["a"] and mgmt.last_plan == "inside"
        assert mgmt.device.stats.host_to_pim_bytes > 0 and mgmt.device.transfer_log
