import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import host_state, make_mgmt
from pimlite import comm, processing
from pimlite.comm import plan_scatter
from pimlite.device import TransferRecord, round_up
from pimlite.errors import (
    DuplicateArrayId,
    HostBufferInvalid,
    InvalidCombiner,
    UnknownArrayId,
    WrongLayout,
)
from pimlite.management import ArrayMetadata


def check_plan(plan, length, type_size, cores, align=8):
    """Independent checker for the chunking invariants: nothing lost, no
    element split, uniform aligned chunk, leading-full/one-partial/zeros."""
    counts = list(plan.per_core_elems)
    assert len(counts) == cores
    assert sum(counts) == length
    assert plan.padded_chunk_bytes % align == 0
    assert all(c * type_size <= plan.padded_chunk_bytes for c in counts)
    assert counts == sorted(counts, reverse=True)
    base = counts[0]
    i = 0
    while i < cores and counts[i] == base and base > 0:
        i += 1
    if i < cores and counts[i] > 0:  # at most one short remainder core
        assert counts[i] < base
        i += 1
    assert all(c == 0 for c in counts[i:])
    # boundaries between data-holding cores must land on aligned byte offsets,
    # otherwise equal-sized parallel chunks could not be carved without
    # splitting an element
    cumulative = 0
    for idx, c in enumerate(counts[:-1]):
        cumulative += c
        if counts[idx + 1]:
            assert (cumulative * type_size) % align == 0 or cumulative == length


class TestPlanScatter:
    def test_even_aligned_split(self):
        plan = plan_scatter(8, 4, 2)
        assert plan.per_core_elems == (4, 4)
        assert plan.padded_chunk_bytes == 16

    def test_rounded_base_with_remainder(self):
        # ceil(10/4)=3 rounds up to 4 (two 4-byte elements per 8-byte group)
        plan = plan_scatter(10, 4, 4)
        assert plan.per_core_elems == (4, 4, 2, 0)
        assert plan.padded_chunk_bytes == 16
        check_plan(plan, 10, 4, 4)

    def test_non_power_of_two_elements(self):
        plan = plan_scatter(5, 12, 2)
        assert plan.per_core_elems == (4, 1)
        assert plan.padded_chunk_bytes == 48
        check_plan(plan, 5, 12, 2)

    def test_large_machine_shape(self):
        plan = plan_scatter(1_000_000, 4, 608)
        assert plan.per_core_elems[0] == 1646
        assert plan.padded_chunk_bytes == 6584
        check_plan(plan, 1_000_000, 4, 608)

    def test_empty_plan(self):
        plan = plan_scatter(0, 8, 4)
        assert plan.per_core_elems == (0, 0, 0, 0)
        assert plan.padded_chunk_bytes == 0

    @settings(max_examples=300, deadline=None)
    @given(length=st.integers(0, 100_000),
           type_size=st.sampled_from([1, 2, 3, 4, 7, 8, 12, 16, 24, 40, 64]),
           cores=st.integers(1, 64))
    def test_invariants_fuzzed(self, length, type_size, cores):
        check_plan(plan_scatter(length, type_size, cores), length, type_size, cores)


class TestScatterGather:
    def test_roundtrip_bytes_identical(self):
        mgmt = make_mgmt(cores=4)
        payload = np.random.default_rng(0).integers(0, 256, 10 * 12, dtype=np.uint8)
        comm.scatter(mgmt, "x", payload, 10, 12)
        assert np.array_equal(comm.gather(mgmt, "x"), payload)

    def test_roundtrip_strips_padding(self):
        # the (4, 1) split of five 12-byte elements pads core 1 from 12 B
        # up to 48 B; gather must drop those bytes
        mgmt = make_mgmt(cores=2)
        payload = np.arange(60, dtype=np.uint8)
        comm.scatter(mgmt, "x", payload, 5, 12)
        assert mgmt.lookup("x").per_core_elems == (4, 1)
        assert np.array_equal(comm.gather(mgmt, "x"), payload)

    def test_empty_array(self):
        mgmt = make_mgmt(cores=2)
        comm.scatter(mgmt, "x", b"", 0, 4)
        assert mgmt.lookup("x").len == 0
        assert comm.gather(mgmt, "x").size == 0

    def test_gather_unknown_id(self, mgmt):
        with pytest.raises(UnknownArrayId):
            comm.gather(mgmt, "nope")

    def test_gather_wrong_layout(self, mgmt):
        comm.broadcast(mgmt, "r", np.zeros(4, np.uint32), 4, 4)
        with pytest.raises(WrongLayout):
            comm.gather(mgmt, "r")

    @settings(max_examples=150, deadline=None)
    @given(length=st.integers(0, 3000),
           type_size=st.sampled_from([1, 2, 3, 4, 7, 8, 12, 16, 24, 40]),
           cores=st.integers(1, 12), lead=st.integers(0, 40), seed=st.integers(0, 99))
    def test_scatter_equals_a_per_core_copy(self, length, type_size, cores, lead, seed):
        # the chunks of every core before the last non-empty one fill the
        # padded chunk exactly, so they are consecutive slices of the input
        plan = plan_scatter(length, type_size, cores)
        nonempty = [c for c, n in enumerate(plan.per_core_elems) if n]
        assert all(plan.per_core_elems[c] * type_size == plan.padded_chunk_bytes
                   for c in nonempty[:-1])
        payload = np.random.default_rng(seed).integers(
            0, 256, length * type_size, dtype=np.uint8)
        fast, slow = (make_mgmt(cores=cores, bank_bytes=1 << 18, log_transfers=True)
                      for _ in range(2))
        for m in (fast, slow):  # an earlier array puts the chunks off offset 0
            comm.broadcast(m, "lead", np.ones(lead, np.uint8), lead, 1)
        comm.scatter(fast, "x", payload, length, type_size)
        # the reference: stage each core's chunk with its own copy
        dev = slow.device
        offset = dev.alloc(plan.padded_chunk_bytes)
        if plan.padded_chunk_bytes:
            buf = np.zeros((cores, plan.padded_chunk_bytes), np.uint8)
            pos = 0
            for core, count in enumerate(plan.per_core_elems):
                buf[core, :count * type_size] = payload[pos:pos + count * type_size]
                pos += count * type_size
            dev.host_parallel_transfer(comm.TO_PIM, buf, offset, plan.padded_chunk_bytes)
        assert fast.lookup("x").bank_offset == offset
        assert fast.lookup("x").per_core_elems == plan.per_core_elems
        assert np.array_equal(fast.device.banks, dev.banks)
        assert fast.device.stats == dev.stats
        assert fast.device.transfer_log == dev.transfer_log
        assert fast.device.cursors == dev.cursors
        assert np.array_equal(comm.gather(fast, "x"), payload)

    def test_scatter_duplicate_id(self, mgmt):
        comm.scatter(mgmt, "x", np.zeros(4, np.uint32), 4, 4)
        with pytest.raises(DuplicateArrayId):
            comm.scatter(mgmt, "x", np.zeros(4, np.uint32), 4, 4)


def register_raw(mgmt, per_core_elems, type_size, padded, seed=0):
    """Register a scattered array with the given distribution directly, its
    chunks (padding included) filled with random bytes; returns its id."""
    dev = mgmt.device
    offset = dev.alloc(padded)
    rng = np.random.default_rng(seed)
    dev.banks[:, offset:offset + padded] = rng.integers(
        0, 256, (dev.config.num_cores, padded), dtype=np.uint8)
    mgmt.register(ArrayMetadata(
        id="x", len=sum(per_core_elems), type_size=type_size, bank_offset=offset,
        per_core_elems=tuple(per_core_elems), padded_chunk_bytes=padded))
    return "x"


def parallel_gather(mgmt, array_id):
    """The reference gather: every core's padded chunk in one parallel
    transfer, the element bytes of each concatenated."""
    dev, meta = mgmt.device, mgmt.lookup(array_id)
    if meta.len == 0:
        return np.empty(0, np.uint8)
    buf = np.zeros((dev.config.num_cores, meta.padded_chunk_bytes), np.uint8)
    dev.host_parallel_transfer(comm.TO_HOST, buf, meta.bank_offset,
                               meta.padded_chunk_bytes)
    return np.concatenate([buf[core, :count * meta.type_size]
                           for core, count in enumerate(meta.per_core_elems) if count])


class TestGatherFromOneCore:
    """An array that one core holds comes back in one serial transfer of that
    core's aligned bytes, not one padded chunk per core."""

    def expect_one_serial_pull(self, mgmt, array_id, core, nbytes):
        dev, meta = mgmt.device, mgmt.lookup(array_id)
        before, log_start = dev.stats.copy(), len(dev.transfer_log)
        out = comm.gather(mgmt, array_id)
        pulled = round_up(nbytes, dev.config.dma_alignment)
        assert dev.stats.pim_to_host_bytes - before.pim_to_host_bytes == pulled
        assert (dev.stats.serial_transfers - before.serial_transfers,
                dev.stats.parallel_transfers - before.parallel_transfers) == (1, 0)
        assert dev.transfer_log[log_start:] == [
            TransferRecord("serial", comm.TO_HOST, core, meta.bank_offset, None, pulled)]
        assert out.size == nbytes and out.flags.writeable
        assert not np.shares_memory(out, dev.banks)
        return out

    def test_reduction_output_on_core_zero(self):
        mgmt = make_mgmt(cores=4, log_transfers=True)
        comm.scatter(mgmt, "v", np.arange(100, dtype=np.uint32), 100, 4)
        processing.array_red(mgmt, "v", "sum", 4, 3, _acc_handle(mgmt))
        assert mgmt.lookup("sum").per_core_elems == (3, 0, 0, 0)
        out = self.expect_one_serial_pull(mgmt, "sum", 0, 12)
        assert out.view(np.uint32).tolist() == [4950, 0, 0]  # every value on key 0

    @pytest.mark.parametrize("core", [1, 4])
    def test_array_on_a_later_core(self, core):
        mgmt = make_mgmt(cores=5, log_transfers=True)
        counts = [0] * 5
        counts[core] = 3
        array_id = register_raw(mgmt, counts, 5, 24, seed=core)  # 15 B -> 16 B pulled
        meta = mgmt.lookup(array_id)
        want = mgmt.device.banks[core, meta.bank_offset:meta.bank_offset + 15].copy()
        out = self.expect_one_serial_pull(mgmt, array_id, core, 15)
        assert np.array_equal(out, want)

    @settings(max_examples=200, deadline=None)
    @given(cores=st.integers(1, 9),
           type_size=st.sampled_from([1, 2, 3, 4, 5, 8, 12, 40]),
           data=st.data(), seed=st.integers(0, 2**16))
    def test_bytes_equal_the_parallel_reference(self, cores, type_size, data, seed):
        counts = data.draw(st.lists(
            st.one_of(st.just(0), st.integers(1, 30)), min_size=cores, max_size=cores))
        padded = round_up(max(counts) * type_size, 8) + data.draw(st.sampled_from([0, 8, 32]))
        fast, slow = (make_mgmt(cores=cores, bank_bytes=1 << 16) for _ in range(2))
        for m in (fast, slow):
            register_raw(m, counts, type_size, padded, seed)
        want = parallel_gather(slow, "x")
        before = fast.device.stats.copy()
        out = comm.gather(fast, "x")
        assert np.array_equal(out, want) and out.dtype == np.uint8
        moved = fast.device.stats.pim_to_host_bytes - before.pim_to_host_bytes
        holders = sum(1 for c in counts if c)
        if holders == 0:
            assert fast.device.stats == before
        elif holders == 1 and cores > 1:
            assert moved == round_up(sum(counts) * type_size, 8)
            assert (fast.device.stats.serial_transfers - before.serial_transfers,
                    fast.device.stats.parallel_transfers - before.parallel_transfers) == (1, 0)
        else:  # one-core devices and arrays several cores hold: as the reference
            assert fast.device.stats == slow.device.stats

    def test_allgather_copies_it_to_every_core(self):
        mgmt = make_mgmt(cores=3)
        register_raw(mgmt, [0, 0, 7], 4, 32, seed=9)
        meta = mgmt.lookup("x")
        want = mgmt.device.banks[2, meta.bank_offset:meta.bank_offset + 28].copy()
        comm.allgather(mgmt, "x", "xa")
        full = mgmt.lookup("xa")
        assert (full.layout, full.per_core_elems) == ("replicated", (7, 7, 7))
        for core in range(3):
            assert np.array_equal(
                mgmt.device.banks[core, full.bank_offset:full.bank_offset + 28], want)


@pytest.mark.parametrize("collective", [comm.scatter, comm.broadcast])
@pytest.mark.parametrize("host", [np.zeros(5, np.uint8), b"abc", np.zeros(3, np.uint32)],
                         ids=["5-bytes", "3-bytes", "12-bytes"])
def test_host_buffer_of_the_wrong_byte_count_raises_before_anything_moves(collective,
                                                                          host):
    mgmt = make_mgmt(cores=2)
    dev = mgmt.device
    with pytest.raises(HostBufferInvalid):
        collective(mgmt, "x", host, 2, 4)  # 8 bytes expected
    assert dev.cursors == [0, 0] and mgmt.registry == {}
    assert dev.stats == type(dev.stats)() and not dev.banks.any()


class TestBroadcast:
    def test_all_cores_hold_the_array(self):
        mgmt = make_mgmt(cores=2)
        data = np.array([5, 6, 7, 8], np.uint32)
        comm.broadcast(mgmt, "w", data, 4, 4)
        meta = mgmt.lookup("w")
        for core in range(2):
            local = mgmt.device.banks[core, meta.bank_offset:meta.bank_offset + 16]
            assert np.array_equal(local.view(np.uint32), data)

    def test_metadata(self, mgmt):
        comm.broadcast(mgmt, "w", np.zeros(3, np.uint32), 3, 4)
        meta = mgmt.lookup("w")
        assert meta.layout == "replicated"
        assert meta.len == 3
        assert meta.padded_chunk_bytes == 16  # 12 bytes padded up

    def test_traffic_is_padded_copy_per_core(self):
        mgmt = make_mgmt(cores=2)
        comm.broadcast(mgmt, "w", np.zeros(3, np.uint32), 3, 4)
        assert mgmt.device.stats.host_to_pim_bytes == 2 * 16


def _acc_handle(mgmt):
    def init(a):
        a[:] = 0

    def to_val(src, ctx):
        v = src.view(np.uint32).ravel()
        return v, np.zeros(v.size, np.int64)

    def acc(dst, src):
        a = dst.view(np.uint32)
        np.add(a, src.view(np.uint32), out=a)

    return processing.create_handle(mgmt, processing.REDUCE, init_func=init,
                                    map_to_val_func=to_val, acc_func=acc)


class TestAllreduce:
    def _replicate(self, mgmt, per_core_rows):
        rows = np.asarray(per_core_rows, np.uint32)
        comm.broadcast(mgmt, "r", rows[0], rows.shape[1], 4)
        meta = mgmt.lookup("r")
        for core in range(1, rows.shape[0]):  # place distinct per-core copies
            mgmt.device.host_serial_transfer(
                core, comm.TO_PIM, rows[core].view(np.uint8),
                meta.bank_offset, rows.shape[1] * 4)
        return meta

    def _replicas(self, mgmt, meta):
        nbytes = meta.len * 4
        return [mgmt.device.banks[c, meta.bank_offset:meta.bank_offset + nbytes]
                .view(np.uint32).copy() for c in range(mgmt.device.config.num_cores)]

    def test_two_core_addition(self):
        mgmt = make_mgmt(cores=2)
        meta = self._replicate(mgmt, [[1, 2], [3, 4]])
        comm.allreduce(mgmt, "r", _acc_handle(mgmt))
        assert all(np.array_equal(r, [4, 6]) for r in self._replicas(mgmt, meta))

    def test_single_core_identity(self):
        mgmt = make_mgmt(cores=1)
        comm.broadcast(mgmt, "r", np.array([9, 8, 7], np.uint32), 3, 4)
        comm.allreduce(mgmt, "r", _acc_handle(mgmt))
        meta = mgmt.lookup("r")
        assert np.array_equal(self._replicas(mgmt, meta)[0], [9, 8, 7])

    def test_one_hot_fold_matches_host_oracle(self):
        mgmt = make_mgmt(cores=4)
        rows = np.eye(4, dtype=np.uint32)
        meta = self._replicate(mgmt, rows)
        comm.allreduce(mgmt, "r", _acc_handle(mgmt))
        expected = rows.sum(axis=0, dtype=np.uint32)
        assert all(np.array_equal(r, expected) for r in self._replicas(mgmt, meta))

    def test_wrong_layout(self, mgmt):
        comm.scatter(mgmt, "s", np.zeros(8, np.uint32), 8, 4)
        with pytest.raises(WrongLayout):
            comm.allreduce(mgmt, "s", _acc_handle(mgmt))

    def test_combiner_wider_than_the_element_raises_before_any_transfer(self):
        # u64 values do not tile 4-byte elements, as array_red already refuses
        mgmt = make_mgmt(cores=4)
        meta = self._replicate(mgmt, np.arange(8, dtype=np.uint32).reshape(4, 2))
        handle = processing.create_handle(
            mgmt, processing.REDUCE, map_to_val_func=lambda s, c: None,
            combine=(np.add, np.uint64))
        banks, before = mgmt.device.banks.copy(), mgmt.device.stats.copy()
        with pytest.raises(InvalidCombiner):
            comm.allreduce(mgmt, "r", handle)
        assert mgmt.device.stats == before
        assert np.array_equal(mgmt.device.banks, banks)
        assert mgmt.lookup("r") == meta

    def test_zero_length_array_calls_nothing_and_moves_nothing(self):
        mgmt = make_mgmt(cores=3, log_transfers=True)
        comm.broadcast(mgmt, "r", np.zeros(0, np.uint32), 0, 4)
        calls = []
        handle = _acc_handle(mgmt)
        handle.acc_func = lambda dst, src: calls.append(1)
        before = host_state(mgmt, handle, banks=True)
        comm.allreduce(mgmt, "r", handle)
        assert calls == []
        assert host_state(mgmt, handle, banks=True) == before


class TestAllgather:
    def test_every_core_holds_concatenation(self):
        mgmt = make_mgmt(cores=2)
        data = np.arange(8, dtype=np.uint32)
        comm.scatter(mgmt, "x", data, 8, 4)
        comm.allgather(mgmt, "x", "xa")
        meta = mgmt.lookup("xa")
        assert meta.layout == "replicated"
        for core in range(2):
            local = mgmt.device.banks[core, meta.bank_offset:meta.bank_offset + 32]
            assert np.array_equal(local.view(np.uint32), data)

    def test_consistent_with_gather(self):
        mgmt = make_mgmt(cores=4)
        payload = np.random.default_rng(1).integers(0, 256, 33 * 12, dtype=np.uint8)
        comm.scatter(mgmt, "x", payload, 33, 12)
        reference = comm.gather(mgmt, "x")
        comm.allgather(mgmt, "x", "xa")
        meta = mgmt.lookup("xa")
        nbytes = meta.len * meta.type_size
        for core in range(4):
            local = mgmt.device.banks[core, meta.bank_offset:meta.bank_offset + nbytes]
            assert np.array_equal(local, reference)

    def test_uneven_non_power_of_two_split(self):
        mgmt = make_mgmt(cores=2)
        payload = np.arange(60, dtype=np.uint8)
        comm.scatter(mgmt, "x", payload, 5, 12)  # (4, 1) split
        comm.allgather(mgmt, "x", "xa")
        meta = mgmt.lookup("xa")
        assert meta.len == 5
        for core in range(2):
            local = mgmt.device.banks[core, meta.bank_offset:meta.bank_offset + 60]
            assert np.array_equal(local, payload)


def test_collectives_route_through_host_only():
    # the transfer log of a collective-heavy run must contain only host
    # commands and intra-core DMA; there is no core-to-core operation at all
    mgmt = make_mgmt(cores=4, log_transfers=True)
    data = np.arange(40, dtype=np.uint32)
    comm.scatter(mgmt, "x", data, 40, 4)
    comm.allgather(mgmt, "x", "xa")
    comm.allreduce(mgmt, "xa", _acc_handle(mgmt))
    ops = {rec.op for rec in mgmt.device.transfer_log}
    assert ops <= {"parallel", "serial", "dma_read", "dma_write"}
    assert all(rec.core == -1 or 0 <= rec.core < 4
               for rec in mgmt.device.transfer_log)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(0, 3000),
       type_size=st.sampled_from([1, 2, 4, 8, 12, 16, 24, 40]),
       cores=st.integers(1, 32),
       seed=st.integers(0, 2**16))
def test_roundtrip_property(length, type_size, cores, seed):
    mgmt = make_mgmt(cores=cores)
    payload = np.random.default_rng(seed).integers(
        0, 256, length * type_size, dtype=np.uint8)
    comm.scatter(mgmt, "x", payload, length, type_size)
    assert np.array_equal(comm.gather(mgmt, "x"), payload)
