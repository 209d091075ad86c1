import mmap
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_device, make_mgmt
from pimlite import apps, comm, device
from pimlite.device import (
    TO_HOST,
    TO_PIM,
    DeviceConfig,
    LockTable,
    PimDevice,
    TrafficStats,
    split_dma,
)
from pimlite.errors import (
    AlignmentViolation,
    HostBufferInvalid,
    InvalidArgument,
    LockMisuse,
    OutOfBankMemory,
    OutOfBounds,
    PimError,
    ScratchpadOverflow,
    SizeLimitViolation,
    TaskletCountInvalid,
    UnequalSliceSizes,
)


class TestConfig:
    def test_defaults(self):
        cfg = DeviceConfig(num_cores=4)
        assert cfg.dram_bank_bytes == 64 << 20
        assert cfg.scratchpad_bytes == 65536
        assert cfg.max_tasklets == 12
        assert cfg.dma_max_bytes == 2048
        assert cfg.dma_alignment == 8
        assert cfg.usable_scratchpad_bytes == 65536 - 8192

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DeviceConfig(num_cores=0)
        with pytest.raises(ValueError):
            DeviceConfig(num_cores=1, dma_max_bytes=2049)  # not divisible by 8
        with pytest.raises(ValueError):
            DeviceConfig(num_cores=1, dma_max_bytes=1 << 17)  # > scratchpad


class TestAlloc:
    def test_fresh_device_allocates_at_zero(self):
        dev = make_device(cores=2)
        assert dev.alloc(16) == 0
        assert dev.cursors == [16, 16]

    def test_requests_round_up_to_alignment(self):
        # 12 rounds up to 16, so the second region starts at 16
        dev = make_device()
        assert dev.alloc(12) == 0
        assert dev.alloc(8) == 16

    def test_out_of_bank_memory(self):
        dev = make_device()
        with pytest.raises(OutOfBankMemory):
            dev.alloc(dev.config.dram_bank_bytes + 1)

    @pytest.mark.parametrize("cores,bank_bytes", [
        (1 << 12, 1 << 40),  # 2**52 bytes: above a 47-bit address space
        (1 << 32, 1 << 32),  # 2**64 bytes: more than numpy can even index
    ])
    def test_banks_that_cannot_be_allocated(self, cores, bank_bytes):
        # the request fails at once, so nothing is reserved or touched
        with pytest.raises(OutOfBankMemory):
            PimDevice(DeviceConfig(num_cores=cores, dram_bank_bytes=bank_bytes))

    def test_dealloc_is_lifo(self):
        dev = make_device()
        first = dev.alloc(64)
        second = dev.alloc(32)
        assert not dev.dealloc(first, 64)  # not on top
        assert dev.cursors[0] == 96
        assert dev.dealloc(second, 32)
        assert dev.cursors[0] == 64

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4096), max_size=20))
    def test_symmetric_allocation(self, sizes):
        dev = make_device(cores=5)
        for n in sizes:
            dev.alloc(n)
        assert len(set(dev.cursors)) == 1


def resident_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def vm_flags(start: int, stop: int) -> list[set[str]]:
    """The ``VmFlags`` of every mapping in ``/proc/self/smaps`` that overlaps
    the addresses ``[start, stop)``."""
    found, overlaps = [], False
    with open("/proc/self/smaps") as f:
        for line in f:
            head = line.split()[0]
            if not head.endswith(":"):  # "start-end perms ..." opens a mapping
                lo, hi = (int(a, 16) for a in head.split("-"))
                overlaps = lo < stop and start < hi
            elif head == "VmFlags:" and overlaps:
                found.append(set(line.split()[1:]))
    return found


def populating_works() -> bool:
    """Whether the kernel populates a private anonymous mapping on request."""
    if not device._LINUX:
        return False
    probe = mmap.mmap(-1, mmap.PAGESIZE, flags=mmap.MAP_PRIVATE)
    try:
        probe.madvise(device._MADV_POPULATE_WRITE, 0, mmap.PAGESIZE)
    except OSError:
        return False
    finally:
        probe.close()
    return True


class TestBankMemory:
    @pytest.mark.parametrize("cores,bank_bytes", [(1, 8), (3, 1 << 12), (5, 1 << 20)])
    def test_banks_and_scratchpads_start_as_zeroed_rows(self, cores, bank_bytes):
        dev = make_device(cores=cores, bank_bytes=bank_bytes)
        for arr, row in ((dev.banks, bank_bytes),
                         (dev.scratchpads, dev.config.scratchpad_bytes)):
            assert arr.shape == (cores, row) and arr.dtype == np.uint8
            assert arr.flags.c_contiguous and arr.flags.writeable
            assert not arr.any()

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads resident memory from /proc/self/statm")
    def test_resident_memory_grows_with_the_bytes_touched(self):
        # 640 banks of 1 MB, 8 bytes scattered to each: a bank allocated in
        # huge pages makes hundreds of MB resident here
        before = resident_bytes()
        mgmt = make_mgmt(cores=640, bank_bytes=1 << 20)
        comm.scatter(mgmt, "x", np.arange(640, dtype=np.uint64), 640, 8)
        assert resident_bytes() - before < 32 << 20
        assert np.array_equal(mgmt.device.banks[:, :8].view(np.uint64).ravel(),
                              np.arange(640))

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                        reason="reads mapping flags from /proc/self/smaps")
    def test_banks_and_scratchpads_are_private_mappings_without_huge_pages(self):
        # private anonymous memory may get transparent huge pages on a host
        # whose setting is "always"; no-huge-page advice keeps base pages
        dev = make_device(cores=3)
        for rows in (dev.banks, dev.scratchpads):
            start = rows.ctypes.data
            flags = vm_flags(start, start + rows.size)
            assert flags, "mapping not found in smaps"
            for vma in flags:
                assert "nh" in vma and "sh" not in vma, vma

    def test_population_changes_no_bytes(self):
        # rows of 12,296 bytes: rows 1 and 2 start inside a page
        dev = make_device(cores=3, bank_bytes=12_296)
        assert dev.alloc(24) == 0
        payload = (np.arange(3 * 5000) % 251).astype(np.uint8).reshape(3, 5000)
        offset = dev.alloc(5000)
        dev.host_parallel_transfer(TO_PIM, payload, offset, 5000)
        assert dev.dealloc(offset, 5000) and dev.alloc(5000) == offset
        assert np.array_equal(dev.banks[:, offset:offset + 5000], payload)
        assert not dev.banks[:, :offset].any() and not dev.banks[:, offset + 5000:].any()
        dev.scratchpads[:, :64] = 9
        dev.launch_kernel(lambda device, p: None, 1, scratch_bytes=4096 + 8)
        assert (dev.scratchpads[:, :64] == 9).all()
        assert not dev.scratchpads[:, 64:].any()

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads resident memory from /proc/self/statm")
    def test_an_allocation_is_resident_before_any_write(self):
        if not populating_works():
            pytest.skip("the kernel does not populate on request")
        dev = make_device(cores=64)
        before = resident_bytes()
        dev.alloc(64 << 10)  # 64 KB in each of 64 banks: 4 MB
        assert resident_bytes() - before >= 3.5 * (1 << 20)

    @pytest.mark.parametrize("run,oracle", [
        (apps.run_vecadd, apps.oracle_vecadd),
        (apps.run_histogram, apps.oracle_histogram),
    ], ids=["vecadd", "histogram"])
    def test_a_refused_population_faults_pages_in_as_before(self, monkeypatch, run, oracle):
        spec = apps.BenchmarkSpec(total_elems=4321, bins=64, seed=3)
        expected = oracle(spec)
        results = []
        for refused in (False, True):
            if refused:  # an advice no kernel knows: every madvise raises OSError
                monkeypatch.setattr(device, "_MADV_POPULATE_WRITE", 9999)
                assert not populating_works()
            mgmt = make_mgmt(cores=4, log_transfers=True)
            out = run(mgmt, spec)
            assert np.array_equal(out, expected)
            results.append((mgmt.device.stats, mgmt.device.transfer_log))
        assert results[0] == results[1]


class TestDma:
    def _loaded_device(self):
        dev = make_device(cores=1)
        payload = np.arange(4096, dtype=np.uint8) % 251
        dev.host_serial_transfer(0, TO_PIM, payload, 0, 4096)
        return dev, payload

    def test_read_full_command(self):
        dev, payload = self._loaded_device()
        dev.dma_read(0, 1024, 0, 2048)
        assert np.array_equal(dev.scratchpads[0, :2048], payload[1024:3072])
        assert dev.stats.dram_to_scratch_bytes == 2048
        assert dev.stats.dma_commands == 1

    def test_unaligned_size_rejected(self):
        dev, _ = self._loaded_device()
        with pytest.raises(AlignmentViolation):
            dev.dma_read(0, 0, 0, 12)

    def test_unaligned_offsets_rejected(self):
        dev, _ = self._loaded_device()
        with pytest.raises(AlignmentViolation):
            dev.dma_read(0, 4, 0, 16)
        with pytest.raises(AlignmentViolation):
            dev.dma_read(0, 0, 4, 16)

    def test_oversized_command_rejected(self):
        dev, _ = self._loaded_device()
        with pytest.raises(SizeLimitViolation):
            dev.dma_read(0, 0, 0, 2056)

    def test_out_of_bounds_rejected(self):
        dev = make_device(cores=1, bank_bytes=4096)
        with pytest.raises(OutOfBounds):
            dev.dma_read(0, 4096 - 8, 0, 16)
        with pytest.raises(OutOfBounds):
            dev.dma_read(0, 0, dev.config.scratchpad_bytes - 8, 16)

    def test_write_mirrors_read(self):
        dev = make_device(cores=1)
        dev.scratchpads[0, :64] = 7
        dev.dma_write(0, 0, 128, 64)
        assert (dev.banks[0, 128:192] == 7).all()
        assert dev.stats.scratch_to_dram_bytes == 64

    # (config overrides, core, dram offset, scratch offset, size, error); the
    # command is legal except for the one violation its name says
    VIOLATIONS = {
        "core_negative": ({}, -1, 0, 0, 64, OutOfBounds),
        "core_past_last": ({}, 2, 0, 0, 64, OutOfBounds),
        "size_zero": ({}, 0, 0, 0, 0, SizeLimitViolation),
        "size_negative": ({}, 0, 0, 0, -8, SizeLimitViolation),
        "size_over_limit": ({}, 0, 0, 0, 2048 + 8, SizeLimitViolation),
        "size_misaligned": ({}, 0, 0, 0, 12, AlignmentViolation),
        "dram_misaligned": ({}, 0, 4, 0, 64, AlignmentViolation),
        "scratch_misaligned": ({}, 0, 0, 4, 64, AlignmentViolation),
        "dram_negative": ({}, 0, -8, 0, 64, OutOfBounds),
        "scratch_negative": ({}, 0, 0, -8, 64, OutOfBounds),
        "dram_past_end": ({}, 0, 4096 - 8, 0, 16, OutOfBounds),
        "scratch_past_end": ({}, 0, 0, 65536 - 8, 16, OutOfBounds),
        # alignment 12 is not a power of two: 4 | 8 | 12 is a multiple of 12
        "alignment_12": ({"dma_max_bytes": 1536, "dma_alignment": 12}, 0, 4, 8, 12,
                         AlignmentViolation),
        # a range of cores must be non-empty, of step 1 and inside the device
        "range_empty": ({}, range(1, 1), 0, 0, 64, OutOfBounds),
        "range_step_2": ({}, range(0, 2, 2), 0, 0, 64, OutOfBounds),
        "range_past_last": ({}, range(1, 3), 0, 0, 64, OutOfBounds),
        "range_negative_start": ({}, range(-1, 1), 0, 0, 64, OutOfBounds),
        # a valid range with a bad command
        "range_size_misaligned": ({}, range(0, 2), 0, 0, 12, AlignmentViolation),
        "range_dram_past_end": ({}, range(0, 2), 4096 - 8, 0, 16, OutOfBounds),
    }

    @pytest.mark.parametrize("op", ["dma_read", "dma_write"])
    @pytest.mark.parametrize("violation", VIOLATIONS)
    def test_rejected_command_changes_nothing(self, op, violation):
        overrides, core, dram, scratch, nbytes, error = self.VIOLATIONS[violation]
        dev = make_device(cores=2, bank_bytes=4096, log_transfers=True, **overrides)
        rng = np.random.default_rng(7)
        dev.banks[:] = rng.integers(0, 256, dev.banks.shape, dtype=np.uint8)
        dev.scratchpads[:] = rng.integers(0, 256, dev.scratchpads.shape, dtype=np.uint8)
        dev.dma_read(1, 0, 0, 24)  # one logged command to keep
        banks, scratchpads = dev.banks.copy(), dev.scratchpads.copy()
        stats, log = dev.stats.copy(), list(dev.transfer_log)
        with pytest.raises(error):
            if op == "dma_read":
                dev.dma_read(core, dram, scratch, nbytes)
            else:
                dev.dma_write(core, scratch, dram, nbytes)
        assert np.array_equal(dev.banks, banks)
        assert np.array_equal(dev.scratchpads, scratchpads)
        assert dev.stats == stats and dev.transfer_log == log

    @pytest.mark.parametrize("violation", VIOLATIONS)
    def test_a_run_of_commands_is_checked_before_any_counts(self, violation):
        # the bulk path of the iterators issues runs of commands without
        # moving their bytes: a run counts and logs as its commands issued
        # one by one, and one bad command leaves no trace of the others
        overrides, core, dram, scratch, nbytes, error = self.VIOLATIONS[violation]
        cores = core if isinstance(core, range) else range(core, core + 1)
        good = [("dma_read", 48, 96, 240), ("dma_write", 480, 24, 24)]
        dev = make_device(cores=2, bank_bytes=4096, log_transfers=True, **overrides)
        ref = make_device(cores=2, bank_bytes=4096, log_transfers=True, **overrides)
        if cores.step == 1 and 0 <= cores.start < cores.stop <= 2:
            dev._issue(cores, good)
            for op, bank, scratch_off, n in good:
                if op == "dma_read":
                    ref.dma_read(cores, bank, scratch_off, n)
                else:
                    ref.dma_write(cores, scratch_off, bank, n)
            assert dev.stats == ref.stats and dev.transfer_log == ref.transfer_log
        stats, log = dev.stats.copy(), list(dev.transfer_log)
        with pytest.raises(error):
            dev._issue(cores, good + [("dma_write", dram, scratch, nbytes)])
        assert not dev.banks.any() and not dev.scratchpads.any()
        assert dev.stats == stats and dev.transfer_log == log

    @pytest.mark.parametrize("op", ["dma_read", "dma_write"])
    @pytest.mark.parametrize("cores", [range(1, 3), range(2, 3)], ids=["two", "one"])
    def test_a_range_of_cores_is_one_command_per_core(self, op, cores):
        # (bank offset, scratch offset, size) of two commands
        commands = [(64, 128, 256), (2048, 8, 2048)]
        devices = []
        for grouped in (True, False):
            dev = make_device(cores=4, bank_bytes=4096, log_transfers=True)
            rng = np.random.default_rng(11)
            dev.banks[:] = rng.integers(0, 256, dev.banks.shape, dtype=np.uint8)
            dev.scratchpads[:] = rng.integers(0, 256, dev.scratchpads.shape,
                                              dtype=np.uint8)
            for bank, scratch, nbytes in commands:
                for core in [cores] if grouped else cores:
                    if op == "dma_read":
                        dev.dma_read(core, bank, scratch, nbytes)
                    else:
                        dev.dma_write(core, scratch, bank, nbytes)
            devices.append(dev)
        grouped, per_core = devices
        assert np.array_equal(grouped.banks, per_core.banks)
        assert np.array_equal(grouped.scratchpads, per_core.scratchpads)
        assert grouped.stats == per_core.stats
        assert grouped.stats.dma_commands == 2 * len(cores)
        assert grouped.transfer_log == per_core.transfer_log


class TestHostTransfers:
    def test_parallel_to_pim_updates_all_banks(self):
        dev = make_device(cores=2)
        data = np.vstack([np.full(16, 1, np.uint8), np.full(16, 2, np.uint8)])
        dev.host_parallel_transfer(TO_PIM, data, 0, 16)
        assert (dev.banks[0, :16] == 1).all()
        assert (dev.banks[1, :16] == 2).all()
        assert dev.stats.host_to_pim_bytes == 32
        assert dev.stats.parallel_transfers == 1

    def test_parallel_to_host_counts_bytes(self):
        # 4 cores x 2040 bytes -> 8160 bytes pulled back
        dev = make_device(cores=4)
        buf = np.zeros((4, 2040), np.uint8)
        dev.host_parallel_transfer(TO_HOST, buf, 0, 2040)
        assert dev.stats.pim_to_host_bytes == 4 * 2040 == 8160

    def test_to_host_into_a_buffer_list_raises_before_counting(self):
        # a list cannot be filled in place; the caller's buffers would stay
        # zero while the bytes were charged
        dev = make_device(cores=2)
        dev.banks[:, :8] = 7
        bufs = [np.zeros(8, np.uint8), np.zeros(8, np.uint8)]
        before = dev.stats.copy()
        with pytest.raises(HostBufferInvalid):
            dev.host_parallel_transfer(TO_HOST, bufs, 0, 8)
        assert dev.stats == before
        assert all((b == 0).all() for b in bufs)

    def test_serial_to_host_into_bytes_raises_before_counting(self):
        # a bytes object (or a read-only array) cannot be filled in place
        dev = make_device(cores=2)
        dev.banks[1, :8] = 7
        before = dev.stats.copy()
        for host in (bytes(8), bytearray(8), np.frombuffer(bytes(8), np.uint8)):
            with pytest.raises(HostBufferInvalid):
                dev.host_serial_transfer(1, TO_HOST, host, 0, 8)
        assert dev.stats == before
        dev.host_serial_transfer(1, TO_PIM, bytes(8), 0, 8)  # reading bytes is fine
        assert (dev.banks[1, :8] == 0).all()

    @pytest.mark.parametrize("kind,direction,host", [
        ("parallel", TO_PIM, np.full((2, 8), 300, np.uint32)),
        ("parallel", TO_PIM, [np.full(8, 300, np.uint32)] * 2),
        ("parallel", TO_PIM, np.full((2, 8), -1, np.int8)),
        ("parallel", TO_HOST, np.zeros((2, 8), np.uint32)),
        ("serial", TO_PIM, np.full(8, 1000, np.int64)),
        ("serial", TO_HOST, np.zeros(8, np.uint32)),
    ])
    def test_non_byte_host_array_raises_before_anything_moves(self, kind, direction,
                                                              host):
        # host transfers move bytes; a wider element would be truncated
        # silently (300 -> 44, 1000 -> 232) while the bytes were counted
        dev = make_device(cores=2, log_transfers=True)
        dev.banks[:, :24] = 7
        banks, before = dev.banks.copy(), dev.stats.copy()
        with pytest.raises(HostBufferInvalid):
            if kind == "parallel":
                dev.host_parallel_transfer(direction, host, 16, 8)
            else:
                dev.host_serial_transfer(0, direction, host, 16, 8)
        assert np.array_equal(dev.banks, banks)
        assert dev.stats == before and dev.transfer_log == []
        if direction == TO_HOST:
            assert (host == 0).all()

    @pytest.mark.parametrize("kind,host", [
        ("serial", np.zeros((2, 4), np.uint8)),
        ("serial", np.zeros((8, 1), np.uint8)),
        ("parallel", np.zeros(16, np.uint8)),
        ("parallel", np.zeros((2, 2, 4), np.uint8)),
        ("parallel", np.zeros((1, 16), np.uint8)),
    ])
    @pytest.mark.parametrize("direction", [TO_PIM, TO_HOST])
    def test_misshaped_byte_array_raises_before_anything_moves(self, kind, direction,
                                                               host):
        # the right dtype and number of bytes in the wrong shape used to fail
        # inside numpy's copy with an untyped ValueError
        dev = make_device(cores=2, log_transfers=True)
        dev.banks[:, :24] = 7
        banks, before = dev.banks.copy(), dev.stats.copy()
        with pytest.raises((HostBufferInvalid, UnequalSliceSizes)):
            if kind == "parallel":
                dev.host_parallel_transfer(direction, host, 16, 8)
            else:
                dev.host_serial_transfer(0, direction, host, 16, 8)
        assert np.array_equal(dev.banks, banks)
        assert dev.stats == before and dev.transfer_log == []
        assert (host == 0).all()

    def test_to_host_into_a_read_only_array_raises_before_anything_moves(self):
        dev = make_device(cores=2, log_transfers=True)
        dev.banks[:, :8] = 7
        host = np.zeros((2, 8), np.uint8)
        host.flags.writeable = False
        with pytest.raises(HostBufferInvalid):
            dev.host_parallel_transfer(TO_HOST, host, 0, 8)
        with pytest.raises(HostBufferInvalid):
            dev.host_serial_transfer(0, TO_HOST, host[0], 0, 8)
        assert dev.stats == TrafficStats() and dev.transfer_log == []

    def test_unequal_slices_rejected(self):
        # a parallel transfer takes one (cores, nbytes) array; a list or tuple
        # of rows is refused whether or not the rows are equal
        dev = make_device(cores=2, log_transfers=True)
        dev.banks[:, :16] = 7
        for rows in ([bytes(16), bytes(24)], [bytes(16), bytes(16)],
                     (bytes(16), bytes(16))):
            with pytest.raises(HostBufferInvalid):
                dev.host_parallel_transfer(TO_PIM, rows, 0, 16)
        assert (dev.banks[:, :16] == 7).all() and not dev.banks[:, 16:].any()
        assert dev.stats == TrafficStats() and dev.transfer_log == []

    def test_unaligned_parallel_rejected(self):
        dev = make_device(cores=2)
        with pytest.raises(AlignmentViolation):
            dev.host_parallel_transfer(TO_PIM, np.zeros((2, 12), np.uint8), 0, 12)

    def test_serial_roundtrip(self):
        dev = make_device(cores=3)
        payload = np.arange(24, dtype=np.uint8)
        dev.host_serial_transfer(1, TO_PIM, payload, 64, 24)
        back = np.zeros(24, np.uint8)
        dev.host_serial_transfer(1, TO_HOST, back, 64, 24)
        assert np.array_equal(back, payload)
        assert dev.stats.serial_transfers == 2
        assert (dev.banks[0] == 0).all() and (dev.banks[2] == 0).all()


class TestKernels:
    def test_noop_kernel_counts_launch(self):
        dev = make_device(cores=2)
        before = dev.banks.copy()
        calls = []

        def kernel(device, params):
            calls.append((device, params))

        params = object()
        dev.launch_kernel(kernel, num_tasklets=12, params=params)
        assert len(calls) == 1 and calls[0][0] is dev and calls[0][1] is params
        assert dev.stats.kernel_launches == 1
        assert np.array_equal(dev.banks, before)

    def test_tasklet_count_validated(self):
        dev = make_device()
        with pytest.raises(TaskletCountInvalid):
            dev.launch_kernel(lambda device, p: None, num_tasklets=13)
        with pytest.raises(TaskletCountInvalid):
            dev.launch_kernel(lambda device, p: None, num_tasklets=0)

    def test_scratch_claim_validated(self):
        # 12 tasklets x (2048 B buffer + 4096 B accumulator) = 73728 B,
        # more than the 65536 - 8192 usable bytes
        dev = make_device()
        claim = 12 * (2048 + 4096)
        assert claim > dev.config.usable_scratchpad_bytes
        with pytest.raises(ScratchpadOverflow):
            dev.launch_kernel(lambda device, p: None, 12, scratch_bytes=claim)

    def test_negative_scratch_claim_rejected_before_the_kernel_runs(self):
        dev = make_device(log_transfers=True)
        dev.dma_read(0, 0, 0, 8)  # one logged command to keep
        stats, log = dev.stats.copy(), list(dev.transfer_log)
        calls = []
        with pytest.raises(InvalidArgument):
            dev.launch_kernel(lambda device, p: calls.append(p), 1, scratch_bytes=-8)
        assert calls == []
        assert dev.stats == stats and dev.transfer_log == log

    def test_kernel_faults_propagate(self):
        dev = make_device(cores=1)

        def kernel(device, params):
            device.dma_read(0, 0, 0, 12)  # misaligned size

        with pytest.raises(AlignmentViolation):
            dev.launch_kernel(kernel, num_tasklets=1)
        assert dev.stats == TrafficStats()

    def test_split_dma_covers_a_large_transfer_in_address_order(self):
        assert split_dma(64, 8, 4096 + 16, 2048) == (
            (64, 8, 2048), (64 + 2048, 8 + 2048, 2048), (64 + 4096, 8 + 4096, 16))
        assert split_dma(0, 0, 4096, 2048) == ((0, 0, 2048), (2048, 2048, 2048))
        assert split_dma(0, 0, 0, 2048) == ()

    def test_launch_sorts_the_log_by_core(self):
        dev = make_device(cores=2, log_transfers=True)
        dev.scratchpads[:, :64] = np.arange(64, dtype=np.uint8)

        def kernel(device, params):
            # tasklet t writes scratch [16t, 16t+16) to bank 256 + 16t on
            # both cores, tasklet by tasklet
            for t in range(4):
                device.dma_write(range(2), 16 * t, 256 + 16 * t, 16)

        dev.launch_kernel(kernel, num_tasklets=4)
        assert (dev.banks[:, 256:320] == np.arange(64, dtype=np.uint8)).all()
        assert not dev.banks[:, :256].any() and not dev.banks[:, 320:].any()
        assert dev.stats.scratch_to_dram_bytes == 2 * 64
        assert (dev.stats.dma_commands, dev.stats.dram_to_scratch_bytes) == (8, 0)
        assert [(r.op, r.core, r.scratch_offset, r.bank_offset, r.nbytes)
                for r in dev.transfer_log] == [
            ("dma_write", core, 16 * t, 256 + 16 * t, 16)
            for core in range(2) for t in range(4)]

    def test_launch_sorts_only_its_own_log_records(self):
        dev = make_device(cores=2, log_transfers=True)
        dev.dma_write(1, 0, 0, 8)
        dev.dma_write(0, 0, 8, 8)

        def kernel(device, params):
            device.dma_read(1, 16, 0, 8)
            device.dma_read(0, 24, 0, 8)

        dev.launch_kernel(kernel, num_tasklets=1)
        assert [(r.op, r.core, r.bank_offset) for r in dev.transfer_log] == [
            ("dma_write", 1, 0), ("dma_write", 0, 8),  # before the launch: as issued
            ("dma_read", 0, 24), ("dma_read", 1, 16)]  # the launch's: by core

    def test_claims_at_the_limits_are_accepted(self):
        dev = make_device(cores=1)
        calls = []

        def kernel(device, params):
            calls.append(params)

        dev.launch_kernel(kernel, dev.config.max_tasklets, params=1,
                          scratch_bytes=dev.config.usable_scratchpad_bytes)
        dev.launch_kernel(kernel, 1, params=2)
        assert calls == [1, 2]
        assert dev.stats == TrafficStats(kernel_launches=2)


class TestLockTable:
    def test_acquire_release(self):
        table = LockTable(8)
        idx = np.array([1, 3])
        table.acquire(0, idx)
        assert table.acquisitions == 2
        table.release(0, idx)
        table.acquire(1, idx)

    def test_double_acquire_detected(self):
        table = LockTable(4)
        table.acquire(0, np.array([2]))
        with pytest.raises(RuntimeError):
            table.acquire(1, np.array([2]))

    def test_release_by_a_tasklet_that_does_not_hold_the_lock(self):
        table = LockTable(4)
        table.acquire(0, np.array([1, 2]))
        for tasklet, entries in ((1, [1]), (0, [2, 3])):  # another's; one unheld
            with pytest.raises(RuntimeError, match="not held"):
                table.release(tasklet, np.array(entries))
        with pytest.raises(RuntimeError):  # entries 1 and 2 are still held by 0
            table.acquire(1, np.array([1]))
        table.release(0, np.array([1, 2]))
        table.acquire(1, np.array([1, 2, 3]))

    def test_double_acquire_is_a_typed_error(self):
        table = LockTable(4)
        table.acquire(0, np.array([2]))
        with pytest.raises(LockMisuse, match="already held") as exc:
            table.acquire(1, np.array([2, 3]))
        assert isinstance(exc.value, PimError) and isinstance(exc.value, RuntimeError)
        assert table.acquisitions == 1
        table.release(0, np.array([2]))
        table.acquire(1, np.array([3]))  # entry 3 was not taken by the refused call

    def test_release_of_an_unheld_lock_is_a_typed_error(self):
        table = LockTable(4)
        table.acquire(0, np.array([1]))
        with pytest.raises(LockMisuse, match="not held") as exc:
            table.release(1, np.array([1]))
        assert isinstance(exc.value, PimError) and isinstance(exc.value, RuntimeError)
        with pytest.raises(LockMisuse):  # entry 1 is still held by tasklet 0
            table.acquire(2, np.array([1]))


class TestAuditability:
    def test_determinism_bit_identical(self):
        spec = apps.BenchmarkSpec(name="histogram", total_elems=5000, bins=512, seed=42)
        states = []
        for _ in range(2):
            mgmt = make_mgmt(cores=4)
            apps.run_histogram(mgmt, spec)
            states.append((mgmt.device.banks.copy(), mgmt.device.stats.copy()))
        assert np.array_equal(states[0][0], states[1][0])
        assert states[0][1] == states[1][1]

    def test_mutation_log_covers_all_bank_writes(self):
        # banks start zeroed; every byte that changed must fall inside a
        # logged to-bank transfer range
        mgmt = make_mgmt(cores=3, log_transfers=True)
        dev = mgmt.device
        spec = apps.BenchmarkSpec(name="histogram", total_elems=1000, bins=64, seed=3)
        apps.run_histogram(mgmt, spec)
        covered = np.zeros(dev.banks.shape, bool)
        for rec in dev.transfer_log:
            span = slice(rec.bank_offset, rec.bank_offset + rec.nbytes)
            if rec.op == "parallel" and rec.direction == TO_PIM:
                covered[:, span] = True
            elif rec.op in ("serial", "dma_write") and rec.direction != TO_HOST:
                covered[rec.core, span] = True
        changed = dev.banks != 0
        assert not (changed & ~covered).any()

    def test_scratch_claims_stay_within_budget(self):
        # the device rejects any kernel whose declared footprint exceeds the
        # usable budget, so a full benchmark run implies the capacity invariant
        mgmt = make_mgmt(cores=2)
        spec = apps.BenchmarkSpec(name="kmeans", total_elems=500, iterations=2, seed=1)
        apps.run_kmeans(mgmt, spec)
        assert mgmt.device.stats.kernel_launches == 2
