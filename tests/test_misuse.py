"""Every misuse raises a typed ``PimError`` before any state changes.

Each test takes a ``host_state`` snapshot (the traffic counters, the bank
cursors, the registry, the transfer log, ``last_plan`` and the banks), makes
one bad call and requires the snapshot to be unchanged.  Validators of
plain values (configs, specs, transfer plans) touch no device at all.
"""

import numpy as np
import pytest

from conftest import TEST_BANK_BYTES, host_state, make_mgmt
from pimlite import apps, comm, harness, processing
from pimlite.apps import BenchmarkSpec
from pimlite.device import TO_PIM, DeviceConfig
from pimlite.errors import (
    DuplicateArrayId,
    HandleKindMismatch,
    HostBufferInvalid,
    InvalidArgument,
    InvalidCombiner,
    OutOfBankMemory,
    OutOfBounds,
    PimError,
    SizeLimitViolation,
    WrongLayout,
)
from pimlite.management import (
    LAYOUT_LAZY_ZIP,
    LAYOUT_REPLICATED,
    LAYOUT_SCATTERED,
    ArrayMetadata,
)
from pimlite.processing import MAP, REDUCE


def loaded_mgmt(cores=2):
    """``x`` and ``x2``: eight u32 each, scattered; ``c``: replicated; ``y``:
    an existing output id."""
    mgmt = make_mgmt(cores=cores, log_transfers=True)
    for name in ("x", "x2", "y"):
        comm.scatter(mgmt, name, np.arange(8, dtype=np.uint32), 8, 4)
    comm.broadcast(mgmt, "c", np.arange(4, dtype=np.uint32), 4, 4)
    return mgmt


def copy_map(mgmt, **kw):
    def map_func(src, dst, ctx):
        dst[:] = src

    return processing.create_handle(mgmt, MAP, map_func=map_func, **kw)


def sum_handle(mgmt, to_val=None, **kw):
    def zero_keys(src, ctx):
        v = src.view(np.uint32).ravel()
        return v.astype(np.uint64), np.zeros(v.size, np.int64)

    return processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val or zero_keys,
                                    combine=(np.add, np.uint64), **kw)


def test_invalid_argument_is_a_typed_value_error():
    assert issubclass(InvalidArgument, PimError)
    assert issubclass(InvalidArgument, ValueError)


class TestDuplicateArrayId:
    CALLS = {
        "broadcast": lambda m: comm.broadcast(m, "y", np.zeros(4, np.uint32), 4, 4),
        "scatter": lambda m: comm.scatter(m, "y", np.zeros(4, np.uint32), 4, 4),
        "allgather": lambda m: comm.allgather(m, "x", "y"),
        "array_map": lambda m: processing.array_map(
            m, "x", "y", 4, copy_map(m, context=np.ones(16, np.uint8))),
        "array_zip": lambda m: processing.array_zip(m, "x", "x2", "y", materialize=True),
        "array_zip-lazy": lambda m: processing.array_zip(m, "x", "x2", "y"),
        "array_red": lambda m: processing.array_red(
            m, "x", "y", 8, 1, sum_handle(m, context=np.ones(16, np.uint8))),
        "register": lambda m: m.register(ArrayMetadata(
            id="y", len=8, type_size=4, bank_offset=0, per_core_elems=(8, 0),
            padded_chunk_bytes=32)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused_before_anything_moves(self, call):
        mgmt = loaded_mgmt()
        before = host_state(mgmt, banks=True)
        with pytest.raises(DuplicateArrayId):
            self.CALLS[call](mgmt)
        assert host_state(mgmt, banks=True) == before


@pytest.mark.parametrize("call", [comm.scatter, comm.broadcast])
def test_an_array_the_banks_cannot_hold_moves_nothing(call):
    mgmt = loaded_mgmt()
    before = host_state(mgmt, banks=True)
    with pytest.raises(OutOfBankMemory):
        call(mgmt, "big", np.zeros(2 * TEST_BANK_BYTES, np.uint8), 2 * TEST_BANK_BYTES, 1)
    assert host_state(mgmt, banks=True) == before


@pytest.mark.parametrize("kind", [MAP, REDUCE])
def test_replicated_iterator_input_is_the_wrong_layout(kind):
    mgmt = loaded_mgmt()
    before = host_state(mgmt, banks=True)
    with pytest.raises(WrongLayout):
        if kind == MAP:
            processing.array_map(mgmt, "c", "out", 4, copy_map(mgmt))
        else:
            processing.array_red(mgmt, "c", "out", 8, 1, sum_handle(mgmt))
    assert host_state(mgmt, banks=True) == before


def test_allreduce_needs_a_handle_with_an_acc_func():
    mgmt = loaded_mgmt()
    before = host_state(mgmt, banks=True)
    with pytest.raises(HandleKindMismatch):
        comm.allreduce(mgmt, "c", copy_map(mgmt))
    assert host_state(mgmt, banks=True) == before


class TestIteratorArguments:
    @pytest.mark.parametrize("call", [
        lambda m: processing.array_map(m, "x", "out", 0, copy_map(m)),
        lambda m: processing.array_red(m, "x", "out", 8, 0, sum_handle(m)),
        lambda m: processing.array_red(m, "x", "out", 8, 1, sum_handle(m),
                                       variant="atomic"),
        lambda m: processing.array_red(m, "x", "out", 8, 1, sum_handle(m),
                                       variant="thread_private"),
    ], ids=["map-output-size", "red-output-len", "variant", "variant-plan-name"])
    def test_refused_before_anything_moves(self, call):
        mgmt = loaded_mgmt()
        before = host_state(mgmt, banks=True)
        with pytest.raises(InvalidArgument):
            call(mgmt)
        assert host_state(mgmt, banks=True) == before

    def test_batch_of_a_zero_byte_element(self):
        with pytest.raises(InvalidArgument):
            processing.compute_batch_elems(0)

    def test_combiner_without_a_loop_for_its_dtype(self):
        # gcd has no bool loop: resolve_dtypes raises TypeError, not a mismatch
        mgmt = loaded_mgmt()
        before = host_state(mgmt, banks=True)
        with pytest.raises(InvalidCombiner):
            processing.create_handle(mgmt, REDUCE, map_to_val_func=lambda s, c: None,
                                     init_func=lambda a: None, combine=(np.gcd, np.bool_))
        assert host_state(mgmt, banks=True) == before


class TestCallbackOutput:
    """A reduction callback that returns the wrong bytes, the wrong number of
    keys, keys that are not integers or a key outside the output raises
    ``InvalidArgument`` inside the kernel, after that batch's DMA reads and
    the broadcast of the handle's context.  The iterator's allocation and
    that context are released, and the traffic counters and the transfer log
    are put back, so nothing but the scratchpads (undefined after a failed
    launch) and free bank space differs from before the call."""

    N = 4
    # the last key of a batch; the range check reads keys as uint64, so a
    # negative key is out of range too
    PLANTED = {"key-range": N, "key-minus-one": -1,
               "key-int64-min": np.iinfo(np.int64).min,
               "key-uint64-2**63": np.uint64(1 << 63)}
    # refused rather than truncated: 1.7 would otherwise land in entry 1
    NON_INTEGER = {"float-keys": float, "bool-keys": bool,
                   "complex-keys": complex, "object-keys": object}

    def to_val(self, bad):
        def to_val(src, ctx):
            m = src.shape[0]
            vals, keys = np.zeros(m, np.uint64), np.zeros(m, np.int64)
            if bad == "bytes":
                return vals[:-1], keys
            if bad == "keys":
                return vals, keys[:-1]
            if bad in self.NON_INTEGER:
                return vals, np.full(m, 1.7, self.NON_INTEGER[bad])
            key = self.PLANTED[bad]
            keys = keys.astype(np.asarray(key).dtype)
            keys[-1] = key
            return vals, keys

        return to_val

    @pytest.mark.parametrize("variant", ["shared", "private"])
    @pytest.mark.parametrize("bad,message", [
        ("bytes", "bytes, expected"), ("keys", "keys for"),
        *((bad, "key outside") for bad in PLANTED),
        *((bad, "keys must be integers") for bad in NON_INTEGER)])
    def test_allocation_and_context_are_released(self, bad, message, variant):
        mgmt = loaded_mgmt()
        handle = sum_handle(mgmt, self.to_val(bad), context=np.ones(16, np.uint8))
        before = host_state(mgmt)
        with pytest.raises(InvalidArgument, match=message):
            processing.array_red(mgmt, "x", "out", 8, self.N, handle, variant=variant)
        assert host_state(mgmt) == before
        assert handle.ctx_array_id is None


class TestHostSerialTransfer:
    @pytest.mark.parametrize("core,direction,host,offset,nbytes,error", [
        (2, TO_PIM, np.zeros(8, np.uint8), 0, 8, OutOfBounds),
        (-1, TO_PIM, np.zeros(8, np.uint8), 0, 8, OutOfBounds),
        (0, TO_PIM, np.zeros(8, np.uint8), 0, -8, SizeLimitViolation),
        (0, TO_PIM, np.zeros(16, np.uint8), (1 << 20) - 8, 16, OutOfBounds),
        (0, "sideways", np.zeros(8, np.uint8), 0, 8, InvalidArgument),
        (0, TO_PIM, [0] * 8, 0, 8, HostBufferInvalid),
    ], ids=["core-high", "core-negative", "negative-size", "past-the-bank",
            "direction", "python-list"])
    def test_refused_before_anything_moves(self, core, direction, host, offset,
                                           nbytes, error):
        mgmt = loaded_mgmt()
        mgmt.device.banks[:, -64:] = 7
        before = host_state(mgmt, banks=True)
        with pytest.raises(error):
            mgmt.device.host_serial_transfer(core, direction, host, offset, nbytes)
        assert host_state(mgmt, banks=True) == before


def test_negative_allocation():
    mgmt = loaded_mgmt()
    before = host_state(mgmt, banks=True)
    with pytest.raises(InvalidArgument):
        mgmt.device.alloc(-1)
    assert host_state(mgmt, banks=True) == before


class TestArrayMetadata:
    """Each rule of ``ArrayMetadata.validate``, reached through ``register``."""

    GOOD = dict(id="new", len=8, type_size=4, bank_offset=0, per_core_elems=(8, 0),
                padded_chunk_bytes=32, layout=LAYOUT_SCATTERED)

    @pytest.mark.parametrize("change", [
        dict(len=-1),
        dict(type_size=0),
        dict(padded_chunk_bytes=36),
        dict(per_core_elems=(4, 0)),
        dict(layout=LAYOUT_REPLICATED),  # copies of 8 and 0 elements
        dict(layout=LAYOUT_LAZY_ZIP, zip_sources=("x", "x2")),  # owns storage
        dict(layout=LAYOUT_LAZY_ZIP, bank_offset=None),  # names no sources
        dict(layout=LAYOUT_LAZY_ZIP, bank_offset=None, zip_sources=("x", "x2"),
             per_core_elems=(4, 0)),
        dict(layout="striped"),
        dict(padded_chunk_bytes=24),  # 8 elements of 4 bytes
        dict(per_core_elems=(8,)),  # one count for two cores
    ], ids=["len", "type-size", "padding", "scattered-sum", "replicated",
            "zip-storage", "zip-sources", "zip-sum", "layout", "chunk", "cores"])
    def test_register_refuses_bad_metadata(self, change):
        mgmt = loaded_mgmt()
        mgmt.register(ArrayMetadata(**self.GOOD))  # the unchanged record is valid
        mgmt.free("new")
        before = host_state(mgmt, banks=True)
        with pytest.raises(InvalidArgument):
            mgmt.register(ArrayMetadata(**{**self.GOOD, **change}))
        assert host_state(mgmt, banks=True) == before


def test_kmeans_with_fewer_points_than_clusters():
    mgmt = loaded_mgmt()
    before = host_state(mgmt, banks=True)
    with pytest.raises(InvalidArgument):
        apps.run_kmeans(mgmt, BenchmarkSpec(name="kmeans", total_elems=3, clusters=4))
    assert host_state(mgmt, banks=True) == before


@pytest.mark.parametrize("make", [
    lambda: DeviceConfig(num_cores=1, max_tasklets=0),
    lambda: DeviceConfig(num_cores=1, scratchpad_reserve_bytes=64 << 10),
    lambda: DeviceConfig(num_cores=1, dma_alignment=0),
    lambda: DeviceConfig(num_cores=1, scratchpad_reserve_bytes=-8192),
    lambda: DeviceConfig(num_cores=1, dma_max_bytes=-8),
    lambda: DeviceConfig(num_cores=1, dram_bank_bytes=-1),
    lambda: comm.plan_scatter(-1, 4, 2),
    lambda: BenchmarkSpec(dims=0),
    lambda: BenchmarkSpec(total_elems=-5),
    lambda: BenchmarkSpec(seed=-1),
    lambda: harness.ExperimentConfig(benchmark="vecadd", core_counts=()),
    lambda: harness.ExperimentConfig(benchmark="vecadd", elems_per_core=-5),
    lambda: harness.ExperimentConfig(benchmark="vecadd", seed=-1),
    # the oracle runs first, so it must refuse what run_kmeans refuses
    lambda: harness.run_benchmark(
        "kmeans", BenchmarkSpec(name="kmeans", total_elems=3, clusters=4), 2),
], ids=["max-tasklets", "reserve", "dma-alignment", "negative-reserve", "dma-max-bytes",
        "bank-bytes", "plan-scatter", "spec-dims", "spec-total", "spec-seed",
        "core-counts", "elems-per-core", "seed", "kmeans-oracle"])
def test_value_validators_raise_invalid_argument(make):
    with pytest.raises(InvalidArgument):
        make()


@pytest.mark.parametrize("argv", [["--elems", "-5"], ["--cores", "0"]],
                         ids=["cli-elems", "cli-cores"])
def test_cli_refuses_a_bad_value_with_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        harness.main(["run", "--benchmark", "vecadd", *argv])
    assert exc.value.code == 2
    assert "pimlite run: error:" in capsys.readouterr().err
