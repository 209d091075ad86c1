"""Random sequences of host API calls against a host-side model.

The model keeps, for every registered array, its bytes, element size and
per-core split, and it replays the bump allocator: every new allocation must
start at the modelled cursor, and a free rolls the cursor back only for the
most recent allocation.  Handle contexts are modelled as allocations too.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import host_state, make_mgmt
from pimlite import comm, processing
from pimlite.errors import ArrayInUse, DistributionMismatch, LengthMismatch, WrongLayout
from pimlite.management import LAYOUT_LAZY_ZIP, LAYOUT_REPLICATED, LAYOUT_SCATTERED
from pimlite.processing import MAP, REDUCE

CORES = 3
U32 = np.uint32


@dataclass
class Model:
    layout: str
    type_size: int
    data: np.ndarray  # len * type_size bytes; for replicated arrays one copy
    split: tuple  # per-core element counts
    sources: tuple = ()  # the two arrays a lazy zip names

    @property
    def rows(self) -> np.ndarray:
        """The elements as rows of u32 words."""
        return self.data.reshape(-1, self.type_size).view(U32)


def boom(*args):
    raise RuntimeError("callback failed")


def context_word(ctx) -> U32:
    return U32(0) if ctx is None else ctx.view(U32)[0]


def map_func(src, dst, ctx):
    dst.view(U32)[:, 0] = src.view(U32).sum(axis=1, dtype=U32) * U32(3) + context_word(ctx)


def map_oracle(rows, k):
    return (rows.sum(axis=1, dtype=U32) * U32(3) + U32(k)).view(np.uint8)


def to_val_func(entries):
    def to_val(src, ctx):
        rows = src.view(U32)
        vals = rows.sum(axis=1, dtype=np.uint64) + np.uint64(context_word(ctx))
        return vals, (rows[:, 0] % entries).astype(np.int64)

    return to_val


def red_oracle(rows, entries, k):
    out = np.zeros(entries, np.uint64)
    np.add.at(out, (rows[:, 0] % entries).astype(np.int64),
              rows.sum(axis=1, dtype=np.uint64) + np.uint64(k))
    return out.view(np.uint8)


def add_u64(dst, src):
    d = dst.view(np.uint64)
    np.add(d, src.view(np.uint64), out=d)


def zero(accum):
    accum[:] = 0


class HostApiMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mgmt = make_mgmt(cores=CORES, bank_bytes=1 << 17)
        self.arrays: dict[str, Model] = {}
        self.allocs: dict[str, tuple[int, int]] = {}  # id -> (offset, bytes)
        self.cursor = 0
        self.serial = 0
        self.map_k, self.red_k, self.red_entries = 5, 7, 6
        self.map_handle = processing.create_handle(
            self.mgmt, MAP, map_func=map_func, context=np.array([self.map_k], U32))
        self.red_handle = processing.create_handle(
            self.mgmt, REDUCE, map_to_val_func=to_val_func(self.red_entries),
            combine=(np.add, np.uint64), context=np.array([self.red_k], U32))

    # -- model bookkeeping ----------------------------------------------------

    def new_id(self) -> str:
        self.serial += 1
        return f"a{self.serial}"

    def ids(self, *layouts, nonempty=False):
        return sorted(a for a, m in self.arrays.items() if m.layout in layouts
                      and not (nonempty and m.data.size == 0))

    @contextmanager
    def allocating(self, *expected):
        """The body registers exactly ``expected`` (in order, storage-less
        lazy zips included), each allocation at the modelled cursor."""
        before = set(self.mgmt.registry)
        yield
        new = [a for a in self.mgmt.registry if a not in before]
        assert new == list(expected)
        for aid in new:
            meta = self.mgmt.registry[aid]
            if meta.bank_offset is not None:
                assert meta.bank_offset == self.cursor
                self.allocs[aid] = (meta.bank_offset, meta.padded_chunk_bytes)
                self.cursor += meta.padded_chunk_bytes

    def release(self, aid: str) -> None:
        offset, nbytes = self.allocs.pop(aid, (None, None))
        if offset is not None and offset + nbytes == self.cursor:
            self.cursor = offset

    @contextmanager
    def unchanged(self, error):
        """The body raises ``error`` and leaves the host state as it was."""
        handles = self.map_handle, self.red_handle
        before = host_state(self.mgmt, *handles)
        with pytest.raises(error):
            yield
        assert host_state(self.mgmt, *handles) == before

    def context_ids(self, handle):
        """The ids a call with ``handle`` registers before its output."""
        fresh = handle.context is not None and handle.ctx_array_id is None
        return [f"__ctx_{handle.id}"] if fresh else []

    # -- collectives ----------------------------------------------------------

    # few distinct lengths, so that zips often find an equal partner
    @rule(length=st.sampled_from([0, 1, 6, 50, 301]), type_size=st.sampled_from([4, 8]),
          seed=st.integers(0, 2**32 - 1))
    def scatter(self, length, type_size, seed):
        data = np.random.default_rng(seed).integers(0, 256, length * type_size, np.uint8)
        aid = self.new_id()
        with self.allocating(aid):
            comm.scatter(self.mgmt, aid, data, length, type_size)
        split = comm.plan_scatter(length, type_size, CORES).per_core_elems
        self.arrays[aid] = Model(LAYOUT_SCATTERED, type_size, data, split)

    @rule(length=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def broadcast(self, length, seed):
        data = np.random.default_rng(seed).integers(0, 256, length * 4, np.uint8)
        aid = self.new_id()
        with self.allocating(aid):
            comm.broadcast(self.mgmt, aid, data, length, 4)
        self.arrays[aid] = Model(LAYOUT_REPLICATED, 4, data, (length,) * CORES)

    @precondition(lambda self: self.ids(LAYOUT_REPLICATED))
    @rule(data=st.data())
    def allreduce(self, data):
        aid = data.draw(st.sampled_from(self.ids(LAYOUT_REPLICATED)))
        handle = processing.create_handle(self.mgmt, REDUCE, map_to_val_func=boom,
                                          combine=(np.add, U32))
        with self.allocating():
            comm.allreduce(self.mgmt, aid, handle)
        model = self.arrays[aid]
        model.data = (model.data.view(U32) * U32(CORES)).view(np.uint8)

    @precondition(lambda self: self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP))
    @rule(data=st.data())
    def allgather(self, data):
        aid = data.draw(st.sampled_from(self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP)))
        src = self.arrays[aid]
        if src.layout == LAYOUT_LAZY_ZIP:
            with self.unchanged(WrongLayout):
                comm.allgather(self.mgmt, aid, self.new_id())
            return
        new = self.new_id()
        with self.allocating(new):
            comm.allgather(self.mgmt, aid, new)
        length = src.data.size // src.type_size
        self.arrays[new] = Model(LAYOUT_REPLICATED, src.type_size, src.data.copy(),
                                 (length,) * CORES)

    @precondition(lambda self: self.arrays)
    @rule(data=st.data())
    def gather(self, data):
        aid = data.draw(st.sampled_from(sorted(self.arrays)))
        model = self.arrays[aid]
        if model.layout != LAYOUT_SCATTERED:
            with self.unchanged(WrongLayout):
                comm.gather(self.mgmt, aid)
            return
        assert np.array_equal(comm.gather(self.mgmt, aid), model.data)

    # -- registry ---------------------------------------------------------------

    @precondition(lambda self: self.arrays)
    @rule(data=st.data())
    def free(self, data):
        aid = data.draw(st.sampled_from(sorted(self.arrays)))
        if any(aid in m.sources for m in self.arrays.values()):
            with self.unchanged(ArrayInUse):
                self.mgmt.free(aid)
            return
        self.mgmt.free(aid)
        del self.arrays[aid]
        self.release(aid)

    @rule(reduce=st.booleans())
    def free_handle(self, reduce):
        handle = self.red_handle if reduce else self.map_handle
        cid = handle.ctx_array_id
        processing.free_handle(self.mgmt, handle)
        if cid is not None:
            self.release(cid)

    @rule(reduce=st.booleans(), k=st.integers(0, 2**32 - 1))
    def update_context(self, reduce, k):
        handle = self.red_handle if reduce else self.map_handle
        with self.allocating():
            processing.update_context(self.mgmt, handle, np.array([k], U32))
        if reduce:
            self.red_k = k
        else:
            self.map_k = k

    # -- iterators ---------------------------------------------------------------

    @precondition(lambda self: self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP))
    @rule(data=st.data(), materialize=st.booleans(), same_split=st.booleans())
    def zip(self, data, materialize, same_split):
        ids = self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP)
        first = data.draw(st.sampled_from(ids))
        if same_split:
            ids = [aid for aid in ids if self.arrays[aid].split == self.arrays[first].split]
        ids_ab = (first, data.draw(st.sampled_from(ids)))
        a, b = (self.arrays[aid] for aid in ids_ab)
        new = self.new_id()
        if a.data.size // a.type_size != b.data.size // b.type_size:
            with self.unchanged(LengthMismatch):
                processing.array_zip(self.mgmt, *ids_ab, new, materialize)
            return
        if a.split != b.split:
            with self.unchanged(DistributionMismatch):
                processing.array_zip(self.mgmt, *ids_ab, new, materialize)
            return
        with self.allocating(new):
            processing.array_zip(self.mgmt, *ids_ab, new, materialize)
        lazy = not materialize and LAYOUT_LAZY_ZIP not in (a.layout, b.layout)
        rows = np.concatenate([a.data.reshape(-1, a.type_size),
                               b.data.reshape(-1, b.type_size)], axis=1)
        self.arrays[new] = Model(LAYOUT_LAZY_ZIP if lazy else LAYOUT_SCATTERED,
                                 a.type_size + b.type_size, rows.ravel(), a.split,
                                 ids_ab if lazy else ())

    @precondition(lambda self: self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP))
    @rule(data=st.data(), with_context=st.booleans())
    def map(self, data, with_context):
        aid = data.draw(st.sampled_from(self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP)))
        src = self.arrays[aid]
        handle = (self.map_handle if with_context
                  else processing.create_handle(self.mgmt, MAP, map_func=map_func))
        new = self.new_id()
        with self.allocating(*self.context_ids(handle), new):
            processing.array_map(self.mgmt, aid, new, 4, handle)
        k = self.map_k if with_context else 0
        self.arrays[new] = Model(LAYOUT_SCATTERED, 4, map_oracle(src.rows, k), src.split)

    @precondition(lambda self: self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP))
    @rule(data=st.data(), variant=st.sampled_from(["shared", "private"]),
          declared=st.booleans(), entries=st.integers(1, 16))
    def red(self, data, variant, declared, entries):
        aid = data.draw(st.sampled_from(self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP)))
        if declared:
            handle, entries, k = self.red_handle, self.red_entries, self.red_k
        else:
            handle, k = processing.create_handle(
                self.mgmt, REDUCE, map_to_val_func=to_val_func(entries),
                init_func=zero, acc_func=add_u64), 0
        new = self.new_id()
        with self.allocating(*self.context_ids(handle), new):
            processing.array_red(self.mgmt, aid, new, 8, entries, handle, variant=variant)
        self.arrays[new] = Model(LAYOUT_SCATTERED, 8,
                                 red_oracle(self.arrays[aid].rows, entries, k),
                                 (entries,) + (0,) * (CORES - 1))

    @precondition(lambda self: self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP, nonempty=True))
    @rule(data=st.data(), reduce=st.booleans(), resident=st.booleans(),
          variant=st.sampled_from(["shared", "private"]))
    def failing_callback(self, data, reduce, resident, variant):
        """A raising callback frees what the call allocated; a context that
        was resident before the call stays resident."""
        aid = data.draw(st.sampled_from(
            self.ids(LAYOUT_SCATTERED, LAYOUT_LAZY_ZIP, nonempty=True)))
        context = np.array([1], U32)
        if reduce:
            handle = (self.red_handle if resident else processing.create_handle(
                self.mgmt, REDUCE, map_to_val_func=boom, combine=(np.add, np.uint64),
                context=context))
            saved, handle.map_to_val_func = handle.map_to_val_func, boom
            call = lambda: processing.array_red(  # noqa: E731
                self.mgmt, aid, self.new_id(), 8, self.red_entries, handle,
                variant=variant)
        else:
            handle = (self.map_handle if resident else processing.create_handle(
                self.mgmt, MAP, map_func=boom, context=context))
            saved, handle.map_func = handle.map_func, boom
            call = lambda: processing.array_map(  # noqa: E731
                self.mgmt, aid, self.new_id(), 4, handle)
        cid = handle.ctx_array_id
        try:
            with self.unchanged(RuntimeError):
                call()
        finally:
            if reduce:
                handle.map_to_val_func = saved
            else:
                handle.map_func = saved
        assert handle.ctx_array_id == cid

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def registry_and_allocator_agree(self):
        registry = self.mgmt.registry
        resident = {h.ctx_array_id for h in (self.map_handle, self.red_handle)} - {None}
        assert set(registry) == set(self.arrays) | resident
        assert set(self.allocs) == {a for a, m in registry.items()
                                    if m.bank_offset is not None}
        assert self.mgmt.device.cursors == [self.cursor] * CORES
        end = 0  # live bytes do not overlap and lie below the cursor
        for offset, nbytes in sorted(self.allocs.values()):
            if nbytes:  # an empty array holds no bytes, wherever it starts
                assert offset >= end
                end = offset + nbytes
        assert end <= self.cursor
        for aid, model in self.arrays.items():
            meta = registry[aid]
            assert (meta.layout, meta.type_size, meta.per_core_elems) == \
                (model.layout, model.type_size, model.split)
            assert meta.len * meta.type_size == model.data.size
            assert tuple(meta.zip_sources or ()) == model.sources

    @invariant()
    def replicated_copies_match(self):
        banks = self.mgmt.device.banks
        for aid in self.ids(LAYOUT_REPLICATED):
            model = self.arrays[aid]
            offset = self.allocs[aid][0]
            for core in range(CORES):
                assert np.array_equal(banks[core, offset:offset + model.data.size],
                                      model.data)


HostApiMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestHostApi = HostApiMachine.TestCase
