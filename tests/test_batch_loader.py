"""The batch loader's contract over many batch rounds.

``processing._load_batch_views`` returns the ``(cores, m, in_size)`` rows
a callback reads for one reduction batch on a run of lockstep cores, a host
array it owns: a copy of the bank rows of a plain stream, or for zipped
streams the bank rows of both interleaved.  It issues nothing: the run
issues all its batch reads before its first batch step.  The benchmark's
tracer counts its calls as batches; here every tasklet has several.  A
reduction loads every batch step once per run.  A map or a materializing
zip moves its elements between the banks in bulk and issues its commands
without the loader, so it loads nothing.  On zipped streams the rows are
the batch's elements of both sources, side by side.
"""

import itertools

import numpy as np
import pytest

from conftest import make_mgmt
from pimlite import comm, processing
from pimlite.processing import MAP, REDUCE

CORES = 4
LENGTH = 75_001  # three cores of 18,752 elements, then one of 18,745
ENTRIES = 13


@pytest.fixture
def setup(monkeypatch):
    """A device with ``a`` (uint32) and ``b`` (uint16) scattered alike and
    zipped lazily into ``ab``, and the list every batch load is recorded
    in: ``(cores, m, first element, rows)``."""
    mgmt = make_mgmt(cores=CORES)
    a = np.arange(LENGTH, dtype=np.uint32) * 7
    b = (np.arange(LENGTH) % 50_000).astype(np.uint16)
    comm.scatter(mgmt, "a", a, LENGTH, 4)
    comm.scatter(mgmt, "b", b, LENGTH, 2)
    processing.array_zip(mgmt, "a", "b", "ab")
    a_offset = mgmt.lookup("a").bank_offset
    loads, load = [], processing._load_batch_views

    def recording(device, job, cores, m, reads):
        rows = load(device, job, cores, m, reads)
        loads.append((cores, m, (reads[0][0] - a_offset) // 4, rows.copy()))
        return rows

    monkeypatch.setattr(processing, "_load_batch_views", recording)
    return mgmt, a, b, loads


def runs(per_core_elems):
    """Element count of each run of consecutive cores with equal counts."""
    return [local for local, _ in itertools.groupby(per_core_elems)]


def assert_many_rounds(plan, per_core_elems):
    """Every tasklet of every core has more than two batches, in two runs."""
    assert min(per_core_elems) > 2 * plan.num_tasklets * plan.batch_elems
    assert len(runs(per_core_elems)) == 2


def assert_batch_rows(loads, mgmt, a, b=None):
    """Every load's rows are its batch's elements of ``a``, side by side
    with those of ``b`` when it is given."""
    starts = np.cumsum((0,) + mgmt.lookup("a").per_core_elems)
    for cores, m, lo, rows in loads:
        assert rows.shape == (len(cores), m, 4 if b is None else 6)
        for i, core in enumerate(cores):
            span = slice(starts[core] + lo, starts[core] + lo + m)
            assert np.array_equal(rows[i, :, :4].copy().view(np.uint32).ravel(), a[span])
            if b is not None:
                assert np.array_equal(rows[i, :, 4:].copy().view(np.uint16).ravel(), b[span])


def first_u32_handle(mgmt):
    def to_val(src, ctx):
        v = src[:, :4].copy().view(np.uint32).ravel()
        return v, v % ENTRIES

    return processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                    combine=(np.add, np.uint32))


@pytest.mark.parametrize("source", ["a", "ab"])
def test_reduction_loads_every_batch_step_once_per_run(setup, source):
    mgmt, a, b, loads = setup
    plan = processing.array_red(mgmt, source, "h", 4, ENTRIES, first_u32_handle(mgmt))
    per_core = mgmt.lookup(source).per_core_elems
    assert_many_rounds(plan, per_core)
    assert len(loads) == sum(-(-local // plan.batch_elems) for local in runs(per_core))
    expected = np.zeros(ENTRIES, np.uint32)
    np.add.at(expected, a % ENTRIES, a)
    assert np.array_equal(comm.gather(mgmt, "h").view(np.uint32)[:ENTRIES], expected)
    assert_batch_rows(loads, mgmt, a, b if source == "ab" else None)


@pytest.mark.parametrize("source", ["a", "ab"])
def test_map_loads_no_batch(setup, source):
    mgmt, a, b, loads = setup

    def add(src, dst, ctx):
        low = src[:, :4].copy().view(np.uint32).ravel()
        dst.view(np.uint32).ravel()[:] = low + 1

    handle = processing.create_handle(mgmt, MAP, map_func=add)
    plan = processing.array_map(mgmt, source, "s", 4, handle)
    per_core = mgmt.lookup(source).per_core_elems
    assert_many_rounds(plan, per_core)
    assert loads == []
    assert np.array_equal(comm.gather(mgmt, "s").view(np.uint32), a + 1)


def test_materializing_zip_loads_no_batch(setup):
    mgmt, a, b, loads = setup
    plan = processing.array_zip(mgmt, "a", "b", "ab2", materialize=True)
    assert_many_rounds(plan, mgmt.lookup("a").per_core_elems)
    assert loads == []
    combined = comm.gather(mgmt, "ab2").reshape(LENGTH, 6)
    assert np.array_equal(combined[:, :4].copy().view(np.uint32).ravel(), a)
    assert np.array_equal(combined[:, 4:].copy().view(np.uint16).ravel(), b)
