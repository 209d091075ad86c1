"""Fault injection: a public operation that raises leaves no damage.

The rule (``pimlite.processing``): every public operation that raises,
whatever the exception, leaves the registry, the bank cursors, the traffic
counters, the transfer log, ``last_plan`` and each handle's resident context
as they were; bank and scratchpad bytes are undefined.

Injection points are ``PimDevice.alloc``, ``PimDevice._host_transfer``,
``PimDevice._issue`` (which every DMA command goes through: the context
reads, each batch's commands and a reduction's partial writes),
``PimDevice.launch_kernel`` and ``ManagementContext.register``.  For each
case, one clean run counts the calls of every point; then, for every point
and every ``k`` up to its count, a fresh device runs the case with the
``k``-th call of that point raising ``Injected``, a ``BaseException`` that
is not an ``Exception``.

Operations, each on a loaded 4-core device with the transfer log on and a
``last_plan`` already set (``OPERATIONS``):

* ``create`` of a scattered and of a replicated array;
* ``scatter``, ``broadcast``, ``gather``, ``allgather`` and ``allreduce``;
* ``update_context`` of a handle whose context is not resident (fresh) and
  of one whose context is (resident);
* ``array_map`` without a context and with a context that it broadcasts;
* ``array_zip``, lazy and materializing;
* ``array_red`` with the shared and with the private variant, each
  broadcasting its handle's context.

After the failure the host state equals the snapshot taken before the call,
the handle keeps its context bytes, and running the operation again ends in
the host state of a clean run.

Apps (``APPS``): ``run_reduction``, ``run_vecadd`` (lazy and eager zip),
``run_histogram``, ``run_linreg``, ``run_logreg`` and ``run_kmeans`` at a
small size.  Each app follows the rule as a whole: after a fault the host
state equals the one before the app, and running the app again on the same
registry gives the oracle's result and leaves the registry empty and the
cursors at 0.  Every public operation of ``comm`` and ``processing`` is
wrapped so that, when it raises, it checks that it restored its own
snapshot; the operation that raised must have done so.
"""

import functools

import numpy as np
import pytest

from conftest import host_state, make_mgmt
from pimlite import apps, comm, processing
from pimlite.apps import BenchmarkSpec
from pimlite.device import PimDevice
from pimlite.harness import RUNNERS
from pimlite.management import LAYOUT_REPLICATED, ManagementContext
from pimlite.processing import MAP, REDUCE, Handle

CORES = 4
POINTS = [(PimDevice, "alloc"), (PimDevice, "_host_transfer"), (PimDevice, "_issue"),
          (PimDevice, "launch_kernel"), (ManagementContext, "register")]
U32 = np.uint32


class Injected(BaseException):
    """The fault: not an ``Exception``, so only a catch-all rule undoes it."""


class Counter:
    """Counts the calls of each injection point; raises ``Injected`` at the
    ``fail_at``-th call of ``point``."""

    def __init__(self, monkeypatch, point=None, fail_at=None):
        self.calls = dict.fromkeys(POINTS, 0)
        for key in POINTS:
            monkeypatch.setattr(*key, self.wrap(key, getattr(*key),
                                                fail_at if key == point else None))

    def wrap(self, key, method, fail_at):
        @functools.wraps(method)
        def counted(*args, **kwargs):
            self.calls[key] += 1
            if self.calls[key] == fail_at:
                raise Injected(f"{key[1]} call {fail_at}")
            return method(*args, **kwargs)

        return counted


def copy_map(src, dst, ctx):
    dst[:] = src


def to_val(src, ctx):
    vals = src.view(U32).ravel().astype(np.uint64)
    return vals, (vals % 5).astype(np.int64)


def loaded():
    """A 4-core device with the log on: ``x`` and ``x2`` (42 u32 each,
    scattered 12, 12, 12, 6), ``r`` (8 u32, replicated), ``m`` (a map of ``x``, so
    ``last_plan`` is set) and the handles of the operations, ``resident``
    with its context on the device."""
    mgmt = make_mgmt(cores=CORES, log_transfers=True)
    comm.scatter(mgmt, "x", np.arange(42, dtype=U32), 42, 4)
    comm.scatter(mgmt, "x2", np.arange(42, 84, dtype=U32), 42, 4)
    comm.broadcast(mgmt, "r", np.arange(8, dtype=U32), 8, 4)
    context = np.arange(25, dtype=U32)
    h = {
        "map": processing.create_handle(mgmt, MAP, map_func=copy_map),
        "map_ctx": processing.create_handle(mgmt, MAP, map_func=copy_map, context=context),
        "red": processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                        combine=(np.add, np.uint64), context=context),
        "sum32": processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                          combine=(np.add, U32)),
        "resident": processing.create_handle(mgmt, MAP, map_func=copy_map,
                                             context=context),
    }
    processing.array_map(mgmt, "x", "m", 4, h["resident"])
    return mgmt, h


# name -> (the handle the operation uses or None, the operation)
OPERATIONS = {
    "create-scattered": (None, lambda mgmt, h: mgmt.create("new", 4, (3, 3, 3, 1))),
    "create-replicated": (None, lambda mgmt, h: mgmt.create(
        "new", 4, (5,) * CORES, LAYOUT_REPLICATED)),
    "scatter": (None, lambda mgmt, h: comm.scatter(
        mgmt, "s", np.arange(40, dtype=U32), 40, 4)),
    "broadcast": (None, lambda mgmt, h: comm.broadcast(
        mgmt, "b", np.arange(40, dtype=U32), 40, 4)),
    "gather": (None, lambda mgmt, h: comm.gather(mgmt, "x")),
    "allgather": (None, lambda mgmt, h: comm.allgather(mgmt, "x", "xa")),
    "allreduce": ("sum32", lambda mgmt, h: comm.allreduce(mgmt, "r", h["sum32"])),
    "update_context-fresh": ("map_ctx", lambda mgmt, h: processing.update_context(
        mgmt, h["map_ctx"], np.ones(25, U32))),
    "update_context-resident": ("resident", lambda mgmt, h: processing.update_context(
        mgmt, h["resident"], np.ones(25, U32))),
    "array_map": ("map", lambda mgmt, h: processing.array_map(mgmt, "x", "y", 4, h["map"])),
    "array_map-context": ("map_ctx", lambda mgmt, h: processing.array_map(
        mgmt, "x", "y", 4, h["map_ctx"])),
    "array_zip-lazy": (None, lambda mgmt, h: processing.array_zip(mgmt, "x", "x2", "z")),
    "array_zip-materialize": (None, lambda mgmt, h: processing.array_zip(
        mgmt, "x", "x2", "z", materialize=True)),
    "array_red-shared": ("red", lambda mgmt, h: processing.array_red(
        mgmt, "x", "y", 8, 5, h["red"], variant="shared")),
    "array_red-private": ("red", lambda mgmt, h: processing.array_red(
        mgmt, "x", "y", 8, 5, h["red"], variant="private")),
}


def snapshot(mgmt, handle):
    """The host state and the handle's context bytes, as one comparable pair."""
    if handle is None:
        return host_state(mgmt), None
    context = None if handle.context is None else handle.context.tobytes()
    return host_state(mgmt, handle), context


def clean_run(monkeypatch, name):
    """The injection points' call counts of one clean run of ``name``, and
    the host state before and after it."""
    key, operation = OPERATIONS[name]
    mgmt, h = loaded()
    before = snapshot(mgmt, h.get(key))
    with monkeypatch.context() as mp:
        counter = Counter(mp)
        operation(mgmt, h)
    return counter.calls, before, snapshot(mgmt, h.get(key))


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_an_injected_fault_leaves_no_damage(monkeypatch, name):
    calls, clean_before, clean_after = clean_run(monkeypatch, name)
    # only a fresh update_context runs none of the points: it changes no
    # device or registry state, only the handle's bytes
    assert (sum(calls.values()) == 0) == (name == "update_context-fresh")
    assert clean_after != clean_before  # the operation does change state
    key, operation = OPERATIONS[name]
    for point, count in calls.items():
        for k in range(1, count + 1):
            mgmt, h = loaded()
            before = snapshot(mgmt, h.get(key))
            assert before == clean_before
            with monkeypatch.context() as mp:
                Counter(mp, point, k)
                with pytest.raises(Injected):
                    operation(mgmt, h)
            assert snapshot(mgmt, h.get(key)) == before
            operation(mgmt, h)  # a retry ends where a clean run ends
            assert snapshot(mgmt, h.get(key)) == clean_after


# --- apps -------------------------------------------------------------------------

PUBLIC = [(comm, n) for n in ("scatter", "broadcast", "gather", "allgather", "allreduce")]
PUBLIC += [(processing, n) for n in ("array_map", "array_zip", "array_red",
                                     "update_context", "create_handle", "free_handle")]

APPS = {
    "reduction": (apps.run_reduction, {}),
    "vecadd-lazy": (apps.run_vecadd, {}),
    "vecadd-eager": (apps.run_vecadd, {"eager": True}),
    "histogram": (apps.run_histogram, {}),
    "linreg": (apps.run_linreg, {}),
    "logreg": (apps.run_logreg, {}),
    "kmeans": (apps.run_kmeans, {}),
}


def checked(raised, name, operation):
    """``operation`` that, when it raises, asserts that it restored the host
    state it was called in, and records ``name`` in ``raised``."""

    @functools.wraps(operation)
    def wrapper(mgmt, *args, **kwargs):
        handles = [a for a in (*args, *kwargs.values()) if isinstance(a, Handle)]
        before = host_state(mgmt, *handles)
        try:
            return operation(mgmt, *args, **kwargs)
        except Injected:
            assert host_state(mgmt, *handles) == before, name
            raised.append(name)
            raise

    return wrapper


def run_app(monkeypatch, name, point=None, fail_at=None):
    runner, kwargs = APPS[name]
    spec = BenchmarkSpec(name=name.split("-")[0], total_elems=150, dims=3, bins=16,
                         clusters=3, iterations=2, seed=5)
    mgmt = make_mgmt(cores=CORES, log_transfers=True)
    before = host_state(mgmt)
    raised = []
    with monkeypatch.context() as mp:
        for module, op in PUBLIC:
            mp.setattr(module, op, checked(raised, op, getattr(module, op)))
        counter = Counter(mp, point, fail_at)
        if fail_at is None:
            runner(mgmt, spec, **kwargs)
        else:
            with pytest.raises(Injected):
                runner(mgmt, spec, **kwargs)
    if fail_at is not None:
        assert host_state(mgmt) == before
        result = runner(mgmt, spec, **kwargs)  # the retry runs clean
        assert np.array_equal(result, RUNNERS[spec.name][1](spec))
        assert not mgmt.registry and mgmt.device.cursors == [0] * CORES
    return counter.calls, raised


@pytest.mark.parametrize("name", sorted(APPS))
def test_the_operation_that_raised_in_an_app_restored_its_state(monkeypatch, name):
    calls, _ = run_app(monkeypatch, name)
    for point, count in calls.items():
        for k in range(1, count + 1):
            _, raised = run_app(monkeypatch, name, point, k)
            assert raised, f"{point[1]} call {k} raised outside a public operation"
