"""The benchmark's tracer (``perfbench/tracing.py``) wraps pimlite entry
points by name: ``array_map``, ``array_zip``, ``array_red``,
``create_handle``, ``update_context``, ``_load_batch_views``,
``LockTable.acquire`` and each device's ``dma_read``/``dma_write``.  Its own
smoke test is not part of this suite, so a rename or a kernel that stops
going through those names would break the traced benchmark unnoticed; these
tests run one tiny op of each benchmarked workload under the tracer.

The iterator kernel issues each DMA command, and loads each batch, once for
a run of lockstep cores.  Every workload here is one run of ``CORES`` equal
cores, so each loaded batch stands for exactly ``CORES`` per-core batches.
No framework command goes through ``dma_read``/``dma_write``: the context
reads, a batch's commands and a reduction's partial writes are all checked,
counted and logged by ``PimDevice._issue``, and the bytes that a later step
reads move between the banks and host arrays.  So the traced device DMA
sees no call, and the counters hold every command of each launch's
``dma_schedule``: its launch-wide commands once per core, and its batch
commands.  A reduction issues each run's batch reads at once and still
loads every batch through ``_load_batch_views``, which issues nothing; a
map or zip loads none."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import make_mgmt
from pimlite import apps, comm, processing
from pimlite.apps import BenchmarkSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

CORES = 4
# app: (run keyword arguments, spec, streamed element bytes), at sizes well
# below the benchmark's
WORKLOADS = {
    "vecadd": ({"eager": False}, BenchmarkSpec(total_elems=CORES * 1_000, seed=5), 4),
    "histogram": ({"variant": "auto"},
                  BenchmarkSpec(total_elems=CORES * 1_000, bins=4096, seed=5), 4),
    "kmeans": ({"variant": "auto"},
               BenchmarkSpec(total_elems=CORES * 200, dims=10, clusters=10,
                             iterations=3, seed=5), 40),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def batches_of(plan, per_core_elems):
    return sum(-(-n // plan.batch_elems) for n in per_core_elems)


@pytest.mark.parametrize("app", WORKLOADS)
def test_traced_op_sees_every_batch_command_and_plan(tracing, app, monkeypatch):
    kwargs, spec, elem_bytes = WORKLOADS[app]
    schedules, schedule = [], processing.dma_schedule

    def recording_schedule(config, job):
        schedules.append((job.per_core_elems, schedule(config, job)))
        return schedules[-1][1]

    monkeypatch.setattr(processing, "dma_schedule", recording_schedule)
    originals = (processing.array_red, processing.create_handle,
                 processing._load_batch_views)
    mgmt = make_mgmt(cores=CORES)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracing.instrument_op(tracer, mgmt.device, mgmt)
        result = getattr(apps, f"run_{app}")(mgmt, spec, **kwargs)
    assert (processing.array_red, processing.create_handle,
            processing._load_batch_views) == originals
    assert np.array_equal(result, getattr(apps, f"oracle_{app}")(spec))

    launch_wide = sum(len(context) + len(partial) for _, (context, _, partial) in schedules)
    batch_commands = sum(len(reads) + (write is not None)
                   for counts, (_, runs, _) in schedules for n in counts
                   for batches in runs[n] for _, reads, write in batches)
    assert tracer.calls["device.dma"] == 0
    assert mgmt.device.stats.dma_commands == CORES * launch_wide + batch_commands > 0
    reductions = tracer.calls["processing.array_red"]
    assert len(tracer.plans) == reductions
    if app == "vecadd":
        assert reductions == 0 and tracer.calls["processing.array_map"] == 1
        assert launch_wide == 0 and tracer.counts["processing.kernel.batches"] == 0
        return
    assert reductions == (spec.iterations if app == "kmeans" else 1)
    assert all(p.variant == processing.VARIANT_PRIVATE for p in tracer.plans)
    per_core_elems = comm.plan_scatter(spec.total_elems, elem_bytes, CORES).per_core_elems
    assert tracer.counts["processing.kernel.batches"] * CORES == \
        sum(batches_of(p, per_core_elems) for p in tracer.plans) > 0
