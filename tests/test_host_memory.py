"""Each app's runner and oracle hold at most one host copy of their dataset,
plus temporaries of one ``ROW_BLOCK``: their traced peaks under
``tracemalloc``, which sees numpy's host arrays but not the bank and
scratchpad mappings."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from pimlite import apps, harness
from pimlite.apps import BenchmarkSpec

# 64 ROW_BLOCKs, split evenly over CORES so that scatter sends the host array
# itself.  The smallest dataset, one 4-byte word per row, is then 256 bytes
# per ROW_BLOCK row, 2.7 times the allowance's 96.
TOTAL, CORES = 64 * apps.ROW_BLOCK, 4
# twelve int64 values per row of one ROW_BLOCK: the widest block temporaries,
# the logistic oracle's sigmoid, take about eight
ALLOWANCE = 12 * 8 * apps.ROW_BLOCK


def _spec(name: str) -> BenchmarkSpec:
    return BenchmarkSpec(name=name, total_elems=TOTAL, dims=1, bins=16, clusters=2,
                         iterations=1, seed=3)


def _dataset_and_output_bytes(spec: BenchmarkSpec) -> tuple[int, int]:
    """The largest single host array the app must hold (its input, or the
    packed regression rows), and its output, in bytes."""
    n, dims, its = spec.total_elems, spec.dims, spec.iterations
    return {
        "reduction": (4 * n, 8),
        "vecadd": (4 * n, 4 * n),
        "histogram": (4 * n, 4 * spec.bins),
        "linreg": (4 * n * (dims + 1), 8 * its * dims),
        "logreg": (4 * n * (dims + 1), 8 * its * dims),
        "kmeans": (4 * n * dims, 8 * its * spec.clusters * dims),
    }[spec.name]


def _traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("part", ["run", "oracle"])
@pytest.mark.parametrize("name", harness.RUNNERS)
def test_one_host_copy_of_the_dataset(name, part):
    """A runner drops its dataset once it is on the device, before it
    gathers its output, so it holds the larger of the two; an oracle holds
    its dataset while it builds its output, so it may hold both."""
    spec = _spec(name)
    dataset, output = _dataset_and_output_bytes(spec)
    if part == "run":
        peak = _traced_peak(lambda: harness._run_app(name, spec, CORES, "auto"))
        bound = max(dataset, output) + ALLOWANCE
    else:
        peak = _traced_peak(lambda: harness.RUNNERS[name][1](spec))
        bound = dataset + output + ALLOWANCE
    assert peak <= bound, f"{name} {part}: {peak / 1e6:.2f} MB > {bound / 1e6:.2f} MB"


@pytest.mark.parametrize("count", [0, 1, 2, 7, apps.ROW_BLOCK + 1])
def test_a_stream_slice_without_a_carried_half_is_a_view(count):
    """Odd counts carry the high half of an output to the next slice; a
    slice that starts on a whole output views the outputs it drew."""
    take = apps.pcg64_stream(5)
    first = take(2 * count)  # even: leaves no half
    assert first.base is not None and first.flags.writeable
    odd = take(2 * count + 1)
    carried = take(count + 1)  # starts on the half that ``odd`` left
    assert carried.base is None
    words = apps.pcg64_words(5, 5 * count + 2)
    assert np.array_equal(np.concatenate([first, odd, carried]), words)
