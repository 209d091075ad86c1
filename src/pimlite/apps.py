"""Benchmark workloads built purely from the framework API, with sequential
host oracles to verify them against.

Every workload is integer or fixed-point, so device results must match the
oracle bit for bit.  Both sides share the same arithmetic definitions (exact
int64 / wrapping uint32/uint64 numpy operations) but compute through
completely different paths: the runners go through scatter, scratchpad
streaming and keyed reduction, while the oracles are straight-line passes
over the host arrays, ``ROW_BLOCK`` rows at a time.  One shared definition
leaves int64: both sides label k-means points with a
:func:`centroid_labeller`, which computes its distances in float64 (BLAS)
only where a bound on the coordinates proves every term an exact integer,
and in int64 otherwise, so its labels are those of the int64 expression.
A labeller does the work that depends on the centroids alone once, when it
is built from a copy of them: the runner builds one per context it sees
(the context bytes key it, so new centroids build a new one), the oracle
one per iteration.
Each runner does its device work inside :meth:`ManagementContext.rollback`:
one that raises leaves the registry, cursor, counters, log and
``last_plan`` as they were, so the same context can run it again.

Datasets come from a seeded PCG64 generator so any two runs (or two
implementations) can reproduce them exactly.  Each dataset is cut from one
stream of 32-bit words, :func:`pcg64_words`: the low half and then the high
half of each 64-bit PCG64 output, the words that
``Generator(PCG64(seed)).integers`` consumes one per value.  A value drawn as
``integers(0, 2**b)`` with ``b <= 32`` is ``word >> (32 - b)``: Lemire's
bounded method rejects no word for a power-of-two range (its threshold,
``(2**32 - 2**b) mod 2**b``, is 0) and keeps the product's high bits.  A
generator takes its draws from consecutive slices of the stream, in the order
it used to draw them, so the datasets equal those of ``integers``, value for
value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import comm, processing
from .errors import InvalidArgument
from .management import ManagementContext
from .processing import MAP, REDUCE

FIXED_POINT_SHIFT = 12


def _float64_exact_rows(rows: int) -> int:
    """``rows``, if float64 holds every partial sum of that many int32 values
    exactly (``rows * 2**31 <= 2**52``); else raise ``InvalidArgument``."""
    if rows > 1 << 21:
        raise InvalidArgument(f"{rows} rows: float64 sums of int32 values lose bits")
    return rows


# The oracles and the regression labels widen and multiply the host data this
# many rows at a time, so their int64 temporaries stay a few MB at any size.
# Integer sums wrap the same in any order: blocking changes no result.  The
# k-means oracle sums a block's int32 coordinates per cluster in float64
# (``np.bincount`` weights): every partial sum is an integer of magnitude at
# most 2**16 * 2**31 = 2**47 < 2**53, so exact, which the import checks.
ROW_BLOCK = _float64_exact_rows(1 << 16)
# The k-means oracle labels a block this many rows at a time: the (k, rows)
# distance keys of a slice stay in cache, which a whole block's do not.
LABEL_ROWS = 1 << 12


@dataclass(frozen=True)
class BenchmarkSpec:
    """Workload parameters; ``seed`` pins the dataset."""

    name: str = ""
    total_elems: int = 0
    dims: int = 10
    bins: int = 256
    clusters: int = 10
    iterations: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dims < 1 or self.bins < 2 or self.clusters < 1 or self.iterations < 1:
            raise InvalidArgument("dims >= 1, bins >= 2, clusters >= 1, iterations >= 1")
        if self.total_elems < 0 or self.seed < 0:
            raise InvalidArgument("total_elems and seed must be >= 0")


def pcg64_words(seed: int, count: int) -> np.ndarray:
    """The first ``count`` 32-bit words that ``Generator(PCG64(seed))``'s
    bounded integer draws consume, as a uint32 array: the low, then the high
    half of each 64-bit output (on either byte order)."""
    raw = np.random.PCG64(seed).random_raw(-(-count // 2))
    words = raw.astype("<u8", copy=False).view("<u4")[:count]
    return words.astype(np.uint32, copy=False)  # native order; no copy on little-endian


def _top_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """``integers(0, 2**bits)`` of the uint32 ``words``, shifted in place."""
    return np.right_shift(words, 32 - bits, out=words)


def _reused_rows(dtype, *row_shape):
    """A function ``take(m)`` that returns a view of the first ``m`` rows of
    one buffer of ``row_shape`` rows of ``dtype``, all filled with ones when
    the buffer is made; a call that needs more rows makes a larger one.
    A reducing callback may return such views: the kernel reads them before
    it calls the callback again and never writes to them."""
    buf = [np.ones((0, *row_shape), dtype)]

    def take(m: int) -> np.ndarray:
        if len(buf[0]) < m:
            buf[0] = np.ones((m, *row_shape), dtype)
        return buf[0][:m]

    return take


def _row_blocks(n: int):
    """Slices of ``ROW_BLOCK`` consecutive rows (the last may be shorter)
    that cover rows ``0..n``."""
    return (slice(start, start + ROW_BLOCK) for start in range(0, n, ROW_BLOCK))


# --- shared fixed-point arithmetic ------------------------------------------------


def approx_sigmoid_fixed(z: np.ndarray, shift: int) -> np.ndarray:
    """Cubic-polynomial sigmoid 1/2 + z/4 - z^3/48 on fixed-point int64.

    Shifts are arithmetic (floor), division is floor division; at z=0 the
    result is exactly 1/2 in fixed point, i.e. ``1 << (shift - 1)``.
    """
    z = np.asarray(z, np.int64)
    z2 = (z * z) >> shift
    z3 = (z2 * z) >> shift
    return (np.int64(1) << (shift - 1)) + (z >> 2) - z3 // 48


def trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer division rounding toward zero (b must be positive)."""
    q = np.abs(a) // b
    return np.where(np.asarray(a) < 0, -q, q)


# --- reduction: sum of a u32 vector into one u64 accumulator -------------------------


def make_reduction_input(spec: BenchmarkSpec) -> np.ndarray:
    return pcg64_words(spec.seed, spec.total_elems)


def run_reduction(mgmt: ManagementContext, spec: BenchmarkSpec,
                  variant: str = "auto") -> int:
    data = make_reduction_input(spec)

    def to_val(src, ctx):
        vals = src.view(np.uint32).ravel().astype(np.uint64)
        return vals, np.zeros(vals.size, np.int64)

    with mgmt.rollback():
        comm.scatter(mgmt, "red_in", data, spec.total_elems, 4)
        handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                          combine=(np.add, np.uint64))
        processing.array_red(mgmt, "red_in", "red_out", 8, 1, handle, variant=variant)
        total = int(comm.gather(mgmt, "red_out").view(np.uint64)[0])
        mgmt.free("red_out")
        mgmt.free("red_in")
    return total


def oracle_reduction(spec: BenchmarkSpec) -> int:
    # u64 wrapping addition is associative, so the vectorized fold equals the
    # element-by-element loop exactly
    return int(np.add.reduce(make_reduction_input(spec), dtype=np.uint64))


# --- vector addition: lazy zip + map --------------------------------------------------


def make_vecadd_inputs(spec: BenchmarkSpec) -> tuple[np.ndarray, np.ndarray]:
    n = spec.total_elems
    words = pcg64_words(spec.seed, 2 * n)
    return words[:n], words[n:]


def run_vecadd(mgmt: ManagementContext, spec: BenchmarkSpec,
               eager: bool = False) -> np.ndarray:
    """Elementwise wrapping u32 addition.  ``eager`` forces the zipped input
    to be materialized instead of streamed lazily (used by the traffic study)."""
    a, b = make_vecadd_inputs(spec)

    def add_pairs(src, dst, ctx):
        pairs = src.view(np.uint32).reshape(-1, 2)
        out = dst.view(np.uint32).ravel()
        np.add(pairs[:, 0], pairs[:, 1], out=out)

    with mgmt.rollback():
        comm.scatter(mgmt, "va_a", a, spec.total_elems, 4)
        comm.scatter(mgmt, "va_b", b, spec.total_elems, 4)
        del a, b  # on the device now; one host copy of the data at a time
        processing.array_zip(mgmt, "va_a", "va_b", "va_ab", materialize=eager)
        handle = processing.create_handle(mgmt, MAP, map_func=add_pairs)
        processing.array_map(mgmt, "va_ab", "va_out", 4, handle)
        out = comm.gather(mgmt, "va_out").view(np.uint32)
        for name in ("va_out", "va_ab", "va_b", "va_a"):
            mgmt.free(name)
    return out


def oracle_vecadd(spec: BenchmarkSpec) -> np.ndarray:
    a, b = make_vecadd_inputs(spec)
    return a + b


# --- histogram: keyed reduction over 12-bit values -------------------------------------


def make_histogram_input(spec: BenchmarkSpec) -> np.ndarray:
    return _top_bits(pcg64_words(spec.seed, spec.total_elems), 12)


def histogram_key(values: np.ndarray, bins: int) -> np.ndarray:
    """Bin index of a 12-bit value: value * bins >> 12, as int64, computed
    in place in one new array (``values`` is left as it was)."""
    keys = np.array(values, np.int64)
    keys *= bins
    keys >>= 12
    return keys


def run_histogram(mgmt: ManagementContext, spec: BenchmarkSpec,
                  variant: str = "auto") -> np.ndarray:
    data = make_histogram_input(spec)
    bins = spec.bins
    ones = _reused_rows(np.uint32)

    def to_val(src, ctx):
        d = src.view(np.uint32).ravel()
        return ones(d.size), histogram_key(d, bins)

    with mgmt.rollback():
        comm.scatter(mgmt, "hist_in", data, spec.total_elems, 4)
        del data
        handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                          combine=(np.add, np.uint32))
        processing.array_red(mgmt, "hist_in", "hist_out", 4, bins, handle,
                             variant=variant)
        counts = comm.gather(mgmt, "hist_out").view(np.uint32)
        mgmt.free("hist_out")
        mgmt.free("hist_in")
    return counts


def oracle_histogram(spec: BenchmarkSpec) -> np.ndarray:
    keys = histogram_key(make_histogram_input(spec), spec.bins)
    return np.bincount(keys, minlength=spec.bins).astype(np.uint32)


# --- linear / logistic regression: fixed-point gradient descent -------------------------
#
# Samples are packed rows of dims feature ints plus the label; the gradient is
# accumulated as one dims-wide int64 entry per core and the host applies
#     w <- w - (grad >> 2*shift)
# after folding.  Model weights travel to the cores as handle context.


def make_regression_data(spec: BenchmarkSpec,
                         binary_labels: bool = False) -> tuple[np.ndarray, np.ndarray]:
    n, dims = spec.total_elems, spec.dims
    # draw order: x row by row, then the labels (binary), or w_true and the
    # label noise (linear)
    words = pcg64_words(spec.seed, n * dims + (n if binary_labels else dims + n))
    x = _top_bits(words[:n * dims], 6).view(np.int32).reshape(n, dims)
    rest = words[n * dims:]
    if binary_labels:
        y = _top_bits(rest, 1).view(np.int32)
    else:
        w_true = _top_bits(rest[:dims], FIXED_POINT_SHIFT).astype(np.int64)
        y = _top_bits(rest[dims:], 4).view(np.int32)
        for rows in _row_blocks(n):
            y[rows] += (x[rows].astype(np.int64) @ w_true) >> FIXED_POINT_SHIFT
    return x, y


def _regression_runner(mgmt, spec, variant, logistic: bool) -> np.ndarray:
    x, y = make_regression_data(spec, binary_labels=logistic)
    dims, shift = spec.dims, FIXED_POINT_SHIFT
    packed = np.concatenate([x, y[:, None]], axis=1)  # int32, like x and y
    del x, y

    def to_val(src, ctx):
        rows = src.view(np.int32).reshape(-1, dims + 1).astype(np.int64)
        xs, ys = rows[:, :dims], rows[:, dims]
        w = ctx.view(np.int64)[:dims]
        z = (xs @ w) >> shift
        if logistic:
            err = approx_sigmoid_fixed(z, shift) - (ys << shift)
        else:
            err = z - ys
        return xs * err[:, None], np.zeros(len(rows), np.int64)

    with mgmt.rollback():
        comm.scatter(mgmt, "reg_in", packed, spec.total_elems, 4 * (dims + 1))
        del packed
        w = np.zeros(dims, np.int64)
        handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                          combine=(np.add, np.int64), context=w)
        trajectory = np.zeros((spec.iterations, dims), np.int64)
        for it in range(spec.iterations):
            processing.update_context(mgmt, handle, w)
            processing.array_red(mgmt, "reg_in", "reg_grad", 8 * dims, 1, handle,
                                 variant=variant)
            grad = comm.gather(mgmt, "reg_grad").view(np.int64)
            mgmt.free("reg_grad")
            w = w - (grad >> (2 * shift))
            trajectory[it] = w
        processing.free_handle(mgmt, handle)
        mgmt.free("reg_in")
    return trajectory


def _regression_oracle(spec: BenchmarkSpec, logistic: bool) -> np.ndarray:
    x, y = make_regression_data(spec, binary_labels=logistic)
    shift = FIXED_POINT_SHIFT
    w = np.zeros(spec.dims, np.int64)
    trajectory = np.zeros((spec.iterations, spec.dims), np.int64)
    for it in range(spec.iterations):
        grad = np.zeros(spec.dims, np.int64)
        for rows in _row_blocks(spec.total_elems):
            x64 = x[rows].astype(np.int64)
            y64 = y[rows].astype(np.int64)
            z = (x64 @ w) >> shift
            if logistic:
                err = approx_sigmoid_fixed(z, shift) - (y64 << shift)
            else:
                err = z - y64
            grad += (x64 * err[:, None]).sum(axis=0)
        w = w - (grad >> (2 * shift))
        trajectory[it] = w
    return trajectory


def run_linreg(mgmt: ManagementContext, spec: BenchmarkSpec,
               variant: str = "auto") -> np.ndarray:
    return _regression_runner(mgmt, spec, variant, logistic=False)


def oracle_linreg(spec: BenchmarkSpec) -> np.ndarray:
    return _regression_oracle(spec, logistic=False)


def run_logreg(mgmt: ManagementContext, spec: BenchmarkSpec,
               variant: str = "auto") -> np.ndarray:
    return _regression_runner(mgmt, spec, variant, logistic=True)


def oracle_logreg(spec: BenchmarkSpec) -> np.ndarray:
    return _regression_oracle(spec, logistic=True)


# --- k-means: Lloyd iterations over quantized points -------------------------------------
#
# One reduction per iteration accumulates, per cluster, the coordinate sums
# and the member count ((dims+1) int64 entries); the host divides to get the
# new centroids.  Ties break toward the lowest cluster index; empty clusters
# keep their previous centroid; division truncates toward zero.


def check_kmeans_spec(spec: BenchmarkSpec) -> None:
    """Refuse fewer points than clusters: the first points seed the centroids."""
    if spec.total_elems < spec.clusters:
        raise InvalidArgument("need at least one point per cluster seed")


def make_kmeans_points(spec: BenchmarkSpec) -> np.ndarray:
    check_kmeans_spec(spec)
    words = pcg64_words(spec.seed, spec.total_elems * spec.dims)
    return _top_bits(words, 12).view(np.int32).reshape(spec.total_elems, spec.dims)


def _top(a: np.ndarray) -> int:
    """The largest absolute value in integer array ``a`` (0 if it is empty)."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


def _float64_exact(w: int, dims: int, ptop: int, ctop: int) -> bool:
    """Whether every term of a ``centroid_labeller``'s float64 path is an exact
    integer, for key multiplier ``w`` and coordinates at most ``ptop`` (points)
    and ``ctop`` (centroids) in absolute value.  Python ints: no overflow."""
    return w * (2 * dims * ptop * ctop + dims * ctop * ctop) + w < 2 ** 53


@functools.cache
def _dtype_top(dtype: np.dtype) -> int:
    """``iinfo(dtype).max + 1``: a bound on the magnitude of any value of the
    integer ``dtype``, looked up once per dtype."""
    return int(np.iinfo(dtype).max) + 1


def centroid_labeller(centroids: np.ndarray):
    """A function that labels integer point rows with the index of their
    nearest centroid by squared distance, ties to the lowest index.

    ``|p - c|² = |p|² - 2p·c + |c|²`` and ``|p|²`` is the same for every
    centroid of a row, so ``|c_j|² - 2p·c_j`` has the same argmin.  The
    reference computes it in int64 and takes ``argmin``.  The fast path packs
    the index into the value, ``w·(|c_j|² - 2p·c_j) + j`` with ``w`` the
    smallest power of two >= k, computes it in float64 through BLAS as a
    (k, m) array, and takes the column minimum: the smallest distance, and
    among equal distances the lowest index, which its low bits hold (a mask,
    where ``mod k`` would divide).  Every product, partial sum and packed key
    there is an integer of magnitude at most
    ``w·(2·dims·ptop·ctop + dims·ctop²) + w``, where ``ptop`` and ``ctop``
    bound the points' (by their dtype, else their values) and the centroids'
    coordinates.  Below 2^53 float64 holds each of them exactly, in any
    summation order and with FMA, so the labels equal the reference's; at or
    above it the int64 reference runs.

    What depends on the centroids alone (``w``, ``ctop``, the scaled matrix,
    the norms and the packed bias) is computed here, once, from a copy of
    ``centroids``: writing to that array later changes no label.  Each call
    checks the bound for its points, whose dtype's half is looked up once per
    dtype, and computes their keys."""
    cents = np.array(centroids, np.int64)
    k, dims = cents.shape
    w, ctop = 1 << (k - 1).bit_length(), _top(cents)
    norms = (cents * cents).sum(axis=1)
    scaled = cents * (-2.0 * w)
    bias = (norms * w + np.arange(k)).astype(np.float64)[:, None]

    def label(points: np.ndarray) -> np.ndarray:
        if not (_float64_exact(w, dims, _dtype_top(points.dtype), ctop)
                or _float64_exact(w, dims, _top(points), ctop)):
            return (norms - 2 * (np.asarray(points, np.int64) @ cents.T)).argmin(axis=1)
        keys = scaled @ points.T
        keys += bias
        return np.minimum.reduce(keys, axis=0).astype(np.int64) & (w - 1)

    return label


def nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each integer point row's nearest centroid, ties to the lowest
    index: :func:`centroid_labeller` of ``centroids`` applied to ``points``."""
    return centroid_labeller(centroids)(points)


def run_kmeans(mgmt: ManagementContext, spec: BenchmarkSpec,
               variant: str = "auto") -> np.ndarray:
    points = make_kmeans_points(spec)
    k, dims = spec.clusters, spec.dims
    built = [b"", None]  # the context bytes last seen and their labeller
    rows = _reused_rows(np.int64, dims + 1)  # coordinates, then a count of 1

    def to_val(src, ctx):
        pts = src.view(np.int32).reshape(-1, dims)
        vals = rows(len(pts))
        vals[:, :dims] = pts
        key = ctx.tobytes()
        if key != built[0]:  # a new context: build its labeller once
            cents = np.frombuffer(key, np.int64).reshape(k, dims)
            built[:] = key, centroid_labeller(cents)
        return vals, built[1](pts)

    with mgmt.rollback():
        comm.scatter(mgmt, "km_pts", points, spec.total_elems, 4 * dims)
        centroids = points[:k].astype(np.int64)
        del points
        handle = processing.create_handle(mgmt, REDUCE, map_to_val_func=to_val,
                                          combine=(np.add, np.int64), context=centroids)
        trajectory = np.zeros((spec.iterations, k, dims), np.int64)
        for it in range(spec.iterations):
            processing.update_context(mgmt, handle, centroids)
            processing.array_red(mgmt, "km_pts", "km_acc", 8 * (dims + 1), k, handle,
                                 variant=variant)
            acc = comm.gather(mgmt, "km_acc").view(np.int64).reshape(k, dims + 1)
            mgmt.free("km_acc")
            sums, counts = acc[:, :dims], acc[:, dims]
            centroids = np.where(counts[:, None] > 0,
                                 trunc_div(sums, np.maximum(counts, 1)[:, None]),
                                 centroids)
            trajectory[it] = centroids
        processing.free_handle(mgmt, handle)
        mgmt.free("km_pts")
    return trajectory


def _cluster_sums(block: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster coordinate sums of an int32 block of at most ``ROW_BLOCK``
    rows, as (k, dims) int64: one float64 ``bincount`` per dimension, exact
    by the bound stated at ``ROW_BLOCK``."""
    return np.stack([np.bincount(labels, weights=block[:, j], minlength=k)
                     for j in range(block.shape[1])], axis=1).astype(np.int64)


def oracle_kmeans(spec: BenchmarkSpec) -> np.ndarray:
    points = make_kmeans_points(spec)
    k = spec.clusters
    centroids = points[:k].astype(np.int64)
    trajectory = np.zeros((spec.iterations, k, spec.dims), np.int64)
    for it in range(spec.iterations):
        label = centroid_labeller(centroids)
        counts = np.zeros(k, np.int64)
        sums = np.zeros((k, spec.dims), np.int64)
        for rows in _row_blocks(spec.total_elems):
            block = points[rows]
            labels = np.concatenate([label(block[start:start + LABEL_ROWS])
                                     for start in range(0, len(block), LABEL_ROWS)])
            counts += np.bincount(labels, minlength=k)
            sums += _cluster_sums(block, labels, k)
        centroids = np.where(counts[:, None] > 0,
                             trunc_div(sums, np.maximum(counts, 1)[:, None]),
                             centroids)
        trajectory[it] = centroids
    return trajectory
