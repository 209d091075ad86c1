from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_mgmt
from pimlite import apps, comm, processing
from pimlite.apps import BenchmarkSpec, approx_sigmoid_fixed, trunc_div
from pimlite.errors import InvalidArgument
from pimlite.processing import REDUCE


def run_pair(name, spec, cores, **kw):
    runner = getattr(apps, f"run_{name}")
    oracle = getattr(apps, f"oracle_{name}")
    mgmt = make_mgmt(cores=cores, bank_bytes=4 << 20)
    return runner(mgmt, spec, **kw), oracle(spec)


def direct_nearest(points, cents):
    """Nearest centroid by the squared distance itself, in int64."""
    diff = np.asarray(points, np.int64)[:, None, :] - cents[None, :, :]
    return (diff * diff).sum(axis=2).argmin(axis=1)


class TestReduction:
    def test_matches_oracle(self):
        for seed, cores in [(0, 1), (1, 3), (2, 8)]:
            spec = BenchmarkSpec(name="reduction", total_elems=2500, seed=seed)
            result, expected = run_pair("reduction", spec, cores)
            assert result == expected

    def test_zero_input_sums_to_zero(self):
        mgmt = make_mgmt(cores=2)
        comm.scatter(mgmt, "z", np.zeros(64, np.uint32), 64, 4)

        def init(a):
            a[:] = 0

        def to_val(src, ctx):
            v = src.view(np.uint32).ravel().astype(np.uint64)
            return v, np.zeros(v.size, np.int64)

        def acc(dst, src):
            a = dst.view(np.uint64)
            np.add(a, src.view(np.uint64), out=a)

        handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                          map_to_val_func=to_val, acc_func=acc)
        processing.array_red(mgmt, "z", "total", 8, 1, handle)
        assert comm.gather(mgmt, "total").view(np.uint64)[0] == 0

    def test_oracle_equals_literal_loop(self):
        spec = BenchmarkSpec(name="reduction", total_elems=333, seed=4)
        data = apps.make_reduction_input(spec)
        acc = 0
        for v in data.tolist():
            acc = (acc + v) % (1 << 64)
        assert apps.oracle_reduction(spec) == acc


class TestVecadd:
    def test_matches_oracle(self):
        for seed, cores in [(0, 2), (5, 7)]:
            spec = BenchmarkSpec(name="vecadd", total_elems=3000, seed=seed)
            result, expected = run_pair("vecadd", spec, cores)
            assert np.array_equal(result, expected)

    def test_eager_path_same_result(self):
        spec = BenchmarkSpec(name="vecadd", total_elems=1000, seed=2)
        result, expected = run_pair("vecadd", spec, 4, eager=True)
        assert np.array_equal(result, expected)

    def test_small_literal_case(self):
        mgmt = make_mgmt(cores=2)
        comm.scatter(mgmt, "a", np.array([1, 2], np.uint32), 2, 4)
        comm.scatter(mgmt, "b", np.array([3, 4], np.uint32), 2, 4)
        processing.array_zip(mgmt, "a", "b", "ab")

        def add(src, dst, ctx):
            pairs = src.view(np.uint32).reshape(-1, 2)
            out = dst.view(np.uint32).ravel()
            np.add(pairs[:, 0], pairs[:, 1], out=out)

        handle = processing.create_handle(mgmt, processing.MAP, map_func=add)
        processing.array_map(mgmt, "ab", "out", 4, handle)
        assert np.array_equal(comm.gather(mgmt, "out").view(np.uint32), [4, 6])

    def test_adding_zeros_is_identity(self):
        spec = BenchmarkSpec(name="vecadd", total_elems=100, seed=1)
        a, b = apps.make_vecadd_inputs(spec)
        assert np.array_equal(apps.oracle_vecadd(spec), a + b)
        # identity case checked through the full stack
        mgmt = make_mgmt(cores=2)
        comm.scatter(mgmt, "a", np.zeros(100, np.uint32), 100, 4)
        comm.scatter(mgmt, "b", b, 100, 4)
        processing.array_zip(mgmt, "a", "b", "ab")

        def add(src, dst, ctx):
            pairs = src.view(np.uint32).reshape(-1, 2)
            out = dst.view(np.uint32).ravel()
            np.add(pairs[:, 0], pairs[:, 1], out=out)

        handle = processing.create_handle(mgmt, processing.MAP, map_func=add)
        processing.array_map(mgmt, "ab", "out", 4, handle)
        assert np.array_equal(comm.gather(mgmt, "out").view(np.uint32), b)


def histogram_on(mgmt, data, bins, variant="auto"):
    """Histogram of explicit data through the full framework path."""
    data = np.asarray(data, np.uint32)
    comm.scatter(mgmt, "h_in", data, data.size, 4)

    def init(a):
        a[:] = 0

    def to_val(src, ctx):
        d = src.view(np.uint32).ravel()
        return np.ones(d.size, np.uint32), apps.histogram_key(d, bins)

    def acc(dst, src):
        a = dst.view(np.uint32)
        np.add(a, src.view(np.uint32), out=a)

    handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                      map_to_val_func=to_val, acc_func=acc)
    processing.array_red(mgmt, "h_in", "h_out", 4, bins, handle, variant=variant)
    counts = comm.gather(mgmt, "h_out").view(np.uint32).copy()
    mgmt.free("h_out")
    mgmt.free("h_in")
    return counts


class TestHistogram:
    def test_matches_oracle(self):
        for seed, cores, bins in [(0, 1, 256), (1, 4, 97), (2, 8, 4096)]:
            spec = BenchmarkSpec(name="histogram", total_elems=5000, bins=bins,
                                 seed=seed)
            result, expected = run_pair("histogram", spec, cores)
            assert np.array_equal(result, expected)

    def test_all_zero_inputs_fill_bin_zero(self):
        mgmt = make_mgmt(cores=2)
        counts = histogram_on(mgmt, np.zeros(500, np.uint32), 256)
        assert counts[0] == 500
        assert counts[1:].sum() == 0

    def test_key_formula_extremes(self):
        assert apps.histogram_key(np.array([0]), 256)[0] == 0
        assert apps.histogram_key(np.array([4095]), 256)[0] == 255
        mgmt = make_mgmt(cores=2)
        counts = histogram_on(mgmt, [4095], 256)
        assert counts[255] == 1

    @pytest.mark.parametrize("bins", [2, 3, 255, 256, 4096, 2**20])
    @pytest.mark.parametrize("dtype", [np.uint32, np.int32, np.int64])
    def test_key_built_in_place_equals_the_formula(self, dtype, bins):
        values = np.arange(4096).astype(dtype)  # every 12-bit value
        before = values.copy()
        keys = apps.histogram_key(values, bins)
        assert keys.dtype == np.int64
        assert np.array_equal(keys, (np.asarray(values, np.int64) * bins) >> 12)
        assert np.array_equal(values, before) and values.dtype == dtype

    def test_bin_sum_equals_input_count(self):
        spec = BenchmarkSpec(name="histogram", total_elems=4321, bins=64, seed=9)
        result, expected = run_pair("histogram", spec, 4)
        assert result.sum() == 4321 == expected.sum()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 4096, 2000, dtype=np.uint32)
        counts = histogram_on(make_mgmt(cores=4), data, 128)
        shuffled = histogram_on(make_mgmt(cores=4), rng.permutation(data), 128)
        assert np.array_equal(counts, shuffled)


class TestSigmoid:
    def test_value_at_zero_is_one_half(self):
        # 1/2 in fixed point with shift 12
        assert approx_sigmoid_fixed(np.array([0]), 12)[0] == 1 << 11

    def test_monotone_near_zero(self):
        z = np.arange(-2048, 2049, 64)
        p = approx_sigmoid_fixed(z, 12)
        assert (np.diff(p) >= 0).all()


class TestRegression:
    def test_linreg_trajectory_matches_oracle(self):
        for seed, cores in [(0, 1), (7, 4), (11, 8)]:
            spec = BenchmarkSpec(name="linreg", total_elems=1500, dims=10,
                                 iterations=4, seed=seed)
            result, expected = run_pair("linreg", spec, cores)
            assert np.array_equal(result, expected)  # every iteration, bit-exact

    def test_logreg_trajectory_matches_oracle(self):
        for seed, cores in [(1, 2), (3, 5)]:
            spec = BenchmarkSpec(name="logreg", total_elems=900, dims=7,
                                 iterations=3, seed=seed)
            result, expected = run_pair("logreg", spec, cores)
            assert np.array_equal(result, expected)

    def test_single_point_update_by_hand(self):
        # one sample x=3, y=5, w0=4096, shift 12:
        #   prediction (3*4096)>>12 = 3, error -2, gradient 3*-2 = -6,
        #   update w1 = 4096 - (-6 >> 24) = 4096 - (-1) = 4097
        mgmt = make_mgmt(cores=2)
        shift = 12
        packed = np.array([[3, 5]], np.int32)
        comm.scatter(mgmt, "p", packed, 1, 8)
        w = np.array([4096], np.int64)

        def init(a):
            a[:] = 0

        def to_val(src, ctx):
            rows = src.view(np.int32).reshape(-1, 2).astype(np.int64)
            weights = ctx.view(np.int64)
            z = (rows[:, :1] @ weights) >> shift
            return rows[:, :1] * (z - rows[:, 1])[:, None], \
                np.zeros(len(rows), np.int64)

        def acc(dst, src):
            a = dst.view(np.int64)
            np.add(a, src.view(np.int64), out=a)

        handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                          map_to_val_func=to_val, acc_func=acc,
                                          context=w)
        processing.array_red(mgmt, "p", "g", 8, 1, handle)
        grad = comm.gather(mgmt, "g").view(np.int64)[0]
        assert grad == -6
        assert (w - (grad >> (2 * shift)))[0] == 4097

    def test_zero_matrix_keeps_weights(self):
        # all-zero features give a zero gradient whatever the labels are
        mgmt = make_mgmt(cores=2)
        packed = np.zeros((20, 3), np.int32)
        packed[:, 2] = 5  # labels only
        comm.scatter(mgmt, "p", packed, 20, 12)
        dims, shift = 2, 12

        def init(a):
            a[:] = 0

        def to_val(src, ctx):
            rows = src.view(np.int32).reshape(-1, dims + 1).astype(np.int64)
            weights = ctx.view(np.int64)[:dims]
            z = (rows[:, :dims] @ weights) >> shift
            return rows[:, :dims] * (z - rows[:, dims])[:, None], \
                np.zeros(len(rows), np.int64)

        def acc(dst, src):
            a = dst.view(np.int64)
            np.add(a, src.view(np.int64), out=a)

        handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                          map_to_val_func=to_val, acc_func=acc,
                                          context=np.array([7, 9], np.int64))
        processing.array_red(mgmt, "p", "g", 8 * dims, 1, handle)
        assert np.array_equal(comm.gather(mgmt, "g").view(np.int64), [0, 0])

    def test_logreg_zero_weights_predict_one_half(self):
        spec = BenchmarkSpec(name="logreg", total_elems=50, dims=3,
                             iterations=1, seed=6)
        x, y = apps.make_regression_data(spec, binary_labels=True)
        # with w = 0 every z is 0, so the error is sigmoid(0) - y<<shift
        err = approx_sigmoid_fixed(np.zeros(50, np.int64), 12) \
            - (y.astype(np.int64) << 12)
        expected_grad = (x.astype(np.int64) * err[:, None]).sum(axis=0)
        expected_w = -(expected_grad >> 24)
        result, expected = run_pair("logreg", spec, 2)
        assert np.array_equal(result[0], expected_w)
        assert np.array_equal(result, expected)


class TestKmeans:
    def test_trajectory_matches_oracle(self):
        for seed, cores in [(0, 1), (2, 4), (8, 8)]:
            spec = BenchmarkSpec(name="kmeans", total_elems=600, dims=10,
                                 clusters=10, iterations=4, seed=seed)
            result, expected = run_pair("kmeans", spec, cores)
            assert np.array_equal(result, expected)

    def test_two_cluster_hand_case(self):
        # 1-D points {0, 1, 100, 101} with centroids {0, 100}: cluster sums
        # are (1, 201) with two members each, so the means stay (0, 100)
        mgmt = make_mgmt(cores=2)
        points = np.array([[0], [1], [100], [101]], np.int32)
        comm.scatter(mgmt, "pts", points, 4, 4)
        cents = np.array([[0], [100]], np.int64)

        def init(a):
            a[:] = 0

        def to_val(src, ctx):
            pts = src.view(np.int32).reshape(-1, 1).astype(np.int64)
            cc = ctx.view(np.int64).reshape(2, 1)
            keys = apps.nearest_centroid(pts, cc)
            vals = np.concatenate([pts, np.ones((len(pts), 1), np.int64)], axis=1)
            return vals, keys

        def acc(dst, src):
            a = dst.view(np.int64)
            np.add(a, src.view(np.int64), out=a)

        handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                          map_to_val_func=to_val, acc_func=acc,
                                          context=cents)
        processing.array_red(mgmt, "pts", "acc", 16, 2, handle)
        acc_rows = comm.gather(mgmt, "acc").view(np.int64).reshape(2, 2)
        assert np.array_equal(acc_rows, [[1, 2], [201, 2]])
        means = trunc_div(acc_rows[:, :1], acc_rows[:, 1:])
        assert np.array_equal(means.ravel(), [0, 100])

    @staticmethod
    def kmeans_step_on(points, cents):
        """One framework Lloyd step on explicit points; returns (sums, counts)."""
        points = np.asarray(points, np.int32)
        cents = np.asarray(cents, np.int64)
        k, dims = cents.shape
        mgmt = make_mgmt(cores=2)
        comm.scatter(mgmt, "pts", points, len(points), 4 * dims)

        def init(a):
            a[:] = 0

        def to_val(src, ctx):
            pts = src.view(np.int32).reshape(-1, dims).astype(np.int64)
            cc = ctx.view(np.int64).reshape(k, dims)
            vals = np.concatenate([pts, np.ones((len(pts), 1), np.int64)], axis=1)
            return vals, apps.nearest_centroid(pts, cc)

        def acc(dst, src):
            a = dst.view(np.int64)
            np.add(a, src.view(np.int64), out=a)

        handle = processing.create_handle(mgmt, REDUCE, init_func=init,
                                          map_to_val_func=to_val, acc_func=acc,
                                          context=cents)
        processing.array_red(mgmt, "pts", "acc", 8 * (dims + 1), k, handle)
        rows = comm.gather(mgmt, "acc").view(np.int64).reshape(k, dims + 1)
        return rows[:, :dims], rows[:, dims]

    def test_points_at_centroids_are_a_fixed_point(self):
        base = np.array([[10, 20], [300, 400], [50, 60]], np.int32)
        points = np.tile(base, (7, 1))
        sums, counts = self.kmeans_step_on(points, base.astype(np.int64))
        assert np.array_equal(counts, [7, 7, 7])
        means = trunc_div(sums, counts[:, None])
        assert np.array_equal(means, base)

    def test_member_counts_cover_all_points(self):
        spec = BenchmarkSpec(name="kmeans", total_elems=500, dims=4,
                             clusters=5, iterations=1, seed=12)
        points = apps.make_kmeans_points(spec)
        _, counts = self.kmeans_step_on(points, points[:5].astype(np.int64))
        assert counts.sum() == 500

    def test_empty_cluster_keeps_previous_centroid(self):
        points = np.full((40, 2), 7, np.int32)  # every point at (7, 7)
        cents = np.array([[7, 7], [9999, 9999], [5000, 5000]], np.int64)
        sums, counts = self.kmeans_step_on(points, cents)
        assert np.array_equal(counts, [40, 0, 0])
        new = np.where(counts[:, None] > 0,
                       trunc_div(sums, np.maximum(counts, 1)[:, None]), cents)
        assert np.array_equal(new, [[7, 7], [9999, 9999], [5000, 5000]])

    @staticmethod
    def draw_centroid_case(data, coord, forced=None):
        """Points (int32 like the run's rows, or int64) and int64 centroids
        with coordinates from ``coord``; ``forced``, if given, draws the
        first coordinate of centroid 0."""
        dims = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, 10))
        rows = data.draw(st.integers(1, 60))
        cents = data.draw(hnp.arrays(np.int64, (k, dims), elements=coord))
        dups = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
        for src, dst in dups:  # duplicated centroids force ties
            cents[dst] = cents[src]
        if forced is not None:
            cents[0, 0] = data.draw(forced)
        dtype = data.draw(st.sampled_from([np.int32, np.int64]))
        points = data.draw(hnp.arrays(dtype, (rows, dims), elements=coord))
        points[:k] = cents[:rows]  # points on a centroid: ties at distance 0
        return points, cents

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nearest_centroid_equals_the_direct_squared_distance(self, data):
        coord = st.one_of(st.sampled_from([0, 4095]), st.integers(0, 4095))
        points, cents = self.draw_centroid_case(data, coord)
        assert np.array_equal(apps.nearest_centroid(points, cents),
                              direct_nearest(points, cents))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_nearest_centroid_beyond_the_float64_bound(self, data):
        # a centroid coordinate of magnitude >= 2^27 puts w * dims * ctop²
        # alone at >= 2^54, past the bound for every k and dims, so the int64
        # reference runs; magnitudes below 2^28 keep int64 from overflowing
        top, big = (1 << 28) - 1, 1 << 27
        coord = st.one_of(st.sampled_from([-top, 0, top]), st.integers(-top, top))
        points, cents = self.draw_centroid_case(
            data, coord, forced=st.integers(big, top) | st.integers(-top, -big))
        assert np.array_equal(apps.nearest_centroid(points, cents),
                              direct_nearest(points, cents))

    def test_the_bound_not_luck_keeps_the_labels_exact(self, monkeypatch):
        # point p = 2^27 on a line, centroids p + 1 and p: |c|² - 2p·c is
        # -2^54 + 1 and -2^54, so centroid 1 is nearest.  float64 rounds
        # (p + 1)² = 2^54 + 2^28 + 1 to 2^54 + 2^28 and ties the two.
        p = 1 << 27
        points = np.array([[p]], np.int64)
        cents = np.array([[p + 1], [p]], np.int64)
        f = cents.astype(np.float64)
        rounded = ((f * f).sum(axis=1) - 2 * (points.astype(np.float64) @ f.T))
        assert rounded.argmin(axis=1).tolist() == [0]
        assert direct_nearest(points, cents).tolist() == [1]
        assert apps.nearest_centroid(points, cents).tolist() == [1]
        # without the guard the float64 path takes the same wrong centroid
        monkeypatch.setattr(apps, "_float64_exact", lambda *bound: True)
        assert apps.nearest_centroid(points, cents).tolist() == [0]

    def kmeans_to_val(self, monkeypatch, spec):
        """The ``map_to_val_func`` a k-means run hands its reduce handle, and
        a list that records each labeller the run's callbacks build."""
        handles, built = [], []
        create, labeller = processing.create_handle, apps.centroid_labeller

        def recording_create(*args, **kw):
            handles.append(kw["map_to_val_func"])
            return create(*args, **kw)

        def recording_labeller(centroids):
            built.append(np.array(centroids))
            return labeller(centroids)

        monkeypatch.setattr(processing, "create_handle", recording_create)
        monkeypatch.setattr(apps, "centroid_labeller", recording_labeller)
        apps.run_kmeans(make_mgmt(cores=3), spec)
        return handles[0], built

    def test_a_run_builds_one_labeller_per_context(self, monkeypatch):
        spec = BenchmarkSpec(name="kmeans", total_elems=3 * 2000, clusters=5,
                             iterations=3, seed=8)
        _, built = self.kmeans_to_val(monkeypatch, spec)
        by_run = list(built)
        # 6,000 points take several batches per launch, but each launch's
        # context (the iteration's centroids) builds one labeller, and so
        # does each iteration of the oracle
        trajectory = apps.oracle_kmeans(spec)
        first = apps.make_kmeans_points(spec)[:5]
        assert len(by_run) == 3 and len(built) == 6
        for got, want in zip(by_run, [first, trajectory[0], trajectory[1]]):
            assert np.array_equal(got, want)
        assert all(np.array_equal(a, b) for a, b in zip(by_run, built[3:]))

    def test_a_changed_context_relabels(self, monkeypatch):
        spec = BenchmarkSpec(name="kmeans", total_elems=60, dims=2, clusters=2,
                             iterations=1, seed=1)
        to_val, built = self.kmeans_to_val(monkeypatch, spec)
        built.clear()
        points = np.array([[0, 0], [10, 10], [4, 4], [6, 6]], np.int32)
        src = points.view(np.uint8).reshape(len(points), -1)
        near_zero = np.array([[0, 0], [10, 10]], np.int64)
        ctx = near_zero.copy().view(np.uint8).ravel()  # a scratchpad row stand-in
        assert to_val(src, ctx)[1].tolist() == [0, 1, 0, 1]
        ctx.view(np.int64)[:] = [10, 10, 0, 0]  # overwritten in place: swapped
        assert to_val(src, ctx)[1].tolist() == [1, 0, 1, 0]
        assert to_val(src, ctx)[1].tolist() == [1, 0, 1, 0]
        ctx.view(np.int64)[:] = near_zero.ravel()
        assert to_val(src, ctx)[1].tolist() == [0, 1, 0, 1]
        assert len(built) == 3  # one per change, none for the repeated call

    def test_a_labeller_keeps_its_own_copy_of_the_centroids(self):
        rng = np.random.default_rng(5)
        near = rng.integers(0, 6, (200, 2), dtype=np.int32)  # the float64 path
        far = np.array([[1 << 50, 0]], np.int64)  # past the bound: int64
        cents = np.array([[1, 0], [0, 5]], np.int64)
        before = [direct_nearest(points, cents) for points in (near, far)]
        label = apps.centroid_labeller(cents)
        cents[:] = cents[::-1]  # the buffer it was built from, overwritten
        for points, labels in zip((near, far), before):
            assert np.array_equal(label(points), labels)
            assert not np.array_equal(labels, direct_nearest(points, cents))

    def test_a_labeller_takes_int64_for_points_beyond_the_bound(self, monkeypatch):
        # small centroids, so the bound holds for int32 points; points of
        # magnitude 2^52 break it.  With c0 = (2, 1), c1 = (0, 2) and p =
        # (2^51, 2^52), |c_j|² - 2p·c_j is 5 - 2^54 and 4 - 2^54: centroid 1
        # is nearest.  float64 rounds both packed keys, 10 - 2^55 and
        # 9 - 2^55, to 8 - 2^55, whose low bit names centroid 0.
        cents = np.array([[2, 1], [0, 2]], np.int64)
        label = apps.centroid_labeller(cents)
        near = np.array([[2, 1], [1, 2], [0, 3]], np.int32)
        assert np.array_equal(label(near), direct_nearest(near, cents))
        far = np.array([[1 << 51, 1 << 52]], np.int64)
        assert direct_nearest(far, cents).tolist() == [1]
        assert label(far).tolist() == [1]
        # the bound is looked up per call: forced open, the same labeller
        # takes the float64 path and the rounded keys
        monkeypatch.setattr(apps, "_float64_exact", lambda *bound: True)
        assert label(far).tolist() == [0]

    def test_one_labeller_labels_points_of_every_integer_dtype(self):
        # the dtype's half of the float64 bound is looked up once per dtype:
        # int16 and int32 points pass it by their dtype, int64 points by
        # their values, and int64 points past the bound take the int64 path.
        # The reference is the int64 |c|² - 2p·c, which |p|² would overflow.
        rng = np.random.default_rng(11)
        cents = rng.integers(-100, 101, (7, 4))
        label = apps.centroid_labeller(cents)
        near = rng.integers(-(1 << 15), 1 << 15, (500, 4))
        far = near << 30
        assert not apps._float64_exact(8, 4, apps._top(far), apps._top(cents))
        for points in (near.astype(np.int16), near.astype(np.int32), near, far,
                       near.astype(np.int16), near.astype(np.int32)):
            keys = (cents * cents).sum(axis=1) - 2 * (points.astype(np.int64) @ cents.T)
            assert np.array_equal(label(points), keys.argmin(axis=1))

    def test_trunc_div_rounds_toward_zero(self):
        a = np.array([7, -7, 1, -1], np.int64)
        b = np.array([2, 2, 2, 2], np.int64)
        assert np.array_equal(trunc_div(a, b), [3, -3, 0, 0])


def test_apps_leave_no_bank_space_or_arrays():
    # the regression and k-means handle contexts used to stay resident
    for name in ("reduction", "vecadd", "histogram", "linreg", "logreg", "kmeans"):
        for cores in (1, 4):
            spec = BenchmarkSpec(name=name, total_elems=300 * cores, seed=3)
            mgmt = make_mgmt(cores=cores, bank_bytes=4 << 20)
            getattr(apps, f"run_{name}")(mgmt, spec)
            assert mgmt.device.cursors == [0] * cores, name
            assert mgmt.registry == {}, name


# --- the single-pass oracles and label product, kept as the reference of the
# row-blocked ones in apps --------------------------------------------------------


def single_pass_regression_data(spec, binary_labels):
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x = rng.integers(0, 64, (spec.total_elems, spec.dims), dtype=np.int32)
    if binary_labels:
        y = rng.integers(0, 2, spec.total_elems, dtype=np.int32)
    else:
        w_true = rng.integers(0, 1 << apps.FIXED_POINT_SHIFT, spec.dims, dtype=np.int64)
        y = ((x.astype(np.int64) @ w_true) >> apps.FIXED_POINT_SHIFT).astype(np.int32)
        y += rng.integers(0, 16, spec.total_elems, dtype=np.int32)
    return x, y


def single_pass_regression_oracle(spec, logistic):
    x, y = single_pass_regression_data(spec, logistic)
    x64 = x.astype(np.int64)
    y64 = y.astype(np.int64)
    shift = apps.FIXED_POINT_SHIFT
    w = np.zeros(spec.dims, np.int64)
    trajectory = np.zeros((spec.iterations, spec.dims), np.int64)
    for it in range(spec.iterations):
        z = (x64 @ w) >> shift
        if logistic:
            err = approx_sigmoid_fixed(z, shift) - (y64 << shift)
        else:
            err = z - y64
        grad = (x64 * err[:, None]).sum(axis=0)
        w = w - (grad >> (2 * shift))
        trajectory[it] = w
    return trajectory


def single_pass_kmeans_oracle(spec):
    points64 = apps.make_kmeans_points(spec).astype(np.int64)
    k = spec.clusters
    centroids = points64[:k].copy()
    trajectory = np.zeros((spec.iterations, k, spec.dims), np.int64)
    for it in range(spec.iterations):
        labels = apps.nearest_centroid(points64, centroids)
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros((k, spec.dims), np.int64)
        np.add.at(sums, labels, points64)
        centroids = np.where(counts[:, None] > 0,
                             trunc_div(sums, np.maximum(counts, 1)[:, None]),
                             centroids)
        trajectory[it] = centroids
    return trajectory


@pytest.mark.parametrize("total", [2 * apps.ROW_BLOCK, apps.ROW_BLOCK + 12_345],
                         ids=["whole-blocks", "partial-block"])
class TestRowBlockedOracles:
    def spec(self, total):
        return BenchmarkSpec(total_elems=total, dims=3, clusters=4, iterations=2, seed=11)

    def test_regression_data_is_unchanged(self, total):
        for binary in (False, True):
            got = apps.make_regression_data(self.spec(total), binary_labels=binary)
            want = single_pass_regression_data(self.spec(total), binary)
            assert all(np.array_equal(g, w) and g.dtype == w.dtype
                       for g, w in zip(got, want))

    @pytest.mark.parametrize("logistic", [False, True], ids=["linreg", "logreg"])
    def test_regression_oracle_equals_the_single_pass(self, total, logistic):
        assert np.array_equal(apps._regression_oracle(self.spec(total), logistic),
                              single_pass_regression_oracle(self.spec(total), logistic))

    def test_kmeans_oracle_equals_the_single_pass(self, total):
        assert np.array_equal(apps.oracle_kmeans(self.spec(total)),
                              single_pass_kmeans_oracle(self.spec(total)))


# --- the Generator.integers dataset generators, verbatim: the reference that
# the word-stream generators in apps equal in values, dtype and shape --------------


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def integers_reduction_input(spec):
    return _rng(spec.seed).integers(0, 1 << 32, spec.total_elems, dtype=np.uint32)


def integers_vecadd_inputs(spec):
    rng = _rng(spec.seed)
    a = rng.integers(0, 1 << 32, spec.total_elems, dtype=np.uint32)
    b = rng.integers(0, 1 << 32, spec.total_elems, dtype=np.uint32)
    return a, b


def integers_histogram_input(spec):
    return _rng(spec.seed).integers(0, 4096, spec.total_elems, dtype=np.uint32)


def integers_regression_data(spec, binary_labels=False):
    rng = _rng(spec.seed)
    x = rng.integers(0, 64, (spec.total_elems, spec.dims), dtype=np.int32)
    if binary_labels:
        y = rng.integers(0, 2, spec.total_elems, dtype=np.int32)
    else:
        w_true = rng.integers(0, 1 << apps.FIXED_POINT_SHIFT, spec.dims, dtype=np.int64)
        y = np.empty(spec.total_elems, np.int32)
        for rows in apps._row_blocks(spec.total_elems):
            y[rows] = (x[rows].astype(np.int64) @ w_true) >> apps.FIXED_POINT_SHIFT
        y += rng.integers(0, 16, spec.total_elems, dtype=np.int32)
    return x, y


def integers_kmeans_points(spec):
    if spec.total_elems < spec.clusters:
        raise InvalidArgument("need at least one point per cluster seed")
    return _rng(spec.seed).integers(0, 4096, (spec.total_elems, spec.dims),
                                    dtype=np.int32)


GENERATORS = {
    "reduction": (apps.make_reduction_input, integers_reduction_input),
    "vecadd": (apps.make_vecadd_inputs, integers_vecadd_inputs),
    "histogram": (apps.make_histogram_input, integers_histogram_input),
    "linreg": (apps.make_regression_data, integers_regression_data),
    "logreg": (partial(apps.make_regression_data, binary_labels=True),
               partial(integers_regression_data, binary_labels=True)),
    "kmeans": (apps.make_kmeans_points, integers_kmeans_points),
}


@pytest.mark.parametrize("total", [0, 1, 7, 1_001, 2 * apps.ROW_BLOCK + 1])
@pytest.mark.parametrize("name", GENERATORS)
def test_generators_equal_the_integers_reference(name, total):
    make, reference = GENERATORS[name]
    for seed in range(5):
        for dims in (1, 3, 10):
            spec = BenchmarkSpec(total_elems=total, dims=dims, clusters=1, seed=seed)
            if name == "kmeans" and total == 0:
                for generator in (make, reference):
                    with pytest.raises(InvalidArgument):
                        generator(spec)
                continue
            got, want = make(spec), reference(spec)
            if not isinstance(want, tuple):
                got, want = (got,), (want,)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.dtype, g.shape) == (w.dtype, w.shape), (seed, dims)
                assert np.array_equal(g, w), (seed, dims)


def test_pcg64_words_are_the_words_integers_draws_from():
    # (bits, count, dtype) in one mixed sequence; the odd first count leaves a
    # half-word that the second draw starts from
    draws = [(12, 7, np.uint32), (32, 5, np.uint32), (1, 9, np.int32),
             (20, 4, np.uint32), (6, 3, np.int32), (12, 2, np.int64),
             (31, 11, np.int32), (2, 6, np.uint32), (4, 1, np.int32)]
    rng = _rng(9)
    words = apps.pcg64_words(9, sum(count for _, count, _ in draws))
    assert words.dtype == np.uint32
    start = 0
    for bits, count, dtype in draws:
        want = rng.integers(0, 1 << bits, count, dtype=dtype)
        got = words[start:start + count] >> (32 - bits)
        assert np.array_equal(got, want), (bits, count)
        start += count


class TestClusterSums:
    K = 10

    @pytest.mark.parametrize("case", ["random", "all-max", "all-min"])
    def test_equal_np_add_at(self, case):
        rng = np.random.default_rng(17)
        rows = apps.ROW_BLOCK
        if case == "random":
            block = rng.integers(-2**31, 2**31, (rows, 10), dtype=np.int32)
            labels = rng.integers(0, self.K, rows)
        else:
            block = np.full((rows, 3), 2**31 - 1 if case == "all-max" else -2**31, np.int32)
            labels = np.full(rows, 4)
        want = np.zeros((self.K, block.shape[1]), np.int64)
        np.add.at(want, labels, block.astype(np.int64))
        got = apps._cluster_sums(block, labels, self.K)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_rows_past_the_float64_bound_are_refused(self):
        assert apps._float64_exact_rows(1 << 21) == 1 << 21
        with pytest.raises(InvalidArgument):
            apps._float64_exact_rows((1 << 21) + 1)
