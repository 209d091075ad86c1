import contextlib
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimlite import apps, harness
from pimlite.device import DeviceConfig, PimDevice, TransferRecord
from pimlite.errors import NoFeasiblePlan, OracleMismatch, PimError
from pimlite.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    emit_csv,
    main,
    rows_to_csv_text,
    run_experiment,
)


def kernel_traffic(row):
    return row.dram_to_scratch_bytes + row.scratch_to_dram_bytes


class TestRunExperiment:
    def test_weak_scaling_per_core_traffic_constant(self):
        rows = run_experiment(ExperimentConfig(
            benchmark="vecadd", core_counts=(2, 4, 8), scaling="weak",
            elems_per_core=1024))
        per_core = {kernel_traffic(r) / r.cores for r in rows}
        assert len(per_core) == 1
        assert [r.total_elems for r in rows] == [2048, 4096, 8192]

    def test_strong_scaling_total_constant_within_padding(self):
        rows = run_experiment(ExperimentConfig(
            benchmark="vecadd", core_counts=(2, 4, 8), scaling="strong",
            elems_per_core=1024))
        assert all(r.total_elems == 2048 for r in rows)
        totals = [kernel_traffic(r) for r in rows]
        for row, total in zip(rows, totals):
            assert abs(total - totals[0]) <= row.cores * 64

    def test_all_rows_verified(self):
        rows = run_experiment(ExperimentConfig(
            benchmark="kmeans", core_counts=(2, 4), elems_per_core=200,
            iterations=2))
        assert all(r.correct for r in rows)
        assert all(r.kernel_launches == 2 for r in rows)

    def test_histogram_sweep_reports_throttled_tasklets(self):
        counts = []
        for bins in (256, 512, 1024, 2048, 4096):
            rows = run_experiment(ExperimentConfig(
                benchmark="histogram", core_counts=(2,), elems_per_core=1000,
                bins=bins))
            counts.append(rows[0].tasklets_used)
            assert rows[0].variant == "thread_private"
        assert counts == [12, 12, 8, 4, 2]

    def test_variant_override_reflected(self):
        rows = run_experiment(ExperimentConfig(
            benchmark="histogram", core_counts=(2,), elems_per_core=500,
            bins=4096, variant="shared"))
        assert rows[0].variant == "shared_accumulator"
        assert rows[0].tasklets_used == 12

    def test_kmeans_row_reports_the_executed_plan(self):
        # the 19,200 B centroid context leaves room for one private 20,800 B
        # accumulator only; the private-only occupancy estimate said two
        rows = run_experiment(ExperimentConfig(
            benchmark="kmeans", core_counts=(1,), elems_per_core=200, dims=12,
            clusters=200, iterations=1))
        assert (rows[0].variant, rows[0].tasklets_used) == ("thread_private", 1)

    def test_kmeans_that_cannot_fit_raises_no_feasible_plan(self):
        with pytest.raises(NoFeasiblePlan):
            run_experiment(ExperimentConfig(
                benchmark="kmeans", core_counts=(1,), elems_per_core=300,
                dims=12, clusters=300, iterations=1))

    def test_vecadd_row_reports_the_map_plan(self):
        rows = run_experiment(ExperimentConfig(
            benchmark="vecadd", core_counts=(2,), elems_per_core=500))
        assert (rows[0].variant, rows[0].tasklets_used) == ("-", 12)

    def test_transfer_log_path_alone_turns_logging_on(self, tmp_path):
        path = tmp_path / "log.txt"
        run_experiment(ExperimentConfig(
            benchmark="reduction", core_counts=(2,), elems_per_core=100,
            transfer_log_path=str(path)))
        lines = path.read_text().splitlines()
        assert lines and all("size=" in line for line in lines)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(benchmark="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(benchmark="vecadd", scaling="sideways")
        for scaling in ("weak", "strong"):  # the smallest run has 8 points
            with pytest.raises(ValueError, match="per cluster seed"):
                ExperimentConfig(benchmark="kmeans", core_counts=(16, 8), scaling=scaling,
                                 elems_per_core=1, clusters=10)


class TestCsv:
    def test_header_only_for_empty_rows(self):
        buf = io.StringIO()
        emit_csv([], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_single_row_is_two_lines(self):
        row = ResultRow(benchmark="vecadd", cores=2, scaling="weak", variant="-",
                        tasklets_used=12, total_elems=100, correct=True,
                        host_to_pim_bytes=1, pim_to_host_bytes=2,
                        dram_to_scratch_bytes=3, scratch_to_dram_bytes=4,
                        dma_commands=5, kernel_launches=6, wall_time_ms=1.5)
        buf = io.StringIO()
        emit_csv([row], buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        parsed = next(csv.DictReader(io.StringIO(buf.getvalue())))
        assert parsed["correct"] == "true"
        assert parsed["cores"] == "2"

    def test_reruns_identical_except_wall_time(self):
        config = ExperimentConfig(benchmark="reduction", core_counts=(2, 3),
                                  elems_per_core=800, seed=21)

        def stripped():
            text = rows_to_csv_text(run_experiment(config))
            return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]

        assert stripped() == stripped()

    def test_column_order_is_stable(self):
        assert CSV_COLUMNS == (
            "benchmark", "cores", "scaling", "variant", "tasklets_used",
            "total_elems", "correct", "host_to_pim_bytes", "pim_to_host_bytes",
            "dram_to_scratch_bytes", "scratch_to_dram_bytes", "dma_commands",
            "kernel_launches", "wall_time_ms")


class TestCli:
    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(["run", "--benchmark", "vecadd", "--cores", "2,4",
                     "--elems", "500", "--seed", "3", "--out", str(out)])
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(r["correct"] == "true" for r in rows)

    def test_run_to_stdout(self, capsys):
        code = main(["run", "--benchmark", "reduction", "--cores", "2",
                     "--elems", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(CSV_COLUMNS[:3]))

    def test_transfer_log_written(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["run", "--benchmark", "histogram", "--cores", "2",
                     "--elems", "200", "--out", str(out), "--log-transfers"])
        assert code == 0
        log = tmp_path / "r.csv.transfers.txt"
        assert log.exists()
        first = log.read_text().splitlines()[0]
        assert "\t" in first and "size=" in first

    def test_cli_flags_cover_benchmark_knobs(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(["run", "--benchmark", "kmeans", "--cores", "2",
                     "--elems", "120", "--dims", "4", "--clusters", "3",
                     "--iters", "2", "--variant", "private",
                     "--out", str(out)])
        assert code == 0
        with open(out) as f:
            row = next(csv.DictReader(f))
        assert row["variant"] == "thread_private"

    # a k-means point of 20 or 40 dimensions, a regression row of 41 values:
    # wider than the 64 B per element that _bank_bytes_for allows
    @pytest.mark.parametrize("args", [
        ["kmeans", "--dims", "20", "--elems", "100000", "--cores", "2", "--iters", "1"],
        ["kmeans", "--dims", "40", "--elems", "10000", "--cores", "1"],
        ["linreg", "--dims", "40", "--elems", "10000", "--cores", "1"],
    ])
    def test_wide_elements_fit_the_banks(self, capsys, args):
        assert main(["run", "--benchmark", *args]) == 0
        row, = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["correct"] == "true"

    def test_banks_of_narrow_elements_keep_their_size(self):
        for name in harness.RUNNERS:
            spec = apps.BenchmarkSpec(name=name, total_elems=80_000, dims=15)
            assert harness._bank_bytes_for_spec(spec, 8) == \
                harness._bank_bytes_for(80_000, 8)


class TestChecks:
    def test_batch_sizing_check(self):
        res = harness.check_batch_sizing()
        assert res.passed and res.data == [512, 170, 51]

    def test_scaling_check(self):
        assert harness.check_scaling_shapes().passed

    def test_oracle_check_small(self):
        res = harness.check_benchmark_oracles(cases_per_app=3)
        assert res.passed, res.data


class TestVerify:
    """``verify_all`` and ``pimlite verify`` with stub checks, and every way
    a check reports a problem."""

    @staticmethod
    def stub(name, passed, data=None):
        return lambda: harness.CheckResult(name, passed, f"{name} detail", data)

    def test_verify_all_prints_one_line_per_check_and_the_failing_items(
            self, monkeypatch):
        items = [f"case {i}" for i in range(7)]
        monkeypatch.setattr(harness, "ALL_CHECKS", (
            self.stub("good", True, ["not printed"]), self.stub("bad", False, items)))
        out = io.StringIO()
        assert harness.verify_all(out) is False
        lines = out.getvalue().splitlines()
        assert lines[0].split() == ["PASS", "good", "good", "detail"]
        assert lines[1].split() == ["FAIL", "bad", "bad", "detail"]
        assert [line.strip() for line in lines[2:-1]] == items[:5]
        assert lines[-1] == "CHECKS FAILED"

    @pytest.mark.parametrize("passed,code,last", [(True, 0, "all checks passed"),
                                                  (False, 1, "CHECKS FAILED")])
    def test_verify_command_exit_code(self, monkeypatch, capsys, passed, code, last):
        monkeypatch.setattr(harness, "ALL_CHECKS", (
            self.stub("first", True), self.stub("second", passed, 3.5)))
        assert main(["verify"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[-1] == last
        assert lines[1].startswith("PASS" if passed else "FAIL")

    def test_lazy_zip_ratio_check(self):
        res = harness.check_lazy_zip_ratio()
        assert res.passed and 2.0 <= res.data <= 2.5
        assert res.detail == f"eager/lazy bank<->scratch ratio {res.data:.4f}"

    def test_lazy_zip_ratio_refuses_a_wrong_result(self, monkeypatch):
        run_vecadd = apps.run_vecadd

        def off_by_one_when_eager(mgmt, spec, eager=False):
            return run_vecadd(mgmt, spec, eager=eager) + eager

        monkeypatch.setattr(apps, "run_vecadd", off_by_one_when_eager)
        with pytest.raises(OracleMismatch, match="eager vecadd diverged"):
            harness.measure_lazy_zip_ratio(elems_per_core=64, cores=2)

    @pytest.mark.parametrize("cores,message", [("2,x", "bad core list"),
                                               (",", "empty core list")])
    def test_bad_core_list(self, capsys, cores, message):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--benchmark", "vecadd", "--cores", cores])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scaling", ["weak", "strong"])
    def test_kmeans_with_fewer_points_than_clusters(self, capsys, monkeypatch, scaling):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", ran.append)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--benchmark", "kmeans", "--elems", "1", "--cores", "8",
                  "--clusters", "10", "--scaling", scaling])
        assert exc.value.code == 2
        assert "need at least one point per cluster seed" in capsys.readouterr().err
        assert not ran

    @pytest.mark.parametrize("argv,message", [
        ("--benchmark histogram --bins 100000 --elems 100 --cores 1",
         "0 B of context, 400000 B of accumulator and streaming buffers do not fit"),
        ("--benchmark linreg --dims 600 --elems 50 --cores 2",
         "no aligned batch of element sizes (2404,) fits"),
        ("--benchmark kmeans --dims 600 --elems 50 --cores 2",
         "no aligned batch of element sizes (2400,) fits"),
    ], ids=["no-feasible-plan", "linreg-too-wide", "kmeans-too-wide"])
    def test_a_sweep_that_cannot_be_planned_is_a_usage_error(self, capsys, monkeypatch,
                                                              argv, message):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", ran.append)
        with pytest.raises(SystemExit) as exc:
            main(["run", *argv.split()])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert f"pimlite run: error: {message}" in err
        assert out == "" and not ran

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_run_either_verifies_every_row_or_is_refused_up_front(self, data):
        # tiny sizes, and in about half the runs one flag at a rare value:
        # out of range, or past what a plan can hold
        tiny = {"--elems": st.integers(0, 40), "--bins": st.integers(2, 300),
                "--dims": st.integers(1, 12), "--clusters": st.integers(1, 12),
                "--iters": st.integers(1, 2), "--seed": st.integers(0, 3)}
        rare = {"--elems": [-1], "--bins": [1, 5000, 100000], "--dims": [0, 511, 512, 600],
                "--clusters": [0], "--iters": [0], "--seed": [-1]}
        odd = data.draw(st.sampled_from([None] * len(rare) + list(rare)))
        cores = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        argv = ["run", "--benchmark", data.draw(st.sampled_from(sorted(harness.RUNNERS))),
                "--cores", ",".join(map(str, cores)),
                "--scaling", data.draw(st.sampled_from(["weak", "strong"])),
                "--variant", data.draw(st.sampled_from(["auto", "shared", "private"]))]
        for name, sizes in tiny.items():
            value = st.sampled_from(rare[name]) if name == odd else sizes
            argv += [name, str(data.draw(value))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        if code == 0:
            rows = list(csv.DictReader(io.StringIO(out.getvalue())))
            assert [int(row["cores"]) for row in rows] == cores
            assert all(row["correct"] == "true" for row in rows)
        else:
            assert code == 2
            assert "pimlite run: error: " in err.getvalue()
            assert out.getvalue() == ""

    def test_audit_reports_every_bad_record(self):
        dev = PimDevice(DeviceConfig(num_cores=2, dram_bank_bytes=1 << 20))
        bad = [
            TransferRecord("dma_read", "dram_to_scratch", 0, 0, 0, 4096),
            TransferRecord("dma_write", "scratch_to_dram", 1, 4, 0, 8),
            TransferRecord("dma_read", "dram_to_scratch", 2, 0, 0, 8),
            TransferRecord("teleport", "to_pim", 0, 0, None, 8),
        ]
        good = [TransferRecord("dma_read", "dram_to_scratch", 1, 8, 16, 2048),
                TransferRecord("parallel", "to_pim", -1, 0, None, 64)]
        dev.transfer_log.extend(good + bad)
        problems = harness.audit_transfer_log(dev)
        assert problems == [f"{kind}: {rec.as_line()}" for kind, rec in zip(
            ("size 4096", "alignment", "core", "unknown op"), bad)]

    @pytest.mark.parametrize("app,oracle,message", [
        ("reduction", lambda spec: apps.oracle_reduction(spec) + 1,
         "1 mismatching entries: [0] "),
        ("histogram", lambda spec: apps.oracle_histogram(spec) + 1,
         "256 mismatching entries: [0] "),
        ("reduction", lambda spec: [0, 0], "shape mismatch: () vs (2,)"),
    ], ids=["value", "many-values", "shape"])
    def test_strict_run_names_the_mismatch(self, monkeypatch, app, oracle, message):
        monkeypatch.setitem(harness.RUNNERS, app, (harness.RUNNERS[app][0], oracle))
        config = ExperimentConfig(benchmark=app, core_counts=(2,),
                                  elems_per_core=100)
        with pytest.raises(RuntimeError, match="diverged from its oracle") as exc:
            run_experiment(config, strict=True)
        assert message in str(exc.value)
        assert run_experiment(config, strict=False)[0].correct is False

    def test_strict_mismatch_is_a_typed_error(self, monkeypatch):
        monkeypatch.setitem(harness.RUNNERS, "reduction", (
            apps.run_reduction, lambda spec: apps.oracle_reduction(spec) + 1))
        config = ExperimentConfig(benchmark="reduction", core_counts=(2,),
                                  elems_per_core=100)
        with pytest.raises(OracleMismatch) as exc:
            run_experiment(config, strict=True)
        assert isinstance(exc.value, PimError) and isinstance(exc.value, RuntimeError)

    def test_mismatch_diff_counts_every_entry_and_shows_five(self):
        expected = np.arange(8)
        result = expected + np.array([0, 1, 1, 1, 1, 1, 1, 1])
        assert harness._mismatch_diff(result, expected) == (
            "7 mismatching entries: [1] 2 != 1, [2] 3 != 2, [3] 4 != 3, "
            "[4] 5 != 4, [5] 6 != 5, ...")
