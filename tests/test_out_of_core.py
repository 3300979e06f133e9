"""Out-of-core training: chunked streaming, row-sharded CG, memory budget."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.lssvm import LSSVC
from repro.core.precond import NystromPrecond
from repro.core.qmatrix import ExplicitQMatrix, ImplicitQMatrix, build_reduced_system
from repro.data.synthetic import make_planes
from repro.exceptions import FileFormatError, InvalidParameterError
from repro.io import (
    ArrayRowSource,
    ChunkedDataset,
    as_row_source,
    is_row_source,
    open_chunked,
    read_binary_header,
    read_libsvm_file,
    scan_libsvm_file,
    spill_to_binary,
    write_binary_file,
    write_csv_file,
    write_libsvm_file,
)
from repro.membudget import (
    active_memory_budget,
    budget_from_mb,
    format_bytes,
    memory_budget,
    peak_rss_bytes,
    sample_peak_rss,
)
from repro.parameter import Parameter
from repro.telemetry.report import REPORT_SCHEMA_VERSION, validate_report


@pytest.fixture(scope="module")
def planes_file(tmp_path_factory):
    X, y = make_planes(200, 10, rng=7)
    path = tmp_path_factory.mktemp("ooc") / "planes.txt"
    write_libsvm_file(path, X, y)
    return path, X, y


class TestMemoryBudget:
    def test_inactive_by_default(self):
        assert active_memory_budget() is None

    def test_scoped_activation(self):
        with memory_budget(64):
            assert active_memory_budget() == 64 * 1024 * 1024
            with memory_budget(1):
                assert active_memory_budget() == 1024 * 1024
            assert active_memory_budget() == 64 * 1024 * 1024
        assert active_memory_budget() is None

    def test_none_is_a_no_op(self):
        with memory_budget(None):
            assert active_memory_budget() is None

    def test_budget_from_mb(self):
        assert budget_from_mb(None) is None
        assert budget_from_mb(2) == 2 * 1024 * 1024
        with pytest.raises(InvalidParameterError):
            budget_from_mb(0)

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert "MiB" in format_bytes(64 * 1024 * 1024)

    def test_peak_rss_is_positive_on_supported_platforms(self):
        rss = peak_rss_bytes()
        if sys.platform in ("linux", "darwin"):
            assert rss > 1024 * 1024  # a Python process is bigger than 1 MiB
        else:
            assert rss >= 0

    def test_sample_sets_gauge(self):
        from repro.telemetry.context import fit_scope

        with fit_scope("test.fit") as ctx:
            sampled = sample_peak_rss(ctx)
            assert ctx.metrics.value("peak_rss_bytes") == sampled

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is Linux-only")
    def test_child_reports_its_own_peak(self):
        # A child inherits nothing of its parent's resident set: after a
        # reset it reports its own peak, not the ~200 MB its parent holds.
        held = np.ones(200 * 1024 * 1024 // 8)
        try:
            out = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "from repro.membudget import peak_rss_bytes, reset_peak_rss; "
                    "reset_peak_rss(); print(peak_rss_bytes())",
                ],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            )
        finally:
            del held
        assert int(out.stdout) < 150 * 1024 * 1024


class TestTwoPassParsers:
    def test_scan_matches_read(self, planes_file):
        path, X, y = planes_file
        rows, max_index, labels = scan_libsvm_file(path)
        assert rows == X.shape[0]
        assert max_index == X.shape[1]
        np.testing.assert_array_equal(labels, y)

    def test_libsvm_round_trip(self, planes_file):
        path, X, y = planes_file
        X2, y2 = read_libsvm_file(path)
        np.testing.assert_allclose(X2, X, atol=1e-9)
        np.testing.assert_array_equal(y2, y)

    @pytest.mark.parametrize("fmt", ["libsvm", "csv"])
    def test_parser_peak_memory_stays_near_dense_size(self, tmp_path, fmt):
        """The two-pass readers must not spike to a multiple of the data.

        The old single-pass readers accumulated per-row Python float lists
        (~4x the dense array) before densifying. Two passes + preallocation
        keep the Python-heap peak within a small multiple of the array.
        """
        X, y = make_planes(600, 40, rng=3)
        path = tmp_path / f"data.{fmt}"
        if fmt == "libsvm":
            write_libsvm_file(path, X, y)
            reader = lambda: read_libsvm_file(path)
        else:
            write_csv_file(path, X, y)
            from repro.io import read_csv_file

            reader = lambda: read_csv_file(path)
        reader()  # warm caches/imports outside the measurement
        tracemalloc.start()
        X2, _ = reader()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert X2.shape == X.shape
        assert peak < 3 * X.nbytes + 512 * 1024, (
            f"reader peaked at {peak} bytes for a {X.nbytes}-byte array"
        )


class TestChunkedDataset:
    def test_blocks_match_dense(self, tmp_path):
        X, y = make_planes(143, 9, rng=11)
        path = tmp_path / "d.plsb"
        write_binary_file(path, X, y)
        with ChunkedDataset(path, block_rows=17) as ds:
            assert ds.shape == X.shape
            np.testing.assert_array_equal(ds.y, y)
            seen = np.zeros(X.shape[0], dtype=bool)
            for start, stop, block in ds.iter_blocks():
                assert stop - start <= 17
                np.testing.assert_allclose(block, X[start:stop])
                seen[start:stop] = True
            assert seen.all()
            np.testing.assert_allclose(ds.row_block(30, 60), X[30:60])
            np.testing.assert_allclose(ds.gather_rows([5, 77, 3]), X[[5, 77, 3]])

    def test_budget_caps_block_rows(self, tmp_path):
        X, y = make_planes(400, 64, rng=0)
        path = tmp_path / "d.plsb"
        write_binary_file(path, X, y)
        ds = ChunkedDataset(path, memory_budget_mb=1)
        # Blocks fit in a quarter of the 1 MiB budget.
        assert ds.block_rows * X.shape[1] * 8 <= 256 * 1024
        ds.close()

    def test_one_row_larger_than_budget_is_rejected(self, tmp_path):
        X, y = make_planes(8, 64, rng=0)
        path = tmp_path / "d.plsb"
        write_binary_file(path, X, y)
        with pytest.raises(InvalidParameterError, match="memory-budget-mb"):
            ChunkedDataset(path, memory_budget_mb=0.001)

    def test_spill_libsvm_and_reuse(self, tmp_path, planes_file):
        src, X, y = planes_file
        dst = tmp_path / "spill.plsb"
        spill_to_binary(src, dst)
        header = read_binary_header(dst)
        assert (header.rows, header.cols) == X.shape
        with ChunkedDataset(dst, block_rows=31) as ds:
            np.testing.assert_allclose(ds.as_array(), X, atol=1e-9)
            np.testing.assert_array_equal(ds.y, y)

    def test_spill_csv(self, tmp_path):
        X, y = make_planes(50, 5, rng=2)
        src = tmp_path / "d.csv"
        write_csv_file(src, X, y)
        dst = tmp_path / "d.plsb"
        spill_to_binary(src, dst)
        with ChunkedDataset(dst) as ds:
            np.testing.assert_allclose(ds.as_array(), X, atol=1e-9)
            np.testing.assert_array_equal(ds.y, y)

    def test_open_chunked_serves_binary_in_place(self, tmp_path):
        X, y = make_planes(30, 4, rng=9)
        path = tmp_path / "d.plsb"
        write_binary_file(path, X, y)
        ds = open_chunked(path)
        assert Path(ds.path) == path
        ds.close()

    def test_open_chunked_spills_text_once(self, tmp_path):
        X, y = make_planes(30, 4, rng=9)
        path = tmp_path / "d.txt"
        write_libsvm_file(path, X, y)
        ds1 = open_chunked(path)
        spill = Path(ds1.path)
        assert spill.suffix == ".plsb"
        stamp = spill.stat().st_mtime_ns
        ds1.close()
        ds2 = open_chunked(path)  # reuses the fresh spill
        assert spill.stat().st_mtime_ns == stamp
        ds2.close()

    def test_row_source_protocol(self):
        X = np.arange(24, dtype=np.float64).reshape(6, 4)
        src = as_row_source(X, block_rows=4)
        assert is_row_source(src)
        assert not is_row_source(X)
        assert src.num_rows == 6 and src.num_features == 4
        blocks = list(src.iter_blocks())
        assert [b[:2] for b in blocks] == [(0, 4), (4, 6)]
        assert as_row_source(src) is src


class TestRowShardedQMatrix:
    """The row-shard partition of ``ImplicitQMatrix`` (Tyree et al.)."""

    @pytest.mark.parametrize("kernel", ["linear", "rbf", "polynomial"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_matvec_matches_explicit(self, kernel, num_shards):
        X, y = make_planes(90, 6, rng=4)
        param = Parameter(kernel=kernel, cost=3.0, gamma=0.1)
        ref = ExplicitQMatrix(X, y, param)
        sharded = ImplicitQMatrix(X, y, param, num_shards=num_shards)
        assert sharded.num_shards == num_shards
        v = np.random.default_rng(0).standard_normal(X.shape[0] - 1)
        np.testing.assert_allclose(sharded.matvec(v), ref.matvec(v), atol=1e-9)
        V = np.random.default_rng(1).standard_normal((X.shape[0] - 1, 3))
        np.testing.assert_allclose(
            sharded.matvec_multi(V), ref.matvec_multi(V), atol=1e-9
        )

    def test_shard_size_not_dividing_m(self):
        X, y = make_planes(100, 5, rng=5)
        param = Parameter(kernel="rbf", cost=2.0, gamma=0.2)
        ref = ImplicitQMatrix(X, y, param)
        sharded = ImplicitQMatrix(X, y, param, shard_size=41)
        assert [len(s) for s in sharded.shards] == [41, 41, 17]
        v = np.ones(99)
        np.testing.assert_allclose(sharded.matvec(v), ref.matvec(v), atol=1e-9)

    def test_num_shards_and_shard_size_conflict(self):
        X, y = make_planes(20, 3, rng=0)
        with pytest.raises(InvalidParameterError, match="mutually exclusive"):
            ImplicitQMatrix(
                X, y, Parameter(kernel="linear"), num_shards=2, shard_size=5
            )

    def test_diagonal_and_kernel_column(self):
        X, y = make_planes(60, 4, rng=6)
        param = Parameter(kernel="rbf", cost=4.0, gamma=0.3)
        ref = ExplicitQMatrix(X, y, param)
        sharded = ImplicitQMatrix(X, y, param, num_shards=3)
        np.testing.assert_allclose(sharded.diagonal(), ref.diagonal(), atol=1e-9)
        for s in (0, 29, 58):
            np.testing.assert_allclose(
                sharded.kernel_column(s), ref.kernel_column(s), atol=1e-9
            )

    def test_nystrom_precond_parity(self):
        X, y = make_planes(80, 5, rng=8)
        param = Parameter(kernel="rbf", cost=5.0, gamma=0.1)
        ref = ExplicitQMatrix(X, y, param)
        sharded = ImplicitQMatrix(X, y, param, num_shards=4)
        pe = NystromPrecond.from_qmatrix(ref, rank=16, rng=np.random.default_rng(2))
        ps = NystromPrecond.from_qmatrix(sharded, rank=16, rng=np.random.default_rng(2))
        v = np.random.default_rng(3).standard_normal(79)
        np.testing.assert_allclose(ps.apply(v), pe.apply(v), atol=1e-9)

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_chunked_cg_matches_in_memory_exact_cg(self, tmp_path, num_shards):
        """Chunk-boundary parity: sharded CG on disk == exact CG in memory."""
        from repro.core.cg import conjugate_gradient

        X, y = make_planes(150, 8, rng=10)
        param = Parameter(kernel="rbf", cost=5.0, gamma=0.1, epsilon=1e-10)
        path = tmp_path / "d.plsb"
        write_binary_file(path, X, y)
        ref = ExplicitQMatrix(X, y, param)
        b = ref.rhs()
        x_ref = conjugate_gradient(ref, b, epsilon=1e-10).x
        with ChunkedDataset(path, block_rows=23) as ds:
            sharded = ImplicitQMatrix(ds, ds.y, param, num_shards=num_shards)
            x = conjugate_gradient(sharded, sharded.rhs(), epsilon=1e-10).x
        np.testing.assert_allclose(x, x_ref, atol=1e-6)

    def test_build_reduced_system_routes_row_sources(self):
        X, y = make_planes(40, 4, rng=1)
        src = ArrayRowSource(X, block_rows=11)
        qmat, rhs = build_reduced_system(src, y, Parameter(kernel="linear"))
        assert isinstance(qmat, ImplicitQMatrix) and qmat.source is not None
        assert rhs.shape == (39,)

    def test_build_reduced_system_shard_rows_arg(self):
        X, y = make_planes(40, 4, rng=1)
        qmat, _ = build_reduced_system(
            X, y, Parameter(kernel="linear"), shard_rows=3
        )
        assert isinstance(qmat, ImplicitQMatrix) and qmat.source is not None
        assert qmat.num_shards == 3


class TestExplicitBudgetGuard:
    def test_explicit_refuses_past_budget(self):
        X, y = make_planes(300, 4, rng=0)
        with memory_budget(0.25):
            with pytest.raises(InvalidParameterError) as err:
                ExplicitQMatrix(X, y, Parameter(kernel="linear"))
        message = str(err.value)
        assert "bytes" in message
        assert "--memory-budget-mb" in message

    def test_build_reduced_system_turns_implicit_under_budget(self):
        X, y = make_planes(300, 4, rng=0)
        param = Parameter(kernel="rbf")
        with memory_budget(0.25):
            qmat, _ = build_reduced_system(X, y, param)
            qmat.pipeline  # noqa: B018 - built lazily, under the budget
        assert isinstance(qmat, ImplicitQMatrix)
        # The budget clamps the tile cache to a quarter of itself; that
        # cannot hold the kernel triangle (half the dense system the
        # budget refuses), so the cache switches itself off.
        assert not qmat.pipeline.cache_enabled
        assert build_reduced_system(X, y, param)[0].pipeline.cache_enabled

    def test_explicit_fits_within_budget(self):
        X, y = make_planes(40, 4, rng=0)
        with memory_budget(64):
            qmat = ExplicitQMatrix(X, y, Parameter(kernel="linear"))
        assert qmat.shape == (39, 39)


class TestLSSVCOutOfCore:
    def test_fit_on_chunked_dataset_matches_dense(self, tmp_path):
        X, y = make_planes(180, 7, rng=12)
        path = tmp_path / "d.plsb"
        write_binary_file(path, X, y)
        ref = LSSVC(kernel="rbf", C=4.0, epsilon=1e-8).fit(X, y)
        with ChunkedDataset(path, block_rows=29) as ds:
            clf = LSSVC(
                kernel="rbf", C=4.0, epsilon=1e-8, shard_rows=3, memory_budget_mb=64
            ).fit(ds, ds.y)
            np.testing.assert_allclose(
                clf.decision_function(X), ref.decision_function(X), atol=1e-6
            )
            report = clf.report_.as_dict()
        assert report["peak_rss_bytes"] > 0
        validate_report(report)

    def test_report_schema_v4(self, planes_small_fit):
        report = planes_small_fit.report_.as_dict()
        assert report["schema_version"] == REPORT_SCHEMA_VERSION == 4
        assert isinstance(report["peak_rss_bytes"], int)
        assert report["peak_rss_bytes"] > 0
        validate_report(planes_small_fit.report_.to_json())

    @pytest.fixture(scope="class")
    def planes_small_fit(self):
        X, y = make_planes(64, 6, rng=13)
        return LSSVC(kernel="linear", C=1.0).fit(X, y)

    def test_shard_rows_conflicts(self):
        with pytest.raises(InvalidParameterError, match="backend"):
            LSSVC(shard_rows=2, backend="openmp")
        with pytest.raises(InvalidParameterError, match="sparse"):
            LSSVC(shard_rows=2, sparse=True)
        with pytest.raises(InvalidParameterError, match="positive"):
            LSSVC(memory_budget_mb=-1)

    def test_row_source_requires_host_path(self):
        X, y = make_planes(30, 4, rng=0)
        src = ArrayRowSource(X)
        with pytest.raises(InvalidParameterError, match="backend"):
            LSSVC(backend="openmp").fit(src, y)

    def test_rff_fit_streams_row_source(self):
        X, y = make_planes(120, 6, rng=14)
        ref = LSSVC(kernel="rbf", C=2.0, solver="rff", solver_rank=32).fit(X, y)
        clf = LSSVC(kernel="rbf", C=2.0, solver="rff", solver_rank=32).fit(
            ArrayRowSource(X, block_rows=37), y
        )
        np.testing.assert_allclose(
            clf.decision_function(X), ref.decision_function(X), atol=1e-9
        )

    def test_multiclass_shared_solve_on_row_source(self):
        from repro.core.multiclass import OneVsAllLSSVC

        X, y = make_planes(90, 5, rng=15)
        y3 = np.where(y > 0, 2.0, np.where(X[:, 0] > 0, 1.0, 0.0))
        ref = OneVsAllLSSVC(kernel="rbf", C=3.0, epsilon=1e-8).fit(X, y3)
        clf = OneVsAllLSSVC(
            kernel="rbf", C=3.0, epsilon=1e-8, shard_rows=2
        ).fit(ArrayRowSource(X, block_rows=31), y3)
        np.testing.assert_allclose(
            clf.decision_matrix(X), ref.decision_matrix(X), atol=1e-6
        )


class TestTrainCLIOutOfCore:
    def _run(self, args, cwd):
        import os

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli.train", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_end_to_end_budgeted_train(self, tmp_path):
        """End-to-end proof: the reported peak RSS is the fit's own (the
        clear_refs reset at fit entry discards pages inherited across the
        fork from this fat test runner)."""
        import json

        X, y = make_planes(500, 16, rng=16)
        data = tmp_path / "d.plsb"
        write_binary_file(data, X, y)
        report_path = tmp_path / "report.json"
        proc = self._run(
            [
                str(data),
                str(tmp_path / "m.model"),
                "-t",
                "rbf",
                "--memory-budget-mb",
                "256",
                "--shard-rows",
                "2",
                "--telemetry-json",
                str(report_path),
            ],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "out-of-core: peak RSS" in proc.stdout
        report = json.loads(report_path.read_text())
        validate_report(report)
        assert 0 < report["peak_rss_bytes"] <= 256 * 1024 * 1024

    def test_cv_conflicts_with_budget(self, tmp_path, planes_file):
        path, _, _ = planes_file
        proc = self._run(
            [str(path), "-x", "3", "--memory-budget-mb", "64"], cwd=tmp_path
        )
        assert proc.returncode == 2
        assert "cross_validation" in proc.stderr
