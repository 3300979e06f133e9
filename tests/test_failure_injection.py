"""Failure-injection tests: the system must fail loudly and precisely.

HPC codes that swallow resource exhaustion or numerical breakdown produce
wrong results at scale; every failure path here must raise the right typed
exception with an actionable message, and recoverable paths must recover.
"""

import threading
import warnings

import numpy as np
import pytest

from repro import LSSVC
from repro.backends.modeled import attach_devices
from repro.core.cg import conjugate_gradient
from repro.core.qmatrix import ImplicitQMatrix
from repro.core.tile_pipeline import TilePipeline
from repro.data.synthetic import make_planes
from repro.exceptions import (
    ConvergenceWarning,
    DataError,
    DeviceMemoryError,
    FileFormatError,
    InvalidParameterError,
)
from repro.telemetry import reset_root_context, root_context
from repro.parameter import Parameter
from repro.simgpu.device import SimulatedDevice
from repro.simgpu.spec import DeviceSpec
from repro.types import SolverStatus, TargetPlatform


def _tiny_memory_device(memory_gib: float) -> SimulatedDevice:
    spec = DeviceSpec(
        name="tiny-gpu",
        platform=TargetPlatform.GPU_NVIDIA,
        fp64_tflops=1.0,
        mem_bandwidth_gbs=100.0,
        shared_bandwidth_gbs=1000.0,
        memory_gib=memory_gib,
        launch_overhead_us=5.0,
        init_overhead_s=0.01,
        pcie_gbs=16.0,
        backend_efficiency={"cuda": 0.3},
    )
    return SimulatedDevice(spec, "cuda")


def _device_qmatrix(X, y, devices) -> ImplicitQMatrix:
    q = ImplicitQMatrix(X, y, Parameter(kernel="linear"))
    attach_devices(q, [devices])
    return q


class TestDeviceMemoryExhaustion:
    def test_training_data_larger_than_device_raises(self):
        X, y = make_planes(512, 64, rng=0)  # ~260 KB of data
        device = _tiny_memory_device(memory_gib=1e-4)  # ~105 KB device
        with pytest.raises(DeviceMemoryError, match="exceeds"):
            _device_qmatrix(X, y, [device])

    def test_error_message_names_buffer_and_capacity(self):
        device = _tiny_memory_device(memory_gib=1e-6)
        device.initialize()
        try:
            device.malloc("victim", 10_000)
        except DeviceMemoryError as exc:
            message = str(exc)
            assert "victim" in message
            assert "tiny-gpu" in message
        else:
            pytest.fail("allocation should have failed")

    def test_feature_split_rescues_oversized_data(self):
        """The paper's §IV-G point: a data set too big for one device can
        train once split across several."""
        X, y = make_planes(512, 64, rng=0)
        single = _tiny_memory_device(memory_gib=2.6e-4)
        with pytest.raises(DeviceMemoryError):
            _device_qmatrix(X, y, [single])
        quad = [_tiny_memory_device(memory_gib=2.6e-4) for _ in range(4)]
        q = _device_qmatrix(X, y, quad)
        assert np.isfinite(q.matvec(np.ones(511))).all()


class TestNumericalBreakdown:
    def test_cg_survives_epsilon_below_machine_precision(self):
        """Requesting an unattainable residual must stagnate gracefully,
        not diverge (the epsilon_study regression)."""
        X, y = make_planes(512, 64, rng=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            clf = LSSVC(kernel="linear", epsilon=1e-15, max_iter=5000).fit(X, y)
        assert clf.result_.status in (SolverStatus.CONVERGED, SolverStatus.STAGNATED)
        assert clf.result_.residual < 1e-8  # best iterate retained
        assert clf.score(X, y) > 0.9

    def test_cg_diverging_recurrence_returns_best_iterate(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((40, 40))
        A = M @ M.T + 1e-12 * np.eye(40)  # brutally ill-conditioned
        b = rng.standard_normal(40)
        res = conjugate_gradient(A, b, epsilon=1e-16, warn_on_no_convergence=False)
        assert np.all(np.isfinite(res.x))

    def test_nan_in_training_data_rejected_before_solving(self):
        X, y = make_planes(16, 3, rng=3)
        X[5, 1] = np.inf
        with pytest.raises(DataError, match="NaN or infinite"):
            LSSVC(kernel="linear").fit(X, y)


class TestCorruptInputs:
    def test_truncated_data_file(self, tmp_path):
        from repro.io.libsvm_format import read_libsvm_file

        path = tmp_path / "truncated.libsvm"
        path.write_text("1 1:0.5 2:0.25\n-1 1:0.1 2:")
        with pytest.raises(FileFormatError):
            read_libsvm_file(path)

    def test_binary_garbage_model_file(self, tmp_path):
        from repro.core.model import load_model
        from repro.exceptions import ModelFormatError

        path = tmp_path / "garbage.model"
        path.write_bytes(b"svm_type c_svc\nkernel_type linear\nrho zero\n")
        with pytest.raises((ModelFormatError, ValueError)):
            load_model(path)

    def test_mismatched_scale_file(self, tmp_path):
        from repro.io.scaling import FeatureScaler, load_scaling, save_scaling
        from repro.exceptions import ScalingError

        scaler = FeatureScaler().fit(np.random.default_rng(0).uniform(size=(5, 3)))
        path = tmp_path / "ranges"
        save_scaling(scaler, path)
        loaded = load_scaling(path)
        with pytest.raises(ScalingError, match="features"):
            loaded.transform(np.ones((2, 7)))

    def test_empty_class_after_subsetting(self):
        X = np.random.default_rng(1).standard_normal((6, 2))
        y = np.ones(6)
        with pytest.raises(DataError):
            LSSVC(kernel="linear").fit(X, y)


class TestTilePipelineSweepOut:
    """Regressions for the caller-provided ``out`` buffer of ``sweep``."""

    def _pipeline(self, n=64, d=4, **kwargs):
        points = np.random.default_rng(5).standard_normal((n, d))
        return TilePipeline(points, "linear", tile_rows=16, num_threads=2, **kwargs)

    def test_vector_out_buffer_is_written_through(self):
        """A 1-D ``out`` with a 1-D ``V`` used to crash on broadcast inside
        the pool workers; it must be accepted and written in place."""
        pipe = self._pipeline()
        v = np.random.default_rng(6).standard_normal(64)
        out = np.empty(64)
        result = pipe.sweep(v, out=out)
        assert result is out
        np.testing.assert_allclose(out, pipe.points @ (pipe.points.T @ v))

    def test_block_out_buffer_is_written_through(self):
        pipe = self._pipeline()
        V = np.random.default_rng(7).standard_normal((64, 3))
        out = np.empty((64, 3))
        assert pipe.sweep(V, out=out) is out
        np.testing.assert_allclose(out, pipe.points @ (pipe.points.T @ V))

    def test_mismatched_out_shape_names_the_expected_shape(self):
        pipe = self._pipeline()
        v = np.ones(64)
        with pytest.raises(InvalidParameterError, match=r"\(64,\)"):
            pipe.sweep(v, out=np.empty((64, 1)))
        with pytest.raises(InvalidParameterError, match=r"\(64, 2\)"):
            pipe.sweep(np.ones((64, 2)), out=np.empty(64))

    def test_wrong_out_dtype_rejected(self):
        pipe = self._pipeline()
        with pytest.raises(InvalidParameterError, match="dtype"):
            pipe.sweep(np.ones(64), out=np.empty(64, dtype=np.float32))

    def test_non_array_out_rejected(self):
        pipe = self._pipeline()
        with pytest.raises(InvalidParameterError, match="list"):
            pipe.sweep(np.ones(64), out=[0.0] * 64)


class TestTileCacheBudget:
    def test_oversized_tile_never_pins_the_cache_over_budget(self):
        """A single tile larger than the whole budget used to be retained,
        leaving the cache permanently over ``capacity_bytes``."""
        reset_root_context()
        # 64x4 fp64 points -> one square 16x16 tile is 2 KiB; budget below that.
        points = np.random.default_rng(8).standard_normal((64, 4))
        pipe = TilePipeline(
            points, "linear", tile_rows=16, num_threads=1,
            cache_mb=1024 / (1024 * 1024), force_cache=True,
        )
        assert pipe.cache is not None
        pipe.sweep(np.ones(64))
        assert len(pipe.cache) == 0
        assert pipe.cache.nbytes <= pipe.cache.capacity_bytes
        assert pipe.cache.oversized == pipe.num_tiles
        assert root_context().metrics.value("cache_oversized") == pipe.num_tiles
        # Nothing cached: the next sweep recomputes every tile.
        pipe.sweep(np.ones(64))
        assert pipe.tiles_computed == 2 * pipe.num_tiles


class TestConcurrentSweeps:
    def test_interleaved_sweeps_count_exactly(self):
        """Concurrent sweeps used to reconstruct their counter deltas from
        before/after snapshots of the shared cache counters, so interleaved
        sweeps double- or under-counted. The flushed totals must be exact."""
        reset_root_context()
        points = np.random.default_rng(9).standard_normal((128, 4))
        pipe = TilePipeline(points, "linear", tile_rows=16, num_threads=2, cache_mb=0)
        assert pipe.cache is None  # every tile of every sweep is computed
        sweeps_per_thread = 8
        threads = [
            threading.Thread(
                target=lambda: [
                    pipe.sweep(np.ones(128)) for _ in range(sweeps_per_thread)
                ]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total_sweeps = 4 * sweeps_per_thread
        counters = root_context().solver_counters_dict()
        assert counters["tile_sweeps"] == total_sweeps
        assert counters["tiles_computed"] == total_sweeps * pipe.num_tiles
        assert pipe.tiles_computed == total_sweeps * pipe.num_tiles

    def test_interleaved_cached_sweeps_split_hits_and_misses_exactly(self):
        reset_root_context()
        points = np.random.default_rng(10).standard_normal((96, 4))
        pipe = TilePipeline(points, "linear", tile_rows=16, num_threads=2)
        assert pipe.cache is not None
        barrier = threading.Barrier(3)

        def work():
            barrier.wait()
            for _ in range(6):
                pipe.sweep(np.ones(96))

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = root_context().solver_counters_dict()
        # Every tile probe is either a hit or a miss, and every miss is a
        # compute: the flushed totals must tile the probe count exactly.
        total_probes = 3 * 6 * pipe.num_tiles
        assert counters["cache_hits"] + counters["cache_misses"] == total_probes
        assert counters["tiles_computed"] == counters["cache_misses"]
        assert counters["tiles_computed"] >= pipe.num_tiles


class TestRecovery:
    def test_refit_after_failed_fit_works(self):
        clf = LSSVC(kernel="linear")
        X_bad, y_bad = np.ones((4, 2)), np.ones(4)  # single class: rejected
        with pytest.raises(DataError):
            clf.fit(X_bad, y_bad)
        X, y = make_planes(64, 4, rng=4)
        clf.fit(X, y)
        assert clf.score(X, y) > 0.9

    def test_device_reset_clears_failed_state(self):
        device = _tiny_memory_device(memory_gib=1e-4)
        device.initialize()
        with pytest.raises(DeviceMemoryError):
            device.malloc("too-big", 10**9)
        device.reset()
        device.initialize()
        device.malloc("fits", 1000)
        assert device.allocated_bytes == 1000
