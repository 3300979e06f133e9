"""Tests for the backend framework: registry, SoA layout, modeled devices."""

import numpy as np
import pytest

from repro.backends import (
    BACKEND_REGISTRY,
    CUDACSVM,
    KernelConfig,
    OpenCLCSVM,
    OpenMPCSVM,
    SYCLCSVM,
    create_backend,
    list_available_backends,
    preferred_backend,
    transform_to_soa,
)
from repro.backends.kernels import matvec_costs, q_vector_costs, vector_ops_costs
from repro.backends.modeled import attach_devices
from repro.core.qmatrix import ImplicitQMatrix
from repro.exceptions import BackendUnavailableError, DeviceError, KernelLaunchError
from repro.parameter import Parameter
from repro.simgpu.catalog import get_device_spec
from repro.simgpu.device import SimulatedDevice
from repro.types import BackendType, KernelType, TargetPlatform


class TestRegistry:
    def test_all_four_backends_registered(self):
        assert set(BACKEND_REGISTRY) == {
            BackendType.OPENMP,
            BackendType.CUDA,
            BackendType.OPENCL,
            BackendType.SYCL,
        }
        assert len(list_available_backends()) == 4

    def test_create_by_name(self):
        assert isinstance(create_backend("openmp"), OpenMPCSVM)
        assert isinstance(create_backend("cuda"), CUDACSVM)
        assert isinstance(create_backend("opencl"), OpenCLCSVM)
        assert isinstance(create_backend("sycl"), SYCLCSVM)

    def test_automatic_prefers_cuda_on_nvidia(self):
        assert preferred_backend("gpu_nvidia") is BackendType.CUDA
        backend = create_backend("automatic", target="gpu_nvidia")
        assert isinstance(backend, CUDACSVM)

    def test_automatic_prefers_opencl_on_amd(self):
        assert preferred_backend("gpu_amd") is BackendType.OPENCL
        backend = create_backend("automatic", target="gpu_amd")
        assert isinstance(backend, OpenCLCSVM)

    def test_automatic_on_cpu_is_openmp(self):
        assert preferred_backend("cpu") is BackendType.OPENMP

    def test_bare_automatic_is_openmp(self):
        assert isinstance(create_backend("automatic"), OpenMPCSVM)

    def test_openmp_rejects_multi_device(self):
        with pytest.raises(BackendUnavailableError):
            create_backend("openmp", n_devices=2)


class TestDeviceDiscovery:
    def test_cuda_rejects_amd(self):
        with pytest.raises(BackendUnavailableError):
            CUDACSVM(target=TargetPlatform.GPU_AMD)

    def test_cuda_rejects_amd_device_pin(self):
        with pytest.raises(BackendUnavailableError):
            CUDACSVM(device="amd_radeon_vii")

    def test_opencl_reaches_every_vendor(self):
        for target in ("gpu_nvidia", "gpu_amd", "gpu_intel"):
            backend = OpenCLCSVM(target=TargetPlatform.from_name(target))
            assert backend.spec.platform is TargetPlatform.from_name(target)

    def test_automatic_cuda_picks_a100(self):
        assert CUDACSVM().spec.name == "NVIDIA A100"

    def test_device_pinning(self):
        backend = CUDACSVM(device="nvidia_v100")
        assert backend.spec.name == "NVIDIA V100"

    def test_n_devices(self):
        backend = CUDACSVM(n_devices=4)
        assert backend.num_devices == 4
        assert len({d.device_id for d in backend.devices}) == 4

    def test_describe_mentions_device(self):
        assert "A100" in CUDACSVM().describe()


class TestSyclFlavours:
    def test_default_hipsycl_on_nvidia(self):
        backend = SYCLCSVM(target=TargetPlatform.GPU_NVIDIA)
        assert backend.efficiency_key == "sycl_hipsycl"

    def test_default_dpcpp_on_intel(self):
        backend = SYCLCSVM(target=TargetPlatform.GPU_INTEL)
        assert backend.efficiency_key == "sycl_dpcpp"

    def test_explicit_implementation(self):
        backend = SYCLCSVM(implementation="dpcpp", target=TargetPlatform.GPU_NVIDIA)
        assert backend.efficiency_key == "sycl_dpcpp"


class TestSoA:
    def test_padding_at_least_one_block(self):
        soa = transform_to_soa(np.ones((10, 3)), block_size=8)
        assert soa.padded_rows == 16 + 8
        assert soa.num_rows == 10
        assert np.all(soa.data[10:] == 0.0)

    def test_fortran_order(self):
        soa = transform_to_soa(np.ones((5, 4)), block_size=4)
        assert soa.data.flags["F_CONTIGUOUS"]

    def test_logical_view_shares_memory(self):
        X = np.arange(12.0).reshape(4, 3)
        soa = transform_to_soa(X, block_size=2)
        assert np.array_equal(soa.logical, X)
        soa.logical[0, 0] = 99.0
        assert soa.data[0, 0] == 99.0

    def test_feature_slice_contiguous(self):
        soa = transform_to_soa(np.ones((6, 8)), block_size=4)
        sub = soa.feature_slice(slice(2, 5))
        assert sub.num_features == 3
        assert sub.num_rows == 6
        assert sub.data.flags["F_CONTIGUOUS"]

    def test_nbytes(self):
        soa = transform_to_soa(np.ones((4, 2)), block_size=4)
        assert soa.nbytes == soa.padded_rows * 2 * 8


class TestKernelCostModel:
    def test_symmetry_halves_flops(self):
        base = KernelConfig()
        no_sym = KernelConfig(use_symmetry=False)
        a = matvec_costs(1000, 64, KernelType.LINEAR, base)
        b = matvec_costs(1000, 64, KernelType.LINEAR, no_sym)
        assert b.flops == pytest.approx(2 * a.flops, rel=0.01)

    def test_q_cache_cuts_kernel_evals_three_to_one(self):
        cached = matvec_costs(1000, 64, KernelType.LINEAR, KernelConfig())
        uncached = matvec_costs(1000, 64, KernelType.LINEAR, KernelConfig(cache_q=False))
        assert uncached.flops > 2.5 * cached.flops

    def test_block_caching_reduces_global_traffic_by_tile(self):
        config = KernelConfig()
        cached = matvec_costs(10_000, 64, KernelType.LINEAR, config)
        flat = matvec_costs(
            10_000, 64, KernelType.LINEAR, KernelConfig(block_level_caching=False)
        )
        assert flat.global_bytes / cached.global_bytes == pytest.approx(
            config.tile, rel=0.05
        )

    def test_thread_caching_reduces_shared_traffic(self):
        config = KernelConfig()
        with_reg = matvec_costs(10_000, 64, KernelType.LINEAR, config)
        without = matvec_costs(
            10_000, 64, KernelType.LINEAR, KernelConfig(thread_level_caching=False)
        )
        assert without.shared_bytes / with_reg.shared_bytes == pytest.approx(
            config.internal_block, rel=0.01
        )

    def test_grid_covers_triangle(self):
        config = KernelConfig(thread_block=4, internal_block=4)  # tile 16
        costs = matvec_costs(64, 8, KernelType.LINEAR, config)
        assert costs.grid_blocks == 4 * 5 // 2  # 4x4 tile grid upper triangle

    def test_q_vector_costs_linear_in_rows(self):
        a = q_vector_costs(1000, 64, KernelType.LINEAR, KernelConfig())
        b = q_vector_costs(2000, 64, KernelType.LINEAR, KernelConfig())
        assert b.flops == pytest.approx(2 * a.flops)

    def test_vector_ops_costs(self):
        c = vector_ops_costs(256)
        assert c.flops == 2560.0
        with pytest.raises(KernelLaunchError):
            vector_ops_costs(0)

    def test_invalid_config(self):
        with pytest.raises(KernelLaunchError):
            KernelConfig(thread_block=0)

    def test_invalid_matvec_shape(self):
        with pytest.raises(KernelLaunchError):
            matvec_costs(0, 4, KernelType.LINEAR, KernelConfig())


class TestDeviceQMatrix:
    """The host operator with modeled devices attached (the device backends' Q)."""

    def _devices(self, n):
        spec = get_device_spec("nvidia_a100")
        return [SimulatedDevice(spec, "cuda", device_id=i) for i in range(n)]

    def _qmatrix(self, X, y, param, n):
        q = ImplicitQMatrix(X, y, param)
        attach_devices(q, [self._devices(n)])
        return q

    def test_matches_reference_implicit(self, planes_small, linear_param):
        X, y = planes_small
        ref = ImplicitQMatrix(X, y, linear_param)
        dev = self._qmatrix(X, y, linear_param, 1)
        v = np.linspace(-1, 1, X.shape[0] - 1)
        assert np.allclose(ref.matvec(v), dev.matvec(v), atol=1e-10)

    @pytest.mark.parametrize("n_devices", [2, 3, 4])
    def test_multi_device_equals_single(self, planes_small, linear_param, n_devices):
        X, y = planes_small
        single = self._qmatrix(X, y, linear_param, 1)
        multi = self._qmatrix(X, y, linear_param, n_devices)
        v = np.random.default_rng(0).standard_normal(X.shape[0] - 1)
        assert np.allclose(single.matvec(v), multi.matvec(v), atol=1e-9)

    def test_multi_device_rejects_nonlinear(self, planes_small, rbf_param):
        X, y = planes_small
        with pytest.raises(DeviceError, match="linear kernel"):
            self._qmatrix(X, y, rbf_param, 2)

    def test_single_device_nonlinear_works(self, planes_small, rbf_param):
        X, y = planes_small
        ref = ImplicitQMatrix(X, y, rbf_param)
        dev = self._qmatrix(X, y, rbf_param, 1)
        v = np.ones(X.shape[0] - 1)
        assert np.allclose(ref.matvec(v), dev.matvec(v), atol=1e-10)

    def test_requires_a_device(self, planes_small, linear_param):
        X, y = planes_small
        with pytest.raises(DeviceError):
            self._qmatrix(X, y, linear_param, 0)

    def test_memory_split_shrinks_per_device(self, linear_param):
        from repro.data.synthetic import make_planes

        X, y = make_planes(256, 64, rng=0)
        single = self._qmatrix(X, y, linear_param, 1)
        quad = self._qmatrix(X, y, linear_param, 4)
        mem1 = single.cost.memory_per_device_gib()[0]
        mem4 = quad.cost.memory_per_device_gib()[0]
        assert mem4 < mem1
        # Data dominates; the split should approach 4x (vectors are shared).
        assert mem1 / mem4 > 2.0

    def test_more_devices_than_features_leaves_spares_idle(self, linear_param):
        from repro.data.synthetic import make_planes

        X, y = make_planes(32, 2, rng=1)
        q = self._qmatrix(X, y, linear_param, 4)
        assert len(q.cost.active) == 2
        v = np.ones(31)
        assert np.isfinite(q.matvec(v)).all()

    def test_launch_accounting_per_iteration(self, planes_small, linear_param):
        X, y = planes_small
        q = self._qmatrix(X, y, linear_param, 1)
        before = q.cost.total_device_launches()
        q.matvec(np.ones(X.shape[0] - 1))
        # One matvec kernel + one vector-ops kernel per CG step.
        assert q.cost.total_device_launches() == before + 2

    def test_device_time_advances(self, planes_small, linear_param):
        X, y = planes_small
        q = self._qmatrix(X, y, linear_param, 1)
        t0 = q.cost.device_time()
        q.matvec(np.ones(X.shape[0] - 1))
        assert q.cost.device_time() > t0

    def test_block_matvec_charges_one_matvec_per_column(self, planes_small, linear_param):
        X, y = planes_small
        q = self._qmatrix(X, y, linear_param, 2)
        before = q.cost.total_device_launches()
        q.matvec_multi(np.ones((X.shape[0] - 1, 3)))
        # Two devices, two kernels each, three right-hand sides.
        assert q.cost.total_device_launches() == before + 2 * 2 * 3


class TestDeviceSetChangesNoValue:
    """The feature split changes modeled time and memory, never a value."""

    @pytest.fixture(scope="class")
    def planes(self):
        from repro.data.synthetic import make_planes

        return make_planes(512, 256, rng=4)

    def _fit(self, X, y, **kwargs):
        from repro import LSSVC

        return LSSVC(kernel="linear", epsilon=1e-8, **kwargs).fit(X, y)

    def test_cuda_device_counts_match_the_implicit_fit(self, planes):
        X, y = planes
        ref = self._fit(X, y)
        for k in (1, 2, 3, 4):
            clf = self._fit(X, y, backend="cuda", n_devices=k)
            assert clf.iterations_ == ref.iterations_
            assert np.array_equal(clf.model_.alpha, ref.model_.alpha), k

    def test_heterogeneous_splits_match_the_implicit_fit(self, planes):
        from repro.backends.heterogeneous import HeterogeneousCSVM

        X, y = planes
        ref = self._fit(X, y)
        for balanced in (False, True):
            backend = HeterogeneousCSVM(["nvidia_a100", "nvidia_v100"], balanced=balanced)
            clf = self._fit(X, y, backend=backend)
            assert np.array_equal(clf.model_.alpha, ref.model_.alpha), balanced

    def test_multinode_matches_the_sharded_fit(self, planes):
        from repro.backends.multinode import MultiNodeCSVM
        from repro.parameter import ResourceConfig

        X, y = planes
        ref = self._fit(X, y, resources=ResourceConfig(shard_rows=2))
        for gpus in (1, 2):
            backend = MultiNodeCSVM(num_nodes=2, gpus_per_node=gpus)
            clf = self._fit(X, y, backend=backend)
            assert np.array_equal(clf.model_.alpha, ref.model_.alpha), gpus


class TestOpenMPBackend:
    def test_threaded_matvec_matches_reference(self, planes_medium, linear_param):
        X, y = planes_medium
        backend = OpenMPCSVM(num_threads=3)
        q = backend.create_qmatrix(X, y, linear_param)
        ref = ImplicitQMatrix(X, y, linear_param)
        v = np.random.default_rng(1).standard_normal(X.shape[0] - 1)
        assert np.allclose(q.matvec(v), ref.matvec(v), atol=1e-9)
        backend.pool.shutdown()

    def test_threaded_rbf_matches_reference(self, planes_small, rbf_param):
        X, y = planes_small
        backend = OpenMPCSVM(num_threads=2, tile_rows=13)
        q = backend.create_qmatrix(X, y, rbf_param)
        ref = ImplicitQMatrix(X, y, rbf_param)
        v = np.ones(X.shape[0] - 1)
        assert np.allclose(q.matvec(v), ref.matvec(v), atol=1e-9)
        backend.pool.shutdown()

    def test_thread_count_resolution(self):
        backend = OpenMPCSVM(num_threads=2)
        assert backend.num_threads == 2
        assert "2 thread" in backend.describe()
        backend.pool.shutdown()


class TestBlockedReferenceKernel:
    """The functional §III-C1 tiling must agree with plain BLAS."""

    def _reference(self, X, v, kernel, **kw):
        from repro.core.kernels import kernel_matrix

        return kernel_matrix(X, X, kernel, **kw) @ v

    @pytest.mark.parametrize("n", [1, 7, 16, 33, 100])
    def test_linear_matches_blas(self, n):
        from repro.backends.blocked_reference import blocked_kernel_matvec

        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 5))
        v = rng.standard_normal(n)
        config = KernelConfig(thread_block=2, internal_block=4)  # tile 8
        got = blocked_kernel_matvec(X, v, KernelType.LINEAR, config=config)
        assert np.allclose(got, self._reference(X, v, KernelType.LINEAR), atol=1e-9)

    @pytest.mark.parametrize(
        "kernel,kw",
        [
            (KernelType.RBF, {"gamma": 0.3}),
            (KernelType.POLYNOMIAL, {"gamma": 0.2, "degree": 2, "coef0": 1.0}),
            (KernelType.SIGMOID, {"gamma": 0.1, "coef0": 0.5}),
        ],
    )
    def test_nonlinear_padding_is_masked(self, kernel, kw):
        """rbf/poly/sigmoid are nonzero at the zero padding vector; the
        write-back masking must keep padded rows out of the result."""
        from repro.backends.blocked_reference import blocked_kernel_matvec

        rng = np.random.default_rng(3)
        X = rng.standard_normal((21, 4))  # deliberately not tile-aligned
        v = rng.standard_normal(21)
        config = KernelConfig(thread_block=4, internal_block=2)  # tile 8
        got = blocked_kernel_matvec(X, v, kernel, config=config, **kw)
        assert np.allclose(got, self._reference(X, v, kernel, **kw), atol=1e-9)

    def test_symmetric_and_full_grids_agree(self):
        from repro.backends.blocked_reference import blocked_kernel_matvec

        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 6))
        v = rng.standard_normal(50)
        tri = blocked_kernel_matvec(
            X, v, KernelType.RBF, gamma=0.2,
            config=KernelConfig(thread_block=3, internal_block=3, use_symmetry=True),
        )
        full = blocked_kernel_matvec(
            X, v, KernelType.RBF, gamma=0.2,
            config=KernelConfig(thread_block=3, internal_block=3, use_symmetry=False),
        )
        assert np.allclose(tri, full, atol=1e-9)

    @pytest.mark.parametrize("feature_chunk", [1, 3, 16, 1000])
    def test_feature_chunking_is_neutral(self, feature_chunk):
        from repro.backends.blocked_reference import blocked_kernel_matvec

        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 11))
        v = rng.standard_normal(30)
        got = blocked_kernel_matvec(
            X, v, KernelType.RBF, gamma=0.4, feature_chunk=feature_chunk
        )
        assert np.allclose(got, self._reference(X, v, KernelType.RBF, gamma=0.4))

    def test_invalid_inputs(self):
        from repro.backends.blocked_reference import blocked_kernel_matvec

        X = np.ones((4, 2))
        with pytest.raises(KernelLaunchError):
            blocked_kernel_matvec(X, np.ones(5))
        with pytest.raises(KernelLaunchError):
            blocked_kernel_matvec(X, np.ones(4), feature_chunk=0)
