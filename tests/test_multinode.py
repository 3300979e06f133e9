"""Tests for the simulated MPI layer and the multi-node backend."""

import numpy as np
import pytest

from repro import LSSVC
from repro.backends.modeled import attach_devices, node_row_blocks
from repro.backends.multinode import MultiNodeCSVM
from repro.data import make_planes
from repro.exceptions import DataError, DeviceError
from repro.experiments.analytic import model_multinode_run
from repro.parallel.mpi_sim import NetworkSpec, SimCommunicator
from repro.parameter import Parameter
from repro.simgpu.catalog import default_gpu
from repro.simgpu.device import SimulatedDevice


class TestNetworkSpec:
    def test_p2p_time(self):
        net = NetworkSpec(latency_us=2.0, bandwidth_gbs=10.0)
        assert net.p2p_time(0) == pytest.approx(2e-6)
        assert net.p2p_time(10e9) == pytest.approx(2e-6 + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(bandwidth_gbs=0.0)
        with pytest.raises(ValueError):
            NetworkSpec(latency_us=-1.0)
        net = NetworkSpec()
        with pytest.raises(ValueError):
            net.p2p_time(-1)


class TestSimCommunicator:
    def test_allreduce_sum_is_exact(self):
        comm = SimCommunicator(4)
        parts = [np.full(5, float(r)) for r in range(4)]
        results = comm.allreduce_sum(parts)
        for res in results:
            assert np.allclose(res, 0.0 + 1 + 2 + 3)
        assert comm.counters["allreduce"] == 1

    def test_allreduce_charges_all_ranks_equally(self):
        comm = SimCommunicator(3)
        comm.allreduce_sum([np.ones(100)] * 3)
        assert len(set(comm.clocks)) == 1
        assert comm.elapsed > 0

    def test_single_rank_costs_nothing(self):
        comm = SimCommunicator(1)
        comm.allreduce_sum([np.ones(10)])
        assert comm.elapsed == 0.0

    def test_allreduce_time_grows_with_ranks_and_bytes(self):
        small = SimCommunicator(2)
        small.allreduce_sum([np.ones(10)] * 2)
        big_ranks = SimCommunicator(8)
        big_ranks.allreduce_sum([np.ones(10)] * 8)
        assert big_ranks.elapsed > small.elapsed
        big_bytes = SimCommunicator(2)
        big_bytes.allreduce_sum([np.ones(10_000_000)] * 2)
        assert big_bytes.elapsed > small.elapsed

    def test_broadcast(self):
        comm = SimCommunicator(3)
        results = comm.broadcast(np.arange(4.0))
        assert len(results) == 3
        for res in results:
            assert np.allclose(res, [0, 1, 2, 3])
        assert comm.counters["broadcast"] == 1

    def test_charge_broadcast_prices_bytes_without_data(self):
        comm = SimCommunicator(4)
        comm.charge_broadcast(25e6, root=2)
        # Two tree rounds, each 1 MB at 25 GB/s plus the link latency.
        assert comm.elapsed == pytest.approx(2 * (1.5e-6 + 1e-3))
        assert comm.bytes_moved == 3 * 25e6
        assert comm.counters["broadcast"] == 1
        with pytest.raises(DataError):
            comm.charge_broadcast(8.0, root=4)

    def test_gather_preserves_rank_order(self):
        comm = SimCommunicator(3)
        results = comm.gather([np.full(2, r) for r in range(3)])
        assert np.allclose(results[1], 1.0)

    def test_barrier(self):
        comm = SimCommunicator(4)
        comm.barrier()
        assert comm.counters["barrier"] == 1
        assert comm.elapsed > 0

    def test_reset(self):
        comm = SimCommunicator(2)
        comm.allreduce_sum([np.ones(3)] * 2)
        comm.reset()
        assert comm.elapsed == 0.0
        assert comm.counters["allreduce"] == 0

    def test_validation(self):
        comm = SimCommunicator(2)
        with pytest.raises(DataError):
            comm.allreduce_sum([np.ones(3)])
        with pytest.raises(DataError):
            comm.allreduce_sum([np.ones(3), np.ones(4)])
        with pytest.raises(DataError):
            comm.broadcast(np.ones(2), root=5)
        with pytest.raises(DataError):
            SimCommunicator(0)


def _cluster(X, y, param, *, num_nodes, gpus_per_node, tile_rows=1024):
    """The host operator with a cluster attached, one row block per node."""
    from repro.core.qmatrix import ImplicitQMatrix

    qmat = ImplicitQMatrix(X, y, param, tile_rows=tile_rows)
    row_blocks = node_row_blocks(qmat.shape[0], num_nodes)
    nodes = [
        [
            SimulatedDevice(default_gpu(), "cuda", device_id=k * 100 + g)
            for g in range(gpus_per_node)
        ]
        for k in range(len(row_blocks))
    ]
    attach_devices(qmat, nodes, row_blocks=row_blocks, network=NetworkSpec())
    return qmat


class TestMultiNodeQMatrix:
    def test_matches_reference_operator(self, planes_medium, linear_param):
        from repro.core.qmatrix import ImplicitQMatrix

        X, y = planes_medium
        ref = ImplicitQMatrix(X, y, linear_param)
        dist = _cluster(X, y, linear_param, num_nodes=3, gpus_per_node=2)
        v = np.random.default_rng(0).standard_normal(X.shape[0] - 1)
        assert np.allclose(ref.matvec(v), dist.matvec(v), atol=1e-9)

    def test_nonlinear_row_shard_matches_reference(self, planes_small, rbf_param):
        from repro.core.qmatrix import ImplicitQMatrix

        X, y = planes_small
        ref = ImplicitQMatrix(X, y, rbf_param)
        dist = _cluster(X, y, rbf_param, num_nodes=3, gpus_per_node=2, tile_rows=7)
        v = np.random.default_rng(1).standard_normal(X.shape[0] - 1)
        assert np.allclose(ref.matvec(v), dist.matvec(v), atol=1e-9)
        # The overlapping per-node partials are charged one allreduce and
        # foreign tiles are charged as inter-node traffic.
        assert dist.cost.comm.counters["allreduce"] == 1
        assert dist.cost.comm.bytes_moved > 0

    def test_more_nodes_than_points_shrinks_cluster(self, linear_param):
        X, y = make_planes(10, 4, rng=0)
        q = MultiNodeCSVM(num_nodes=32, gpus_per_node=1).create_qmatrix(X, y, linear_param)
        assert len(q.cost.nodes) <= 9  # at most m-1 non-empty row blocks

    def test_communication_per_iteration(self, planes_small, linear_param):
        X, y = planes_small
        q = _cluster(X, y, linear_param, num_nodes=4, gpus_per_node=1)
        q.matvec(np.ones(X.shape[0] - 1))
        q.matvec(np.ones(X.shape[0] - 1))
        assert q.cost.comm.counters["allreduce"] == 2

    def test_validation(self, planes_small, linear_param):
        X, y = planes_small
        with pytest.raises(DeviceError):
            MultiNodeCSVM(num_nodes=0, gpus_per_node=1).create_qmatrix(X, y, linear_param)
        with pytest.raises(DeviceError):
            MultiNodeCSVM(
                num_nodes=1, gpus_per_node=1, device="amd_radeon_vii",
            ).create_qmatrix(X, y, linear_param)

    def test_float32_charges_half_the_bytes(self):
        X, y = make_planes(512, 64, rng=1)
        per_iteration_copy, gemv_bytes = {}, {}
        for dtype in (np.float64, np.float32):
            backend = MultiNodeCSVM(num_nodes=2, gpus_per_node=2)
            clf = LSSVC(kernel="linear", backend=backend, dtype=dtype).fit(X, y)
            gpu = backend.last_run().nodes[0][0]
            per_iteration_copy[dtype] = gpu.counters.bytes_from_device / clf.iterations_
            gemv_bytes[dtype] = [
                launch.global_bytes for launch in gpu.launch_log[:3]
                if launch.name.startswith("multinode_gemv")
            ]
        # The GPU's 32 features of the d-length partial, 8 bytes each.
        assert per_iteration_copy[np.float64] == 256
        assert per_iteration_copy[np.float32] == per_iteration_copy[np.float64] / 2
        assert len(gemv_bytes[np.float64]) == 2
        assert gemv_bytes[np.float32] == [b / 2 for b in gemv_bytes[np.float64]]


class TestMultiNodeBackend:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_same_model_as_single_node(self, nodes):
        X, y = make_planes(512, 64, rng=5)
        ref = LSSVC(kernel="linear", epsilon=1e-10).fit(X, y)
        backend = MultiNodeCSVM(num_nodes=nodes, gpus_per_node=2)
        clf = LSSVC(kernel="linear", epsilon=1e-10, backend=backend).fit(X, y)
        assert np.allclose(clf.model_.alpha, ref.model_.alpha, atol=1e-6)

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_bit_identical_to_the_default_fit(self, kernel):
        """The node row ownership is priced, never computed: 1-4 nodes give
        the default fit's alpha and bias bit for bit, at pinned charges."""
        X, y = make_planes(300, 8, rng=3)
        ref = LSSVC(kernel=kernel, epsilon=1e-8).fit(X, y)
        # nodes -> (bytes moved, broadcasts, device launches)
        charges = {
            "linear": {1: (0, 0, 66), 2: (704, 0, 132), 3: (1408, 0, 198), 4: (2112, 0, 264)},
            "rbf": {
                1: (0, 0, 60),
                2: (645_840, 30, 120),
                3: (1_291_680, 30, 180),
                4: (1_937_520, 30, 240),
            },
        }[kernel]
        for nodes, (moved, broadcasts, launches) in charges.items():
            backend = MultiNodeCSVM(num_nodes=nodes, gpus_per_node=2)
            clf = LSSVC(kernel=kernel, epsilon=1e-8, backend=backend).fit(X, y)
            assert np.array_equal(clf.model_.alpha, ref.model_.alpha), nodes
            assert clf.model_.bias == ref.model_.bias, nodes
            cost = backend.last_run()
            assert cost.comm.counters["allreduce"] == clf.iterations_ == ref.iterations_
            assert cost.comm.bytes_moved == moved
            assert cost.comm.counters["broadcast"] == broadcasts
            assert cost.total_device_launches() == launches

    def test_memory_per_gpu_shrinks_with_nodes(self):
        X, y = make_planes(512, 64, rng=5)
        mems = []
        for nodes in (1, 4):
            backend = MultiNodeCSVM(num_nodes=nodes, gpus_per_node=2)
            LSSVC(kernel="linear", backend=backend).fit(X, y)
            mems.append(backend.memory_per_gpu_gib())
        assert mems[1] < mems[0] / 2

    def test_communication_recorded_in_timings(self):
        X, y = make_planes(256, 32, rng=6)
        backend = MultiNodeCSVM(num_nodes=2, gpus_per_node=1)
        clf = LSSVC(kernel="linear", backend=backend).fit(X, y)
        timings = clf.timings_.as_dict()
        assert timings["communication"] > 0
        assert timings["cg_device"] > timings["communication"]

    def test_foreign_tiles_are_charged_their_bytes(self):
        X, y = make_planes(4096, 64, rng=0)
        backend = MultiNodeCSVM(num_nodes=2, gpus_per_node=2)
        clf = LSSVC(kernel="rbf", backend=backend).fit(X, y)
        cost = backend.last_run()
        comm = cost.comm
        # Per matvec: each node's two 1024-row tiles (4095 rows in all, 64
        # fp64 features) cross to the other node, then one 4095-long
        # allreduce; the bytes are what they were before tiles were priced.
        per_matvec = 4095 * 64 * 8 + 4095 * 8
        assert comm.bytes_moved == clf.iterations_ * per_matvec == 34_070_400
        assert comm.counters["broadcast"] == 4 * clf.iterations_
        link = comm.network.bandwidth_gbs * 1e9
        assert cost.communication_time() >= comm.bytes_moved / link

    def test_describe(self):
        text = MultiNodeCSVM(num_nodes=3, gpus_per_node=4).describe()
        assert "3 node" in text and "4 GPU" in text

    def test_requires_run_before_reporting(self):
        backend = MultiNodeCSVM(num_nodes=2)
        with pytest.raises(DeviceError):
            backend.device_time()


class TestMultiNodeDryRunPinning:
    @pytest.mark.parametrize("nodes,gpus", [(1, 1), (2, 2), (4, 2)])
    def test_model_matches_functional(self, nodes, gpus):
        X, y = make_planes(1024, 128, rng=5)
        backend = MultiNodeCSVM(num_nodes=nodes, gpus_per_node=gpus)
        clf = LSSVC(kernel="linear", epsilon=1e-8, backend=backend).fit(X, y)
        model = model_multinode_run(
            default_gpu(),
            num_points=1024,
            num_features=128,
            iterations=clf.iterations_,
            num_nodes=nodes,
            gpus_per_node=gpus,
        )
        assert model.device_seconds == pytest.approx(backend.device_time(), rel=1e-12)
        assert model.communication_seconds == pytest.approx(
            backend.communication_time(), rel=1e-12
        )
        assert model.memory_per_gpu_gib * 1024**3 == pytest.approx(
            backend.memory_per_gpu_gib() * 1024**3
        )

    def test_cluster_scale_memory_and_speedup(self):
        # 2^20 x 2^14 = 137 GB of data: impossible on one 40 GiB GPU, the
        # multi-node raison d'être.
        m4 = model_multinode_run(
            default_gpu(), num_points=2**20, num_features=2**14,
            iterations=30, num_nodes=4, gpus_per_node=4,
        )
        m16 = model_multinode_run(
            default_gpu(), num_points=2**20, num_features=2**14,
            iterations=30, num_nodes=16, gpus_per_node=4,
        )
        assert m4.memory_per_gpu_gib / m16.memory_per_gpu_gib == pytest.approx(
            4.0, rel=0.05
        )
        assert m16.device_seconds < m4.device_seconds
