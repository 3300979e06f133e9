"""Resilient-execution tests: fault injection, checkpointed CG, failover.

The acceptance bar (see DESIGN.md "Resilient execution"): a fault plan
replays deterministically; a checkpoint-resumed solve is bit-identical to
an undisturbed one when the operator arithmetic is unchanged; and a
training run that loses a GPU mid-solve converges to the fault-free
solution on the surviving devices.
"""

import numpy as np
import pytest

from repro import LSSVC, CGCheckpoint, conjugate_gradient, conjugate_gradient_block
from repro.backends import create_backend
from repro.backends.modeled import attach_devices
from repro.backends.multinode import MultiNodeCSVM
from repro.core.qmatrix import ImplicitQMatrix
from repro.core.resilience import resilient_solve
from repro.data.synthetic import make_planes
from repro.exceptions import (
    BackendUnavailableError,
    DataError,
    DeviceError,
    DeviceLostError,
    InvalidParameterError,
    TransientDeviceError,
)
from repro.parameter import Parameter
from repro.telemetry import reset_root_context, root_context
from repro.simgpu.device import SimulatedDevice
from repro.simgpu.faults import FaultEvent, FaultPlan, parse_fault_plan
from repro.simgpu.spec import DeviceSpec
from repro.types import TargetPlatform


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_root_context()
    yield
    reset_root_context()


def _device(device_id: int = 0, memory_gib: float = 1.0) -> SimulatedDevice:
    spec = DeviceSpec(
        name=f"sim-gpu-{device_id}",
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
    return SimulatedDevice(spec, "cuda", device_id=device_id)


def _spd_system(n=60, k=0, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n) if k == 0 else rng.standard_normal((n, k))
    return A, b


class _FaultingOp:
    """Dense SPD operator whose Nth matvec raises a scripted exception.

    ``matvec``/``matvec_multi`` share one call counter and compute exactly
    what the plain dense operator computes (``A @ v`` / ``A @ V``), so a
    checkpoint-resumed solve against the bare matrix is bit-comparable.
    """

    def __init__(self, A, faults=None):
        self.A = np.asarray(A)
        self.shape = self.A.shape
        self.dtype = self.A.dtype
        self.calls = 0
        self.faults = dict(faults or {})

    def _tick(self):
        self.calls += 1
        make_exc = self.faults.pop(self.calls, None)
        if make_exc is not None:
            raise make_exc()

    def matvec(self, v):
        self._tick()
        return self.A @ v

    def matvec_multi(self, V):
        self._tick()
        return self.A @ V


class _RecoverableOp(_FaultingOp):
    """A faulting operator with a (recording) ``handle_device_loss`` hook."""

    def __init__(self, A, faults=None, cascades=0):
        super().__init__(A, faults)
        self.recovered = []
        self._cascades = cascades

    def handle_device_loss(self, device):
        self.recovered.append(device)
        if self._cascades > 0:
            self._cascades -= 1
            raise DeviceLostError("sibling died too", device=object())


class TestFaultPlanDeterminism:
    def test_seeded_plan_replays_bit_identically(self):
        plan = FaultPlan(seed=42, transient_rate=0.15, latency_rate=0.15, latency_s=0.01)
        device = _device()
        device.attach_fault_plan(plan)

        def drive():
            device.initialize()
            for _ in range(60):
                try:
                    device.launch("k", flops=1e6, global_bytes=1e4)
                except TransientDeviceError:
                    pass
            return list(plan.records), device.clock

        first_records, first_clock = drive()
        assert first_records, "rates this high must inject something in 60 ops"
        plan.reset()
        device.reset()
        replay_records, replay_clock = drive()
        assert replay_records == first_records
        assert replay_clock == first_clock

    def test_per_device_streams_ignore_interleaving(self):
        def outcomes(order):
            plan = FaultPlan(seed=7, transient_rate=0.3, latency_rate=0.2)
            seen = {0: [], 1: []}
            for dev_id in order:
                seen[dev_id].append(plan.draw(dev_id, f"gpu{dev_id}", "launch"))
            return seen

        strict = outcomes([0] * 20 + [1] * 20)
        woven = outcomes([0, 1] * 20)
        assert strict == woven

    def test_scripted_event_strikes_exact_ordinal(self):
        plan = FaultPlan([FaultEvent(kind="transient", device_id=0, op="launch", at_op=2)])
        device = _device()
        device.attach_fault_plan(plan)
        device.initialize()
        device.launch("k", flops=1.0, global_bytes=1.0)
        device.launch("k", flops=1.0, global_bytes=1.0)
        with pytest.raises(TransientDeviceError) as excinfo:
            device.launch("k", flops=1.0, global_bytes=1.0)
        assert excinfo.value.device is device
        # A retry of the same (now 4th) launch succeeds: transient means transient.
        device.launch("k", flops=1.0, global_bytes=1.0)
        assert device.counters.transient_faults == 1
        assert plan.summary()["transient"] == 1

    def test_device_loss_is_terminal_until_reset(self):
        plan = FaultPlan([FaultEvent(kind="device_lost", device_id=0, op="launch", at_op=0)])
        device = _device()
        device.attach_fault_plan(plan)
        device.initialize()
        with pytest.raises(DeviceLostError):
            device.launch("k", flops=1.0, global_bytes=1.0)
        assert device.lost
        # Every later operation fails fast, including transfers.
        with pytest.raises(DeviceLostError):
            device.copy_to_device(128)
        assert device.counters.device_lost == 1
        device.reset()
        device.initialize()
        assert not device.lost
        device.copy_to_device(128)

    def test_latency_fault_stalls_the_clock(self):
        plan = FaultPlan(
            [FaultEvent(kind="latency", op="copy_to_device", at_op=0, latency_s=0.5)]
        )
        device = _device()
        device.attach_fault_plan(plan)
        device.initialize()
        before = device.clock
        device.copy_to_device(1024)
        assert device.clock >= before + 0.5
        assert device.counters.latency_spikes == 1
        assert device.counters.fault_delay_s == pytest.approx(0.5)


class TestParseFaultPlan:
    def test_rates_and_seed(self):
        plan = parse_fault_plan("seed=7,transient=0.01,latency=0.02,latency_s=0.3,lost=0.001")
        assert plan.seed == 7
        assert plan.transient_rate == 0.01
        assert plan.latency_rate == 0.02
        assert plan.latency_s == 0.3
        assert plan.device_lost_rate == 0.001

    def test_scripted_events(self):
        plan = parse_fault_plan("lost@2:launch:9,latency@any:any:3:0.25")
        assert plan.events[0] == FaultEvent(
            kind="device_lost", device_id=2, op="launch", at_op=9
        )
        assert plan.events[1].kind == "latency"
        assert plan.events[1].device_id is None and plan.events[1].op is None
        assert plan.events[1].latency_s == 0.25

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus", "frob=1", "explode@0:launch:1", "lost@0:launch", "transient=x"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(InvalidParameterError):
            parse_fault_plan(spec)

    def test_rates_must_stay_subprobability(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan(transient_rate=0.6, latency_rate=0.6)


class TestCheckpointResume:
    def test_single_cg_resume_is_bit_exact(self):
        A, b = _spd_system(n=60, seed=1)
        ref = conjugate_gradient(A, b, epsilon=1e-12, warn_on_no_convergence=False)
        op = _FaultingOp(A, {9: lambda: DeviceLostError("gone", device=None)})
        with pytest.raises(DeviceLostError) as excinfo:
            conjugate_gradient(
                op, b, epsilon=1e-12, checkpoint_interval=3, warn_on_no_convergence=False
            )
        ckpt = excinfo.value.checkpoint
        assert isinstance(ckpt, CGCheckpoint) and ckpt.kind == "single"
        assert ckpt.iteration > 0
        resumed = conjugate_gradient(
            A, b, epsilon=1e-12, checkpoint=ckpt, warn_on_no_convergence=False
        )
        assert np.array_equal(resumed.x, ref.x)
        assert resumed.iterations == ref.iterations
        assert resumed.residual_history == ref.residual_history

    def test_block_cg_resume_is_bit_exact(self):
        A, B = _spd_system(n=60, k=3, seed=2)
        ref = conjugate_gradient_block(A, B, epsilon=1e-10, warn_on_no_convergence=False)
        op = _FaultingOp(A, {13: lambda: DeviceLostError("gone", device=None)})
        with pytest.raises(DeviceLostError) as excinfo:
            conjugate_gradient_block(
                op, B, epsilon=1e-10, checkpoint_interval=3, warn_on_no_convergence=False
            )
        ckpt = excinfo.value.checkpoint
        assert ckpt is not None and ckpt.kind == "block"
        resumed = conjugate_gradient_block(
            A, B, epsilon=1e-10, checkpoint=ckpt, warn_on_no_convergence=False
        )
        assert np.array_equal(resumed.X, ref.X)
        assert resumed.iterations == ref.iterations
        assert resumed.residual_history == ref.residual_history

    def test_iteration_count_excludes_replayed_work(self):
        A, b = _spd_system(n=40, seed=3)
        op = _FaultingOp(A, {6: lambda: TransientDeviceError("hiccup")})
        with pytest.raises(TransientDeviceError) as excinfo:
            conjugate_gradient(
                op, b, epsilon=1e-12, checkpoint_interval=2, warn_on_no_convergence=False
            )
        ckpt = excinfo.value.checkpoint
        before = root_context().metrics.value("cg_iterations")
        resumed = conjugate_gradient(
            A, b, epsilon=1e-12, checkpoint=ckpt, warn_on_no_convergence=False
        )
        # The resumed solve charges only the post-checkpoint iterations.
        assert root_context().metrics.value("cg_iterations") - before == resumed.iterations - ckpt.iteration

    def test_checkpoint_kind_mismatch_rejected(self):
        A, b = _spd_system(n=20, seed=4)
        ckpt = CGCheckpoint(
            kind="block", x=np.zeros((20, 2)), r=None, p=None, iteration=1,
            residual_history=[1.0], state={},
        )
        with pytest.raises(InvalidParameterError, match="kind"):
            conjugate_gradient(A, b, checkpoint=ckpt, warn_on_no_convergence=False)

    def test_checkpoint_and_x0_are_mutually_exclusive(self):
        A, b = _spd_system(n=20, seed=5)
        res = conjugate_gradient(
            A, b, epsilon=1e-10, checkpoint_interval=2, warn_on_no_convergence=False
        )
        assert res.iterations > 0  # checkpointing alone must not perturb the solve
        ckpt = CGCheckpoint(
            kind="single", x=np.zeros(20), r=b.copy(), p=b.copy(), iteration=2,
            residual_history=[1.0],
            state={"delta_new": 1.0, "best_res": 1.0, "best_x": np.zeros(20), "stall": 0},
        )
        with pytest.raises(InvalidParameterError):
            conjugate_gradient(A, b, x0=np.ones(20), checkpoint=ckpt)


class TestResilientSolve:
    def test_transient_fault_retries_to_bit_exact_result(self):
        A, b = _spd_system(n=60, seed=6)
        ref = conjugate_gradient(A, b, epsilon=1e-12, warn_on_no_convergence=False)
        op = _FaultingOp(A, {8: lambda: TransientDeviceError("hiccup")})
        res = resilient_solve(
            op, b, epsilon=1e-12, checkpoint_interval=3, warn_on_no_convergence=False
        )
        assert np.array_equal(res.x, ref.x)
        counters = root_context().solver_counters_dict()
        assert counters["transient_retries"] == 1
        assert counters["checkpoint_restores"] == 1
        assert counters["backoff_seconds"] > 0
        assert counters["devices_lost"] == 0

    def test_block_rhs_dispatches_to_block_solver(self):
        A, B = _spd_system(n=50, k=2, seed=7)
        ref = conjugate_gradient_block(A, B, epsilon=1e-10, warn_on_no_convergence=False)
        op = _FaultingOp(A, {5: lambda: TransientDeviceError("hiccup")})
        res = resilient_solve(
            op, B, epsilon=1e-10, checkpoint_interval=2, warn_on_no_convergence=False
        )
        assert np.array_equal(res.X, ref.X)

    def test_retry_budget_exhaustion_promotes_to_device_lost(self):
        A, b = _spd_system(n=40, seed=8)

        class _AlwaysTransient(_FaultingOp):
            def _tick(self):
                self.calls += 1
                raise TransientDeviceError("permanent hiccup")

        with pytest.raises(DeviceLostError, match="without progress"):
            resilient_solve(
                _AlwaysTransient(A), b, max_retries=2, warn_on_no_convergence=False
            )
        assert root_context().metrics.value("transient_retries") >= 2

    def test_retry_budget_resets_on_progress(self):
        A, b = _spd_system(n=60, seed=9)
        # Two transient faults far enough apart that a checkpoint lands in
        # between: each one is a fresh streak, so max_retries=1 suffices
        # even though the total fault count exceeds the budget.
        faults = {
            6: lambda: TransientDeviceError("hiccup"),
            14: lambda: TransientDeviceError("hiccup"),
            22: lambda: TransientDeviceError("hiccup"),
        }
        res = resilient_solve(
            _FaultingOp(A, faults), b, max_retries=1, checkpoint_interval=2,
            epsilon=1e-12, warn_on_no_convergence=False,
        )
        ref = conjugate_gradient(A, b, epsilon=1e-12, warn_on_no_convergence=False)
        assert np.array_equal(res.x, ref.x)
        assert root_context().metrics.value("transient_retries") == 3

    def test_backoff_delays_accounted_and_slept(self):
        A, b = _spd_system(n=40, seed=10)
        faults = {
            5: lambda: TransientDeviceError("hiccup"),
            6: lambda: TransientDeviceError("hiccup"),
        }
        slept = []
        resilient_solve(
            _FaultingOp(A, faults), b, backoff_base_s=0.125, backoff_factor=2.0,
            sleep=slept.append, warn_on_no_convergence=False,
        )
        assert len(slept) == 2
        assert all(delay >= 0.125 for delay in slept)
        assert root_context().metrics.value("backoff_seconds") == pytest.approx(sum(slept))

    def test_device_loss_recovered_via_operator_hook(self):
        A, b = _spd_system(n=60, seed=11)
        ref = conjugate_gradient(A, b, epsilon=1e-12, warn_on_no_convergence=False)
        gpu = object()
        op = _RecoverableOp(A, {9: lambda: DeviceLostError("gone", device=gpu)})
        res = resilient_solve(
            op, b, epsilon=1e-12, checkpoint_interval=3, warn_on_no_convergence=False
        )
        assert np.array_equal(res.x, ref.x)
        assert op.recovered == [gpu]
        counters = root_context().solver_counters_dict()
        assert counters["devices_lost"] == 1
        assert counters["redistributions"] == 1
        assert counters["checkpoint_restores"] == 1

    def test_cascading_loss_during_recovery_is_recovered_in_turn(self):
        A, b = _spd_system(n=50, seed=12)
        op = _RecoverableOp(
            A, {7: lambda: DeviceLostError("gone", device=object())}, cascades=1
        )
        res = resilient_solve(op, b, warn_on_no_convergence=False)
        assert np.all(np.isfinite(res.x))
        assert len(op.recovered) == 2
        counters = root_context().solver_counters_dict()
        assert counters["devices_lost"] == 2
        assert counters["redistributions"] == 1

    def test_loss_without_handler_reraises(self):
        A, b = _spd_system(n=30, seed=13)
        op = _FaultingOp(A, {4: lambda: DeviceLostError("gone", device=object())})
        with pytest.raises(DeviceLostError):
            resilient_solve(op, b, warn_on_no_convergence=False)

    def test_unrecoverable_loss_reraises_despite_handler(self):
        A, b = _spd_system(n=30, seed=14)
        op = _RecoverableOp(A, {4: lambda: DeviceLostError("all gone", device=None)})
        with pytest.raises(DeviceLostError, match="all gone"):
            resilient_solve(op, b, warn_on_no_convergence=False)
        assert op.recovered == []

    def test_parameter_validation(self):
        A, b = _spd_system(n=10, seed=15)
        with pytest.raises(InvalidParameterError):
            resilient_solve(A, b, max_retries=-1)
        with pytest.raises(InvalidParameterError):
            resilient_solve(A, b, backoff_base_s=-0.1)
        with pytest.raises(InvalidParameterError):
            resilient_solve(A, b, backoff_factor=0.5)


class TestDeviceFailover:
    def _qmatrix(self, num_devices=4):
        X, y = make_planes(128, 16, rng=0)
        devices = [_device(i) for i in range(num_devices)]
        qmat = ImplicitQMatrix(X, y, Parameter(kernel="linear"))
        attach_devices(qmat, [devices])
        return qmat, devices

    def test_redistribution_preserves_the_operator(self):
        qmat, devices = self._qmatrix(num_devices=4)
        v = np.random.default_rng(0).standard_normal(qmat.shape[0])
        reference = qmat.matvec(v)
        clocks_before = [d.clock for d in devices if d is not devices[2]]
        assert qmat.cost.handle_device_loss(devices[2]) == 3
        assert len(qmat.cost.active) == 3
        assert devices[2] not in qmat.cost.active
        # Survivors paid the modeled recovery cost and re-uploaded slabs.
        for dev, before in zip(qmat.cost.active, clocks_before):
            assert dev.clock > before
        np.testing.assert_allclose(qmat.matvec(v), reference, rtol=1e-12)

    def test_losing_the_last_device_is_unrecoverable(self):
        qmat, devices = self._qmatrix(num_devices=1)
        with pytest.raises(DeviceLostError) as excinfo:
            qmat.cost.handle_device_loss(devices[0])
        assert excinfo.value.device is None

    def test_training_survives_mid_solve_device_loss(self):
        """The headline guarantee: kill GPU 2 mid-CG on a 4-GPU train and
        the result matches the fault-free solve."""
        X, y = make_planes(256, 16, rng=0)
        baseline = LSSVC(kernel="linear", backend="cuda", n_devices=4).fit(X, y)
        reset_root_context()

        plan = parse_fault_plan("lost@2:launch:9")
        clf = LSSVC(
            kernel="linear", backend="cuda", n_devices=4,
            fault_plan=plan, checkpoint_interval=5,
        ).fit(X, y)

        assert plan.summary()["device_lost"] == 1
        counters = root_context().solver_counters_dict()
        assert counters["devices_lost"] == 1
        assert counters["redistributions"] == 1
        assert counters["checkpoint_restores"] == 1
        np.testing.assert_allclose(
            clf.model_.alpha, baseline.model_.alpha, rtol=1e-6, atol=1e-9
        )
        assert clf.score(X, y) == baseline.score(X, y)

    def test_redistribution_reports_the_survivors(self):
        X, y = make_planes(256, 16, rng=0)
        clf = LSSVC(
            kernel="linear", backend="cuda", n_devices=4,
            fault_plan=parse_fault_plan("lost@2:launch:9"), checkpoint_interval=5,
        ).fit(X, y)
        events = [e for e in clf.report_.events if e["kind"] == "redistribution"]
        assert [e["survivors"] for e in events] == [3]

    def test_training_survives_transient_faults(self):
        X, y = make_planes(128, 8, rng=1)
        baseline = LSSVC(kernel="linear", backend="cuda", n_devices=2).fit(X, y)
        reset_root_context()
        plan = parse_fault_plan("transient@1:launch:6")
        clf = LSSVC(
            kernel="linear", backend="cuda", n_devices=2, fault_plan=plan
        ).fit(X, y)
        counters = root_context().solver_counters_dict()
        assert counters["transient_retries"] == 1
        assert counters["devices_lost"] == 0
        np.testing.assert_allclose(clf.model_.alpha, baseline.model_.alpha)

    def test_fault_plan_requires_a_device_backend(self):
        plan = FaultPlan(seed=0, transient_rate=0.01)
        with pytest.raises(InvalidParameterError, match="device backend"):
            LSSVC(kernel="linear", fault_plan=plan)
        with pytest.raises(InvalidParameterError, match="device backend"):
            LSSVC(kernel="linear", backend="openmp", fault_plan=plan)
        with pytest.raises(BackendUnavailableError):
            create_backend("openmp", fault_plan=plan)

    def test_resilience_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            LSSVC(checkpoint_interval=0)
        with pytest.raises(InvalidParameterError):
            LSSVC(max_retries=-1)


class TestMultiNodeFailover:
    def _qmatrix(self, num_nodes=2, gpus_per_node=2):
        X, y = make_planes(96, 8, rng=2)
        backend = MultiNodeCSVM(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
        return backend.create_qmatrix(X, y, Parameter(kernel="linear"))

    def test_intra_node_redistribution_preserves_the_operator(self):
        qmat = self._qmatrix()
        v = np.random.default_rng(3).standard_normal(qmat.shape[0])
        reference = qmat.matvec(v)
        lost = qmat.cost.nodes[0][0]
        assert qmat.cost.handle_device_loss(lost) == 1
        assert len(qmat.cost.nodes[0]) == 1
        assert len(qmat.cost.nodes[1]) == 2  # the sibling node is untouched
        np.testing.assert_allclose(qmat.matvec(v), reference, rtol=1e-12)

    def test_redistribution_reports_the_node_survivors(self):
        X, y = make_planes(256, 16, rng=0)
        # GPU 1 of node 0 dies on its 10th launch, mid-solve.
        backend = MultiNodeCSVM(
            num_nodes=2, gpus_per_node=2, fault_plan=parse_fault_plan("lost@1:launch:9")
        )
        clf = LSSVC(kernel="linear", backend=backend, checkpoint_interval=5).fit(X, y)
        events = [e for e in clf.report_.events if e["kind"] == "redistribution"]
        assert [e["survivors"] for e in events] == [1]
        assert [len(node) for node in backend.last_run().nodes] == [1, 2]

    def test_node_losing_last_gpu_is_unrecoverable(self):
        qmat = self._qmatrix(gpus_per_node=1)
        with pytest.raises(DeviceLostError) as excinfo:
            qmat.cost.handle_device_loss(qmat.cost.nodes[0][0])
        assert excinfo.value.device is None

    def test_foreign_device_rejected(self):
        qmat = self._qmatrix()
        with pytest.raises(DeviceError, match="does not belong"):
            qmat.cost.handle_device_loss(_device(99))

    def test_reporting_guards_against_empty_nodes(self):
        qmat = self._qmatrix()
        qmat.cost.device_time()  # healthy cluster reports fine
        qmat.cost.memory_per_gpu_gib()
        qmat.cost.nodes[0] = []
        with pytest.raises(DataError, match="device time"):
            qmat.cost.device_time()
        with pytest.raises(DataError, match="memory"):
            qmat.cost.memory_per_gpu_gib()
