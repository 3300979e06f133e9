"""Multi-node multi-GPU backend (paper §V: the long-term goal).

The paper's conclusion targets "multi-node multi-GPU systems ... to be able
to use even larger data sets". This backend distributes the data points
(rows) across the nodes — unlike the *feature*-wise split inside a node, a
row split shrinks every node's memory footprint with the data set size,
which is the point of going multi-node — and within each node splits its
rows feature-wise across the GPUs (§III-C5).

The arithmetic is the plain host
:class:`repro.core.qmatrix.ImplicitQMatrix`, so the fit equals the default
NumPy fit bit for bit, at any node count. Node ``k`` owns the ``k``-th of
:func:`repro.backends.modeled.node_row_blocks`, Tyree et al.'s sample
sharding, and that ownership only decides what is priced: the linear
kernel's Gram factorization ``K_bar @ v = X_bar @ (X_bar.T @ v)`` charges
one ``d``-length allreduce of the per-node ``X_k^T v_k`` partials per
matvec, the non-linear kernels charge every foreign row tile's broadcast
and one ``n``-length allreduce of the overlapping partials. The modeled
cost — GPU launches and PCIe copies per node from the simulated devices,
inter-node time from :class:`repro.parallel.mpi_sim.SimCommunicator` — is
the cluster scheme of :class:`repro.backends.modeled.ModeledDevices`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..core.qmatrix import ImplicitQMatrix
from ..exceptions import DeviceError
from ..parallel.mpi_sim import NetworkSpec
from ..parameter import Parameter
from ..simgpu.catalog import get_device_spec
from ..simgpu.device import SimulatedDevice
from ..simgpu.spec import DeviceSpec
from ..types import BackendType
from .base import CSVM
from .modeled import ModeledBackend, node_row_blocks

__all__ = ["MultiNodeCSVM"]


class MultiNodeCSVM(ModeledBackend, CSVM):
    """Backend driving a simulated cluster of identical GPU nodes.

    Parameters
    ----------
    num_nodes:
        Cluster size (ranks).
    gpus_per_node:
        Devices per node (the paper's node has four A100s).
    device:
        Catalog key / spec of the per-node GPU model.
    network:
        Inter-node fabric parameters.
    fault_plan:
        Optional :class:`repro.simgpu.FaultPlan` attached to every GPU in
        the cluster (fault-injection experiments).
    """

    backend_type = BackendType.AUTOMATIC

    def __init__(
        self,
        num_nodes: int = 2,
        *,
        gpus_per_node: int = 4,
        device: Union[str, DeviceSpec] = "nvidia_a100",
        network: NetworkSpec = NetworkSpec(),
        fault_plan=None,
    ) -> None:
        if num_nodes < 1 or gpus_per_node < 1:
            raise DeviceError("need at least one node with one GPU")
        self.spec = device if isinstance(device, DeviceSpec) else get_device_spec(device)
        if not self.spec.supports("cuda"):
            raise DeviceError("multi-node backend drives CUDA-capable devices")
        self.num_nodes = int(num_nodes)
        self.gpus_per_node = int(gpus_per_node)
        self.network = network
        self.fault_plan = fault_plan

    def create_qmatrix(
        self, X: np.ndarray, y: np.ndarray, param: Parameter
    ) -> ImplicitQMatrix:
        qmat = ImplicitQMatrix(X, y, param)
        row_blocks = node_row_blocks(qmat.shape[0], self.num_nodes)
        nodes = [
            [
                SimulatedDevice(self.spec, "cuda", device_id=node_id * 100 + gpu_id)
                for gpu_id in range(self.gpus_per_node)
            ]
            for node_id in range(len(row_blocks))
        ]
        for node in nodes:
            for dev in node:
                dev.attach_fault_plan(self.fault_plan)
        return self._attach(qmat, nodes, row_blocks=row_blocks, network=self.network)

    def describe(self) -> str:
        return (
            f"multi-node backend: {self.num_nodes} node(s) x "
            f"{self.gpus_per_node} GPU(s) over {self.network.name} (simulated)"
        )
