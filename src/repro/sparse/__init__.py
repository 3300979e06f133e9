"""Sparse data structures for the CG solver (paper §V future work).

PLSSVM v1.0.1 densifies sparse inputs ("in the case of very sparse data
sets ... it is therefore better to use ThunderSVM", §V) and names sparse
CG support as a canonical next step. This package delivers it for the
linear kernel: :mod:`repro.sparse.csr` is a self-contained CSR matrix with
the two products the implicit matvec needs (``A @ v`` and ``A.T @ v``).
Handed to :class:`repro.core.qmatrix.ImplicitQMatrix`, it makes the
kernel matvec run entirely on the CSR structure: per CG iteration it
costs O(nnz) instead of O(m d).

Enable it through ``LSSVC(sparse=True)`` (linear kernel only).
"""

from .csr import CSRMatrix

__all__ = ["CSRMatrix"]
