"""Incremental LS-SVM training: appended chunks, warm-started CG.

Every from-scratch fit pays two bills: assembling the reduced system
(O(m² d) kernel evaluations) and iterating CG to convergence from the
zero vector. When training data *grows* rather than changes, both are
mostly wasted — the old kernel block is unchanged and the old solution
is an excellent initial guess (Glasmachers, *A Recipe for Fast
Large-scale SVM Training*: warm start + polish is the cheap path to a
refreshed model).

:class:`IncrementalEngine` keeps the bill proportional to the chunk:

* **Bounded recompute.** The engine maintains the *corrected* dense
  reduced system Q_tilde (Eq. 16) in place across updates, inside a
  geometrically grown capacity buffer. Appending ``k`` rows computes
  only the ``O(m k)`` new kernel entries (one cross block and one
  corner block); the old block is fixed up without touching the kernel
  at all, because moving the eliminated point from ``x_m`` to
  ``x_{m+k}`` shifts every old entry by the rank-two correction
  ``D += a 1^T + 1 a^T + c`` with ``a_i = q_bar_old_i - q_bar_new_i``
  and ``c = q_mm_new - q_mm_old`` — two in-place broadcast passes, no
  O(m²) rebuild, no second Gram copy. Past ``explicit_limit`` rows (or
  a memory budget too small for the buffer) the engine drops to the
  matrix-free operator, where the savings come from the warm start
  alone.
* **Warm-started CG.** The reduced system of Chu et al. eliminates the
  *last* training point, so appending rows moves the eliminated point:
  the previous full multiplier vector (length ``m``, including the
  recovered ``alpha_m = -sum(alpha_bar)``) maps verbatim onto the first
  ``m`` entries of the new ``(m + k - 1)``-dimensional unknown. The
  ``k - 1`` genuinely new entries are then initialized by one block
  Gauss–Seidel sweep — an exact ``(k-1) x (k-1)`` solve of the new
  coordinates given the old ones, ``O(m k + k³)`` — which removes the
  bulk of the initial residual (it is concentrated in the new rows).
  CG only polishes the coupling back into the old coordinates —
  typically a handful of iterations instead of a full solve.
* **Preconditioner reuse.** The randomized Nyström preconditioner's
  expensive part is the RPCholesky pivot *search*. When the appended
  chunk is small relative to the support set and the corrected-kernel
  diagonal has not shifted, the engine keeps the previous pivot set and
  calls :func:`~repro.core.precond.refresh_nystrom` — O(m r) pivot
  columns instead of a fresh randomized factorization.

The engine is estimator-agnostic: targets may be a vector (binary
classification, regression) or an ``(m, c)`` block (one-vs-all
multiclass, solved by warm-started *block* CG in one operator sweep per
iteration). The LS-SVM core's append path in :mod:`repro.core.lssvm`,
behind every estimator's ``partial_fit``, wraps it with the estimator's
label encoding, telemetry and model mutation.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

try:  # SciPy ships in the standard toolchain but stays a soft dependency:
    # without it the engine falls back to the maintained-dense path below.
    from scipy.linalg import cholesky as _sla_cholesky
    from scipy.linalg import get_blas_funcs as _get_blas_funcs
except ImportError:  # pragma: no cover - exercised only on minimal installs
    _sla_cholesky = None
    _get_blas_funcs = None


def _load_lda_trsm():
    """ctypes handles to the Fortran ``?trsm`` routines, keyed by dtype.

    The f2py-generated wrappers behind ``get_blas_funcs`` insist on
    Fortran-*contiguous* operands and silently copy the whole O(n²)
    factor otherwise, which forbids solving against the leading sub-block
    of a capacity buffer (its column stride is the buffer's, not the
    block's). The raw Fortran routines take an explicit leading
    dimension, so calling them through SciPy's ``cython_blas`` PyCapsule
    pointers keeps every solve zero-copy. LP64 (32-bit BLAS int) builds
    only — the capsule signature is checked, and a padded-view self-test
    below disables the path on any mismatch.
    """
    try:
        import ctypes

        from scipy.linalg import cython_blas
    except ImportError:  # pragma: no cover - minimal installs
        return {}
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype = ctypes.c_char_p
    get_name.argtypes = [ctypes.py_object]
    get_ptr = ctypes.pythonapi.PyCapsule_GetPointer
    get_ptr.restype = ctypes.c_void_p
    get_ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]
    c_int_p = ctypes.POINTER(ctypes.c_int)

    handles = {}
    for name, scalar, dtype in (
        ("dtrsm", ctypes.c_double, np.float64),
        ("strsm", ctypes.c_float, np.float32),
    ):
        capsule = cython_blas.__pyx_capi__.get(name)
        if capsule is None:
            continue
        signature = get_name(capsule)
        if signature is None or b"int" not in signature:
            continue
        proto = ctypes.CFUNCTYPE(
            None,
            ctypes.c_char_p,  # side
            ctypes.c_char_p,  # uplo
            ctypes.c_char_p,  # transa
            ctypes.c_char_p,  # diag
            c_int_p,  # m
            c_int_p,  # n
            ctypes.POINTER(scalar),  # alpha
            ctypes.POINTER(scalar),  # a
            c_int_p,  # lda
            ctypes.POINTER(scalar),  # b
            c_int_p,  # ldb
        )
        fn = proto(get_ptr(capsule, signature))

        def call(L, B, trans, *, _fn=fn, _scalar=scalar, _ctypes=ctypes):
            m, c = B.shape
            itemsize = L.dtype.itemsize
            # A size-1 trailing dimension may carry an arbitrary stride
            # under NumPy's relaxed-strides rules; BLAS wants ld >= m.
            lda = max(L.strides[1] // itemsize, m)
            ldb = max(B.strides[1] // itemsize, m)
            _fn(
                b"L",
                b"L",
                b"T" if trans else b"N",
                b"N",
                _ctypes.byref(_ctypes.c_int(m)),
                _ctypes.byref(_ctypes.c_int(c)),
                _ctypes.byref(_scalar(1.0)),
                L.ctypes.data_as(_ctypes.POINTER(_scalar)),
                _ctypes.byref(_ctypes.c_int(lda)),
                B.ctypes.data_as(_ctypes.POINTER(_scalar)),
                _ctypes.byref(_ctypes.c_int(ldb)),
            )
            return B

        handles[np.dtype(dtype)] = call

    # Self-test against a padded view (lda > n) before trusting the ABI.
    for dtype, call in list(handles.items()):
        try:
            buf = np.zeros((5, 5), dtype=dtype, order="F")
            n = 3
            buf[:n, :n] = np.tril(np.arange(1.0, 10.0).reshape(n, n)) + np.eye(n)
            L = buf[:n, :n]
            rhs = np.arange(1.0, 7.0).reshape(n, 2)
            B = np.asfortranarray(rhs.astype(dtype))
            call(L, B, 0)
            expect = np.linalg.solve(L.astype(np.float64), rhs)
            if not np.allclose(B.astype(np.float64), expect, atol=1e-4):
                raise AssertionError
        except Exception:  # pragma: no cover - foreign-ABI guard
            del handles[dtype]
    return handles


_LDA_TRSM = _load_lda_trsm()


def _trsm(L: np.ndarray, B: np.ndarray, *, trans: int) -> np.ndarray:
    """``L^{-1} B`` (``trans=0``) or ``L^{-T} B`` (``trans=1``), lower ``L``.

    ``L`` may be the leading sub-block view of a Fortran-ordered capacity
    buffer (column-contiguous with a larger leading dimension); ``B``
    must be a Fortran-contiguous scratch array — it is overwritten with
    the solution when the zero-copy path is available. The high-level
    SciPy wrappers spend more time on copies and validation than the
    O(n² c) solve itself, hence the direct dispatch.
    """
    impl = _LDA_TRSM.get(L.dtype)
    if (
        impl is not None
        and L.strides[0] == L.dtype.itemsize
        and B.flags.f_contiguous
        and B.dtype == L.dtype
    ):
        return impl(L, B, trans)
    if not L.flags.f_contiguous:  # pragma: no cover - fallback path
        L = np.asfortranarray(L)
    (trsm,) = _get_blas_funcs(("trsm",), (L, B))
    return trsm(1.0, L, B, side=0, lower=1, trans_a=trans)

from ..exceptions import DataError, InvalidParameterError
from ..membudget import active_memory_budget
from ..parameter import Parameter
from .cg import conjugate_gradient, conjugate_gradient_block
from .kernels import kernel_matrix, kernel_row, kernel_scalar
from .precond import make_preconditioner, refresh_nystrom
from .qmatrix import (
    EXPLICIT_LIMIT,
    ExplicitQMatrix,
    QMatrixBase,
    _validate_training_data,
    _warm_start_guess,
    build_reduced_system,
    recover_bias_and_alpha,
    reduced_rhs,
)

__all__ = ["CholeskyKernelOperator", "IncrementalEngine", "IncrementalResult"]

#: Reuse the previous Nyström pivot set only while the appended chunk is
#: at most this fraction of the accumulated rows (larger appends shift
#: the spectrum enough that a fresh randomized pivot search pays off).
DEFAULT_REUSE_FRACTION = 0.25

#: Accept the previous pivots only while the mean corrected-kernel
#: diagonal stays within this factor of the value it had when the
#: factorization was (re)built.
DIAG_SHIFT_BOUND = 2.0


class CholeskyKernelOperator(QMatrixBase):
    """Reduced-system operator backed by a maintained Cholesky factor.

    ``L`` is the lower Cholesky factor of ``A = K_bar + (1/C) I`` over the
    first ``m - 1`` training points — the *uncorrected* regularized kernel
    block, whose old entries never change when rows are appended (only the
    Eq. 16 corrections move, because the eliminated point moves). Q_tilde
    decomposes as the rank-two update

        Q_tilde = A + U S U^T,   U = [q_bar, 1],   S = [[0, -1], [-1, q_mm]]

    so the factor gives both the CG matvec (two triangular GEMVs plus O(n)
    rank-two terms, no dense corrected system ever formed) and — via the
    Woodbury identity — an *exact* direct solve. The incremental engine
    extends ``L`` by one triangular solve per appended chunk and uses
    :meth:`solve_direct` as the CG initial guess, which turns the
    warm-started solve into a residual check: zero iterations up to
    factorization roundoff.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        param: Parameter,
        q_bar: np.ndarray,
        k_mm: float,
        L: np.ndarray,
        *,
        binary_labels: bool = True,
    ) -> None:
        X, y = _validate_training_data(X, y, param.dtype, binary_labels=binary_labels)
        param = param.with_gamma_for(X.shape[1])
        self.X = X
        self.X_bar = X[:-1]
        self.x_m = X[-1]
        self._finish_init(
            y, param, np.asarray(q_bar, dtype=param.dtype), float(k_mm)
        )
        n = self.shape[0]
        L = np.asarray(L)
        if L.shape != (n, n):
            raise DataError(
                f"Cholesky factor of shape {L.shape} does not match "
                f"{n + 1} training points"
            )
        self._L = L

    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:
        # A v - ridge v = K_bar v; the base class re-adds the ridge inside
        # the rank-one correction terms.
        return self._L @ (self._L.T @ v) - self.inv_cost * v

    def _kernel_matvec_multi(self, V: np.ndarray) -> np.ndarray:
        return self._L @ (self._L.T @ V) - self.inv_cost * V

    def solve_direct(self, rhs: np.ndarray) -> np.ndarray:
        """Exact ``Q_tilde x = rhs`` via the factor and Woodbury.

        One batched Cholesky solve against ``[rhs, q_bar, 1]`` and a 2x2
        core system — O(n²) total, no iterations. Accepts a vector or an
        ``(n, c)`` block of right-hand sides.
        """
        if _get_blas_funcs is None:  # pragma: no cover - guarded by the engine
            raise InvalidParameterError("solve_direct requires SciPy")
        rhs = np.asarray(rhs, dtype=self._L.dtype)
        vector = rhs.ndim == 1
        R = rhs[:, None] if vector else rhs
        n, c = R.shape
        stacked = np.empty((n, c + 2), dtype=self._L.dtype, order="F")
        stacked[:, :c] = R
        stacked[:, c] = self.q_bar
        stacked[:, c + 1] = 1.0
        Z = _trsm(self._L, _trsm(self._L, stacked, trans=0), trans=1)
        Z_rhs, Z_u = Z[:, :c], Z[:, c:]
        u_t_z_u = np.vstack([self.q_bar @ Z_u, Z_u.sum(axis=0)])
        u_t_z_rhs = np.vstack([self.q_bar @ Z_rhs, Z_rhs.sum(axis=0)])
        s_inv = np.array(
            [[-self.q_mm, -1.0], [-1.0, 0.0]], dtype=np.float64
        )
        core = s_inv + u_t_z_u.astype(np.float64)
        x = Z_rhs - Z_u @ np.linalg.solve(core, u_t_z_rhs.astype(np.float64)).astype(
            self._L.dtype
        )
        x = x.astype(self.dtype, copy=False)
        return x[:, 0] if vector else x


@dataclasses.dataclass
class IncrementalResult:
    """Outcome of one :meth:`IncrementalEngine.update`.

    ``alpha`` is the *full* multiplier vector (length ``m``, eliminated
    point recovered), shaped ``(m,)`` for vector targets or ``(m, c)``
    for block targets; ``bias`` correspondingly a float or ``(c,)``.
    ``warm_start_iterations`` is the CG iteration count when the solve
    started from the previous solution, ``0`` for a cold solve.
    """

    alpha: np.ndarray
    bias: Union[float, np.ndarray]
    result: object
    qmat: object
    new_rows: int
    warm_start: bool
    warm_start_iterations: int
    precond_reused: bool


class IncrementalEngine:
    """Accumulates training chunks and re-solves warm from the last alpha.

    Parameters
    ----------
    param:
        Kernel/C/epsilon hyper-parameters (gamma is resolved against the
        first chunk's feature count).
    precondition / precond_rank / precond_rng:
        CG preconditioning, as on :class:`~repro.core.lssvm.LSSVC`.
        ``"nystrom"`` activates pivot reuse across updates.
    binary_labels:
        ``False`` for regression targets (skips the +/-1 label check).
    explicit_limit:
        Maintain the corrected dense system (bounded recompute) up to
        this many rows; beyond it updates rebuild the matrix-free
        operator and rely on the warm start alone.
    reuse_fraction:
        Chunk-size gate for Nyström pivot reuse (see
        :data:`DEFAULT_REUSE_FRACTION`).
    """

    def __init__(
        self,
        param: Parameter,
        *,
        precondition=None,
        precond_rank: Optional[int] = None,
        precond_rng=0,
        binary_labels: bool = True,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        compute_dtype=None,
        explicit_limit: int = EXPLICIT_LIMIT,
        reuse_fraction: float = DEFAULT_REUSE_FRACTION,
    ) -> None:
        self.param = param
        self.precondition = precondition
        self.precond_rank = precond_rank
        self.precond_rng = precond_rng
        self.binary_labels = binary_labels
        self.solver_threads = solver_threads
        self.tile_cache_mb = tile_cache_mb
        self.compute_dtype = compute_dtype
        self.explicit_limit = int(explicit_limit)
        self.reuse_fraction = float(reuse_fraction)
        self.X: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        # Explicit-path state. _q_bar/_k_mm are the raw kernel values
        # against the current eliminated point, needed to roll the Eq. 16
        # corrections forward on the next append. The preferred
        # representation is the Cholesky factor of A = K_bar + (1/C) I
        # (exact-size Fortran-ordered so BLAS solves run zero-copy): old
        # entries of A never change, so appends extend the factor with one
        # triangular solve and the solve becomes direct (see
        # CholeskyKernelOperator). Without SciPy — or after a
        # factorization failure — the engine instead maintains the
        # corrected dense Q_tilde in _dense_buf via in-place rank-two
        # fix-ups.
        self._chol_buf: Optional[np.ndarray] = None
        self._chol_n: int = 0
        self._chol_ok: bool = _get_blas_funcs is not None
        self._dense_buf: Optional[np.ndarray] = None
        self._dense_n: int = 0
        self._q_bar: Optional[np.ndarray] = None
        self._k_mm: float = 0.0
        self._alpha: Optional[np.ndarray] = None
        self._precond = None
        self._diag_mean: Optional[float] = None
        self.updates = 0

    # -- state ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return 0 if self.X is None else int(self.X.shape[0])

    def seed(self, X: np.ndarray, y: np.ndarray, alpha: Optional[np.ndarray] = None) -> None:
        """Adopt an existing fit's data and solution without solving.

        Lets ``partial_fit`` continue from a model produced by a plain
        ``fit()``: the accumulated rows, targets, and full multiplier
        vector are taken over; the dense reduced system is rebuilt
        lazily on the first :meth:`update` (one O(m²) bootstrap, after
        which appends are O(m k) again).
        """
        if self.num_rows:
            raise InvalidParameterError("seed() requires an empty engine")
        X = np.ascontiguousarray(np.asarray(X, dtype=self.param.dtype))
        if X.ndim != 2:
            raise DataError("seed data must be 2-D")
        self.param = self.param.with_gamma_for(X.shape[1])
        y = np.asarray(y, dtype=self.param.dtype)
        if y.shape[0] != X.shape[0]:
            raise DataError("seed targets do not match the data rows")
        self.X = X
        self.y = y
        if alpha is not None:
            alpha = np.asarray(alpha, dtype=self.param.dtype)
            if alpha.shape[0] != X.shape[0]:
                raise DataError("seed alpha does not match the data rows")
            self._alpha = alpha

    # -- kernel maintenance --------------------------------------------------

    def _use_explicit(self, m: int) -> bool:
        if m > self.explicit_limit:
            return False
        budget = active_memory_budget()
        if budget is not None:
            gram_bytes = m * m * np.dtype(self.param.dtype).itemsize
            # The capacity buffer carries geometric headroom (up to
            # ~1.5x rows, so ~2.25x entries).
            if 2 * gram_bytes > budget:
                return False
        return True

    def _drop_dense(self) -> None:
        self._dense_buf = None
        self._dense_n = 0
        self._chol_buf = None
        self._chol_n = 0
        self._q_bar = None
        self._k_mm = 0.0

    def _grow_buffer(
        self, buf: Optional[np.ndarray], valid: int, n: int, *, zero: bool
    ) -> np.ndarray:
        """Geometrically grown ``(cap, cap)`` buffer holding ``valid`` rows.

        Growing copies the current valid block once; amortized over
        appends each entry is copied O(1) times. The first allocation
        already carries headroom so the very next append does not regrow.
        """
        if buf is not None and buf.shape[0] >= n:
            return buf
        cap = max(n, int((n if buf is None else buf.shape[0]) * 1.5) + 1)
        alloc = np.zeros if zero else np.empty
        grown = alloc((cap, cap), dtype=self.param.dtype)
        if buf is not None and valid:
            grown[:valid, :valid] = buf[:valid, :valid]
        return grown

    def _ensure_capacity(self, n: int) -> np.ndarray:
        self._dense_buf = self._grow_buffer(
            self._dense_buf, self._dense_n, n, zero=False
        )
        return self._dense_buf[:n, :n]

    def _chunk_blocks(self, X_new: np.ndarray, m_old: int):
        """The O(m k) new kernel entries: cross and corner blocks."""
        kw = self.param.kernel_kwargs()
        kernel = self.param.kernel
        dtype = self.param.dtype
        cross = kernel_matrix(X_new, self.X[:m_old], kernel, **kw).astype(
            dtype, copy=False
        )
        corner = kernel_matrix(X_new, X_new, kernel, **kw).astype(dtype, copy=False)
        return cross, corner

    def _new_q_bar(self, cross: np.ndarray, corner: np.ndarray):
        """Raw kernel values against the new eliminated point (last row)."""
        k, m_old = cross.shape
        n_new = m_old + k - 1
        q_bar_new = np.empty(n_new, dtype=self.param.dtype)
        q_bar_new[:m_old] = cross[k - 1, :]
        if k > 1:
            q_bar_new[m_old:] = corner[k - 1, : k - 1]
        return q_bar_new, float(corner[k - 1, k - 1])

    def _raw_new_rows(self, cross: np.ndarray, corner: np.ndarray) -> np.ndarray:
        """Raw kernel rows of the new *reduced* rows against all of them.

        The new reduced rows are the old eliminated point (global index
        ``m_old - 1`` — its raw kernel column is exactly the retired
        ``q_bar``/``k_mm``) followed by the appended rows except the last.
        Must be called before ``_q_bar``/``_k_mm`` are rolled forward.
        """
        k, m_old = cross.shape
        n_old = m_old - 1
        n_new = m_old + k - 1
        raw = np.empty((k, n_new), dtype=self.param.dtype)
        raw[0, :n_old] = self._q_bar
        raw[0, n_old] = self._k_mm
        if k > 1:
            raw[0, n_old + 1 :] = cross[: k - 1, m_old - 1]
            raw[1:, :m_old] = cross[: k - 1, :]
            raw[1:, m_old:] = corner[: k - 1, : k - 1]
        return raw

    def _grow_dense(self, X_new: np.ndarray, old_rows: int) -> ExplicitQMatrix:
        """Extend the corrected dense system by the appended rows.

        Kernel work is O(m k) (cross + corner blocks); the old ``(n, n)``
        block never re-evaluates a kernel entry — the eliminated point
        moved from ``x_{m_old}`` to ``x_{m_new}``, which shifts every old
        entry of Eq. 16 by ``a_i + a_j + c`` for
        ``a = q_bar_old - q_bar_new[:n_old]`` and
        ``c = q_mm_new - q_mm_old``: two in-place broadcast passes. The
        old eliminated point re-enters as the first regular new row, its
        raw kernel column being exactly the retired ``q_bar_old``.
        """
        inv_cost = 1.0 / self.param.cost
        k = X_new.shape[0]
        m_old = old_rows
        n_old = m_old - 1
        n_new = m_old + k - 1
        cross, corner = self._chunk_blocks(X_new, m_old)
        rows = self._raw_new_rows(cross, corner)
        q_bar_new, k_mm_new = self._new_q_bar(cross, corner)
        c = k_mm_new - self._k_mm  # q_mm delta; the ridge term cancels

        D = self._ensure_capacity(n_new)
        old_block = D[:n_old, :n_old]
        a = self._q_bar - q_bar_new[:n_old]
        old_block += a[:, None]
        old_block += (a + c)[None, :]

        # New regular rows: apply the Eq. 16 corrections in place.
        rows -= q_bar_new[None, :]
        rows -= q_bar_new[n_old:, None]
        rows += k_mm_new + inv_cost  # q_mm_new
        idx = np.arange(k)
        rows[idx, n_old + idx] += inv_cost
        D[n_old:n_new, :] = rows
        D[:n_old, n_old:n_new] = rows[:, :n_old].T

        self._q_bar = q_bar_new
        self._k_mm = k_mm_new
        self._dense_n = n_new
        return ExplicitQMatrix.from_parts(
            self.X,
            self.y[:, 0] if self.y.ndim == 2 else self.y,
            self.param,
            q_bar_new,
            k_mm_new,
            D,
            binary_labels=self.binary_labels,
        )

    def _bootstrap_dense(self, y_col: np.ndarray) -> ExplicitQMatrix:
        """Full O(m²) build (first explicit update, or after a fallback)."""
        qmat = ExplicitQMatrix(
            self.X, y_col, self.param, binary_labels=self.binary_labels
        )
        n = qmat.shape[0]
        D = self._ensure_capacity(n)
        D[:] = qmat._dense
        qmat._dense = D  # future updates mutate the buffer in place
        self._q_bar = np.array(qmat.q_bar)
        self._k_mm = qmat.k_mm
        self._dense_n = n
        return qmat

    @staticmethod
    def _copy_lower(dst: np.ndarray, src: np.ndarray, n: int, step: int = 256) -> None:
        """Copy the lower triangle of ``src[:n, :n]`` in column blocks.

        Both triangles are zero above the diagonal, so only the lower
        trapezoid has to move — half the traffic of a square copy, which
        matters because factor copies are the dominant fixed cost of the
        (rare) capacity regrows.
        """
        for j0 in range(0, n, step):
            j1 = min(j0 + step, n)
            dst[j0:n, j0:j1] = src[j0:n, j0:j1]

    def _ensure_chol_capacity(self, n: int) -> np.ndarray:
        """Fortran-ordered capacity buffer holding the current factor.

        The factor of ``A`` only ever *extends* (old entries are final),
        so it lives in a geometrically grown ``(cap, cap)`` buffer and
        appends write just the new W / Schur blocks — no per-append
        O(n²) copy. Solves run against the leading ``(n, n)`` view with
        the buffer's leading dimension (see :func:`_trsm`).
        """
        buf = self._chol_buf
        if buf is not None and buf.shape[0] >= n:
            return buf
        cap = max(n, int((n if buf is None else buf.shape[0]) * 1.5) + 1)
        grown = np.zeros((cap, cap), dtype=self.param.dtype, order="F")
        if buf is not None and self._chol_n:
            self._copy_lower(grown, buf, self._chol_n)
        self._chol_buf = grown
        return grown

    def _make_chol_operator(self, y_col, L) -> CholeskyKernelOperator:
        return CholeskyKernelOperator(
            self.X,
            y_col,
            self.param,
            self._q_bar,
            self._k_mm,
            L,
            binary_labels=self.binary_labels,
        )

    def _bootstrap_cholesky(
        self, y_col: np.ndarray
    ) -> Optional[CholeskyKernelOperator]:
        """Full factorization of ``A = K_bar + (1/C) I`` — the one-time
        O(m² d) kernel build plus an O(m³) Cholesky. Returns ``None`` (and
        permanently falls back to the dense path) when the factorization
        fails, e.g. a numerically indefinite block in float32.
        """
        kw = self.param.kernel_kwargs()
        kernel = self.param.kernel
        dtype = self.param.dtype
        X_bar, x_m = self.X[:-1], self.X[-1]
        n = X_bar.shape[0]
        A = kernel_matrix(X_bar, X_bar, kernel, **kw).astype(dtype, copy=False)
        A[np.diag_indices(n)] += 1.0 / self.param.cost
        try:
            # A is symmetric, so its C-ordered buffer doubles as the
            # Fortran-ordered matrix: potrf runs in place, zero-copy.
            factor = _sla_cholesky(
                A.T, lower=True, overwrite_a=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            self._chol_ok = False
            self._chol_buf = None
            self._chol_n = 0
            return None
        buf = self._ensure_chol_capacity(n)
        if self._chol_n:
            # Reused buffer: clear every stale factor entry (the upper
            # triangle of the live view must read as zeros for matvecs).
            high_water = max(self._chol_n, n)
            buf[:high_water, :high_water] = 0.0
        self._copy_lower(buf, factor, n)
        self._chol_n = n
        self._q_bar = kernel_row(x_m, X_bar, kernel, **kw).astype(dtype, copy=False)
        self._k_mm = float(kernel_scalar(x_m, x_m, kernel, **kw))
        return self._make_chol_operator(y_col, buf[:n, :n])

    def _grow_cholesky(
        self, X_new: np.ndarray, old_rows: int, y_col: np.ndarray
    ) -> Optional[CholeskyKernelOperator]:
        """Extend the factor of ``A`` by the appended rows.

        ``A``'s old block is static (no eliminated-point corrections), so
        this is the textbook blocked extension: one triangular solve
        ``W = L11^{-1} A12`` (O(n² k)), a k x k Schur Cholesky, zero
        re-factorization of the old block. The factor extends *in place*
        inside the capacity buffer — the append writes only the new
        ``W^T`` strip and Schur corner. A numerically indefinite Schur
        block (accumulated roundoff after very many appends) triggers one
        full re-factorization instead of failing.
        """
        inv_cost = 1.0 / self.param.cost
        k = X_new.shape[0]
        m_old = old_rows
        n_old = m_old - 1
        n_new = m_old + k - 1
        cross, corner = self._chunk_blocks(X_new, m_old)
        raw = self._raw_new_rows(cross, corner)
        q_bar_new, k_mm_new = self._new_q_bar(cross, corner)

        buf = self._ensure_chol_capacity(n_new)
        a12 = np.asfortranarray(raw[:, :n_old].T)
        W = _trsm(buf[:n_old, :n_old], a12, trans=0)  # (n_old, k)
        schur = np.array(raw[:, n_old:], dtype=self.param.dtype)
        schur[np.diag_indices(k)] += inv_cost
        schur -= W.T @ W
        schur = 0.5 * (schur + schur.T)
        try:
            corner_factor = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            self._chol_n = 0  # force a clean re-factorization
            return self._bootstrap_cholesky(y_col)
        buf[n_old:n_new, :n_old] = W.T
        buf[n_old:n_new, n_old:n_new] = corner_factor

        self._chol_n = n_new
        self._q_bar = q_bar_new
        self._k_mm = k_mm_new
        return self._make_chol_operator(y_col, buf[:n_new, :n_new])

    # -- preconditioning -----------------------------------------------------

    def _preconditioner(self, qmat, old_rows: int, new_rows: int):
        """Resolve the preconditioner, reusing Nyström pivots when safe."""
        kind = self.precondition
        if kind is None:
            return None, False
        diag_mean = None
        if isinstance(kind, str) and kind.strip().lower() == "nystrom":
            diag_mean = float(
                np.mean(
                    np.asarray(qmat.diagonal(), dtype=np.float64)
                    - np.asarray(qmat.ridge_bar, dtype=np.float64)
                )
            )
            prev = self._precond
            reuse = (
                prev is not None
                and getattr(prev, "pivots", ())
                and old_rows > 0
                and new_rows <= self.reuse_fraction * old_rows
                and self._diag_mean is not None
                and self._diag_mean > 0
                and 1.0 / DIAG_SHIFT_BOUND
                <= diag_mean / self._diag_mean
                <= DIAG_SHIFT_BOUND
            )
            if reuse:
                precond = refresh_nystrom(qmat, prev.pivots)
                self._precond = precond
                self._diag_mean = diag_mean
                return precond, True
        precond = make_preconditioner(
            qmat, kind, rank=self.precond_rank, rng=self.precond_rng
        )
        self._precond = precond
        self._diag_mean = diag_mean
        return precond, False

    # -- the update ----------------------------------------------------------

    def _validate_chunk(self, X_new, y_new):
        """Check a chunk before it touches any state.

        A rejected chunk (NaN or infinite values, a wrong feature width or
        target shape) must leave the accumulated rows, the factor and the
        previous solution exactly as they were, so the next clean chunk
        continues the stream as if the bad one had never arrived.
        """
        X_new = np.ascontiguousarray(np.asarray(X_new, dtype=self.param.dtype))
        if X_new.ndim != 2:
            raise DataError(f"chunk must be 2-D, got ndim={X_new.ndim}")
        y_new = np.asarray(y_new, dtype=self.param.dtype)
        if y_new.shape[0] != X_new.shape[0]:
            raise DataError(
                f"chunk rows ({X_new.shape[0]}) and targets "
                f"({y_new.shape[0]}) differ"
            )
        if not np.all(np.isfinite(X_new)):
            raise DataError("training data contains NaN or infinite values")
        if not np.all(np.isfinite(y_new)):
            raise DataError("chunk targets contain NaN or infinite values")
        if self.binary_labels and not np.all(np.isin(y_new, (-1.0, 1.0))):
            raise DataError(f"labels must be -1/+1, got {np.unique(y_new)[:8]}")
        if not self.num_rows:
            # The first chunk must be a trainable system on its own; later
            # ones only need to fit the accumulated set.
            _validate_training_data(
                X_new,
                y_new[:, 0] if y_new.ndim == 2 else y_new,
                self.param.dtype,
                binary_labels=self.binary_labels,
            )
        else:
            if X_new.shape[1] != self.X.shape[1]:
                raise DataError(
                    f"chunk has {X_new.shape[1]} features, accumulated data "
                    f"has {self.X.shape[1]}"
                )
            if y_new.shape[1:] != self.y.shape[1:]:
                raise DataError("chunk targets do not match the accumulated shape")
            if X_new.shape[0] == 0:
                raise DataError("chunk is empty; nothing to append")
        return X_new, y_new


    def update(self, X_new: np.ndarray, y_new: np.ndarray) -> IncrementalResult:
        """Append ``(X_new, y_new)`` and re-solve warm from the last alpha.

        The first call on an empty (non-seeded) engine is the initial
        cold fit. ``y_new`` may be ``(k,)`` targets or an ``(k, c)``
        one-vs-all block; the block form routes through warm-started
        block CG.
        """
        X_new, y_new = self._validate_chunk(X_new, y_new)
        old_rows = self.num_rows
        if old_rows == 0:
            self.param = self.param.with_gamma_for(X_new.shape[1])
            self.X = X_new
            self.y = y_new
        else:
            self.X = np.ascontiguousarray(np.vstack([self.X, X_new]))
            self.y = np.concatenate([self.y, y_new], axis=0)
        m = self.num_rows
        block = self.y.ndim == 2
        y_col = self.y[:, 0] if block else self.y

        qmat = None
        if self._use_explicit(m):
            state_valid = (
                old_rows > 0
                and self._q_bar is not None
                and self._q_bar.shape[0] == old_rows - 1
            )
            if self._chol_ok:
                if state_valid and self._chol_n == old_rows - 1:
                    qmat = self._grow_cholesky(X_new, old_rows, y_col)
                else:
                    qmat = self._bootstrap_cholesky(y_col)
                # qmat is None when the factorization failed: fall through
                # to the maintained-dense path (state_valid no longer
                # holds for it unless its own buffer tracked, so rebuild).
            if qmat is None:
                if state_valid and self._dense_n == old_rows - 1:
                    qmat = self._grow_dense(X_new, old_rows)
                else:
                    qmat = self._bootstrap_dense(y_col)
        else:
            self._drop_dense()
            qmat, _ = build_reduced_system(
                self.X,
                y_col,
                self.param,
                implicit=True,
                solver_threads=self.solver_threads,
                tile_cache_mb=self.tile_cache_mb,
                compute_dtype=self.compute_dtype,
                binary_labels=self.binary_labels,
            )
        # self.X survives qmatrix validation unchanged (already contiguous
        # in the working dtype), so model support vectors alias it.
        self.X = qmat.X
        self.param = qmat.param

        rhs = reduced_rhs(self.y)
        prev_alpha = self._alpha
        if isinstance(qmat, CholeskyKernelOperator):
            # The maintained factor solves the new system outright; CG
            # degenerates to a residual check (0 iterations up to
            # factorization roundoff) that certifies the direct solve.
            x0 = qmat.solve_direct(rhs)
        else:
            # The previous full alpha (eliminated point recovered) maps
            # verbatim onto the leading entries of the new unknown.
            x0 = _warm_start_guess(prev_alpha, rhs.shape, qmat.dtype)
            p = 0 if x0 is None else prev_alpha.shape[0]
            if x0 is not None and p < rhs.shape[0] and isinstance(qmat, ExplicitQMatrix):
                # Block Gauss–Seidel init for the genuinely new
                # coordinates: solve them exactly given the old ones.
                # The initial residual is concentrated here (the old
                # coordinates already carry a near-solution), so this
                # O(n k + k³) step removes most of what CG would
                # otherwise spend its first dozens of iterations on.
                D = qmat._dense
                r_tail = rhs[p:] - D[p:, :p] @ x0[:p]
                try:
                    x0[p:] = np.linalg.solve(D[p:, p:], r_tail)
                except np.linalg.LinAlgError:  # pragma: no cover - SPD block
                    pass

        if isinstance(qmat, CholeskyKernelOperator):
            # Preconditioning is moot behind an exact initial guess, and
            # building one would dominate the refit. (nystrom/jacobi still
            # apply on the fallback and matrix-free paths.)
            precond, precond_reused = None, False
        else:
            precond, precond_reused = self._preconditioner(
                qmat, old_rows, m - old_rows
            )

        solve_kwargs = dict(
            epsilon=self.param.epsilon,
            max_iter=self.param.max_iter,
            preconditioner=precond,
        )
        if block:
            result = conjugate_gradient_block(qmat, rhs, X0=x0, **solve_kwargs)
        else:
            result = conjugate_gradient(qmat, rhs, x0=x0, **solve_kwargs)
        alpha, bias = recover_bias_and_alpha(
            qmat, result.X if block else result.x, self.y[-1]
        )

        self._alpha = alpha
        self.updates += 1
        # "Warm" means the solve continued from prior state — a previous
        # alpha or the maintained factorization. The very first update of
        # an empty engine is cold even when the direct init applies.
        warm = x0 is not None and old_rows > 0
        return IncrementalResult(
            alpha=alpha,
            bias=bias,
            result=result,
            qmat=qmat,
            new_rows=m - old_rows,
            warm_start=warm,
            warm_start_iterations=result.iterations if warm else 0,
            precond_reused=precond_reused,
        )
