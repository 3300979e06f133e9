"""Tests for the CG preconditioners (Jacobi + randomized Nyström)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cg import conjugate_gradient, conjugate_gradient_block
from repro.core.precond import (
    JacobiPrecond,
    NystromPrecond,
    Preconditioner,
    default_nystrom_rank,
    make_preconditioner,
    rpcholesky,
)
from repro.core.qmatrix import ExplicitQMatrix, ImplicitQMatrix, build_reduced_system
from repro.exceptions import InvalidParameterError
from repro.parameter import Parameter
from repro.telemetry import reset_root_context, root_context


def make_system(m=300, d=5, *, cost=1000.0, gamma=None, seed=0, dense=False,
                compute_dtype=None):
    """Ill-conditioned RBF reduced system (large C, smooth kernel).

    ``dense=True`` assembles the explicit Q_tilde instead of the matrix-free
    operator a fit builds.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    y = np.where(X[:, 0] + 0.25 * X[:, 1] ** 2 > 0.1, 1.0, -1.0)
    param = Parameter(kernel="rbf", cost=cost, gamma=gamma)
    if dense:
        qmat = ExplicitQMatrix(X, y, param)
        return qmat, qmat.rhs()
    return build_reduced_system(X, y, param, compute_dtype=compute_dtype)


class TestQMatrixDiagonal:
    @pytest.mark.parametrize("kernel", ["linear", "rbf", "polynomial"])
    @pytest.mark.parametrize("implicit", [True, False])
    def test_matches_dense_diagonal(self, kernel, implicit):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        param = Parameter(kernel=kernel, cost=5.0)
        qmat = (ImplicitQMatrix if implicit else ExplicitQMatrix)(X, y, param)
        assert np.allclose(qmat.diagonal(), np.diagonal(qmat.to_dense()))


class TestJacobiPrecond:
    def test_apply_is_elementwise_inverse(self):
        d = np.array([1.0, 4.0, 0.25])
        p = JacobiPrecond(d)
        r = np.array([2.0, 8.0, 1.0])
        assert np.allclose(p.apply(r), r / d)

    def test_split_factor_identity(self):
        rng = np.random.default_rng(4)
        d = 10.0 ** rng.uniform(-2, 2, size=20)
        p = JacobiPrecond(d)
        V = rng.normal(size=(20, 3))
        # E E^T = M^{-1} and E^{-1} E = I.
        assert np.allclose(p.sqrt_apply(p.sqrt_apply_t(V)), V / d[:, None])
        assert np.allclose(p.sqrt_unapply(p.sqrt_apply(V)), V)
        assert np.allclose(p.sqrt_unapply_t(p.sqrt_apply_t(V)), V)

    @pytest.mark.parametrize("bad", [np.zeros(3), -np.ones(3), np.array([1.0, np.nan, 1.0]), np.array([])])
    def test_rejects_invalid_diagonal(self, bad):
        with pytest.raises(InvalidParameterError):
            JacobiPrecond(bad)

    def test_from_qmatrix_uses_operator_diagonal(self):
        qmat, _ = make_system(m=60, dense=True)
        p = JacobiPrecond.from_qmatrix(qmat)
        assert np.allclose(p.diag, np.diagonal(qmat.to_dense()))

    def test_satisfies_protocol(self):
        assert isinstance(JacobiPrecond(np.ones(3)), Preconditioner)


class TestRPCholesky:
    def test_exact_recovery_of_low_rank_kernel(self):
        # A linear kernel over rank-deficient points is exactly low-rank:
        # RPCholesky must reproduce it to rounding error.
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(50, 3))
        F, pivots = rpcholesky(pts, "linear", rank=10, rng=0)
        assert F.shape[1] <= 3 + 1  # numerical rank of X X^T
        assert np.allclose(F @ F.T, pts @ pts.T, atol=1e-8)
        assert len(set(pivots)) == len(pivots)

    def test_residual_decreases_with_rank(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(80, 6))
        K = np.exp(-0.5 * np.sum((pts[:, None] - pts[None]) ** 2, axis=-1))
        errs = []
        for rank in (2, 8, 32):
            F, _ = rpcholesky(pts, "rbf", rank=rank, gamma=0.5, rng=1)
            errs.append(np.linalg.norm(K - F @ F.T))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_bad_rank(self):
        pts = np.ones((4, 2))
        with pytest.raises(InvalidParameterError):
            rpcholesky(pts, "rbf", rank=0)


class TestNystromPrecond:
    def dense_M(self, p, F, d):
        return F @ F.T + np.diag(d)

    @given(seed=st.integers(0, 5000), m=st.integers(5, 40), r=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_spd_and_woodbury_for_any_factor(self, seed, m, r):
        # M = F F^T + diag(d) must be SPD and apply() its exact inverse for
        # ANY factor — including empty and rank-deficient ones.
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(m, r)) if r else np.zeros((m, 0))
        d = 10.0 ** rng.uniform(-3, 3, size=m)
        p = NystromPrecond(F, d)
        M = self.dense_M(p, F, d)
        assert np.all(np.linalg.eigvalsh(M) > 0)
        R = rng.normal(size=(m, 2))
        assert np.allclose(p.apply(R), np.linalg.solve(M, R), atol=1e-8)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_split_factor_identities(self, seed):
        rng = np.random.default_rng(seed)
        m, r = 25, 6
        F = rng.normal(size=(m, r))
        d = 10.0 ** rng.uniform(-2, 2, size=m)
        p = NystromPrecond(F, d)
        V = rng.normal(size=(m, 3))
        # E E^T = M^{-1}; E^{-1}/E^{-T} invert E/E^T.
        assert np.allclose(p.sqrt_apply(p.sqrt_apply_t(V)), p.apply(V), atol=1e-9)
        assert np.allclose(p.sqrt_unapply(p.sqrt_apply(V)), V, atol=1e-9)
        assert np.allclose(p.sqrt_unapply_t(p.sqrt_apply_t(V)), V, atol=1e-9)

    def test_from_qmatrix_preconditions_the_full_operator(self):
        # The factor must track Q_tilde (including the rank-one q terms),
        # not K_bar alone: the preconditioned spectrum stays tight.
        qmat, _ = make_system(m=200, dense=True, cost=1e3)
        p = NystromPrecond.from_qmatrix(qmat, rank=60, rng=0)
        A = qmat.to_dense()
        # Assemble dense M^{-1} from the split factor: M^{-1} = E E^T.
        E = p.sqrt_apply(np.eye(A.shape[0]))
        Minv = E @ E.T
        eigs = np.linalg.eigvalsh(0.5 * (Minv @ A + (Minv @ A).T))
        cond_pre = eigs.max() / eigs.min()
        cond_plain = np.linalg.cond(A)
        assert cond_pre < 0.1 * cond_plain

    def test_rejects_mismatched_factor(self):
        with pytest.raises(InvalidParameterError):
            NystromPrecond(np.ones((4, 2)), np.ones(5))

    def test_rejects_nonfinite_factor(self):
        F = np.ones((3, 2))
        F[1, 1] = np.inf
        with pytest.raises(InvalidParameterError):
            NystromPrecond(F, np.ones(3))

    def test_default_rank_heuristic(self):
        # The floor of 16 may exceed tiny n; consumers clamp to min(r, n).
        assert default_nystrom_rank(10) == 16
        assert default_nystrom_rank(10_000) == 200
        assert default_nystrom_rank(1_000_000) == 512
        with pytest.raises(InvalidParameterError):
            default_nystrom_rank(0)


class TestPreconditionedSolves:
    @given(seed=st.integers(0, 2000), kind=st.sampled_from(["jacobi", "nystrom"]))
    @settings(max_examples=10, deadline=None)
    def test_preconditioned_solution_matches_plain(self, seed, kind):
        qmat, rhs = make_system(m=150, seed=seed, cost=100.0)
        plain = conjugate_gradient(qmat, rhs, epsilon=1e-10,
                                   warn_on_no_convergence=False)
        pre = conjugate_gradient(
            qmat, rhs, epsilon=1e-10,
            preconditioner=make_preconditioner(qmat, kind, rng=seed),
            warn_on_no_convergence=False,
        )
        assert np.allclose(pre.x, plain.x, atol=1e-6)

    def test_nystrom_never_increases_iterations_on_ill_conditioned_rbf(self):
        for seed in range(3):
            qmat, rhs = make_system(m=400, seed=seed, cost=1e3, gamma=0.05)
            plain = conjugate_gradient(qmat, rhs, epsilon=1e-6,
                                       warn_on_no_convergence=False)
            pre = conjugate_gradient(
                qmat, rhs, epsilon=1e-6,
                preconditioner=make_preconditioner(qmat, "nystrom", rng=seed),
                warn_on_no_convergence=False,
            )
            assert pre.converged
            assert pre.iterations <= plain.iterations

    @given(seed=st.integers(0, 2000), kind=st.sampled_from([None, "jacobi", "nystrom"]))
    @settings(max_examples=10, deadline=None)
    def test_block_solve_matches_single_solves(self, seed, kind):
        qmat, rhs = make_system(m=120, seed=seed, cost=50.0)
        rng = np.random.default_rng(seed)
        B = np.column_stack([rhs, rng.normal(size=rhs.shape[0])])
        precond = make_preconditioner(qmat, kind, rng=seed)
        block = conjugate_gradient_block(
            qmat, B, epsilon=1e-10, preconditioner=precond,
            warn_on_no_convergence=False,
        )
        for j in range(B.shape[1]):
            single = conjugate_gradient(qmat, B[:, j], epsilon=1e-10,
                                        preconditioner=precond,
                                        warn_on_no_convergence=False)
            assert np.allclose(block.X[:, j], single.x, atol=1e-6)

    def test_validation_parity_between_single_and_block(self):
        # Non-positive legacy diag vectors raise the same error type with
        # the same phrasing on both CG entry points (shared JacobiPrecond).
        A = np.eye(3)
        bad = np.array([1.0, -1.0, 1.0])
        with pytest.raises(InvalidParameterError, match="strictly positive"):
            conjugate_gradient(A, np.ones(3), preconditioner=bad)
        with pytest.raises(InvalidParameterError, match="strictly positive"):
            conjugate_gradient_block(A, np.ones((3, 2)), preconditioner=bad)

    def test_block_rejects_wrong_preconditioner_length(self):
        with pytest.raises(InvalidParameterError):
            conjugate_gradient_block(np.eye(3), np.ones((3, 2)),
                                     preconditioner=np.ones(4))


class TestMixedPrecision:
    def test_float32_tiles_match_float64_solution(self):
        qmat64, rhs = make_system(m=250, cost=100.0, compute_dtype=None)
        qmat32, _ = make_system(m=250, cost=100.0, compute_dtype="float32")
        assert qmat32.pipeline.compute_dtype == np.float32
        # float32 tiles floor the achievable residual around ~1e-5; the
        # paper's default tolerance (1e-3) and tighter both stay reachable.
        res64 = conjugate_gradient(qmat64, rhs, epsilon=1e-4)
        res32 = conjugate_gradient(qmat32, rhs, epsilon=1e-4)
        # Both converge to the termination tolerance of the *same* system.
        assert res64.converged and res32.converged
        denom = np.linalg.norm(res64.x)
        assert np.linalg.norm(res32.x - res64.x) / denom < 1e-2
        # The CG recursion itself stays float64.
        assert res32.x.dtype == np.float64

    def test_float32_tiles_halve_cache_bytes(self):
        qmat64, rhs = make_system(m=250, cost=100.0, compute_dtype=None)
        qmat32, _ = make_system(m=250, cost=100.0, compute_dtype="float32")
        conjugate_gradient(qmat64, rhs, epsilon=1e-4)
        conjugate_gradient(qmat32, rhs, epsilon=1e-4)
        b64 = qmat64.pipeline.stats()["cache_bytes"]
        b32 = qmat32.pipeline.stats()["cache_bytes"]
        assert b64 == 2 * b32

    def test_rejects_non_float_compute_dtype(self):
        qmat, _ = make_system(m=50, compute_dtype="int32")
        with pytest.raises(InvalidParameterError):
            qmat.pipeline  # noqa: B018 - the pipeline is built lazily


class TestMakePreconditioner:
    def test_resolution_table(self):
        qmat, _ = make_system(m=60, dense=True)
        assert make_preconditioner(qmat, None) is None
        assert make_preconditioner(qmat, "none") is None
        assert isinstance(make_preconditioner(qmat, "jacobi"), JacobiPrecond)
        assert isinstance(make_preconditioner(qmat, "nystrom", rank=8), NystromPrecond)
        ready = JacobiPrecond(np.ones(qmat.shape[0]))
        assert make_preconditioner(qmat, ready) is ready
        with pytest.raises(InvalidParameterError):
            make_preconditioner(qmat, "ilu")
        with pytest.raises(InvalidParameterError):
            make_preconditioner(qmat, 3.5)

    def test_counters_record_setup_and_rank(self):
        qmat, _ = make_system(m=80, dense=True)
        reset_root_context()
        make_preconditioner(qmat, "nystrom", rank=12, rng=0)
        counters = root_context().solver_counters_dict()
        assert counters["precond_setups"] == 1
        assert counters["precond_setup_seconds"] > 0
        assert 0 < counters["precond_rank"] <= 12
        reset_root_context()

    def test_cg_solve_counters(self):
        qmat, rhs = make_system(m=80, dense=True)
        reset_root_context()
        res = conjugate_gradient(qmat, rhs, epsilon=1e-6)
        counters = root_context().solver_counters_dict()
        assert counters["cg_solves"] == 1
        assert counters["cg_iterations"] == res.iterations
        reset_root_context()


class TestEstimatorIntegration:
    def test_lssvc_precondition_matches_plain_fit(self):
        from repro import LSSVC

        rng = np.random.default_rng(9)
        X = rng.normal(size=(150, 4))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        plain = LSSVC(kernel="rbf", C=100.0).fit(X, y)
        nys = LSSVC(kernel="rbf", C=100.0, precondition="nystrom").fit(X, y)
        assert nys.iterations_ <= plain.iterations_
        # Both alphas sit within the CG tolerance of the same solution.
        rel = np.linalg.norm(nys.model_.alpha - plain.model_.alpha) / np.linalg.norm(
            plain.model_.alpha
        )
        assert rel < 1e-2
        assert nys.score(X, y) == plain.score(X, y)

    def test_multiclass_shared_solve_with_preconditioner(self):
        from repro.core.multiclass import OneVsAllLSSVC

        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 3, size=200).astype(float)
        plain = OneVsAllLSSVC(kernel="rbf", C=10.0).fit(X, y)
        pre = OneVsAllLSSVC(kernel="rbf", C=10.0, precondition="nystrom").fit(X, y)
        assert np.array_equal(plain.predict(X), pre.predict(X))
