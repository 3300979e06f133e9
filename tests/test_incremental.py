"""Tests for the streaming-training tier: ``partial_fit``, the incremental
engine, grouped config objects, and generation-tagged rollout.

The load-bearing acceptance checks live here:

* ``partial_fit`` over {1, 2, 7} shards lands on the same solution (within
  the CG tolerance) as a from-scratch ``fit`` on the concatenated data,
  for ``LSSVC``, ``LSSVR``, and ``OneVsAllLSSVC``;
* a zero-row chunk is a bit-exact no-op;
* the maintained-Cholesky fast path agrees with the dense fallback and
  certifies its direct solve at zero warm-started CG iterations;
* a ``partial_fit`` refit invalidates the model's cached prediction
  engine and bumps a holding registry's generation — serving observes
  the refreshed coefficients without an explicit reload;
* ``SolverConfig``/``ResourceConfig`` round-trip through
  ``get_params``/``set_params``/``clone`` and the flat spellings warn;
* PLSB append + ``ChunkedDataset.refresh`` + ``FollowTrainer`` +
  ``POST /models/<name>/reload`` compose into a no-stale-generation
  rollout loop.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

import repro.core.incremental as incremental
from repro.core.incremental import CholeskyKernelOperator, IncrementalEngine
from repro.core.lssvm import LSSVC
from repro.core.multiclass import OneVsAllLSSVC
from repro.core.qmatrix import ExplicitQMatrix, reduced_rhs
from repro.core.regression import LSSVR
from repro.core.estimator import clone
from repro.data.synthetic import make_multiclass, make_planes
from repro.exceptions import DataError, InvalidParameterError
from repro.io.binary_format import (
    append_binary_rows,
    read_binary_file,
    write_binary_file,
)
from repro.io.chunked import ChunkedDataset
from repro.parameter import Parameter, ResourceConfig, SolverConfig
from repro.serve import BatchPolicy, ModelRegistry, PLSSVMServer, ServingApp
from repro.telemetry.report import REPORT_SCHEMA_VERSION
from repro.train import FollowTrainer


def _shards(X, y, count):
    """Split rows into ``count`` contiguous shards (first one largest)."""
    edges = np.linspace(0, X.shape[0], count + 1).astype(int)
    return [(X[a:b], y[a:b]) for a, b in zip(edges[:-1], edges[1:])]


class TestPartialFitEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_lssvc_matches_batch_fit(self, shards):
        X, y = make_planes(160, 6, rng=3)
        batch = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8).fit(X, y)
        inc = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8)
        for Xc, yc in _shards(X, y, shards):
            inc.partial_fit(Xc, yc)
        np.testing.assert_allclose(inc.model_.alpha, batch.model_.alpha, atol=1e-5)
        np.testing.assert_allclose(inc.model_.bias, batch.model_.bias, atol=1e-5)
        np.testing.assert_array_equal(inc.predict(X), batch.predict(X))

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_lssvr_matches_batch_fit(self, shards):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 4))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=150)
        batch = LSSVR(kernel="rbf", C=5.0, gamma=0.5, epsilon=1e-8).fit(X, y)
        inc = LSSVR(kernel="rbf", C=5.0, gamma=0.5, epsilon=1e-8)
        for Xc, yc in _shards(X, y, shards):
            inc.partial_fit(Xc, yc)
        np.testing.assert_allclose(inc.alpha_, batch.alpha_, atol=1e-5)
        np.testing.assert_allclose(
            inc.predict(X[:20]), batch.predict(X[:20]), atol=1e-5
        )

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_one_vs_all_matches_batch_fit(self, shards):
        X, y = make_multiclass(180, 5, num_classes=3, rng=11)
        batch = OneVsAllLSSVC(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-8).fit(X, y)
        inc = OneVsAllLSSVC(kernel="rbf", C=10.0, gamma=0.3, epsilon=1e-8)
        for Xc, yc in _shards(X, y, shards):
            inc.partial_fit(Xc, yc)
        np.testing.assert_array_equal(inc.classes_, batch.classes_)
        np.testing.assert_allclose(
            inc.decision_matrix(X), batch.decision_matrix(X), atol=1e-4
        )
        np.testing.assert_array_equal(inc.predict(X), batch.predict(X))

    def test_partial_fit_after_plain_fit_continues(self):
        X, y = make_planes(140, 6, rng=9)
        batch = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8).fit(X, y)
        inc = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8)
        inc.fit(X[:100], y[:100])
        inc.partial_fit(X[100:], y[100:])
        np.testing.assert_allclose(inc.model_.alpha, batch.model_.alpha, atol=1e-5)

    def test_zero_row_chunk_is_bit_exact_noop(self):
        X, y = make_planes(96, 5, rng=2)
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X, y)
        model = clf.model_
        alpha = model.alpha.copy()
        bias = model.bias
        clf.partial_fit(X[:0], y[:0])
        assert clf.model_ is model
        assert np.array_equal(clf.model_.alpha, alpha)
        assert clf.model_.bias == bias

    def test_first_chunk_single_class_raises(self):
        X, y = make_planes(60, 4, rng=1)
        mask = y > 0
        with pytest.raises(DataError):
            LSSVC(kernel="rbf", C=1.0).partial_fit(X[mask], y[mask])

    def test_feature_mismatch_raises(self):
        X, y = make_planes(60, 4, rng=1)
        clf = LSSVC(kernel="linear", C=1.0).partial_fit(X, y)
        with pytest.raises(DataError):
            clf.partial_fit(np.zeros((3, 7)), np.array([1.0, -1.0, 1.0]))


class TestIncrementalEngine:
    def _stream(self, engine, X, y, chunks):
        res = None
        for Xc, yc in _shards(X, y, chunks):
            res = engine.update(Xc, yc)
        return res

    def test_cholesky_path_is_exact_at_zero_iterations(self):
        X, y = make_planes(130, 5, rng=4)
        param = Parameter(kernel="rbf", cost=10.0, gamma=0.25, epsilon=1e-8)
        engine = IncrementalEngine(param, binary_labels=True)
        res = self._stream(engine, X, y, 4)
        assert isinstance(res.qmat, CholeskyKernelOperator)
        assert res.warm_start
        assert res.warm_start_iterations == 0
        qm = ExplicitQMatrix(X, y, param, binary_labels=True)
        b = reduced_rhs(np.asarray(y, dtype=np.float64))
        x = res.result.x
        resid = np.linalg.norm(qm.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-8

    def test_dense_fallback_agrees_with_cholesky(self):
        X, y = make_planes(130, 5, rng=4)
        param = Parameter(kernel="rbf", cost=10.0, gamma=0.25, epsilon=1e-10)
        chol = IncrementalEngine(param, binary_labels=True)
        dense = IncrementalEngine(param, binary_labels=True)
        dense._chol_ok = False  # force the maintained-dense path
        res_c = self._stream(chol, X, y, 3)
        res_d = self._stream(dense, X, y, 3)
        assert isinstance(res_d.qmat, ExplicitQMatrix)
        np.testing.assert_allclose(res_c.alpha, res_d.alpha, atol=1e-6)
        np.testing.assert_allclose(res_c.bias, res_d.bias, atol=1e-6)

    def test_factor_lives_in_capacity_buffer(self):
        X, y = make_planes(120, 5, rng=8)
        param = Parameter(kernel="rbf", cost=10.0, gamma=0.25)
        engine = IncrementalEngine(param, binary_labels=True)
        self._stream(engine, X, y, 3)
        buf, n = engine._chol_buf, engine._chol_n
        assert buf is not None and buf.flags.f_contiguous
        assert n == X.shape[0] - 1
        assert buf.shape[0] >= n
        L = buf[:n, :n]
        # The live view must be a valid lower factor with a zeroed upper
        # triangle (matvecs use the full square product).
        assert np.allclose(np.triu(L, 1), 0.0)
        A = L @ L.T
        assert np.all(np.isfinite(A))

    def test_trsm_solves_against_padded_view(self):
        rng = np.random.default_rng(0)
        buf = np.zeros((9, 9), order="F")
        n = 6
        M = rng.normal(size=(n, n))
        buf[:n, :n] = np.linalg.cholesky(M @ M.T + n * np.eye(n))
        L = buf[:n, :n]
        rhs = rng.normal(size=(n, 3))
        B = np.asfortranarray(rhs.copy())
        out = incremental._trsm(L, B, trans=0)
        np.testing.assert_allclose(out, np.linalg.solve(L, rhs), atol=1e-10)
        B2 = np.asfortranarray(rhs.copy())
        out2 = incremental._trsm(L, B2, trans=1)
        np.testing.assert_allclose(out2, np.linalg.solve(L.T, rhs), atol=1e-10)

    def test_solve_direct_residual(self):
        X, y = make_planes(110, 4, rng=6)
        param = Parameter(kernel="rbf", cost=10.0, gamma=0.25)
        engine = IncrementalEngine(param, binary_labels=True)
        res = self._stream(engine, X, y, 2)
        op = res.qmat
        b = reduced_rhs(np.asarray(y, dtype=np.float64))
        x = op.solve_direct(b)
        resid = np.linalg.norm(op.matvec(x) - b) / np.linalg.norm(b)
        assert resid < 1e-10

    def test_seed_requires_empty_engine(self):
        X, y = make_planes(40, 4, rng=0)
        param = Parameter(kernel="linear", cost=1.0)
        engine = IncrementalEngine(param, binary_labels=True)
        engine.update(X, y)
        with pytest.raises(InvalidParameterError):
            engine.seed(X, y)


class TestServingInvalidation:
    def test_engine_cache_refreshes_after_partial_fit(self):
        X, y = make_planes(120, 5, rng=7)
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X[:90], y[:90])
        model = clf.model_
        stale = model.engine()
        stale_scores = stale.decision_function(X[:8])
        clf.partial_fit(X[90:], y[90:])
        fresh = model.engine()
        assert fresh is not stale
        expect = clf.decision_function(X[:8])
        np.testing.assert_allclose(fresh.decision_function(X[:8]), expect, atol=1e-12)
        assert not np.allclose(stale_scores, expect)

    def test_registry_generation_bumps_on_partial_fit(self):
        X, y = make_planes(120, 5, rng=7)
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25).fit(X[:90], y[:90])
        registry = ModelRegistry()
        registry.register("live", clf.model_)
        first = registry.get("live")
        assert first.generation == 0
        clf.partial_fit(X[90:], y[90:])
        second = registry.get("live")
        assert second.generation == 1
        np.testing.assert_allclose(
            second.decision_function(X[:8]), clf.decision_function(X[:8]), atol=1e-12
        )


class TestGroupedConfigs:
    def test_flat_kwargs_warn(self):
        with pytest.warns(DeprecationWarning, match="SolverConfig"):
            LSSVC(kernel="rbf", C=1.0, precondition="jacobi")
        with pytest.warns(DeprecationWarning, match="ResourceConfig"):
            LSSVC(kernel="rbf", C=1.0, tile_cache_mb=4.0)

    def test_config_spelling_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            LSSVC(
                kernel="rbf",
                C=1.0,
                config=SolverConfig(precondition="jacobi"),
                resources=ResourceConfig(tile_cache_mb=4.0),
            )

    def test_config_round_trips_through_clone(self):
        est = LSSVC(
            kernel="rbf",
            C=2.0,
            config=SolverConfig(solver="nystrom", solver_rank=32),
            resources=ResourceConfig(solver_threads=2),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            copy = clone(est)
        assert copy.get_params() == est.get_params()
        assert copy.solver == "nystrom"
        assert copy.solver_rank == 32
        assert copy.solver_threads == 2

    def test_set_params_round_trip(self):
        est = LSSVC(kernel="linear", C=1.0)
        est.set_params(config=SolverConfig(precondition="jacobi"))
        assert est.precondition == "jacobi"
        params = est.get_params()
        rebuilt = LSSVC(**params)
        assert rebuilt.get_params() == params

    def test_flat_and_config_both_work_in_fit(self):
        X, y = make_planes(80, 4, rng=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            flat = LSSVC(kernel="rbf", C=10.0, gamma=0.25, precondition="jacobi")
        grouped = LSSVC(
            kernel="rbf", C=10.0, gamma=0.25,
            config=SolverConfig(precondition="jacobi"),
        )
        np.testing.assert_allclose(
            flat.fit(X, y).model_.alpha, grouped.fit(X, y).model_.alpha, atol=1e-8
        )


class TestReportV4:
    def test_partial_fit_report_carries_streaming_fields(self):
        X, y = make_planes(120, 5, rng=12)
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25)
        clf.partial_fit(X[:80], y[:80])
        clf.partial_fit(X[80:], y[80:])
        report = clf.report_.as_dict()
        assert report["schema_version"] == REPORT_SCHEMA_VERSION == 4
        assert "warm_start_iterations" in report["solver"]
        assert report["solver"]["warm_start_iterations"] >= 0
        assert "refit" in report["phases"]


class TestStreamingIO:
    def test_append_then_refresh_picks_up_rows(self, tmp_path):
        X, y = make_planes(64, 6, rng=3)
        path = tmp_path / "grow.plsb"
        write_binary_file(path, X[:40], y[:40])
        ds = ChunkedDataset(path)
        try:
            assert ds.num_rows == 40
            assert append_binary_rows(path, X[40:], y[40:]) == 64
            assert ds.refresh() == 24
            assert ds.num_rows == 64
            np.testing.assert_allclose(np.array(ds.row_block(40, 64)), X[40:])
            np.testing.assert_allclose(np.array(ds.y[40:]), y[40:])
        finally:
            ds.close()
        X2, y2 = read_binary_file(path, mmap=False)
        np.testing.assert_allclose(X2, X)
        np.testing.assert_allclose(y2, y)

    def test_refresh_rejects_shrunk_file(self, tmp_path):
        from repro.exceptions import FileFormatError

        X, y = make_planes(32, 4, rng=5)
        path = tmp_path / "shrink.plsb"
        write_binary_file(path, X, y)
        ds = ChunkedDataset(path)
        try:
            write_binary_file(path, X[:8], y[:8])
            with pytest.raises(FileFormatError):
                ds.refresh()
        finally:
            ds.close()


class TestFollowTrainer:
    def test_file_mode_refits_and_publishes(self, tmp_path):
        X, y = make_planes(140, 6, rng=13)
        source = tmp_path / "stream.plsb"
        write_binary_file(source, X[:100], y[:100])
        model_path = tmp_path / "live.model"
        registry = ModelRegistry()
        events = []
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8)
        with FollowTrainer(
            clf,
            source,
            model_path=model_path,
            model_name="live",
            registry=registry,
            on_event=events.append,
        ) as trainer:
            assert trainer.poll_once() == 100
            assert trainer.generation == 0
            assert registry.get("live").generation == 0
            append_binary_rows(source, X[100:], y[100:])
            assert trainer.poll_once() == 40
            assert trainer.poll_once() == 0  # nothing new
        assert trainer.generation == 1
        # The registry generation runs ahead of the trainer's: the in-place
        # partial_fit mutation bumps it via the invalidation hook, and the
        # trainer's explicit publish bumps it again. Monotonic is the
        # contract, not equal.
        assert registry.get("live").generation >= 1
        meta = json.loads((tmp_path / "live.model.meta.json").read_text())
        assert meta == {"generation": 1, "rows": 140, "chunks": 2}
        # The published artifact matches a from-scratch fit on all rows.
        batch = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8).fit(X, y)
        served = registry.get("live")
        np.testing.assert_allclose(
            served.decision_function(X[:10]),
            batch.decision_function(X[:10]),
            atol=1e-5,
        )
        assert model_path.exists()
        assert any("generation 1" in e for e in events)

    def test_directory_mode_consumes_each_chunk_once(self, tmp_path):
        X, y = make_planes(120, 5, rng=14)
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        write_binary_file(chunk_dir / "000.plsb", X[:80], y[:80])
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8)
        with FollowTrainer(clf, chunk_dir) as trainer:
            assert trainer.poll_once() == 80
            write_binary_file(chunk_dir / "001.plsb", X[80:], y[80:])
            assert trainer.poll_once() == 40
            assert trainer.poll_once() == 0
            assert trainer.chunks_consumed == 2
        batch = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8).fit(X, y)
        np.testing.assert_allclose(clf.model_.alpha, batch.model_.alpha, atol=1e-5)

    def test_requires_partial_fit(self, tmp_path):
        class NoPartial:
            pass

        with pytest.raises(InvalidParameterError, match="partial_fit"):
            FollowTrainer(NoPartial(), tmp_path)


class TestReloadRollout:
    def test_http_reload_serves_new_generation(self, tmp_path):
        X, y = make_planes(120, 5, rng=15)
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25, epsilon=1e-8)
        clf.fit(X[:90], y[:90])
        model_path = tmp_path / "live.model"
        clf.save(model_path)

        registry = ModelRegistry()
        registry.register("live", model_path)
        app = ServingApp(
            registry, policy=BatchPolicy(max_batch_rows=16, max_wait_ms=2.0)
        )
        server = PLSSVMServer(("127.0.0.1", 0), app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            before = self._predict(base, X[:5])
            # The trainer absorbs a chunk and republishes the artifact
            # in place, then pushes a reload.
            with FollowTrainer(
                clf,
                self._as_stream(tmp_path, X, y),
                model_path=model_path,
                model_name="live",
                serve_url=base,
            ) as trainer:
                assert trainer.poll_once() == 30
            after = self._predict(base, X[:5])
            expect = clf.decision_function(X[:5])
            np.testing.assert_allclose(after, expect, atol=1e-6)
            assert not np.allclose(before, after)
            status, payload = self._post(f"{base}/models/live/reload")
            assert status == 200
            assert payload["generation"] >= 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    @staticmethod
    def _as_stream(tmp_path, X, y):
        chunk_dir = tmp_path / "incoming"
        chunk_dir.mkdir()
        write_binary_file(chunk_dir / "chunk0.plsb", X[90:], y[90:])
        return chunk_dir

    @staticmethod
    def _post(url, payload=None):
        req = urllib.request.Request(
            url,
            data=json.dumps(payload or {}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=10.0) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode())

    @classmethod
    def _predict(cls, base, rows):
        status, payload = cls._post(
            f"{base}/predict",
            {"rows": np.asarray(rows).tolist(), "decision_values": True},
        )
        assert status == 200
        return np.asarray(payload["decision_values"], dtype=np.float64)


class TestWarmStartRefit:
    def test_same_size_refit_warm_starts(self):
        X, y = make_planes(100, 5, rng=16)
        clf = LSSVC(kernel="rbf", C=10.0, gamma=0.25, warm_start=True)
        clf.fit(X, y)
        first_iters = clf.iterations_
        clf.fit(X, y)  # identical problem: warm start from the solution
        assert clf.iterations_ <= first_iters
        report = clf.report_.as_dict()
        assert report["solver"]["warm_start_iterations"] == clf.iterations_
