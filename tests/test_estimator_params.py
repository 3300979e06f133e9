"""Tests for the sklearn parameter protocol: ``get_params``/``set_params``/``clone``.

Covers round-trips through normalized constructor arguments (enums,
``jacobi=True``), solver knobs from the tile-pipeline / preconditioning /
resilience work, and the model-selection helpers accepting estimator
instances as prototypes.
"""

import numpy as np
import pytest

from repro.core.estimator import ParamsMixin, clone
from repro.core.lssvm import LSSVC
from repro.core.multiclass import OneVsAllLSSVC, OneVsOneLSSVC
from repro.core.regression import LSSVR
from repro.exceptions import InvalidParameterError
from repro.model_selection import GridSearch, cross_val_score
from repro.types import TargetPlatform


class TestGetParams:
    def test_covers_solver_knobs(self):
        params = LSSVC().get_params()
        for name in (
            "kernel",
            "C",
            "gamma",
            "solver_threads",
            "tile_cache_mb",
            "precondition",
            "precond_rank",
            "compute_dtype",
            "fault_plan",
            "checkpoint_interval",
            "max_retries",
        ):
            assert name in params

    def test_deep_accepted_for_sklearn_compat(self):
        assert LSSVC().get_params(deep=True) == LSSVC().get_params(deep=False)

    def test_explicit_signature_required(self):
        class Sloppy(ParamsMixin):
            def __init__(self, **kwargs):
                pass

        with pytest.raises(TypeError, match="explicit signature"):
            Sloppy().get_params()


class TestSetParams:
    def test_updates_derived_state(self):
        clf = LSSVC(kernel="linear", C=1.0)
        out = clf.set_params(C=10.0, kernel="rbf", gamma=0.5)
        assert out is clf
        assert clf.param.cost == 10.0
        assert clf.param.kernel.name == "RBF"
        assert clf.param.gamma == 0.5

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError, match="invalid parameter"):
            LSSVC().set_params(fuel="rocket")

    def test_cross_parameter_validation_runs(self):
        from repro.exceptions import PLSSVMError

        clf = LSSVC()
        with pytest.raises(PLSSVMError, match="jacobi=True conflicts"):
            clf.set_params(jacobi=True, precondition="nystrom")

    def test_empty_call_is_noop(self):
        clf = LSSVC(C=2.0)
        assert clf.set_params() is clf
        assert clf.param.cost == 2.0


class TestClone:
    def test_round_trip_all_solver_kwargs(self):
        est = LSSVC(
            kernel="rbf",
            C=4.0,
            gamma=0.5,
            epsilon=1e-4,
            max_iter=50,
            solver_threads=2,
            tile_cache_mb=64.0,
            precondition="nystrom",
            precond_rank=10,
            compute_dtype="float32",
            checkpoint_interval=5,
            max_retries=2,
        )
        fresh = clone(est)
        assert fresh is not est
        assert fresh.get_params() == est.get_params()

    def test_normalized_values_survive(self):
        est = LSSVC(kernel=2, target="gpu_nvidia", jacobi=True)
        fresh = clone(est)
        assert fresh.get_params() == est.get_params()
        assert fresh.target is TargetPlatform.GPU_NVIDIA
        assert fresh.precondition == "jacobi"

    def test_clone_is_unfitted(self, planes_small):
        X, y = planes_small
        est = LSSVC(kernel="linear").fit(X, y)
        fresh = clone(est)
        assert fresh.model_ is None
        assert fresh.report_ is None
        fresh.fit(X, y)
        np.testing.assert_allclose(fresh.predict(X), est.predict(X))

    def test_lssvr_round_trip(self):
        est = LSSVR(kernel="rbf", C=100.0, gamma=1.0, implicit=False)
        assert clone(est).get_params() == est.get_params()

    def test_multiclass_round_trip(self):
        est = OneVsAllLSSVC(kernel="rbf", C=2.0, gamma=0.3, warm_start=True)
        fresh = clone(est)
        assert fresh.get_params() == est.get_params()
        assert fresh.warm_start is True
        est = OneVsOneLSSVC(kernel="linear", C=1.5)
        assert clone(est).get_params() == est.get_params()


class TestModelSelectionPrototypes:
    def test_cross_val_accepts_instance(self, planes_small):
        X, y = planes_small
        proto = LSSVC(kernel="linear", C=1.0)
        scores = cross_val_score(proto, X, y, k=3, rng=0)
        assert scores.shape == (3,)
        assert scores.mean() > 0.8
        # The prototype itself must stay unfitted.
        assert proto.model_ is None

    def test_instance_and_factory_agree(self, planes_small):
        X, y = planes_small
        from_instance = cross_val_score(
            LSSVC(kernel="rbf", C=1.0, gamma=0.1), X, y, k=3, rng=0
        )
        from_factory = cross_val_score(
            lambda: LSSVC(kernel="rbf", C=1.0, gamma=0.1), X, y, k=3, rng=0
        )
        np.testing.assert_allclose(from_instance, from_factory)

    def test_grid_search_applies_params_to_clone(self, planes_small):
        X, y = planes_small
        grid = GridSearch(
            LSSVC(kernel="rbf", gamma=0.1),
            {"C": [0.1, 1.0]},
            k=3,
            rng=0,
        )
        grid.fit(X, y)
        assert grid.best_params_["C"] in (0.1, 1.0)
        assert grid.best_estimator_.param.cost == grid.best_params_["C"]
        # The non-swept prototype parameter carried through.
        assert grid.best_estimator_.param.gamma == 0.1

    def test_rejects_fitted_less_objects(self):
        from repro.exceptions import DataError

        class NoParams:
            def fit(self, X, y):
                return self

        with pytest.raises(DataError, match="get_params"):
            cross_val_score(NoParams(), np.zeros((4, 2)), np.zeros(4), k=2)
