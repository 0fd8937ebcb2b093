import itertools

import numpy as np
import pytest

from filingsignal.regression import DesignMatrix, NNLSModel, fit_nnls, nnls


def predict_rows(model, X):
    """``model.predict`` of each row of ``X``."""
    return np.array([model.predict(row) for row in X])


def enumeration_oracle(A, b):
    """Try every active set: unconstrained least squares on each feasible
    subset of columns, return the feasible minimizer."""
    n, p = A.shape
    best_x, best_obj = np.zeros(p), float(np.sum(b ** 2))
    for r in range(1, p + 1):
        for subset in itertools.combinations(range(p), r):
            cols = list(subset)
            coef, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if np.any(coef < 0):
                continue
            x = np.zeros(p)
            x[cols] = coef
            obj = float(np.sum((A @ x - b) ** 2))
            if obj < best_obj:
                best_obj, best_x = obj, x
    return best_x, best_obj


def kkt_residuals(design, model):
    """Dual vector at the fitted point, in the standardized coordinates.

    Optimality requires components ~0 for active features and <= 0 (up to
    tolerance) for zeroed features.
    """
    Xs = (design.X - model.shift) / model.scale
    yc = design.y - model.intercept
    return Xs.T @ (yc - Xs @ model.coefficients)


def objective(A, b, x):
    return float(np.sum((A @ x - b) ** 2))


class TestNNLSSolver:
    def test_identity_clips_negative_component(self):
        x = nnls(np.eye(2), np.array([3.0, -1.0]))
        assert np.allclose(x, [3.0, 0.0])

    def test_nonnegative_always(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            A = rng.standard_normal((12, 5))
            b = rng.standard_normal(12)
            assert nnls(A, b).min() >= 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        p = int(rng.integers(2, 8))
        A = rng.standard_normal((n, p))
        b = rng.standard_normal(n)
        x = nnls(A, b)
        _, best_obj = enumeration_oracle(A, b)
        assert objective(A, b, x) <= best_obj + 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((15, 6))
        b = rng.standard_normal(15)
        assert np.array_equal(nnls(A, b), nnls(A, b))


class TestFit:
    def random_design(self, seed, n=40, p=5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 100, size=(n, p))
        w = np.abs(rng.standard_normal(p))
        y = (X - X.mean(0)) / X.std(0) @ w
        y = (y - y.min()) / (y.max() - y.min())  # labels in [0,1]
        return DesignMatrix(X, y, [f"q{i}" for i in range(p)])

    def test_exact_single_feature_fit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 100, 30)
        X = np.column_stack([x, rng.uniform(0, 100, 30)])
        y = (x - x.mean()) / x.std()  # y is exactly the standardized feature
        model = fit_nnls(DesignMatrix(X, y, ["a", "b"]))
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-8)
        assert model.coefficients[1] == pytest.approx(0.0, abs=1e-8)
        residual = predict_rows(model, X) - y
        assert np.max(np.abs(residual)) < 1e-8

    def test_kkt_conditions(self):
        design = self.random_design(3)
        model = fit_nnls(design)
        w = kkt_residuals(design, model)
        active = model.coefficients > 0
        assert np.all(np.abs(w[active]) <= 1e-8)
        assert np.all(w[~active] <= 1e-8)

    def test_anticorrelated_feature_gets_zero(self):
        rng = np.random.default_rng(4)
        n = 60
        signal = rng.uniform(0, 100, n)
        anti = 100.0 - signal  # strictly anti-correlated with y
        noise = rng.uniform(0, 100, n)
        y = (signal - signal.mean()) / signal.std()
        model = fit_nnls(DesignMatrix(np.column_stack([signal, anti, noise]),
                                      y, ["signal", "anti", "noise"]))
        assert model.coefficients[1] == 0.0

    def test_intercept_is_label_mean(self):
        design = self.random_design(5)
        model = fit_nnls(design)
        assert model.intercept == pytest.approx(float(design.y.mean()))

    def test_constant_feature_excluded(self, caplog):
        X = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
        y = np.arange(20.0) / 19.0
        model = fit_nnls(DesignMatrix(X, y, ["const", "ramp"]))
        assert model.coefficients[0] == 0.0
        assert model.coefficients[1] > 0
        assert np.all(model.scale > 0)

    def test_nonfinite_rejected(self):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ValueError):
            DesignMatrix(X, np.array([0.1, 0.2]), ["a", "b"])

    def test_oracle_on_standardized_problem(self):
        # the full fit path (standardize + center) against the oracle
        for seed in range(10):
            design = self.random_design(seed, n=25, p=4)
            model = fit_nnls(design)
            Xs = (design.X - model.shift) / model.scale
            yc = design.y - model.intercept
            _, best_obj = enumeration_oracle(Xs, yc)
            assert objective(Xs, yc, model.coefficients) <= best_obj + 1e-8


class TestPredict:
    def test_zero_coefficients_give_intercept(self):
        model = NNLSModel(["a", "b"], np.zeros(2), 0.42,
                          np.zeros(2), np.ones(2))
        assert model.predict([123.0, -5.0]) == pytest.approx(0.42)

    def test_identity_scaling_arithmetic(self):
        model = NNLSModel(["a", "b"], np.array([1.0, 0.0]), 0.0,
                          np.zeros(2), np.ones(2))
        assert model.predict([0.7, 99.0]) == pytest.approx(0.7)

    def test_golden_prediction_vector(self):
        # frozen from an oracle-validated fit (seed 6 of random_design)
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 100, size=(40, 5))
        w = np.abs(rng.standard_normal(5))
        y = (X - X.mean(0)) / X.std(0) @ w
        y = (y - y.min()) / (y.max() - y.min())
        model = fit_nnls(DesignMatrix(X, y, [f"q{i}" for i in range(5)]))
        got = predict_rows(model, X[:3])
        assert np.allclose(got, [0.58563240, 0.46974188, 0.60186707], atol=1e-6)

    def test_shift_invariance_of_ranking(self):
        design_rng = np.random.default_rng(7)
        X = design_rng.uniform(0, 100, size=(30, 4))
        y = design_rng.uniform(0, 1, 30)
        names = list("abcd")
        model_a = fit_nnls(DesignMatrix(X, y, names))
        shifted = X.copy()
        shifted[:, 2] += 37.0  # constant shift of one feature
        model_b = fit_nnls(DesignMatrix(shifted, y, names))
        pred_a = predict_rows(model_a, X)
        pred_b = predict_rows(model_b, shifted)
        assert np.array_equal(np.argsort(pred_a), np.argsort(pred_b))

    def test_monotone_response(self):
        design_rng = np.random.default_rng(8)
        X = design_rng.uniform(0, 100, size=(30, 4))
        y = design_rng.uniform(0, 1, 30)
        model = fit_nnls(DesignMatrix(X, y, list("abcd")))
        x = X[0].copy()
        base = model.predict(x)
        for j in range(4):
            bumped = x.copy()
            bumped[j] += 10.0
            assert model.predict(bumped) >= base - 1e-12

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 100, size=(20, 3))
        y = rng.uniform(0, 1, 20)
        model = fit_nnls(DesignMatrix(X, y, ["a", "b", "c"]))
        path = tmp_path / "model.json"
        model.save(path, extra={"train_years": [2002, 2017]})
        loaded = NNLSModel.load(path)
        assert loaded.feature_names == model.feature_names
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert np.array_equal(predict_rows(loaded, X), predict_rows(model, X))
