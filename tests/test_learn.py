import numpy as np
import pytest

from empers.errors import NumericalError
from empers.learn import (
    Dataset,
    PolynomialMap,
    TrainConfig,
    accuracy,
    confusion_matrix,
    polynomial_expand,
    predict,
    train_logistic,
    train_test_split,
)
from oracles import cross_entropy_grad, cross_entropy_loss

XOR_X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
XOR_Y = np.array([0, 1, 1, 0])


def xor_dataset(copies=8, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = np.tile(XOR_X, (copies, 1)) + rng.normal(scale=noise, size=(4 * copies, 2))
    y = np.tile(XOR_Y, copies)
    return Dataset(X, y, ("even", "odd"))


class TestPolynomialExpand:
    def test_degree_two_with_bias(self):
        pm = PolynomialMap(2, 2)
        out = polynomial_expand(np.array([[2.0, 3.0]]), pm)
        assert out.tolist() == [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]]

    def test_degree_one_without_bias_is_identity(self):
        pm = PolynomialMap(1, 3, include_bias=False)
        X = np.arange(6, dtype=float).reshape(2, 3)
        assert np.array_equal(polynomial_expand(X, pm), X)

    def test_zero_row_with_bias(self):
        pm = PolynomialMap(3, 2)
        out = polynomial_expand(np.zeros((1, 2)), pm)
        assert out[0, 0] == 1.0 and np.all(out[0, 1:] == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            polynomial_expand(np.zeros((2, 3)), PolynomialMap(2, 2))

    def test_term_count_degree_three(self):
        # C(n + d, d) monomials of degree <= d
        pm = PolynomialMap(3, 4)
        assert pm.n_terms == 35


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, dim, c = rng.integers(3, 9), rng.integers(1, 4), rng.integers(2, 4)
            Phi = rng.normal(size=(n, dim))
            y = rng.integers(0, c, n)
            y[:c] = np.arange(c)  # every class present
            W = rng.normal(size=(dim, c))
            l2 = 10.0 ** rng.uniform(-4, -1)
            analytic = cross_entropy_grad(W, Phi, y, l2)
            h = 1e-6
            numeric = np.zeros_like(W)
            for i in range(dim):
                for j in range(c):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    numeric[i, j] = (cross_entropy_loss(Wp, Phi, y, l2)
                                     - cross_entropy_loss(Wm, Phi, y, l2)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5


class TestTrainLogistic:
    def test_separable_1d_reaches_full_accuracy(self):
        X = np.concatenate([np.linspace(-2, -1, 10), np.linspace(1, 2, 10)])[:, None]
        ds = Dataset(X, np.repeat([0, 1], 10))
        model = train_logistic(ds, PolynomialMap(1, 1), TrainConfig(l2=1e-4))
        pred, _ = predict(model, X)
        assert accuracy(ds.y, pred) == 1.0

    def test_chance_level_on_random_labels(self):
        # independent labels: average test accuracy over 20 seeds near 1/2
        accs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(60, 3))
            y = np.tile([0, 1], 30)
            ds = Dataset(X, y)
            train, test = train_test_split(ds, 0.7, seed=seed)
            model = train_logistic(train, PolynomialMap(1, 3),
                                   TrainConfig(l2=1e-2, max_iters=200, seed=seed))
            pred, _ = predict(model, test.X)
            accs.append(accuracy(test.y, pred))
        assert abs(np.mean(accs) - 0.5) < 0.1

    def test_xor_needs_degree_two(self):
        ds = xor_dataset()
        quadratic = train_logistic(ds, PolynomialMap(2, 2),
                                   TrainConfig(l2=1e-4, max_iters=800))
        pred, _ = predict(quadratic, ds.X)
        assert accuracy(ds.y, pred) == 1.0
        linear = train_logistic(ds, PolynomialMap(1, 2),
                                TrainConfig(l2=1e-4, max_iters=800))
        pred, _ = predict(linear, ds.X)
        assert accuracy(ds.y, pred) <= 0.75

    def test_loss_non_increasing_along_training(self):
        ds = xor_dataset(copies=4)
        losses = [train_logistic(ds, PolynomialMap(2, 2),
                                 TrainConfig(max_iters=k, seed=3)).final_loss
                  for k in range(1, 14)]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_ridge_optimum_is_seed_independent(self):
        ds = xor_dataset(copies=4)
        losses = [train_logistic(ds, PolynomialMap(2, 2),
                                 TrainConfig(l2=1e-2, max_iters=3000, tol=1e-10,
                                             seed=seed)).final_loss
                  for seed in (0, 12345)]
        assert abs(losses[0] - losses[1]) < 1e-6

    def test_capped_run_reports_not_converged(self):
        ds = xor_dataset(copies=4)
        cfg = TrainConfig(max_iters=5, tol=1e-6)
        model = train_logistic(ds, PolynomialMap(2, 2), cfg)
        assert model.n_iters == cfg.max_iters
        assert model.converged is False
        Phi = polynomial_expand((ds.X - model.feature_means) / model.feature_scales,
                                model.polynomial)
        grad = cross_entropy_grad(model.weights, Phi, ds.y, cfg.l2)
        assert model.final_grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-12)
        assert model.final_grad_norm >= cfg.tol

    def test_converged_run_reports_it(self):
        ds = xor_dataset(copies=4)
        cfg = TrainConfig(l2=1e-2, max_iters=3000, tol=1e-6)
        model = train_logistic(ds, PolynomialMap(2, 2), cfg)
        assert model.n_iters < cfg.max_iters
        assert model.converged is True
        assert model.final_grad_norm < cfg.tol

    def test_rejects_missing_class(self):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 2, 2]))
        with pytest.raises(ValueError):
            train_logistic(ds, PolynomialMap(1, 2))

    def test_rejects_non_finite_features(self):
        ds = Dataset(np.array([[np.nan, 0], [1, 1]]), np.array([0, 1]))
        with pytest.raises(NumericalError):
            train_logistic(ds, PolynomialMap(1, 2))


class TestPredict:
    def test_probabilities_sum_to_one(self):
        ds = xor_dataset(copies=3)
        model = train_logistic(ds, PolynomialMap(2, 2), TrainConfig(max_iters=50))
        _, probs = predict(model, ds.X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_duplicated_rows_get_identical_outputs(self):
        ds = xor_dataset(copies=3)
        model = train_logistic(ds, PolynomialMap(2, 2), TrainConfig(max_iters=50))
        X = np.vstack([ds.X[0], ds.X[0]])
        labels, probs = predict(model, X)
        assert labels[0] == labels[1]
        assert np.array_equal(probs[0], probs[1])

    def test_pipeline_round_trip_matches_manual_composition(self):
        ds = xor_dataset(copies=3)
        model = train_logistic(ds, PolynomialMap(2, 2), TrainConfig(max_iters=50))
        _, probs = predict(model, ds.X)
        std = (ds.X - model.feature_means) / model.feature_scales
        scores = polynomial_expand(std, model.polynomial) @ model.weights
        manual = np.exp(scores - scores.max(axis=1, keepdims=True))
        manual /= manual.sum(axis=1, keepdims=True)
        assert np.allclose(probs, manual, atol=1e-12)

    def test_dimension_mismatch(self):
        ds = xor_dataset(copies=3)
        model = train_logistic(ds, PolynomialMap(2, 2), TrainConfig(max_iters=10))
        with pytest.raises(ValueError):
            predict(model, np.zeros((1, 5)))


class TestSplit:
    def test_80_20_sizes(self):
        ds = Dataset(np.zeros((100, 1)), np.tile([0, 1], 50))
        train, test = train_test_split(ds, 0.8, seed=0)
        assert len(train.y) == 80 and len(test.y) == 20

    def test_stratified_tiny_classes(self):
        ds = Dataset(np.arange(4, dtype=float)[:, None], np.array([0, 0, 1, 1]))
        train, test = train_test_split(ds, 0.5, seed=1)
        assert sorted(train.y) == [0, 1] and sorted(test.y) == [0, 1]

    def test_same_seed_same_split(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(30, 2)),
                     np.tile([0, 1, 2], 10))
        a = train_test_split(ds, 0.7, seed=42)
        b = train_test_split(ds, 0.7, seed=42)
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].y, b[1].y)

    def test_stratification_preserves_proportions(self):
        y = np.array([0] * 40 + [1] * 20)
        ds = Dataset(np.zeros((60, 1)), y)
        train, _ = train_test_split(ds, 0.75, seed=3)
        assert np.sum(train.y == 0) == 30 and np.sum(train.y == 1) == 15

    def test_infeasible_stratification(self):
        ds = Dataset(np.zeros((3, 1)), np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            train_test_split(ds, 0.5, seed=0)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 0, 1], [0, 1, 0, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])

    def test_confusion_matrix(self):
        m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert m.tolist() == [[1, 1], [0, 2]]
