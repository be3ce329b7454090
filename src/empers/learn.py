"""Polynomial feature expansion and multiclass logistic regression.

Raw features are standardized with training-set statistics, expanded into
all monomials up to a fixed total degree, and fed to a softmax classifier
trained by full-batch gradient descent with backtracking line search. The
optimizer is deterministic; with a positive ridge penalty the optimum is
unique, so different initializations converge to the same loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer class labels 0..C-1."""

    X: np.ndarray
    y: np.ndarray
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"inconsistent dataset shapes: X {X.shape}, y {y.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0


@dataclass(frozen=True)
class PolynomialMap:
    """All monomials of total degree <= degree over n_features variables.

    Terms are ordered by total degree, then by the graded reverse of the
    variable tuple produced by combinations-with-replacement: for two
    variables and degree 2 that is (1, x1, x2, x1^2, x1*x2, x2^2).
    """

    degree: int
    n_features: int
    include_bias: bool = True
    terms: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        terms = []
        start = 0 if self.include_bias else 1
        for total in range(start, self.degree + 1):
            terms.extend(combinations_with_replacement(range(self.n_features), total))
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def polynomial_expand(X: np.ndarray, pmap: PolynomialMap) -> np.ndarray:
    """Map each row to its monomial values under ``pmap``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != pmap.n_features:
        raise ValueError(f"expected {pmap.n_features} columns, got shape {X.shape}")
    out = np.empty((X.shape[0], pmap.n_terms))
    for t, term in enumerate(pmap.terms):
        col = np.ones(X.shape[0])
        for v in term:
            col = col * X[:, v]
        out[:, t] = col
    return out


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1e-4
    max_iters: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


@dataclass(frozen=True)
class LogisticModel:
    """Weights over expanded features plus the frozen preprocessing state."""

    weights: np.ndarray          # (n_terms, n_classes)
    polynomial: PolynomialMap
    feature_means: np.ndarray
    feature_scales: np.ndarray
    label_names: tuple[str, ...]
    train_config: TrainConfig
    n_iters: int
    final_loss: float
    template_system_ref: Optional[str] = None

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_grad(W: np.ndarray, Phi: np.ndarray, Y: np.ndarray, l2: float):
    n = Phi.shape[0]
    scores = Phi @ W
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -np.mean((Y * log_probs).sum(axis=1)) + 0.5 * l2 * float((W ** 2).sum())
    probs = np.exp(log_probs)
    grad = Phi.T @ (probs - Y) / n + l2 * W
    return loss, grad


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and scale; constant features get scale 1."""
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales = np.where(scales > 0, scales, 1.0)
    return means, scales


def train_logistic(ds: Dataset, pmap: PolynomialMap,
                   cfg: TrainConfig = TrainConfig(),
                   template_system_ref: Optional[str] = None) -> LogisticModel:
    """Fit a softmax classifier on standardized, polynomially expanded features.

    Full-batch gradient descent with Armijo backtracking; stops when the
    gradient norm drops below tol or the iteration cap is reached.
    """
    X, y = ds.X, ds.y
    if not np.all(np.isfinite(X)):
        raise NumericalError("features contain non-finite values")
    n_classes = ds.n_classes
    if n_classes < 2:
        raise ValueError("need at least two classes")
    counts = np.bincount(y, minlength=n_classes)
    if np.any(counts == 0):
        raise ValueError(f"every class needs at least one instance; counts {counts.tolist()}")

    means, scales = standardize_fit(X)
    Phi = polynomial_expand((X - means) / scales, pmap)
    Y = np.eye(n_classes)[y]

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    W = 0.01 * rng.standard_normal((pmap.n_terms, n_classes))

    loss, grad = _loss_and_grad(W, Phi, Y, cfg.l2)
    step = 1.0
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        gnorm2 = float((grad ** 2).sum())
        if math.sqrt(gnorm2) < cfg.tol:
            iters -= 1
            break
        t = step
        while True:
            W_new = W - t * grad
            loss_new, grad_new = _loss_and_grad(W_new, Phi, Y, cfg.l2)
            if loss_new <= loss - 1e-4 * t * gnorm2:
                break
            t *= 0.5
            if t < 1e-18:
                raise NumericalError("line search failed to make progress")
        W, loss, grad = W_new, loss_new, grad_new
        step = t * 2.0
    if not math.isfinite(loss):
        raise NumericalError("training loss is non-finite")

    return LogisticModel(W, pmap, means, scales, tuple(ds.label_names),
                         cfg, iters, float(loss), template_system_ref)


def predict(model: LogisticModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class labels and softmax probabilities (rows sum to 1)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_means):
        raise ValueError(f"expected {len(model.feature_means)} raw features, got shape {X.shape}")
    Phi = polynomial_expand((X - model.feature_means) / model.feature_scales, model.polynomial)
    probs = _softmax(Phi @ model.weights)
    return probs.argmax(axis=1), probs


def train_test_split(ds: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified split; ``ratio`` is the training fraction.
    Class proportions are preserved to rounding, and every class needs at
    least one instance on each side."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    rng = np.random.Generator(np.random.Philox(seed))
    train_idx, test_idx = [], []
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.y == c)
        if len(members) < 2:
            raise ValueError(f"class {c} has {len(members)} instance(s); "
                             "stratified split needs at least 2")
        members = members[rng.permutation(len(members))]
        n_train = int(round(ratio * len(members)))
        n_train = min(max(n_train, 1), len(members) - 1)
        train_idx.extend(members[:n_train])
        test_idx.extend(members[n_train:])
    train_idx = np.sort(np.asarray(train_idx))
    test_idx = np.sort(np.asarray(test_idx))
    return (Dataset(ds.X[train_idx], ds.y[train_idx], ds.label_names),
            Dataset(ds.X[test_idx], ds.y[test_idx], ds.label_names))


def accuracy(labels_true: Sequence[int], labels_pred: Sequence[int]) -> float:
    t = np.asarray(labels_true)
    p = np.asarray(labels_pred)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if len(t) == 0:
        raise ValueError("cannot compute accuracy of empty label vectors")
    return float(np.mean(t == p))


def confusion_matrix(labels_true: Sequence[int], labels_pred: Sequence[int],
                     n_classes: int) -> np.ndarray:
    m = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(labels_true, labels_pred):
        m[t, p] += 1
    return m
