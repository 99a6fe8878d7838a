"""Gaussian-process regression with an RBF kernel.

Minimal, numerically careful implementation: Cholesky-based posterior,
jitter on the diagonal, standardized targets.  Used by the Aquatope
baseline's Bayesian optimizer.

SciPy is imported inside the methods that need it: only ``aquatope``
fits a GP, so no other policy's process pays the import.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


def rbf_kernel(a: np.ndarray, b: np.ndarray, length_scale: float) -> np.ndarray:
    """Squared-exponential kernel matrix between row sets ``a`` and ``b``."""
    check_positive("length_scale", length_scale)
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * sq / length_scale**2)


class GaussianProcess:
    """GP regressor with zero mean (after target standardization)."""

    def __init__(self, length_scale: float = 0.3, noise: float = 1e-4) -> None:
        check_positive("length_scale", length_scale)
        check_positive("noise", noise)
        self.length_scale = float(length_scale)
        self.noise = float(noise)
        self._X: np.ndarray | None = None
        self._chol = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations ``(X, y)``."""
        from scipy.linalg import cho_factor, cho_solve

        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have matching first dimension")
        if X.shape[0] < 1:
            raise ValueError("need at least one observation")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        yn = (y - self._y_mean) / self._y_std
        K = rbf_kernel(X, X, self.length_scale)
        K[np.diag_indices_from(K)] += self.noise
        self._chol = cho_factor(K, lower=True)
        self._alpha = cho_solve(self._chol, yn)
        self._X = X
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points ``X``."""
        if self._X is None or self._alpha is None:
            raise RuntimeError("GP must be fit() before prediction")
        from scipy.linalg import cho_solve

        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks = rbf_kernel(X, self._X, self.length_scale)
        mean = Ks @ self._alpha
        v = cho_solve(self._chol, Ks.T)
        var = 1.0 + self.noise - np.einsum("ij,ji->i", Ks, v)
        std = np.sqrt(np.clip(var, 1e-12, None))
        return mean * self._y_std + self._y_mean, std * self._y_std
