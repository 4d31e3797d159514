"""Epsilon-insensitive Support Vector Regression with RBF/linear kernels.

The dual of epsilon-SVR in the difference variables
``beta_i = alpha_i - alpha_i*`` is::

    min_beta  1/2 beta^T K beta - y^T beta + eps * ||beta||_1
    s.t.      |beta_i| <= C,   sum_i beta_i = 0

We use the standard *augmented kernel* trick — adding a constant to the
kernel (``K + 1``) absorbs the bias term and removes the equality
constraint — leaving a box-constrained L1-composite problem that FISTA
(accelerated proximal gradient) solves efficiently: the proximal operator
is soft-thresholding followed by clipping to ``[-C, C]``. The prediction
is ``f(x) = sum_i beta_i k(x_i, x) + b`` with ``b = sum_i beta_i``.

This matches scikit-learn's ``SVR`` semantics for ``C``, ``epsilon`` and
``gamma='scale'`` closely enough for the paper's regressor comparison.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.ml.base import Regressor, check_X, check_Xy
from repro.utils.validation import check_positive

__all__ = ["SVR", "rbf_kernel", "linear_kernel"]


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """RBF (Gaussian) kernel matrix ``exp(-gamma * ||a - b||^2)``."""
    a2 = (A**2).sum(axis=1)[:, None]
    b2 = (B**2).sum(axis=1)[None, :]
    sq = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * sq)


def linear_kernel(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Linear kernel ``A @ B.T``."""
    return A @ B.T


class SVR(Regressor):
    """Epsilon-SVR trained by FISTA on the augmented-kernel dual.

    Parameters
    ----------
    kernel:
        ``"rbf"`` (default) or ``"linear"``.
    C:
        Box constraint (regularization strength; larger fits harder).
    epsilon:
        Width of the insensitive tube.
    gamma:
        RBF width; ``"scale"`` uses ``1 / (n_features * X.var())`` like
        scikit-learn, or pass a float.
    max_iter, tol:
        FISTA iteration budget and stopping threshold on the relative
        change of ``beta``.
    """

    def __init__(
        self,
        kernel: str = "rbf",
        C: float = 10.0,
        epsilon: float = 0.01,
        gamma: Union[str, float] = "scale",
        max_iter: int = 2000,
        tol: float = 1e-7,
    ) -> None:
        self.kernel = kernel
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    # ------------------------------------------------------------------
    def _gamma_value(self, X: np.ndarray) -> float:
        if isinstance(self.gamma, str):
            if self.gamma != "scale":
                raise ValueError(f"unknown gamma mode {self.gamma!r}")
            var = float(X.var())
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        g = float(self.gamma)
        check_positive(g, "gamma")
        return g

    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "rbf":
            return rbf_kernel(A, B, self.gamma_)
        if self.kernel == "linear":
            return linear_kernel(A, B)
        raise ValueError(f"unknown kernel {self.kernel!r}")

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "SVR":
        """Solve the dual with FISTA; stores support coefficients ``beta_``."""
        check_positive(self.C, "C")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        X, y = check_Xy(X, y)
        self.gamma_ = self._gamma_value(X)
        n = X.shape[0]

        K = self._kernel_matrix(X, X) + 1.0  # +1 absorbs the bias
        # Lipschitz constant of the smooth part = top eigenvalue of K.
        # Power iteration is cheap and avoids a full eigendecomposition.
        v = np.ones(n) / np.sqrt(n)
        lam = 1.0
        for _ in range(50):
            w = K @ v
            lam_new = float(np.linalg.norm(w))
            if lam_new <= 0.0:
                break
            v = w / lam_new
            if abs(lam_new - lam) <= 1e-10 * max(lam, 1.0):
                lam = lam_new
                break
            lam = lam_new
        L = max(lam, 1e-12)

        beta = np.zeros(n)
        z = beta.copy()
        t_acc = 1.0
        step = 1.0 / L
        thresh = self.epsilon * step
        self.n_iter_ = self.max_iter
        for it in range(self.max_iter):
            grad = K @ z - y
            raw = z - step * grad
            # prox of eps*||.||_1 followed by projection onto the box
            beta_new = np.sign(raw) * np.maximum(np.abs(raw) - thresh, 0.0)
            np.clip(beta_new, -self.C, self.C, out=beta_new)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            z = beta_new + ((t_acc - 1.0) / t_new) * (beta_new - beta)
            delta = float(np.linalg.norm(beta_new - beta))
            scale = float(np.linalg.norm(beta_new)) or 1.0
            beta = beta_new
            t_acc = t_new
            if delta <= self.tol * scale:
                self.n_iter_ = it + 1
                break

        support = np.abs(beta) > 1e-12
        self.X_fit_ = X[support] if support.any() else X[:1]
        self.beta_ = beta[support] if support.any() else np.zeros(1)
        self.intercept_ = float(beta.sum())
        self.n_support_ = int(support.sum())
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        """Evaluate ``sum_i beta_i k(x_i, x) + b``."""
        self._check_fitted()
        X = check_X(X, self.n_features_in_)
        K = self._kernel_matrix(X, self.X_fit_)
        return K @ self.beta_ + self.intercept_
