"""Small numeric kernels shared by the rest of the package.

Softplus, sigmoid, row softmax, layer norm, the half-plane real 2-D DFT
and the central-difference gradient oracle, all on float64 numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, EvaluationError

LN_EPS = 1e-6


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax_rows(m):
    """Row-wise softmax with max subtraction for overflow safety."""
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise DomainError("softmax_rows: non-finite input")
    shifted = m - np.max(m, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def layer_norm(x):
    """Normalize the last axis to zero mean / unit variance, LN_EPS added to the variance."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise DimensionError("layer_norm needs at least 2 features")
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS)


@dataclass
class Spectrum2D:
    """Non-redundant half-plane of a real 2-D DFT.

    bins has shape (rows, cols // 2 + 1) with complex values; the DC bin
    equals the plain sum of the input samples.
    """

    rows: int
    cols: int
    bins: np.ndarray

    def weighted_power(self):
        """|F|^2 per half-plane bin, doubled where a conjugate bin is implied.

        Only the DC column and, for even widths, the Nyquist column have
        no conjugate partner, so they count once.
        """
        weights = np.full(self.bins.shape[1], 2.0)
        weights[0] = 1.0
        if self.cols % 2 == 0:
            weights[-1] = 1.0
        return np.abs(self.bins) ** 2 * weights[None, :]

    def full_plane_power(self):
        """Sum of |F|^2 over the implied full plane (conjugate bins counted)."""
        return float(np.sum(self.weighted_power()))


def rfft2(field):
    """Real 2-D DFT returning the half-plane spectrum."""
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise DimensionError(f"rfft2 expects a 2-D field, got shape {field.shape}")
    bins = np.fft.rfft2(field)
    return Spectrum2D(rows=field.shape[0], cols=field.shape[1], bins=bins)


def finite_diff_grad(f, theta, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    if h <= 0:
        raise DomainError("finite_diff_grad: h must be positive")
    flat = theta.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        fp = f((flat + bump).reshape(theta.shape))
        fm = f((flat - bump).reshape(theta.shape))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(theta.shape)
