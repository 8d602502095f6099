"""Small numeric kernels shared by the rest of the package.

Softplus, sigmoid, row softmax, layer norm and the central-difference
gradient oracle, all on float64 numpy arrays, and the row-band map that
runs a per-pixel stage over a frame in bands of about BAND_PIXELS pixels
each.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, EvaluationError

LN_EPS = 1e-6
BAND_PIXELS = 1 << 15  # pixels per band of row_bands, unless the band is 8 rows


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    # below about -709 exp(-x) overflows to inf, and 1/inf is the limit 0
    with np.errstate(over="ignore"):
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


def band_rows(width):
    """Rows per band of row_bands on a frame `width` pixels wide.

    The largest multiple of the 8x8 codec block with rows * width <=
    BAND_PIXELS, and at least 8: 16 rows at 1920 wide, 32 at 960. It
    depends on the width alone, never on the worker count.
    """
    return max(8, BAND_PIXELS // max(width, 1) // 8 * 8)


def row_bands(height, width):
    """Slices of band_rows(width) rows that cover a frame `height` rows tall, in order.

    Every slice but the last holds band_rows(width) rows; the last may be shorter.
    """
    step = band_rows(width)
    return [slice(top, min(top + step, height)) for top in range(0, height, step)]


def map_row_bands(kernel, height, width, workers=1):
    """Call kernel(rows) once per slice of row_bands(height, width).

    A kernel that reads and writes only its own rows of whole-frame
    arrays gives the same bytes at any `workers`, because the band edges
    depend on the frame's extent alone. With workers > 1 the bands run on
    a thread pool; an exception propagates from the first failing band in
    row order, and the pool's map cancels the bands not yet started when
    it does. Call it from the main thread of a command, never from a pool
    worker.
    """
    if workers < 1:
        raise ConfigError(f"map_row_bands needs workers >= 1, got {workers!r}")
    bands = row_bands(height, width)
    if workers == 1 or len(bands) < 2:
        for rows in bands:
            kernel(rows)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(bands))) as pool:
        for _ in pool.map(kernel, bands):
            pass
