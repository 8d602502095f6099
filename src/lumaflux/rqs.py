"""Monotone rational-quadratic spline tone field.

A spline on [0, 1] is defined by K+1 increasing knot abscissas and
ordinates (both pinned to (0,0) and (1,1)) plus strictly positive knot
slopes, which together give a strictly increasing, C1, invertible map.
Free parameters live in an unconstrained vector of length 3K+1 and are
mapped onto valid knots by `constrain`. Fitting runs momentum gradient
descent with a backtracking line search on hand-derived analytic
gradients. The sample pairs are sorted by input once, so every knot bin
is a contiguous run of samples: a loss evaluation spreads per-bin
constants over the runs instead of searching for each sample's bin, and
its gradient sums each run instead of scattering per sample. A loss
evaluation returns the gradient as a pullback, so the line search pays
for the gradient only at the steps it accepts.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc
from .errors import ConfigError, DimensionError, EvaluationError, FitError

MIN_BIN = 1e-3
MIN_SLOPE = 1e-3
MIN_SAMPLES = 64  # fewest sample pairs `fit_rqs` accepts

# counts inputs clamped back into [0, 1] by evaluation ops
clamp_counter = {"count": 0}


@dataclass(frozen=True)
class RqsParams:
    knots_x: np.ndarray  # K+1 increasing, 0..1
    knots_y: np.ndarray  # K+1 increasing, 0..1
    slopes: np.ndarray  # K+1 strictly positive

    def __post_init__(self):
        xs = np.asarray(self.knots_x, dtype=np.float64)
        ys = np.asarray(self.knots_y, dtype=np.float64)
        s = np.asarray(self.slopes, dtype=np.float64)
        if not (xs.shape == ys.shape == s.shape) or xs.ndim != 1 or xs.size < 3:
            raise DimensionError("knot arrays must share a 1-D shape with K+1 >= 3 entries")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ConfigError("knot abscissas and ordinates must be strictly increasing")
        if np.any(s <= 0):
            raise ConfigError("knot slopes must be strictly positive")
        object.__setattr__(self, "knots_x", xs)
        object.__setattr__(self, "knots_y", ys)
        object.__setattr__(self, "slopes", s)

    @property
    def num_bins(self):
        return self.knots_x.size - 1

    def to_json(self):
        return {
            "K": self.num_bins,
            "knots_x": self.knots_x.tolist(),
            "knots_y": self.knots_y.tolist(),
            "slopes": self.slopes.tolist(),
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            knots_x=np.array(doc["knots_x"]),
            knots_y=np.array(doc["knots_y"]),
            slopes=np.array(doc["slopes"]),
        )


def identity_params(K=8):
    grid = np.linspace(0.0, 1.0, K + 1)
    return RqsParams(grid, grid.copy(), np.ones(K + 1))


def constrain(raw, K):
    """Map an unconstrained vector of length 3K+1 onto valid spline knots."""
    if K < 2:
        raise ConfigError("K must be at least 2")
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (3 * K + 1,):
        raise DimensionError(f"raw parameter vector must have length {3 * K + 1}")
    widths = _normalized_bins(raw[:K], K)
    heights = _normalized_bins(raw[K : 2 * K], K)
    xs = np.concatenate(([0.0], np.cumsum(widths)))
    ys = np.concatenate(([0.0], np.cumsum(heights)))
    xs[-1] = 1.0
    ys[-1] = 1.0
    slopes = tc.softplus(raw[2 * K :]) + MIN_SLOPE
    return RqsParams(xs, ys, slopes)


def _normalized_bins(raw_bins, K):
    e = np.exp(raw_bins - np.max(raw_bins))
    frac = e / np.sum(e)
    return MIN_BIN + (1.0 - K * MIN_BIN) * frac


def _bin_index(p, y):
    return np.clip(np.searchsorted(p.knots_x, y, side="right") - 1, 0, p.num_bins - 1)


def _clamp_input(y):
    y = np.asarray(y, dtype=np.float64)
    # an in-range input is returned as it is; NaN fails the test and is counted below
    if y.size == 0 or y.min() >= 0.0 and y.max() <= 1.0:
        return y
    out = np.clip(y, 0.0, 1.0)
    n = int(np.sum(out != y))
    if n:
        clamp_counter["count"] += n
    return out


def _bin_locals(p, y, i=None):
    i = _bin_index(p, y) if i is None else i
    a = p.knots_x[i]
    c = p.knots_y[i]
    s0 = p.slopes[i]
    s1 = p.slopes[i + 1]
    w = p.knots_x[i + 1] - a
    u = (y - a) / w
    dy = p.knots_y[i + 1] - c
    delta = dy / w
    return a, c, s0, s1, w, u, dy, delta


def rqs_forward(p, y):
    """Evaluate the spline at y in [0, 1]."""
    y = _clamp_input(y)
    _, c, s0, s1, _, u, dy, delta = _bin_locals(p, y)
    t1 = u * (1.0 - u)
    den = delta + (s0 + s1 - 2.0 * delta) * t1
    num = delta * u * u + s0 * t1
    return c + dy * num / den


def rqs_derivative(p, y):
    """Analytic dy/dx of the spline; strictly positive on [0, 1]."""
    y = _clamp_input(y)
    _, _, s0, s1, _, u, _, delta = _bin_locals(p, y)
    t1 = u * (1.0 - u)
    den = delta + (s0 + s1 - 2.0 * delta) * t1
    num = delta * delta * (s1 * u * u + 2.0 * delta * t1 + s0 * (1.0 - u) ** 2)
    return num / (den * den)


def rqs_inverse(p, yhat):
    """Closed-form bin-local inversion of the spline."""
    yhat = _clamp_input(yhat)
    i = np.clip(np.searchsorted(p.knots_y, yhat, side="right") - 1, 0, p.num_bins - 1)
    a, c, s0, s1, w, _, dy, delta = _bin_locals(p, yhat, i)
    rel = yhat - c
    term = rel * (s0 + s1 - 2.0 * delta)
    qa = dy * (delta - s0) + term
    qb = dy * s0 - term
    qc = -delta * rel
    disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
    u = 2.0 * qc / (-qb - np.sqrt(disc))
    u = np.clip(u, 0.0, 1.0)
    return a + u * w


def smooth_penalty(p):
    """Sum of squared adjacent slope differences; zero iff slopes constant."""
    d = np.diff(p.slopes)
    return float(np.sum(d * d))


def _require_sorted(y):
    if y.ndim != 1 or np.any(y[1:] < y[:-1]):
        raise DimensionError("samples must be a 1-D array sorted ascending")


def forward_param_grad(p, y):
    """Spline values at sorted samples y, plus a pullback from dloss/df to the knots.

    Bin j holds the samples with knots_x[j] <= y < knots_x[j+1] (the last
    bin also y == 1), so in sorted samples each bin is one contiguous run:
    the per-bin constants are computed on K values and repeated over their
    runs, and the values equal `rqs_forward` bit for bit. The pullback maps
    dloss/df onto gradients wrt (knots_x, knots_y, slopes) by the
    hand-derived chain rule through the rational-quadratic bin formula,
    summing each run once per partial with the bin's constants factored
    out; pinned boundary knots still receive entries, the caller decides
    which coordinates are free. It runs only when called, so a value that
    is never differentiated costs one spline pass.
    """
    y = _clamp_input(y)
    _require_sorted(y)
    xs, ys, s = p.knots_x, p.knots_y, p.slopes
    starts = np.concatenate(([0], np.searchsorted(y, xs[1:-1], side="left")))
    counts = np.diff(starts, append=y.size)
    w = np.diff(xs)
    dy = np.diff(ys)
    delta = dy / w
    s0 = s[:-1]
    q = s0 + s[1:] - 2.0 * delta
    a_r, w_r, c_r, dy_r, delta_r, s0_r, q_r = (
        np.repeat(v, counts) for v in (xs[:-1], w, ys[:-1], dy, delta, s0, q))
    u = (y - a_r) / w_r
    t1 = u * (1.0 - u)
    den = delta_r + q_r * t1
    num = delta_r * u * u + s0_r * t1

    def pullback(dloss_df):
        nonempty = counts > 0
        firsts = starts[nonempty]

        def run_sums(v):
            out = np.zeros(w.size)
            out[nonempty] = np.add.reduceat(v, firsts)
            return out

        # df/dnum = dy/den and df/dden = -dy*num/den^2: with the bin's dy
        # factored out, dloss/df enters as r = g/den and m = g*num/den^2
        r = dloss_df / den
        rn = r * num
        m = rn / den
        omu = 1.0 - 2.0 * u
        d_u = r * (2.0 * delta_r * u + s0_r * omu) - m * q_r * omu
        d_delta = r * u * u - m * (1.0 - 2.0 * t1)
        g_delta = dy * run_sums(d_delta)
        g_s0 = dy * run_sums((r - m) * t1)
        g_s1 = -dy * run_sums(m * t1)
        # knots j and j+1 of bin j, through u = (y - a)/w and delta = dy/w
        g_a = (dy * run_sums(d_u * (u - 1.0)) + delta * g_delta) / w
        g_b = -(dy * run_sums(d_u * u) + delta * g_delta) / w
        g_d = run_sums(rn) + g_delta / w
        g_c = run_sums(dloss_df) - g_d

        # knot j starts bin j and ends bin j-1
        def to_knots(starting, ending):
            return np.append(starting, 0.0) + np.insert(ending, 0, 0.0)

        return to_knots(g_a, g_b), to_knots(g_c, g_d), to_knots(g_s0, g_s1)

    return c_r + dy_r * num / den, pullback


def constrain_backward(raw, K, gx, gy, gs):
    """Pull gradients on (knots_x, knots_y, slopes) back to the raw vector."""
    grad = np.zeros_like(raw)
    grad[: K] = _bins_backward(raw[:K], K, gx)
    grad[K : 2 * K] = _bins_backward(raw[K : 2 * K], K, gy)
    grad[2 * K :] = gs * tc.sigmoid(raw[2 * K :])
    return grad


def _bins_backward(raw_bins, K, g_knots):
    # knot j (1..K-1) = cumsum of bins; boundary knots are pinned constants
    d_bins = np.zeros(K)
    interior = g_knots[1:K]
    d_bins[: K - 1] = np.cumsum(interior[::-1])[::-1]
    e = np.exp(raw_bins - np.max(raw_bins))
    frac = e / np.sum(e)
    scale = 1.0 - K * MIN_BIN
    d_frac = scale * d_bins
    return frac * (d_frac - np.sum(d_frac * frac))


def _softplus_inv(y):
    return y + np.log(-np.expm1(-y))


def _build_warm_raw(grid, ys, ts_n, K):
    # raw vector whose constrained spline interpolates the empirical
    # normalized curve (ys, ts_n) at the given knot abscissas
    def fval(q):
        return np.interp(q, ys, ts_n, left=ts_n[0], right=ts_n[-1])

    knots = fval(grid)
    widths = np.maximum(np.diff(grid), 2.0 * MIN_BIN)
    widths /= np.sum(widths)
    heights = np.maximum(np.diff(knots), 2.0 * MIN_BIN)
    heights /= np.sum(heights)
    slopes = np.empty(K + 1)
    for i, g in enumerate(grid):
        # one-sided three-point slope estimates that never cross a knot
        ests = []
        if i > 0:
            h = min(4e-3, (g - grid[i - 1]) / 3.0)
            if h > 1e-6:
                ests.append((3.0 * fval(g) - 4.0 * fval(g - h) + fval(g - 2 * h)) / (2 * h))
        if i < K:
            h = min(4e-3, (grid[i + 1] - g) / 3.0)
            if h > 1e-6:
                ests.append((-3.0 * fval(g) + 4.0 * fval(g + h) - fval(g + 2 * h)) / (2 * h))
        slopes[i] = np.mean(ests) if ests else 1.0
    scale = 1.0 - K * MIN_BIN
    raw = np.zeros(3 * K + 1)
    raw[:K] = np.log(np.maximum((widths - MIN_BIN) / scale, 1e-6))
    raw[K : 2 * K] = np.log(np.maximum((heights - MIN_BIN) / scale, 1e-6))
    raw[2 * K :] = _softplus_inv(np.maximum(slopes - MIN_SLOPE, 2.0 * MIN_SLOPE))
    return raw


def _detect_knot_grid(ys, ts_n, K):
    """Knot abscissas at curvature jumps of the empirical curve, or None.

    A spline-generated target has step discontinuities in its second
    derivative at its own knots; isolated spikes in the differenced
    second divided difference (prominence above the nearby baseline)
    locate them. Returns None when fewer than K-1 usable spikes exist.
    """
    if ys.size < 8:
        return None
    d1 = np.diff(ts_n) / np.maximum(np.diff(ys), 1e-12)
    mid = 0.5 * (ys[1:] + ys[:-1])
    d2 = np.diff(d1) / np.maximum(np.diff(mid), 1e-12)
    jump = np.abs(np.diff(d2))
    left = np.concatenate((np.full(3, np.inf), jump[:-3]))
    right = np.concatenate((jump[3:], np.full(3, np.inf)))
    prominence = jump - np.minimum(left, right)
    jpos = ys[1:-2]
    chosen = []
    for i in np.argsort(prominence)[::-1]:
        if prominence[i] <= 0.0 or len(chosen) == K - 1:
            break
        if all(abs(jpos[i] - jpos[j]) >= 5e-3 for j in chosen):
            chosen.append(int(i))
    if len(chosen) < K - 1:
        return None
    g = np.sort(jpos[np.array(chosen)])
    gaps = np.diff(np.concatenate(([0.0], g, [1.0])))
    if np.any(gaps < 2.0 * MIN_BIN):
        return None
    return np.concatenate(([0.0], g, [1.0]))


def warm_start_raw(y_in, target, K):
    """Raw vector whose spline tracks the empirical input->target curve.

    Takes sample pairs sorted by input. Knot ordinates come from the
    monotone envelope of the pairs, slopes from one-sided secants;
    gradient descent then only has to polish. Two abscissa layouts are
    tried, a uniform grid and one placed at detected curvature jumps,
    keeping whichever matches the data better. Falls back to the identity
    for degenerate targets.
    """
    _require_sorted(y_in)
    ts = np.maximum.accumulate(target)
    span = ts[-1] - ts[0]
    if span < 1e-6:
        return np.zeros(3 * K + 1)
    ts_n = (ts - ts[0]) / span
    candidates = [_build_warm_raw(np.linspace(0.0, 1.0, K + 1), y_in, ts_n, K)]
    grid = _detect_knot_grid(y_in, ts_n, K)
    if grid is not None:
        candidates.append(_build_warm_raw(grid, y_in, ts_n, K))
    losses = [
        float(np.mean(np.abs(rqs_forward(constrain(raw, K), y_in) - ts_n)))
        for raw in candidates
    ]
    return candidates[int(np.argmin(losses))]


# fixed settings of the fitter
L1_DELTA = 1e-6  # smoothing width of sqrt(e^2 + delta^2)
MOMENTUM = 0.85
INIT_STEP = 0.5
MAX_BACKTRACKS = 40
ARMIJO = 1e-4


@dataclass
class FitConfig:
    lambda_l1: float = 1.0
    lambda_smooth: float = 1e-2
    iterations: int = 2000

    def to_json(self):
        return dict(self.__dict__)


def fit_loss_and_grad(raw, K, y_in, target, cfg):
    """Smoothed-L1 data term plus slope-smoothness penalty, and its gradient's pullback.

    Takes sample pairs sorted by y_in (see `forward_param_grad`).
    Returns (loss, grad_fn): calling grad_fn() returns the gradient wrt
    raw. The loss costs one spline pass; the gradient work runs only when
    grad_fn is called, so a rejected line-search trial never pays for it.
    """
    p = constrain(raw, K)
    pred, pullback = forward_param_grad(p, y_in)
    e = pred - target
    root = np.sqrt(e * e + L1_DELTA**2)
    data = float(np.mean(root))
    pen = smooth_penalty(p)
    loss = cfg.lambda_l1 * data + cfg.lambda_smooth * pen

    def grad_fn():
        dpred = cfg.lambda_l1 * (e / root) / e.size
        gx, gy, gs = pullback(dpred)
        s = p.slopes
        gpen = np.zeros_like(s)
        gpen[:-1] -= 2.0 * np.diff(s)
        gpen[1:] += 2.0 * np.diff(s)
        gs = gs + cfg.lambda_smooth * gpen
        return constrain_backward(raw, K, gx, gy, gs)

    return loss, grad_fn


def fit_rqs(y_in, target, K=8, cfg=None):
    """Fit spline parameters to paired (sdr luma, normalized hdr luma) samples.

    Returns (RqsParams, raw vector, loss trace). The pairs are sorted by
    input once, so the warm start and every loss evaluation read each knot
    bin as a contiguous run. The trace is monotone non-increasing by
    construction of the backtracking line search. Every line-search trial
    evaluates the loss; the gradient is pulled back only at the start point
    and at each accepted step, once per trace entry when no step is refused.
    """
    if cfg is None:
        cfg = FitConfig()
    y_in = np.asarray(y_in, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if y_in.shape != target.shape:
        raise DimensionError("sample arrays must have matching length")
    if y_in.size < MIN_SAMPLES:
        raise ConfigError(f"fit_rqs needs at least {MIN_SAMPLES} sample pairs")
    if K < 2:
        raise ConfigError("K must be at least 2")
    degenerate = bool(np.ptp(target) < 1e-9)
    # the gather also copies a strided view into a full frame contiguously
    order = np.argsort(y_in)
    y_in = y_in[order]
    target = target[order]

    raw = warm_start_raw(y_in, target, K)
    vel = np.zeros_like(raw)
    step = INIT_STEP
    trace = []
    loss, grad_fn = fit_loss_and_grad(raw, K, y_in, target, cfg)
    grad = grad_fn()
    for it in range(cfg.iterations):
        if not np.isfinite(loss):
            err = FitError(f"non-finite loss at iteration {it}")
            err.trace = np.array(trace)
            raise err
        trace.append(loss)
        dirn = MOMENTUM * vel - grad
        slope = float(np.dot(grad, dirn))
        if slope >= 0.0:
            dirn = -grad
            vel[:] = 0.0
            slope = -float(np.dot(grad, grad))
        step = min(step * 2.0, 1e3)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = raw + step * dirn
            cand_loss, cand_grad_fn = fit_loss_and_grad(cand, K, y_in, target, cfg)
            if np.isfinite(cand_loss) and cand_loss <= loss + ARMIJO * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        vel = step * dirn
        raw, loss, grad = cand, cand_loss, cand_grad_fn()
    trace.append(loss)
    if not np.isfinite(loss):
        raise EvaluationError("fit ended on a non-finite loss")
    params = constrain(raw, K)
    if degenerate:
        warnings.warn("constant fit targets; returned spline is data-degenerate")
    return params, raw, np.array(trace)


def save_fit(path, params, raw, cfg):
    doc = {
        "params": params.to_json(),
        "provenance": {"raw": np.asarray(raw).tolist(), "cfg": cfg.to_json()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
