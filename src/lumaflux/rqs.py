"""Monotone rational-quadratic spline tone field.

A spline on [0, 1] is defined by K+1 increasing knot abscissas and
ordinates (both pinned to (0,0) and (1,1)) plus strictly positive knot
slopes, which together give a strictly increasing, C1, invertible map.
Free parameters live in an unconstrained vector of length 3K+1 and are
mapped onto valid knots by `constrain`, for 2 <= K <= MAX_BINS.
Every evaluator reads one per-bin table of constants (`_bin_table`):
forward, derivative and inverse gather it per sample after one bin
search. Fitting runs Levenberg-Marquardt on hand-derived analytic
derivatives. The sample pairs are sorted once, so every knot bin is a
contiguous run of samples: a loss evaluation repeats the table over the
runs instead of searching for each sample's bin, and forms each
sample's six partials wrt its bin's end knots as six rows of N, so every
product on them runs along one contiguous row; the gradient and the
Gauss-Newton curvature are run sums of those rows, built only for the
steps the fit accepts. `fit_json` renders a fit as the `.rqs.json`
text that `fit-expand` writes; this module writes no file.
"""

import json
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc
from .errors import ConfigError, DimensionError, FitError

MIN_BIN = 1e-3
MAX_BINS = 999  # largest K with K * MIN_BIN < 1, so each bin keeps a share above its floor
MIN_SLOPE = 1e-3
MIN_SAMPLES = 64  # fewest sample pairs `fit_rqs` accepts

# counts inputs clamped back into [0, 1] by evaluation ops; row bands
# evaluate the spline on several threads, so updates hold _clamp_lock
clamp_counter = {"count": 0}
_clamp_lock = threading.Lock()


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


def _check_bins(K):
    if not 2 <= K <= MAX_BINS:
        raise ConfigError(f"K must be in [2, {MAX_BINS}], got {K!r}")


def constrain(raw, K):
    """Map an unconstrained vector of length 3K+1 onto valid spline knots."""
    _check_bins(K)
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (3 * K + 1,):
        raise DimensionError(f"raw parameter vector must have length {3 * K + 1}")
    scale = 1.0 - K * MIN_BIN
    widths = MIN_BIN + scale * _softmax(raw[:K])
    heights = MIN_BIN + scale * _softmax(raw[K : 2 * K])
    xs = np.concatenate(([0.0], np.cumsum(widths)))
    ys = np.concatenate(([0.0], np.cumsum(heights)))
    xs[-1] = 1.0
    ys[-1] = 1.0
    slopes = tc.softplus(raw[2 * K :]) + MIN_SLOPE
    return RqsParams(xs, ys, slopes)


def _softmax(v):
    e = np.exp(v - np.max(v))
    return e / np.sum(e)


def _clamp_input(y):
    y = np.asarray(y, dtype=np.float64)
    # an in-range input is returned as it is; NaN fails the test and is counted below
    if y.size == 0 or y.min() >= 0.0 and y.max() <= 1.0:
        return y
    out = np.clip(y, 0.0, 1.0)
    n = int(np.sum(out != y))
    if n:
        with _clamp_lock:
            clamp_counter["count"] += n
    return out


# the per-bin table every evaluator reads, each entry of length K (bin j spans
# knots j and j+1): left knot a, width w, left ordinate c, rise dy, secant
# delta = dy/w, knot slopes s0 and s1, and q = s0 + s1 - 2 delta
_Bins = namedtuple("_Bins", "a w c dy delta s0 s1 q")


def _bin_table(p):
    xs, ys, s = p.knots_x, p.knots_y, p.slopes
    w = np.diff(xs)
    dy = np.diff(ys)
    delta = dy / w
    s0, s1 = s[:-1], s[1:]
    return _Bins(xs[:-1], w, ys[:-1], dy, delta, s0, s1, s0 + s1 - 2.0 * delta)


def _gather(p, knots, v):
    # the table at each sample's bin, found by searching knots_x or knots_y
    i = np.clip(np.searchsorted(knots, v, side="right") - 1, 0, p.num_bins - 1)
    return _Bins._make(col[i] for col in _bin_table(p))


def _rq_terms(p, y):
    # each sample's bin, its position u in the bin, u(1-u) and the denominator
    y = _clamp_input(y)
    b = _gather(p, p.knots_x, y)
    u = (y - b.a) / b.w
    t1 = u * (1.0 - u)
    return b, u, t1, b.delta + b.q * t1


def rqs_forward(p, y):
    """Evaluate the spline at y in [0, 1]."""
    b, u, t1, den = _rq_terms(p, y)
    return b.c + b.dy * (b.delta * u * u + b.s0 * t1) / den


def rqs_derivative(p, y):
    """Analytic dy/dx of the spline; strictly positive on [0, 1]."""
    b, u, t1, den = _rq_terms(p, y)
    num = b.delta * b.delta * (b.s1 * u * u + 2.0 * b.delta * t1 + b.s0 * (1.0 - u) ** 2)
    return num / (den * den)


def rqs_inverse(p, yhat):
    """Closed-form bin-local inversion of the spline."""
    yhat = _clamp_input(yhat)
    b = _gather(p, p.knots_y, yhat)
    rel = yhat - b.c
    term = rel * b.q
    qa = b.dy * (b.delta - b.s0) + term
    qb = b.dy * b.s0 - term
    qc = -b.delta * rel
    disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
    u = 2.0 * qc / (-qb - np.sqrt(disc))
    return b.a + np.clip(u, 0.0, 1.0) * b.w


def smooth_penalty(p):
    """Sum of squared adjacent slope differences; zero iff slopes constant."""
    d = np.diff(p.slopes)
    return float(np.sum(d * d))


def _require_sorted(y):
    if y.ndim != 1 or np.any(y[1:] < y[:-1]):
        raise DimensionError("samples must be a 1-D array sorted ascending")


def forward_param_grad(p, y):
    """Spline values at sorted samples y, their partials wrt the knots, and the bin runs.

    Bin j holds the samples with knots_x[j] <= y < knots_x[j+1] (the last
    bin also y == 1), so in sorted samples each bin is one contiguous run
    that starts at starts[j]: the bin table's entries this kernel reads are
    repeated over their runs, and the values equal `rqs_forward` bit for
    bit. The partials are six rows of N: column i holds df_i/d(knots_x[j],
    knots_x[j+1], knots_y[j], knots_y[j+1], slopes[j], slopes[j+1]) for
    sample i's bin j, by the hand-derived chain rule through the
    rational-quadratic bin formula; pinned boundary knots still receive
    entries, the caller decides which coordinates are free.
    """
    y = _clamp_input(y)
    _require_sorted(y)
    b = _bin_table(p)
    starts = np.concatenate(([0], np.searchsorted(y, b.a[1:], side="left")))
    counts = np.diff(starts, append=y.size)
    a_r, w_r, c_r, dy_r, delta_r, s0_r, q_r = (
        np.repeat(v, counts) for v in (b.a, b.w, b.c, b.dy, b.delta, b.s0, b.q))
    u = (y - a_r) / w_r
    t1 = u * (1.0 - u)
    den = delta_r + q_r * t1
    num = delta_r * u * u + s0_r * t1
    # f = c + dy*num/den; with the bin's dy factored out, d(num/den) is
    # r*dnum - m*dden for r = 1/den and m = num/den^2
    r = 1.0 / den
    m = num * r * r
    omu = 1.0 - 2.0 * u
    d_u = r * (2.0 * delta_r * u + s0_r * omu) - m * q_r * omu
    d_delta = r * u * u - m * (1.0 - 2.0 * t1)
    jac = np.empty((6, y.size))
    # knots j and j+1 of bin j, through u = (y - a)/w and delta = dy/w
    jac[0] = delta_r * (d_u * (u - 1.0) + delta_r * d_delta)
    jac[1] = -delta_r * (d_u * u + delta_r * d_delta)
    jac[3] = num * r + delta_r * d_delta
    jac[2] = 1.0 - jac[3]
    jac[4] = dy_r * (r - m) * t1
    jac[5] = -dy_r * m * t1
    return c_r + dy_r * num / den, jac, starts


def constrain_backward(raw, K, gx, gy, gs):
    """Pull gradients on (knots_x, knots_y, slopes) back to the raw vector.

    Each of gx, gy and gs has K+1 rows. Columns of a matrix are pulled
    back together: with C = d(knots)/d(raw), one call maps H to C^T H and
    a second call on its transpose gives C^T H C.
    """
    grad = np.empty((3 * K + 1,) + np.shape(gs)[1:])
    rows = (slice(None),) + (None,) * (grad.ndim - 1)  # a per-row factor, broadcast
    for lo, g_knots in ((0, gx), (K, gy)):
        # knot j (1..K-1) = cumsum of bins; boundary knots are pinned constants
        d_bins = np.zeros((K,) + grad.shape[1:])
        d_bins[: K - 1] = np.cumsum(g_knots[K - 1 : 0 : -1], axis=0)[::-1]
        frac = _softmax(raw[lo : lo + K])[rows]
        d_frac = (1.0 - K * MIN_BIN) * d_bins
        grad[lo : lo + K] = frac * (d_frac - np.sum(d_frac * frac, axis=0))
    grad[2 * K :] = gs * tc.sigmoid(raw[2 * K :])[rows]
    return grad


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
    the fit then only has to polish. Two abscissa layouts are
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
REL_TOL = 1e-10  # a trial that moves the loss by less than this share of it ends the fit
INIT_DAMPING = 1e-3  # Marquardt's damping mu at the warm start
MIN_DAMPING = 1e-8  # keeps H + mu diag H invertible where H is singular (softmax shifts)


@dataclass
class FitConfig:
    # the penalty's weight against the data term's 1: the minimiser depends only on the ratio
    lambda_smooth: float = 1e-3
    iterations: int = 50

    def to_json(self):
        return dict(self.__dict__)


def _run_sums(v, starts, nonempty):
    # each row of v summed over each bin's run of sorted samples, (rows, K); an
    # empty run sums to zero. nonempty marks the runs that hold a sample
    out = np.zeros((v.shape[0], starts.size))
    out[:, nonempty] = np.add.reduceat(v, starts[nonempty], axis=1)
    return out


def fit_loss_and_grad(raw, K, y_in, target, cfg):
    """Smoothed-L1 data term plus slope-smoothness penalty, and its derivatives.

    Takes sample pairs sorted by y_in (see `forward_param_grad`).
    Returns (loss, derivs): calling derivs() returns the gradient wrt raw
    and the Gauss-Newton curvature, in which each sample's residual e
    counts with its IRLS weight 1/sqrt(e^2 + delta^2). Both are run sums,
    along each row, of the six rows of per-sample partials, assembled on
    the 3(K+1) knot coordinates and pulled back by `constrain_backward`.
    The loss costs one `forward_param_grad` pass, partials included; their
    run sums are taken only when derivs is called, so a refused trial does
    not pay for those.
    """
    p = constrain(raw, K)
    pred, jac, starts = forward_param_grad(p, y_in)
    e = pred - target
    root = np.sqrt(e * e + L1_DELTA**2)
    loss = float(np.mean(root)) + cfg.lambda_smooth * smooth_penalty(p)

    def derivs():
        jw = jac / (root * e.size)
        nonempty = np.diff(starts, append=e.size) > 0
        n = 3 * (K + 1)
        # the knot coordinates of bin j's six partials, in the order of jac's rows
        idx = (np.arange(K)[:, None] + [0, 1, K + 1, K + 2, 2 * K + 2, 2 * K + 3]).ravel()
        g = np.bincount(idx, weights=_run_sums(jw * e, starts, nonempty).T.ravel(), minlength=n)
        # bin j's 6 x 6 block, one row of partials at a time: the run sums of one
        # 36 x N product, element for element, from 6 x N temporaries
        block = np.empty((K, 6, 6))
        for a in range(6):
            block[:, a] = _run_sums(jw[a] * jac, starts, nonempty).T
        h = np.bincount((idx.reshape(K, 6, 1) * n + idx.reshape(K, 1, 6)).ravel(),
                        weights=block.ravel(), minlength=n * n).reshape(n, n)
        # the penalty lambda*|D s|^2, D the slope difference, is quadratic in the slopes
        diff = np.diff(np.eye(K + 1), axis=0)
        pen = 2.0 * cfg.lambda_smooth * diff.T @ diff
        g[2 * K + 2 :] += pen @ p.slopes
        h[2 * K + 2 :, 2 * K + 2 :] += pen
        half = constrain_backward(raw, K, *h.reshape(3, K + 1, n))
        return (constrain_backward(raw, K, *g.reshape(3, K + 1)),
                constrain_backward(raw, K, *half.T.reshape(3, K + 1, 3 * K + 1)))

    return loss, derivs


def fit_rqs(y_in, target, K=8, cfg=None):
    """Fit spline parameters to paired (sdr luma, normalized hdr luma) samples.

    Returns (RqsParams, raw vector, loss trace). The pairs are sorted once,
    by input and ties by target, so the sorted arrays, and every output,
    depend only on the multiset of pairs; the warm start and every loss
    evaluation read each knot bin as a contiguous run. The fit is
    Levenberg-Marquardt on the Gauss-Newton curvature (Marquardt 1963):
    each trial solves (H + mu diag H) step = -grad and costs one loss
    evaluation; it is accepted only if it lowers the loss, which divides
    the damping mu by 3 (down to MIN_DAMPING), and a refused trial
    multiplies mu by 10. The
    gradient and curvature are built at the start point and once per
    accepted step. The trace holds the start loss and the loss after each
    trial, so it is monotone non-increasing. The fit ends after a trial
    that moves the loss by less than REL_TOL of it, when no coordinate has
    curvature left, or after cfg.iterations trials. Targets that spread
    less than 1e-9 raise FitError: no spline through (0, 0) and (1, 1)
    follows them, so any fit would be degenerate.
    """
    if cfg is None:
        cfg = FitConfig()
    y_in = np.asarray(y_in, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if y_in.shape != target.shape:
        raise DimensionError("sample arrays must have matching length")
    if y_in.size < MIN_SAMPLES:
        raise ConfigError(f"fit_rqs needs at least {MIN_SAMPLES} sample pairs")
    _check_bins(K)
    if np.ptp(target) < 1e-9:
        raise FitError("constant fit targets: no monotone spline through (0, 0) and (1, 1) "
                       "follows them")
    # the gather also copies a strided view into a full frame contiguously
    order = np.lexsort((target, y_in))
    y_in = y_in[order]
    target = target[order]

    raw = warm_start_raw(y_in, target, K)
    loss, derivs = fit_loss_and_grad(raw, K, y_in, target, cfg)
    if not np.isfinite(loss):
        raise FitError("non-finite loss at the warm start")
    grad, curv = derivs()
    damping = INIT_DAMPING
    trace = [loss]
    for _ in range(cfg.iterations):
        scale = np.diag(curv)
        if not scale.max() > 0.0:
            break  # no coordinate moves the loss, as when every bin has saturated
        # a coordinate no sample or penalty reaches has no curvature of its own
        scale = np.maximum(scale, 1e-12 * scale.max())
        try:
            cand = raw - np.linalg.solve(curv + np.diag(damping * scale), grad)
        except np.linalg.LinAlgError:
            break  # a subnormal curvature, whose floor and damping underflow to zero
        cand_loss, derivs = fit_loss_and_grad(cand, K, y_in, target, cfg)
        converged = abs(loss - cand_loss) <= REL_TOL * loss
        if cand_loss < loss:
            raw, loss = cand, cand_loss
            grad, curv = derivs()
            damping = max(damping / 3.0, MIN_DAMPING)
        else:
            damping *= 10.0
        trace.append(loss)
        if converged:
            break
    return constrain(raw, K), raw, np.array(trace)


def fit_json(params, raw, cfg):
    """The `.rqs.json` text of a fit: its params, and its raw vector and config as provenance."""
    doc = {
        "params": params.to_json(),
        "provenance": {"raw": np.asarray(raw).tolist(), "cfg": cfg.to_json()},
    }
    return json.dumps(doc, indent=2)
