import hashlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lumaflux import pfm
from lumaflux import rqs
from lumaflux import tensorcore as tc
from lumaflux.errors import ConfigError, DimensionError, FitError
from test_tensorcore import fix_band_rows


def random_params(rng, K=8):
    return rqs.constrain(rng.normal(0.0, 1.0, 3 * K + 1), K)


def bisect_inverse(p, target, tol=1e-13):
    """Oracle inversion by bisection on the monotone forward map."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(rqs.rqs_forward(p, np.array(mid))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_sample_closed_forms(p, y, yhat):
    """rqs_derivative at y and rqs_inverse at yhat, written on knots gathered per sample."""

    def gather(knots, v):
        i = np.clip(np.searchsorted(knots, v, side="right") - 1, 0, p.num_bins - 1)
        a, b = p.knots_x[i], p.knots_x[i + 1]
        c, d = p.knots_y[i], p.knots_y[i + 1]
        return a, b - a, c, d - c, p.slopes[i], p.slopes[i + 1]

    a, w, c, dy, s0, s1 = gather(p.knots_x, y)
    delta = dy / w
    u = (y - a) / w
    t1 = u * (1.0 - u)
    den = delta + (s0 + s1 - 2.0 * delta) * t1
    deriv = delta * delta * (s1 * u * u + 2.0 * delta * t1 + s0 * (1.0 - u) ** 2) / (den * den)

    a, w, c, dy, s0, s1 = gather(p.knots_y, yhat)
    delta = dy / w
    rel = yhat - c
    term = rel * (s0 + s1 - 2.0 * delta)
    qa = dy * (delta - s0) + term
    qb = dy * s0 - term
    qc = -delta * rel
    u = 2.0 * qc / (-qb - np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)))
    return deriv, a + np.clip(u, 0.0, 1.0) * w


class TestParams:
    def test_identity_params_valid(self):
        p = rqs.identity_params(8)
        assert p.num_bins == 8
        np.testing.assert_array_equal(p.knots_x, p.knots_y)

    def test_json_round_trip(self):
        p = random_params(np.random.default_rng(0))
        q = rqs.RqsParams.from_json(p.to_json())
        np.testing.assert_allclose(q.knots_x, p.knots_x, atol=1e-15)
        np.testing.assert_allclose(q.slopes, p.slopes, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            rqs.RqsParams(np.array([0.0, 0.5, 0.4]), np.array([0.0, 0.5, 1.0]),
                          np.ones(3))
        with pytest.raises(ConfigError):
            rqs.RqsParams(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]),
                          np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DimensionError):
            rqs.RqsParams(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.ones(2))


class TestConstrain:
    def test_endpoints_pinned(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_params(rng, K=6)
            assert p.knots_x[0] == 0.0 and p.knots_x[-1] == 1.0
            assert p.knots_y[0] == 0.0 and p.knots_y[-1] == 1.0

    def test_bin_floors(self):
        # extreme raw values cannot collapse a bin below the floor
        raw = np.zeros(3 * 8 + 1)
        raw[0] = 50.0
        p = rqs.constrain(raw, 8)
        assert np.diff(p.knots_x).min() >= rqs.MIN_BIN * 0.999
        assert p.slopes.min() >= rqs.MIN_SLOPE

    def test_zero_raw_is_uniform(self):
        p = rqs.constrain(np.zeros(3 * 4 + 1), 4)
        np.testing.assert_allclose(p.knots_x, np.linspace(0, 1, 5), atol=1e-12)

    def test_zero_raw_slopes_are_softplus_zero(self):
        p = rqs.constrain(np.zeros(3 * 8 + 1), 8)
        expected = np.log(2.0) + rqs.MIN_SLOPE  # softplus(0) + floor
        np.testing.assert_allclose(p.slopes, expected, atol=1e-12)
        assert expected == pytest.approx(0.6941, abs=5e-5)

    def test_bad_length(self):
        with pytest.raises(DimensionError):
            rqs.constrain(np.zeros(10), 4)

    def test_bin_count_bound(self):
        # every bin keeps a share above its floor only while K * MIN_BIN < 1
        K = rqs.MAX_BINS
        assert K * rqs.MIN_BIN < 1.0 <= (K + 1) * rqs.MIN_BIN
        raw = np.zeros(3 * K + 1)
        raw[0] = 50.0
        assert np.diff(rqs.constrain(raw, K).knots_x).min() >= rqs.MIN_BIN * 0.999
        for K in (rqs.MAX_BINS + 1, 5000):
            with pytest.raises(ConfigError):
                rqs.constrain(np.zeros(3 * K + 1), K)
        x = np.linspace(0.0, 1.0, 128)
        with pytest.raises(ConfigError):
            rqs.fit_rqs(x, x, K=rqs.MAX_BINS + 1)


class TestEvaluation:
    def test_identity_spline_exact(self):
        p = rqs.identity_params(8)
        y = np.linspace(0.0, 1.0, 4097)
        assert np.max(np.abs(rqs.rqs_forward(p, y) - y)) <= 1e-12
        assert np.max(np.abs(rqs.rqs_derivative(p, y) - 1.0)) <= 1e-12

    def test_monotone_random_params(self):
        rng = np.random.default_rng(2)
        y = np.linspace(0.0, 1.0, 4096)
        for _ in range(100):
            p = random_params(rng)
            f = rqs.rqs_forward(p, y)
            assert np.all(np.diff(f) > 0)
            assert np.all(rqs.rqs_derivative(p, y) > 0)

    def test_knots_interpolated(self):
        p = random_params(np.random.default_rng(3))
        np.testing.assert_allclose(rqs.rqs_forward(p, p.knots_x), p.knots_y, atol=1e-12)

    def test_derivative_at_knots_equals_stored_slopes(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_params(rng)
            d = rqs.rqs_derivative(p, p.knots_x)
            np.testing.assert_allclose(d, p.slopes, atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0.0, 1.0, 4096)
        for _ in range(10):
            p = random_params(rng)
            f = rqs.rqs_forward(p, y)
            assert np.max(np.abs(rqs.rqs_inverse(p, f) - y)) <= 1e-9

    def test_inverse_matches_bisection_oracle(self):
        rng = np.random.default_rng(5)
        p = random_params(rng)
        for target in rng.uniform(0.01, 0.99, 8):
            x_closed = float(rqs.rqs_inverse(p, np.array(target)))
            x_oracle = bisect_inverse(p, target)
            assert abs(x_closed - x_oracle) < 1e-9

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        y = rng.uniform(0.05, 0.95, 64)
        h = 1e-7
        fd = (rqs.rqs_forward(p, y + h) - rqs.rqs_forward(p, y - h)) / (2 * h)
        np.testing.assert_allclose(rqs.rqs_derivative(p, y), fd, rtol=1e-5)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), K=st.integers(2, 12))
    def test_property_monotone_and_invertible(self, data, K):
        raw = data.draw(arrays(np.float64, 3 * K + 1, elements=st.floats(-5.0, 5.0)))
        x = data.draw(arrays(np.float64, 32, elements=st.floats(0.0, 1.0)))
        p = rqs.constrain(raw, K)
        assert np.all(np.diff(rqs.rqs_forward(p, np.linspace(0.0, 1.0, 1025))) > 0)
        np.testing.assert_allclose(rqs.rqs_inverse(p, rqs.rqs_forward(p, x)), x,
                                   rtol=0, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), K=st.integers(2, 12))
    def test_property_derivative_and_inverse_match_closed_forms(self, data, K):
        raw = data.draw(arrays(np.float64, 3 * K + 1, elements=st.floats(-5.0, 5.0)))
        p = rqs.constrain(raw, K)
        y, yhat = (data.draw(arrays(np.float64, 32, elements=st.floats(0.0, 1.0)))
                   for _ in range(2))
        if data.draw(st.booleans()):
            y, yhat = np.concatenate((y, p.knots_x)), np.concatenate((yhat, p.knots_y))
        deriv, inv = per_sample_closed_forms(p, y, yhat)
        assert np.array_equal(rqs.rqs_derivative(p, y), deriv)
        assert np.array_equal(rqs.rqs_inverse(p, yhat), inv)

    def test_out_of_range_clamped_and_counted(self):
        p = rqs.identity_params(4)
        before = rqs.clamp_counter["count"]
        v = rqs.rqs_forward(p, np.array([-0.5, 0.5, 1.5]))
        assert rqs.clamp_counter["count"] == before + 2
        np.testing.assert_allclose(v, [0.0, 0.5, 1.0], atol=1e-12)

    def test_count_is_exact_when_bands_run_on_two_threads(self, monkeypatch):
        # 200 bands of 3 rows, 7 out-of-range samples each; a lost update
        # would leave the threaded count short of the serial one
        p = rqs.identity_params(4)
        y = np.tile([[-0.5, 0.2, 1.5, 0.7, np.inf, -1e-9, 1.0, 2.0, 0.0, -3.0]], (600, 1))
        fix_band_rows(monkeypatch, 3)

        def count(workers):
            before = rqs.clamp_counter["count"]
            for _ in range(5):
                tc.map_row_bands(lambda rows: rqs.rqs_forward(p, y[rows]), *y.shape, workers)
            return rqs.clamp_counter["count"] - before

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            serial = count(1)
            threaded = count(2)
        finally:
            sys.setswitchinterval(interval)
        assert serial == 5 * 600 * 6
        assert threaded == serial


class TestFitLoss:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.raw = rng.normal(0.0, 0.5, 3 * 6 + 1)
        x = rng.uniform(0.0, 1.0, 256)
        tgt = rng.uniform(0.0, 1.0, 256)
        order = np.argsort(x)
        self.x, self.tgt = x[order], tgt[order]
        self.cfg = rqs.FitConfig()

    def test_loss_matches_forward_and_penalty(self):
        p = rqs.constrain(self.raw, 6)
        e = rqs.rqs_forward(p, self.x) - self.tgt
        data = float(np.mean(np.sqrt(e * e + rqs.L1_DELTA**2)))
        expected = data + self.cfg.lambda_smooth * rqs.smooth_penalty(p)
        assert rqs.fit_loss_and_grad(self.raw, 6, self.x, self.tgt, self.cfg)[0] == expected

    def test_one_evaluation_counts_each_clamp_once(self):
        x = self.x.copy()
        x[[0, 254, 255]] = [-0.2, 1.3, 2.0]
        before = rqs.clamp_counter["count"]
        rqs.fit_loss_and_grad(self.raw, 6, x, self.tgt, self.cfg)
        assert rqs.clamp_counter["count"] == before + 3

    def test_unsorted_samples_are_refused(self):
        # one swapped pair would otherwise put two samples in the wrong bin runs
        x = self.x.copy()
        x[[100, 101]] = x[[101, 100]]
        with pytest.raises(DimensionError):
            rqs.forward_param_grad(rqs.constrain(self.raw, 6), x)
        with pytest.raises(DimensionError):
            rqs.fit_loss_and_grad(self.raw, 6, x, self.tgt, self.cfg)
        with pytest.raises(DimensionError):
            rqs.warm_start_raw(x, self.tgt, 6)


def per_sample_partials(p, y, magnitude=False):
    """Per-sample reference for the partials of `forward_param_grad`.

    Each sample's bin knots are gathered by a search and its six partials
    written out term by term. With magnitude=True every product enters by
    its absolute value, which bounds the rounding error of any evaluation
    order of the same terms.
    """
    A = np.abs if magnitude else (lambda v: v)
    i = np.clip(np.searchsorted(p.knots_x, y, side="right") - 1, 0, p.num_bins - 1)
    a, b = p.knots_x[i], p.knots_x[i + 1]
    c, d = p.knots_y[i], p.knots_y[i + 1]
    s0, s1 = p.slopes[i], p.slopes[i + 1]
    w = b - a
    u = (y - a) / w
    dy = d - c
    delta = dy / w
    t1 = u * (1.0 - u)
    den = delta + (s0 + s1 - 2.0 * delta) * t1
    num = delta * u * u + s0 * t1
    f_num = A(dy / den)
    f_den = A(-dy * num / (den * den))
    d_delta = f_num * u * u + A(f_den * (1.0 - 2.0 * t1))
    d_u = (A(f_num * (2.0 * delta * u + A(s0 * (1.0 - 2.0 * u))))
           + A(f_den * (s0 + s1 - 2.0 * delta) * (1.0 - 2.0 * u)))
    d_dy = num / den + A(d_delta / w)
    return np.stack([A(d_u * (u - 1.0) / w) + A(d_delta * delta / w),
                     A(-d_u * u / w) + A(-d_delta * delta / w),
                     1.0 + A(-d_dy), d_dy,
                     A(f_num + f_den) * t1, f_den * t1])


class TestSortedKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), K=st.integers(2, 12))
    def test_matches_forward_and_per_sample_partials(self, data, K):
        raw = data.draw(arrays(np.float64, 3 * K + 1, elements=st.floats(-5.0, 5.0)))
        p = rqs.constrain(raw, K)
        # samples in some bins only, possibly all in one, at drawn fractions of their width
        occupied = sorted(data.draw(st.sets(st.integers(0, K - 1), min_size=1)))
        j = np.array(data.draw(st.lists(st.sampled_from(occupied), min_size=1, max_size=40)))
        frac = data.draw(arrays(np.float64, j.size,
                                elements=st.floats(0.0, 1.0, exclude_max=True)))
        y = p.knots_x[j] + frac * np.diff(p.knots_x)[j]
        if data.draw(st.booleans()):
            # 0, 1 and every interior knot exactly; each interior knot opens its bin
            y = np.concatenate((y, p.knots_x))
        y = np.sort(y)

        pred, jac, starts = rqs.forward_param_grad(p, y)
        assert np.array_equal(pred, rqs.rqs_forward(p, y))
        bins = np.clip(np.searchsorted(p.knots_x, y, side="right") - 1, 0, K - 1)
        assert np.array_equal(starts, np.searchsorted(bins, np.arange(K)))
        ref = per_sample_partials(p, y)
        bound = per_sample_partials(p, y, magnitude=True)
        # tiny: products of subnormal samples lose relative precision
        assert np.all(np.abs(jac - ref) <= 1e-12 * bound + np.finfo(float).tiny)


class TestSmoothPenalty:
    def test_constant_slopes_zero(self):
        assert rqs.smooth_penalty(rqs.identity_params(8)) == 0.0

    def test_closed_form(self):
        p = rqs.RqsParams(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]),
                          np.array([1.0, 3.0, 2.0]))
        assert rqs.smooth_penalty(p) == pytest.approx(4.0 + 1.0)

    def test_invariant_under_slope_reversal(self):
        rng = np.random.default_rng(12)
        grid = np.linspace(0.0, 1.0, 6)
        for _ in range(10):
            s = rng.uniform(0.2, 3.0, 6)
            fwd = rqs.RqsParams(grid, grid.copy(), s)
            rev = rqs.RqsParams(grid, grid.copy(), s[::-1].copy())
            assert rqs.smooth_penalty(fwd) == pytest.approx(
                rqs.smooth_penalty(rev), rel=1e-14)


class TestFitGradients:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 1.0, 256)
        tgt = x**2
        cfg = rqs.FitConfig()
        worst = 0.0
        for _ in range(5):
            theta = rng.normal(0.0, 0.5, 3 * 6 + 1)
            g = rqs.fit_loss_and_grad(theta, 6, x, tgt, cfg)[1]()[0]
            fd = tc.finite_diff_grad(
                lambda th: rqs.fit_loss_and_grad(th, 6, x, tgt, cfg)[0], theta, 1e-6)
            rel = np.max(np.abs(g - fd) / np.maximum(np.abs(g) + np.abs(fd), 1e-8))
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_curvature_is_gauss_newton_on_difference_jacobians(self):
        # J^T W J + 2 lambda (DS)^T (DS): J = dpred/draw and S = dslopes/draw by
        # central differences, W the IRLS weights, D the slope difference
        theta = np.random.default_rng(10).normal(0.0, 0.5, 3 * 6 + 1)
        x = np.linspace(0.0, 1.0, 256)
        tgt = x**2
        cfg = rqs.FitConfig()

        def central(f):
            steps = 1e-6 * np.eye(theta.size)
            return np.stack([(f(theta + h) - f(theta - h)) / 2e-6 for h in steps], axis=1)

        jac = central(lambda th: rqs.rqs_forward(rqs.constrain(th, 6), x))
        dslopes = np.diff(central(lambda th: rqs.constrain(th, 6).slopes), axis=0)
        e = rqs.rqs_forward(rqs.constrain(theta, 6), x) - tgt
        w = 1.0 / (np.sqrt(e * e + rqs.L1_DELTA**2) * x.size)
        ref = jac.T @ (w[:, None] * jac) + 2.0 * cfg.lambda_smooth * dslopes.T @ dslopes
        curv = rqs.fit_loss_and_grad(theta, 6, x, tgt, cfg)[1]()[1]
        assert np.max(np.abs(curv - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_constrain_jacobian_finite(self):
        theta = np.random.default_rng(8).normal(0.0, 1.0, 3 * 4 + 1)
        probe = lambda th: float(np.sum(rqs.rqs_forward(rqs.constrain(th, 4),
                                                        np.linspace(0.1, 0.9, 17))))
        jac = tc.finite_diff_grad(probe, theta, 1e-6)
        assert np.all(np.isfinite(jac))


def pinned_fit_set(seed, K):
    """Seeded unsorted (input, target) pairs; the K = 12 set leaves bins empty."""
    rng = np.random.default_rng(seed)
    n = {2: 700, 8: 3000, 12: 2000}[K]
    if K == 12:
        # no input in (0.2, 0.8): every loss evaluation of the fit has bins with no sample
        y = np.concatenate((rng.uniform(0.0, 0.2, n // 2), rng.uniform(0.8, 1.0, n - n // 2)))
    elif K == 8:
        y = np.round(rng.uniform(0.0, 1.0, n) * 255.0) / 255.0  # 8-bit codes: many ties
    else:
        y = rng.uniform(0.0, 1.0, n)
    t = np.clip(y ** 2.2 * 1.1 / (y ** 2.2 + 0.1) + rng.normal(0.0, 0.01, n), 0.0, 1.0)
    return y, t


# K -> (seed, trace length, float.hex of the final loss, sha256 of the float.hex
# lines of the raw vector, then the trace); recorded when the partials were N x 6
# rows, so they also pin that the partials' layout moves no bit of a fit
FIT_PINS = {
    2: (1, 51, "0x1.5666548560045p-7",
        "732d785c63a95835a6e8b2e6f4e97161677c9f90d0ffe157650ed12243e3a4e3"),
    8: (2, 51, "0x1.1555b03348454p-7",
        "4fa6850989cd8dbe5bf0cbd41a72ef557d3e31fdf4984b4408d74d45e2686a28"),
    12: (3, 51, "0x1.fdffc7da1d63cp-8",
         "b7a25dfc731023361a7dc47a3262116cdb3b87c5ae469a1f62d152381becdf85"),
}


class TestFitPins:
    @pytest.mark.parametrize("K", sorted(FIT_PINS))
    def test_raw_vector_and_trace_bits(self, K):
        seed, length, final, digest = FIT_PINS[K]
        _, raw, trace = rqs.fit_rqs(*pinned_fit_set(seed, K), K=K)
        text = "\n".join(float(v).hex() for v in (*raw, *trace))
        assert (trace.size, float(trace[-1]).hex()) == (length, final)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestFit:
    def test_identity_recovery(self):
        x = np.linspace(0.0, 1.0, 512)
        p, _, trace = rqs.fit_rqs(x, x, K=8)
        assert np.max(np.abs(rqs.rqs_forward(p, x) - x)) < 1e-3
        assert rqs.smooth_penalty(p) <= 1e-4
        assert np.all(np.diff(trace) <= 1e-12)

    def test_square_law_k6(self):
        x = np.linspace(0.0, 1.0, 512)
        p, _, _ = rqs.fit_rqs(x, x**2, K=6)
        assert np.max(np.abs(rqs.rqs_forward(p, x) - x**2)) <= 1e-3

    def test_reinhard_style_target(self):
        x = np.linspace(0.0, 1.0, 512)
        tgt = np.clip(2.0 * x / (1.0 + x), 0.0, 1.0)
        p, _, _ = rqs.fit_rqs(x, tgt, K=8)
        assert np.max(np.abs(rqs.rqs_forward(p, x) - tgt)) <= 2e-3

    @pytest.mark.parametrize("seed", [
        31, 33, 35, 36, 38, 39, 40, 41,
        # the warm start lands in another basin; seen max errors, not tolerances
        *(pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=reason))
          for seed, reason in ((32, "local minimum, max error 4.1e-2"),
                               (34, "local minimum, max error 5.2e-3"),
                               (37, "local minimum, max error 9.1e-3"),
                               (42, "local minimum, max error 7.8e-2"))),
    ])
    def test_self_consistency_known_params(self, seed):
        # targets drawn from a known spline are recovered to fit tolerance;
        # the smoothness penalty is off because it deliberately biases the
        # optimum away from any generator with varying knot slopes
        rng = np.random.default_rng(seed)
        p_star = rqs.constrain(rng.normal(0.0, 0.7, 3 * 6 + 1), 6)
        x = np.linspace(0.0, 1.0, 2048)
        tgt = rqs.rqs_forward(p_star, x)
        p, _, _ = rqs.fit_rqs(x, tgt, K=6, cfg=rqs.FitConfig(lambda_smooth=0.0))
        assert np.max(np.abs(rqs.rqs_forward(p, x) - tgt)) <= 1e-3

    def test_trace_monotone_nonincreasing(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, 300)
        p, _, trace = rqs.fit_rqs(x, np.clip(x + rng.normal(0, 0.05, 300), 0, 1), K=6,
                                  cfg=rqs.FitConfig(iterations=200))
        assert np.all(np.diff(trace) <= 1e-12)

    def test_gradient_pulled_back_only_for_accepted_steps(self, monkeypatch):
        # every trial is one loss evaluation; the gradient and curvature are
        # built at the start point and at each accepted step, where the trace
        # falls; on this target some trials are refused
        calls = {"loss": 0, "derivs": 0}
        loss_and_grad = rqs.fit_loss_and_grad

        def counted(*args):
            calls["loss"] += 1
            loss, derivs = loss_and_grad(*args)

            def counted_derivs():
                calls["derivs"] += 1
                return derivs()

            return loss, counted_derivs

        monkeypatch.setattr(rqs, "fit_loss_and_grad", counted)
        x = np.linspace(0.0, 1.0, 512)
        _, _, trace = rqs.fit_rqs(x, 2.0 * x / (1.0 + x), K=8)
        assert calls["loss"] == len(trace)
        assert calls["derivs"] == 1 + np.count_nonzero(np.diff(trace) < 0)
        assert calls["loss"] > calls["derivs"]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permuted_pairs_fit_bit_identically(self, seed, data):
        # the pairs are sorted by input and ties by target, so the fit sees
        # only the multiset of pairs; luma on a 1/64 grid ties most samples
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(0.0, 1.0, 256) * 64.0) / 64.0
        t = np.clip(x**2 + rng.normal(0.0, 0.02, 256), 0.0, 1.0)
        perm = np.array(data.draw(st.permutations(range(256))))
        p, raw, trace = rqs.fit_rqs(x, t, K=6)
        q, raw_q, trace_q = rqs.fit_rqs(x[perm], t[perm], K=6)
        for a, b in ((p.knots_x, q.knots_x), (p.knots_y, q.knots_y), (p.slopes, q.slopes),
                     (raw, raw_q), (trace, trace_q)):
            assert np.array_equal(a, b)

    def test_empty_bins_without_penalty(self):
        # with lambda = 0 no sample or penalty reaches the slopes of the knots below 0.5
        x = np.linspace(0.5, 1.0, 300)
        p, _, _ = rqs.fit_rqs(x, x**2, K=8, cfg=rqs.FitConfig(lambda_smooth=0.0))
        assert np.max(np.abs(rqs.rqs_forward(p, x) - x**2)) <= 1e-3

    @settings(max_examples=40, deadline=None)
    # a curvature of about 1e-311, whose 1e-12 floor underflows to zero
    @example(seed=378, K=3, lam=1e-3, kind="falling_target")
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 12),
           lam=st.sampled_from([0.0, 1e-3, 1.0]),
           kind=st.sampled_from(["noise", "one_input", "flat_target", "falling_target"]))
    def test_ill_posed_pairs_fit_without_error(self, seed, K, lam, kind):
        # pairs no monotone curve fits, or that leave knots unconstrained: the
        # steps drive raw coordinates into saturation, where the curvature
        # is singular or zero; the fit still returns a finite, monotone result
        rng = np.random.default_rng(seed)
        n = int(rng.integers(64, 600))
        x = rng.uniform(0.0, 1.0, n)
        t = rng.uniform(0.0, 1.0, n)
        if kind == "one_input":
            x[:] = x[0]
        elif kind == "flat_target":
            t[:] = 0.3
            with pytest.raises(FitError, match="constant fit targets"):
                rqs.fit_rqs(x, t, K=K, cfg=rqs.FitConfig(lambda_smooth=lam))
            return
        elif kind == "falling_target":
            x = 0.9 + 0.1 * x
            t = 1.0 - x
        _, raw, trace = rqs.fit_rqs(x, t, K=K, cfg=rqs.FitConfig(lambda_smooth=lam))
        assert np.all(np.isfinite(raw)) and np.all(np.diff(trace) <= 0.0)

    def test_degenerate_targets_raise(self):
        # no spline through (0, 0) and (1, 1) follows constant targets
        x = np.linspace(0.0, 1.0, 128)
        with pytest.raises(FitError, match="constant fit targets"):
            rqs.fit_rqs(x, np.full(128, 0.3), K=4, cfg=rqs.FitConfig(iterations=10))

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            rqs.fit_rqs(np.linspace(0, 1, 10), np.linspace(0, 1, 10), K=4)

    @pytest.mark.parametrize("K", [1, 0, -3])
    def test_too_few_knots(self, K):
        x = np.random.default_rng(5).uniform(0.0, 1.0, 500)
        with pytest.raises(ConfigError):
            rqs.fit_rqs(x, x**2, K=K)


def test_failed_save_keeps_the_earlier_file(tmp_path):
    # a config whose JSON cannot be encoded fails the save after params and raw;
    # the file under the final name keeps the bytes of the earlier save
    path = tmp_path / "fit.rqs.json"
    raw = np.random.default_rng(0).normal(0.0, 1.0, 3 * 8 + 1)
    with pfm.Outputs() as out:
        out.file(str(path), rqs.fit_json(rqs.constrain(raw, 8), raw, rqs.FitConfig()).encode())
    before = path.read_bytes()
    with pytest.raises(TypeError), pfm.Outputs() as out:
        fit = rqs.fit_json(rqs.constrain(-raw, 8), -raw, rqs.FitConfig(lambda_smooth=object()))
        out.file(str(path), fit.encode())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.rqs.json"]
