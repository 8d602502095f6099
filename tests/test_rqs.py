import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lumaflux import rqs
from lumaflux import tensorcore as tc
from lumaflux.errors import ConfigError, DimensionError


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


def scatter_pullback(p, y, g, magnitude=False):
    """Per-sample reference for the pullback of `forward_param_grad`.

    Each sample's partials wrt the two knots of its bin are scattered with
    np.add.at. With magnitude=True every product enters by its absolute
    value, which bounds the rounding error of any summation order of the
    same terms.
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
    partials = ((A(d_u * (u - 1.0) / w) + A(d_delta * delta / w),
                 A(-d_u * u / w) + A(-d_delta * delta / w)),
                (1.0 + A(-d_dy), d_dy),
                (A(f_num + f_den) * t1, f_den * t1))
    out = []
    for at_i, at_next in partials:
        acc = np.zeros(p.knots_x.size)
        np.add.at(acc, i, A(g * at_i))
        np.add.at(acc, i + 1, A(g * at_next))
        out.append(acc)
    return out


class TestSortedKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), K=st.integers(2, 12))
    def test_matches_forward_and_per_sample_scatter(self, data, K):
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
        g = data.draw(arrays(np.float64, y.size, elements=st.floats(-1.0, 1.0)))

        pred, pullback = rqs.forward_param_grad(p, y)
        assert np.array_equal(pred, rqs.rqs_forward(p, y))
        for got, ref, bound in zip(pullback(g), scatter_pullback(p, y, g),
                                   scatter_pullback(p, y, g, magnitude=True)):
            # tiny: products of subnormal g lose relative precision
            assert np.all(np.abs(got - ref) <= 1e-12 * bound + np.finfo(float).tiny)


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
            g = rqs.fit_loss_and_grad(theta, 6, x, tgt, cfg)[1]()
            fd = tc.finite_diff_grad(
                lambda th: rqs.fit_loss_and_grad(th, 6, x, tgt, cfg)[0], theta, 1e-6)
            rel = np.max(np.abs(g - fd) / np.maximum(np.abs(g) + np.abs(fd), 1e-8))
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_constrain_jacobian_finite(self):
        theta = np.random.default_rng(8).normal(0.0, 1.0, 3 * 4 + 1)
        probe = lambda th: float(np.sum(rqs.rqs_forward(rqs.constrain(th, 4),
                                                        np.linspace(0.1, 0.9, 17))))
        jac = tc.finite_diff_grad(probe, theta, 1e-6)
        assert np.all(np.isfinite(jac))


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

    def test_self_consistency_known_params(self):
        # targets drawn from a known spline are recovered to fit tolerance;
        # the smoothness penalty is off because it deliberately biases the
        # optimum away from any generator with varying knot slopes
        rng = np.random.default_rng(31)
        p_star = rqs.constrain(rng.normal(0.0, 0.7, 3 * 6 + 1), 6)
        x = np.linspace(0.0, 1.0, 2048)
        tgt = rqs.rqs_forward(p_star, x)
        cfg = rqs.FitConfig(lambda_smooth=0.0, iterations=800)
        p, _, _ = rqs.fit_rqs(x, tgt, K=6, cfg=cfg)
        assert np.max(np.abs(rqs.rqs_forward(p, x) - tgt)) <= 1e-3

    def test_trace_monotone_nonincreasing(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, 300)
        p, _, trace = rqs.fit_rqs(x, np.clip(x + rng.normal(0, 0.05, 300), 0, 1), K=6,
                                  cfg=rqs.FitConfig(iterations=200))
        assert np.all(np.diff(trace) <= 1e-12)

    def test_gradient_pulled_back_only_for_accepted_steps(self, monkeypatch):
        # every line-search trial evaluates the loss; the gradient is pulled
        # back at the start point and at each accepted step
        calls = {"loss": 0, "grad": 0}
        loss_and_grad = rqs.fit_loss_and_grad

        def counted(*args):
            calls["loss"] += 1
            loss, grad_fn = loss_and_grad(*args)

            def counted_grad_fn():
                calls["grad"] += 1
                return grad_fn()

            return loss, counted_grad_fn

        monkeypatch.setattr(rqs, "fit_loss_and_grad", counted)
        x = np.linspace(0.0, 1.0, 512)
        _, _, trace = rqs.fit_rqs(x, x**2, K=6, cfg=rqs.FitConfig(iterations=50))
        assert calls["grad"] == len(trace)
        assert calls["loss"] > calls["grad"]

    def test_degenerate_targets_warn(self):
        x = np.linspace(0.0, 1.0, 128)
        with pytest.warns(UserWarning):
            rqs.fit_rqs(x, np.full(128, 0.3), K=4, cfg=rqs.FitConfig(iterations=10))

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            rqs.fit_rqs(np.linspace(0, 1, 10), np.linspace(0, 1, 10), K=4)

    @pytest.mark.parametrize("K", [1, 0, -3])
    def test_too_few_knots(self, K):
        x = np.random.default_rng(5).uniform(0.0, 1.0, 500)
        with pytest.raises(ConfigError):
            rqs.fit_rqs(x, x**2, K=K)
