from dataclasses import fields

import numpy as np
import pytest

from lumaflux import adapters as ad
from lumaflux import tensorcore as tc
from lumaflux.errors import ConfigError, DimensionError, DomainError

CFG = ad.ToyBlockConfig(d=8, n_tokens=8, rank=4)


@pytest.fixture(scope="module")
def backbone():
    return ad.BackboneWeights.seeded(CFG, seed=0)


@pytest.fixture(scope="module")
def inputs():
    return ad.demo_inputs(CFG, seed=2)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ad.ToyBlockConfig(d=10, n_tokens=8, rank=4)

    def test_byte_budget_bounds_each_size(self):
        # the check is arithmetic on the three sizes; constructing a config allocates nothing
        assert ad.ToyBlockConfig(d=832, n_tokens=8, rank=4).float64_bytes() <= ad.MAX_BLOCK_BYTES
        for d, n_tokens, rank in ((836, 8, 4), (8, 1449, 4), (8, 8, 2**19), (40000, 8, 4)):
            with pytest.raises(ConfigError, match="byte budget"):
                ad.ToyBlockConfig(d=d, n_tokens=n_tokens, rank=rank)

    def test_default_scale_matches_module_contract(self):
        # adapter-demo and A4 run these fixed sizes; only width, tokens and rank are settable
        assert [f.name for f in fields(ad.ToyBlockConfig)] == ["d", "n_tokens", "rank"]
        assert (ad.HEADS, ad.LAYERS, ad.D_P, ad.C_PHYS, ad.D_G, ad.K_BANDS, ad.N_SIN,
                ad.PSI_HIDDEN) == (4, 2, 8, 4, 4, 4, 8, 8)


class TestPsi:
    def test_nonnegative_gates(self):
        state = ad.AdapterState.seeded(CFG, seed=1)
        mod, _ = ad.psi(0.3, 0, state)
        assert mod.n_spec >= 0.0 and mod.lam >= 0.0

    def test_continuity_in_t(self):
        state = ad.AdapterState.seeded(CFG, seed=1)
        a, _ = ad.psi(0.5, 1, state)
        b, _ = ad.psi(0.5 + 1e-6, 1, state)
        for name in ("alpha_pga", "beta_pga", "alpha_pcm", "beta_pcm", "n_spec", "lam"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-4

    def test_layer_embedding_matters(self):
        state = ad.AdapterState.seeded(CFG, seed=1)
        a, _ = ad.psi(0.5, 0, state)
        b, _ = ad.psi(0.5, 1, state)
        assert a.alpha_pga != b.alpha_pga

    def test_silu_and_sigmoid_at_extreme_inputs(self):
        # below about -709 exp(-x) overflows: no warning, and the limits 0 and -0;
        # from -700 up the closed forms are unchanged
        x = np.array([-1e300, -800.0, -700.0, -1.0, 0.0, 700.0, 800.0, 1e300])
        assert tc.sigmoid(np.float64(-800.0)) == 0.0
        for f, closed in ((tc.sigmoid, lambda v: 1.0 / (1.0 + np.exp(-v))),
                          (ad._silu, lambda v: v / (1.0 + np.exp(-v)))):
            out = f(x)
            assert np.array_equal(out[:2], [0.0, 0.0])
            assert np.array_equal(out[2:], closed(x[2:]))
        assert np.all(np.isfinite(ad._silu_prime(x)))

    def test_domain_checks(self):
        state = ad.AdapterState.null(CFG)
        with pytest.raises(DomainError):
            ad.psi(1.5, 0, state)
        with pytest.raises(IndexError):
            ad.psi(0.5, 5, state)


class TestPga:
    def test_null_state_zero_residual(self):
        state = ad.AdapterState.null(CFG)
        mod, _ = ad.psi(0.5, 0, state)
        r, _ = ad.pga_residual(state, np.zeros(ad.C_PHYS + ad.D_G),
                               np.zeros(ad.K_BANDS), mod, CFG)
        np.testing.assert_array_equal(r, 0.0)

    def test_zero_inputs_give_half_gates(self):
        state = ad.AdapterState.null(CFG)
        mod = ad.ModulationParams(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        r, _ = ad.pga_residual(state, np.zeros(ad.C_PHYS + ad.D_G),
                               np.zeros(ad.K_BANDS), mod, CFG)
        # beta=1 with sigmoid(0) gates -> 0.5 * I column scaling
        np.testing.assert_allclose(r, 0.5 * np.eye(CFG.d), atol=1e-12)

    def test_rank_bounded(self):
        state = ad.AdapterState.seeded(CFG, seed=3)
        assert ad.low_rank_svd_tail(state, CFG) <= 1e-9

    def test_shape_checks(self):
        state = ad.AdapterState.null(CFG)
        mod = ad.ModulationParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DimensionError):
            ad.pga_residual(state, np.zeros(3), np.zeros(ad.K_BANDS), mod, CFG)


class TestPcm:
    def test_null_state_is_layer_norm(self, backbone):
        state = ad.AdapterState.null(CFG)
        mod, _ = ad.psi(0.5, 0, state)
        h = np.random.default_rng(4).normal(size=(CFG.n_tokens, CFG.d))
        t_perc = np.random.default_rng(5).normal(size=(CFG.n_tokens, ad.D_P))
        out, _, _ = ad.pcm_film(h, t_perc, state, mod)
        from lumaflux import tensorcore as tc
        np.testing.assert_array_equal(out, tc.layer_norm(h))

    def test_scale_invariance_of_normalized_path(self):
        # FiLM acts on layer-normed input, so positive rescaling of h is absorbed
        state = ad.AdapterState.seeded(CFG, seed=6)
        mod, _ = ad.psi(0.4, 0, state)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(CFG.n_tokens, CFG.d))
        t_perc = rng.normal(size=(CFG.n_tokens, ad.D_P))
        a, _, _ = ad.pcm_film(h, t_perc, state, mod)
        b, _, _ = ad.pcm_film(37.0 * h, t_perc, state, mod)
        # exact only in the eps -> 0 limit of layer norm
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_token_count_mismatch(self):
        state = ad.AdapterState.null(CFG)
        mod = ad.ModulationParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DimensionError):
            ad.pcm_film(np.zeros((4, CFG.d)), np.zeros((3, ad.D_P)), state, mod)


class TestCoupler:
    def test_lambda_zero_passthrough(self):
        state = ad.AdapterState.seeded(CFG, seed=8)
        mod = ad.ModulationParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(9)
        z = rng.normal(size=(CFG.n_tokens, CFG.d))
        out, _ = ad.coupler(z, rng.normal(size=(CFG.n_tokens, ad.C_PHYS)),
                            rng.normal(size=(CFG.n_tokens, CFG.d)), state, mod)
        np.testing.assert_array_equal(out, z)

    def test_linear_in_lambda(self):
        state = ad.AdapterState.seeded(CFG, seed=10)
        rng = np.random.default_rng(11)
        z = rng.normal(size=(CFG.n_tokens, CFG.d))
        tp = rng.normal(size=(CFG.n_tokens, ad.C_PHYS))
        conn = rng.normal(size=(CFG.n_tokens, CFG.d))
        m1 = ad.ModulationParams(0, 0, 0, 0, 0, 1.0)
        m2 = ad.ModulationParams(0, 0, 0, 0, 0, 2.0)
        o1, _ = ad.coupler(z, tp, conn, state, m1)
        o2, _ = ad.coupler(z, tp, conn, state, m2)
        np.testing.assert_allclose(o2 - z, 2.0 * (o1 - z), atol=1e-12)


class TestBlock:
    def test_null_adapters_preserve_backbone_bit_exact(self, backbone, inputs):
        state = ad.AdapterState.null(CFG)
        z = inputs[0]
        adapted, _ = ad.block_forward(z, *inputs[1:], backbone, state, CFG,
                                      t=0.5, layer=0)
        vanilla = ad.vanilla_block_forward(z, backbone)
        assert np.array_equal(adapted, vanilla)

    def test_adapters_change_output(self, backbone, inputs):
        state = ad.AdapterState.seeded(CFG, seed=12)
        z = inputs[0]
        adapted, _ = ad.block_forward(z, *inputs[1:], backbone, state, CFG)
        vanilla = ad.vanilla_block_forward(z, backbone)
        assert not np.allclose(adapted, vanilla)

    def test_latent_shape_check(self, backbone, inputs):
        state = ad.AdapterState.null(CFG)
        with pytest.raises(DimensionError):
            ad.block_forward(np.zeros((3, CFG.d)), *inputs[1:], backbone, state, CFG)


class TestGradients:
    def test_all_groups_pass(self, backbone, inputs):
        state = ad.AdapterState.seeded(CFG, seed=1)
        report = ad.grad_check_adapters(backbone, state, CFG, inputs=inputs)
        assert report["passed"], report
        for group, entry in report["groups"].items():
            assert entry["max_rel_error"] <= 1e-4, (group, entry)

    def test_one_percent_gradient_error_is_caught(self, backbone, inputs, monkeypatch):
        forward = ad.block_forward

        def skewed(*args, **kwargs):
            out, backward = forward(*args, **kwargs)

            def skewed_backward(d_out):
                grads = backward(d_out)
                grads.a_v *= 1.01
                return grads

            return out, skewed_backward

        monkeypatch.setattr(ad, "block_forward", skewed)
        state = ad.AdapterState.seeded(CFG, seed=1)
        report = ad.grad_check_adapters(backbone, state, CFG, inputs=inputs)
        assert not report["passed"]
        assert not report["groups"]["a_v"]["pass"]
        assert all(entry["pass"] for group, entry in report["groups"].items() if group != "a_v")

    def test_zeroed_av_kills_bv_gradient(self, backbone, inputs):
        state = ad.AdapterState.seeded(CFG, seed=13)
        state.a_v[:] = 0.0
        z = inputs[0]
        out, backward = ad.block_forward(z, *inputs[1:], backbone, state, CFG)
        grads = backward(out)
        np.testing.assert_array_equal(grads.b_v, 0.0)
        assert np.any(grads.a_v != 0.0)

    def test_psi_gradient_flow(self, backbone, inputs):
        state = ad.AdapterState.seeded(CFG, seed=14)
        z = inputs[0]
        out, backward = ad.block_forward(z, *inputs[1:], backbone, state, CFG,
                                         t=0.25, layer=1)
        grads = backward(out)
        assert np.any(grads.psi_w_head != 0.0)
        # only the active layer's embedding receives gradient
        assert np.all(grads.psi_emb[0] == 0.0)
        assert np.any(grads.psi_emb[1] != 0.0)
