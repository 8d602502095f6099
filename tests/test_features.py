import numpy as np
import pytest

from lumaflux import colorimetry as cm
from lumaflux import features as ft
from lumaflux.errors import ConfigError, TagError


def sdr_image(pixels):
    tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
    return cm.TaggedImage(np.asarray(pixels, dtype=np.float64), tag)


class TestLinearize:
    def test_round_trip_against_eotf(self):
        rng = np.random.default_rng(0)
        sdr = sdr_image(rng.uniform(0.0, 1.0, (8, 8, 3)))
        wide = ft.linearize_sdr(sdr)
        assert wide.tag.primaries is cm.Primaries.BT2020
        assert wide.tag.transfer is cm.Transfer.LINEAR
        assert wide.pixels.min() >= 0.0 and wide.pixels.max() <= 1.0 + 1e-9

    def test_achromatic_preserved(self):
        sdr = sdr_image(np.full((4, 4, 3), 0.5))
        wide = ft.linearize_sdr(sdr)
        # gray axis is invariant under gamut conversion
        np.testing.assert_allclose(wide.pixels[..., 0], wide.pixels[..., 1], atol=1e-9)

    def test_rejects_wrong_tag(self):
        img = cm.TaggedImage(np.zeros((2, 2, 3)),
                             cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ,
                                              cm.PQ_PEAK_NITS))
        with pytest.raises(TagError):
            ft.linearize_sdr(img)


class TestMaps:
    def test_flat_field(self):
        feats = ft.extract_phys(sdr_image(np.full((8, 8, 3), 0.25)))
        np.testing.assert_allclose(feats.loggrad_map, 0.0, atol=1e-12)
        np.testing.assert_allclose(feats.sat_map, 0.0, atol=1e-9)
        assert feats.s_g[1] == pytest.approx(0.0, abs=1e-12)  # sigma

    def test_ramp_gradient_closed_form(self):
        w = 64
        y = np.tile(np.arange(w) / w, (16, 1))
        g = ft.gradient_magnitude(y)
        np.testing.assert_allclose(g[:, 1:-1], 1.0 / w, atol=1e-12)
        # replicate borders halve the one-sided difference
        np.testing.assert_allclose(g[:, 0], 0.5 / w, atol=1e-12)

    def test_loggrad_formula(self):
        w = 32
        y = np.tile(np.arange(w) / w, (8, 1))
        rgb = cm.bt709_oetf(np.stack([y, y, y], axis=-1))
        feats = ft.extract_phys(sdr_image(rgb))
        interior = feats.loggrad_map[2:-2, 2:-2]
        np.testing.assert_allclose(interior, np.log1p(1.0 / w), atol=1e-9)

    def test_saturation_range(self):
        rng = np.random.default_rng(1)
        feats = ft.extract_phys(sdr_image(rng.uniform(0, 1, (8, 8, 3))))
        assert feats.sat_map.min() >= 0.0 and feats.sat_map.max() <= 1.0

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(2)
        px = rng.uniform(0.0, 1.0, (16, 16, 3))
        shifted = np.roll(px, 3, axis=1)
        f0 = ft.extract_phys(sdr_image(px))
        f1 = ft.extract_phys(sdr_image(shifted))
        a = np.roll(f0.y_map, 3, axis=1)[2:-2, 5:-2]
        b = f1.y_map[2:-2, 5:-2]
        np.testing.assert_array_equal(a, b)


class TestGlobalStats:
    def test_percentiles_closed_form(self):
        # 0..99: linear interpolation gives p95 = 94.05, p99 = 98.01
        y = np.arange(100, dtype=np.float64).reshape(10, 10)
        s = ft.global_stats(y)
        assert s[0] == pytest.approx(49.5, abs=1e-12)
        assert s[1] == pytest.approx(np.sqrt(np.mean((y - 49.5) ** 2)), abs=1e-12)
        assert s[2] == pytest.approx(94.05, abs=1e-12)
        assert s[3] == pytest.approx(98.01, abs=1e-12)

    def test_ordering_invariant(self):
        s = ft.global_stats(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert s[2] <= s[3]

    def test_mlp_shapes(self):
        rng = np.random.default_rng(4)
        w1, b1 = rng.normal(size=(16, 4)), np.zeros(16)
        w2, b2 = rng.normal(size=(4, 16)), np.zeros(4)
        g = ft.global_mlp(np.ones(4), w1, b1, w2, b2)
        assert g.shape == (4,)
        assert np.all(np.isfinite(g))


class TestSpectralDescriptor:
    def test_parseval_white_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = rng.normal(size=(32, 32))
            r = ft.spectral_descriptor(y, 8).r
            ms = float(np.mean(y**2))
            assert abs(r.sum() - ms) / ms < 1e-6

    def test_flat_field_concentrates_in_dc_band(self):
        r = ft.spectral_descriptor(np.full((16, 16), 3.0), 8).r
        assert r[0] == pytest.approx(9.0, rel=1e-9)
        np.testing.assert_allclose(r[1:], 0.0, atol=1e-12)

    def test_single_frequency_lands_in_expected_band(self):
        n = 64
        x = np.arange(n)
        # frequency 8/64 = 0.125 -> band floor(0.125/0.5*8) = 2
        y = np.cos(2 * np.pi * 8 * x / n)[None, :] * np.ones((n, 1))
        r = ft.spectral_descriptor(y, 8).r
        assert np.argmax(r) == 2
        assert r[2] / r.sum() > 0.99

    def test_nonnegative(self):
        y = np.random.default_rng(6).normal(size=(24, 24))
        assert ft.spectral_descriptor(y, 6).r.min() >= 0.0

    def test_k_bands_validation(self):
        with pytest.raises(ConfigError):
            ft.spectral_descriptor(np.zeros((8, 8)), 1)

    def test_k_bands_upper_bound(self):
        assert ft.spectral_descriptor(np.zeros((8, 8)), ft.MAX_K_BANDS).r.shape == (ft.MAX_K_BANDS,)
        with pytest.raises(ConfigError):  # raised before the band vector is allocated
            ft.spectral_descriptor(np.zeros((8, 8)), ft.MAX_K_BANDS + 1)
