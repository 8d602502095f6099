import hashlib
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from lumaflux import cli
from lumaflux import colorimetry as cm
from lumaflux import features as ft
from lumaflux import pfm
from lumaflux.errors import ConfigError, DimensionError, TagError
from test_tensorcore import fix_band_rows

# SHA-256 of `features --dump-maps` stdout and of its .features.pfm, default
# config, on write_sdr's frame of each (rows, cols), recorded from the
# whole-frame extract_phys; a change that moves one must say why
FEATURES_SHA256 = {
    (150, 45): ("2799dd3214609ebccbf788908157120791bcda852a22f7d64e4ef354ac500dbb",
                "c17d1a836004e6c278a7878fef451bf764b34fb44da347f85ebb60a83d96db1a"),
    (200, 131): ("fe03b10e9115e2e3203bbef9f10f8a6f2ddc5aed82ac57fcc00766be2b7b6b50",
                 "097467570241723009cb33c9762840e87bee0d08367739c8fb074c54cef09b4e"),
    (1, 64): ("cee1de1291217e8e059ef5586d206518f59bb592192c6d0712891c5b26acca30",
              "81ee497d783076cfe577da5ea6e5e60d18920b6d72b626c79db812d884ecc07c"),
    (2, 64): ("e436c5e922d85a9529d1e6ee825cc45c7075bb6b3c1b8ec17a0e09014d321c6d",
              "f2ea7f2cdb37e832d31080be4269ee3da5fa7ee92c874a6f4d406a102deafa8d"),
    (65, 33): ("1ad9d59965c6cbdd30fc2b30d78bacba5226a8dd4e2988ec8f184792e2e596fb",
               "50244dd1277f3268bc56d03ac3e5bd839d9c15e71a4ad5ac9ee6cac1fb8bd00c"),
}


def extent_id(shape):
    return "x".join(map(str, shape))


def sdr_image(pixels):
    tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
    return cm.TaggedImage(np.asarray(pixels, dtype=np.float64), tag)


def write_sdr(path, rows, cols, seed=0):
    """A seeded noise SDR frame with about 5% of its samples at 0 and 5% at 1."""
    rng = np.random.default_rng(seed)
    px = rng.uniform(0.0, 1.0, (rows, cols, 3))
    px[rng.uniform(size=px.shape) < 0.05] = 0.0
    px[rng.uniform(size=px.shape) < 0.05] = 1.0
    pfm.write_tagged(str(path), sdr_image(px))
    return str(path)


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


    def test_saturation_equals_the_channel_reduce(self):
        # every order of the special values, then noise with them sprinkled in
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5]
        rng = np.random.default_rng(3)
        noise = rng.normal(size=(1208, 3))
        for value in special[:5]:
            noise[rng.uniform(size=noise.shape) < 0.05] = value
        rgb = np.concatenate([np.array(list(itertools.product(special, repeat=3))), noise])
        with np.errstate(invalid="ignore", divide="ignore"):
            mx, mn = np.max(rgb, axis=-1), np.min(rgb, axis=-1)
            want = (mx - mn) / (mx + 1e-6)
            got = ft.saturation(rgb.reshape(40, 43, 3))
        assert got.tobytes() == want.tobytes()


class TestRowBands:
    """extract_phys runs its per-pixel maps over tensorcore row bands."""

    # the default band height (None) covers each frame in one band; 150 and
    # 200 rows end on a short band; 65 on a one-row band at heights 64 and 16;
    # one and two rows have a top and a bottom edge in one band
    @pytest.mark.parametrize("extent", list(FEATURES_SHA256),
                             ids=[f"{rows}x{cols}" for rows, cols in FEATURES_SHA256])
    @pytest.mark.parametrize("band_rows", [None, 64, 16, 5, 10**6])
    def test_pinned_bytes_at_any_band_height_and_thread_count(self, tmp_path, extent, band_rows,
                                                              monkeypatch, capsys):
        frame = write_sdr(tmp_path / "sdr.pfm", *extent)
        fix_band_rows(monkeypatch, band_rows)
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("LUMAFLUX_THREADS", threads)
            assert cli.main(["features", frame, "--dump-maps"]) == 0
            with open(os.path.splitext(frame)[0] + ".features.pfm", "rb") as fh:
                maps = fh.read()
            digests = (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
                       hashlib.sha256(maps).hexdigest())
            assert digests == FEATURES_SHA256[extent]

    def test_maps_equal_their_whole_frame_forms(self, monkeypatch):
        rng = np.random.default_rng(9)
        sdr = sdr_image(rng.uniform(0.0, 1.0, (37, 29, 3)))
        fix_band_rows(monkeypatch, 5)
        feats = ft.extract_phys(sdr, workers=2)
        wide = ft.linearize_sdr(sdr)
        assert feats.y_map.tobytes() == cm.luma2020(wide).tobytes()
        assert feats.sat_map.tobytes() == ft.saturation(wide.pixels).tobytes()
        whole = np.log1p(ft.gradient_magnitude(feats.y_map))
        assert feats.loggrad_map.tobytes() == whole.tobytes()

    def test_peak_memory_is_bounded(self):
        # one 540 x 960 frame as read from disk; the whole-frame decode peaked
        # at 4.13 float64 RGB frames
        rng = np.random.default_rng(8)
        px = rng.uniform(0.0, 1.0, (540, 960, 3)).astype(np.float32)
        sdr = cm.TaggedImage(px, cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709,
                                                  100.0))
        tracemalloc.start()
        try:
            ft.extract_phys(sdr, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * px.size * 8


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
            r = ft.spectral_descriptor(y, 8)
            ms = float(np.mean(y**2))
            assert abs(r.sum() - ms) / ms < 1e-6

    @pytest.mark.parametrize("shape", [(5, 7), (16, 12), (3, 1), (1, 2)], ids=extent_id)
    def test_parseval_at_odd_and_even_widths(self, shape):
        # an odd width has no Nyquist column; an even one counts its Nyquist column once
        y = np.random.default_rng(8).normal(size=shape)
        r = ft.spectral_descriptor(y, 4)
        ms = float(np.mean(y**2))
        assert abs(r.sum() - ms) / ms < 1e-12

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4,), (0, 4)], ids=extent_id)
    def test_rejects_a_map_that_is_not_2d_or_is_empty(self, shape):
        with pytest.raises(DimensionError):
            ft.spectral_descriptor(np.zeros(shape), 8)

    def test_flat_field_concentrates_in_dc_band(self):
        r = ft.spectral_descriptor(np.full((16, 16), 3.0), 8)
        assert r[0] == pytest.approx(9.0, rel=1e-9)
        np.testing.assert_allclose(r[1:], 0.0, atol=1e-12)

    def test_single_frequency_lands_in_expected_band(self):
        n = 64
        x = np.arange(n)
        # frequency 8/64 = 0.125 -> band floor(0.125/0.5*8) = 2
        y = np.cos(2 * np.pi * 8 * x / n)[None, :] * np.ones((n, 1))
        r = ft.spectral_descriptor(y, 8)
        assert np.argmax(r) == 2
        assert r[2] / r.sum() > 0.99

    def test_nonnegative(self):
        y = np.random.default_rng(6).normal(size=(24, 24))
        assert ft.spectral_descriptor(y, 6).min() >= 0.0

    def test_k_bands_validation(self):
        with pytest.raises(ConfigError):
            ft.spectral_descriptor(np.zeros((8, 8)), 1)

    def test_k_bands_upper_bound(self):
        assert ft.spectral_descriptor(np.zeros((8, 8)), ft.MAX_K_BANDS).shape == (ft.MAX_K_BANDS,)
        with pytest.raises(ConfigError):  # raised before the band vector is allocated
            ft.spectral_descriptor(np.zeros((8, 8)), ft.MAX_K_BANDS + 1)
