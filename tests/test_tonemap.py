from pathlib import Path

import numpy as np
import pytest

from lumaflux import colorimetry as cm
from lumaflux import tonemap as tm
from lumaflux.errors import ConfigError, DomainError, TagError


def make_hdr(pixels_nits):
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    return cm.TaggedImage(cm.pq_encode(np.asarray(pixels_nits, dtype=np.float64)), tag)


def textured_hdr(seed=0, size=64, peak=1000.0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.02, 1.0, (size // 8, size // 8, 3))
    px = np.kron(base, np.ones((8, 8, 1))) * peak
    px += rng.uniform(0.0, peak * 0.02, (size, size, 3))
    return make_hdr(np.clip(px, 0.0, peak))


ALL_OPS = [tm.ToneOperator(kind, {}) for kind in tm.ToneKind]


class TestCurves:
    @pytest.mark.parametrize("op", ALL_OPS, ids=[k.value for k in tm.ToneKind])
    def test_monotone_and_bounded(self, op):
        lum = np.linspace(0.0, 10000.0, 4096)
        y = tm.tone_curve(op, lum)
        assert np.all(np.diff(y) >= -1e-12)
        assert y.min() >= 0.0 and y.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("op", ALL_OPS, ids=[k.value for k in tm.ToneKind])
    def test_zero_maps_to_zero(self, op):
        assert float(tm.tone_curve(op, np.array(0.0))) == pytest.approx(0.0, abs=1e-9)

    def test_reinhard_closed_form(self):
        op = tm.ToneOperator(tm.ToneKind.REINHARD, {"peak_in_nits": 1000.0})
        lum = np.array([0.0, 500.0, 1000.0])
        np.testing.assert_allclose(tm.tone_curve(op, lum), [0.0, 1 / 3, 0.5], atol=1e-12)

    def test_hardclip_closed_form(self):
        op = tm.ToneOperator(tm.ToneKind.HARDCLIP_GM, {"peak_out_nits": 100.0})
        lum = np.array([0.0, 50.0, 100.0, 500.0])
        np.testing.assert_allclose(tm.tone_curve(op, lum), [0.0, 0.5, 1.0, 1.0])

    def test_bt2390_identity_when_peaks_match(self):
        op = tm.ToneOperator(tm.ToneKind.BT2390EETF_GM,
                             {"peak_in_nits": 100.0, "peak_out_nits": 100.0})
        lum = np.linspace(0.0, 100.0, 256)
        np.testing.assert_allclose(tm.tone_curve(op, lum), lum / 100.0, atol=1e-9)

    def test_bt2390_rolloff_below_knee_is_linear_in_pq(self):
        op = tm.ToneOperator(tm.ToneKind.BT2390EETF_GM,
                             {"peak_in_nits": 1000.0, "peak_out_nits": 100.0})
        # far below the knee the EETF passes PQ values through unchanged
        lum = np.array([1.0, 5.0, 10.0])
        np.testing.assert_allclose(tm.tone_curve(op, lum), lum / 100.0, rtol=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            tm.tone_curve(ALL_OPS[0], np.array([-1.0]))


class TestToneOperator:
    def test_default_config_operators_construct(self):
        from lumaflux.cli import DEFAULT_CONFIG
        ops = [tm.ToneOperator.from_json(doc) for doc in DEFAULT_CONFIG["tmos"]]
        assert [op.to_json() for op in ops] == DEFAULT_CONFIG["tmos"]

    def test_params_kept_as_given(self):
        doc = {"kind": "Reinhard", "params": {"peak_in_nits": 1000}}
        assert tm.ToneOperator.from_json(doc).to_json() == doc

    def test_settable_parameters(self):
        names = [n for curve in tm._CURVES.values() for n in curve.__kwdefaults__]
        assert len(names) == 11

    def test_readme_table_matches_signatures(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        for kind in tm.ToneKind:
            row = next(line for line in readme if line.startswith(f"| `{kind.value}` |"))
            cells = ", ".join(f"`{name}` ({default:g})"
                              for name, default in tm._CURVES[kind].__kwdefaults__.items())
            assert row == f"| `{kind.value}` | {cells} |"

    @pytest.mark.parametrize("kind,params", [
        ("Reinhardt", {}),
        (None, {}),
        ("Reinhard", 5),
        ("Reinhard", [("peak_in_nits", 5.0)]),
        ("Reinhard", {"peak_in_nit": 5.0}),
        ("LogC", {"cut": 0.02}),
        ("BT2446C_GM", {"knee": 0.1}),
        ("ExpertStub", {"passthrough": True}),
        ("Reinhard", {"peak_in_nits": "5"}),
        ("ExpertStub", {"gamma": True}),
        ("ExpertStub", {"mix": float("nan")}),
        ("ExpertStub", {"gamma": float("inf")}),
        ("BT2446A", {"peak_in_nits": 10**400}),
        ("Reinhard", {"peak_in_nits": -5.0}),
        ("HardClipGM", {"peak_out_nits": 0}),
        ("BT2390EETF_GM", {"peak_out_nits": -100.0}),
    ])
    def test_rejects(self, kind, params):
        with pytest.raises(ConfigError):
            tm.ToneOperator(kind, params)

    @pytest.mark.parametrize("doc", [
        "Reinhard", ["Reinhard"], {"params": {}}, {"kind": "Reinhard", "param": {}},
    ])
    def test_rejects_malformed_document(self, doc):
        with pytest.raises(ConfigError):
            tm.ToneOperator.from_json(doc)


class TestToneMap:
    def test_hue_preserved(self):
        img = cm.TaggedImage(
            np.array([[[400.0, 200.0, 100.0]]]),
            cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, cm.PQ_PEAK_NITS))
        out = tm.tone_map(tm.ToneOperator(tm.ToneKind.REINHARD, {}), img)
        ratios = out.pixels[0, 0] / img.pixels[0, 0]
        assert np.ptp(ratios) < 1e-12

    def test_output_tag(self):
        img = cm.TaggedImage(
            np.full((2, 2, 3), 100.0),
            cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, cm.PQ_PEAK_NITS))
        out = tm.tone_map(ALL_OPS[0], img)
        assert out.tag.transfer is cm.Transfer.LINEAR
        assert out.tag.primaries is cm.Primaries.BT2020
        assert out.tag.peak_nits == 1.0

    def test_rejects_encoded_input(self):
        img = make_hdr(np.full((2, 2, 3), 100.0))
        with pytest.raises(TagError):
            tm.tone_map(ALL_OPS[0], img)


class TestQuantize:
    def test_8bit_grid(self):
        tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
        img = cm.TaggedImage(np.array([[[0.0, 0.5, 1.0]]]), tag)
        q = tm.quantize(img, 8)
        np.testing.assert_allclose(q.pixels * 255.0, np.round(q.pixels * 255.0), atol=1e-12)
        assert float(q.pixels[0, 0, 1]) == pytest.approx(128 / 255)

    def test_half_rounds_away_from_zero(self):
        tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
        img = cm.TaggedImage(np.full((1, 1, 3), 0.5 / 255.0), tag)
        assert float(tm.quantize(img, 8).pixels[0, 0, 0]) == pytest.approx(1 / 255)

    def test_10bit_finer_than_8bit(self):
        tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
        img = cm.TaggedImage(np.random.default_rng(0).uniform(0, 1, (8, 8, 3)), tag)
        e8 = np.abs(tm.quantize(img, 8).pixels - img.pixels).mean()
        e10 = np.abs(tm.quantize(img, 10).pixels - img.pixels).mean()
        assert e10 < e8

    def test_rejects_linear_and_bad_depth(self):
        lin = cm.TaggedImage(np.zeros((1, 1, 3)),
                             cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.LINEAR, 100.0))
        with pytest.raises(TagError):
            tm.quantize(lin, 8)
        enc = cm.TaggedImage(np.zeros((1, 1, 3)),
                             cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0))
        with pytest.raises(ConfigError):
            tm.quantize(enc, 12)


class TestCodecProxy:
    @staticmethod
    def encoded(pixels):
        tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
        return cm.TaggedImage(np.asarray(pixels, dtype=np.float64), tag)

    def test_none_is_identity(self):
        img = self.encoded(np.random.default_rng(0).uniform(0, 1, (16, 16, 3)))
        assert tm.codec_proxy(img, None) is img

    def test_flat_blocks_survive(self):
        img = self.encoded(np.full((16, 16, 3), 0.4))
        out = tm.codec_proxy(img, 39)
        np.testing.assert_allclose(out.pixels, img.pixels, atol=1e-12)

    def test_ac_energy_never_grows(self):
        img = self.encoded(np.random.default_rng(1).uniform(0, 1, (32, 32, 3)))
        out = tm.codec_proxy(img, 31)
        for ch in range(3):
            for br in range(4):
                for bc in range(4):
                    a = img.pixels[br * 8:br * 8 + 8, bc * 8:bc * 8 + 8, ch]
                    b = out.pixels[br * 8:br * 8 + 8, bc * 8:bc * 8 + 8, ch]
                    ea = np.sum((a - a.mean()) ** 2)
                    eb = np.sum((b - b.mean()) ** 2)
                    assert eb <= ea + 1e-6

    def test_mae_monotone_in_crf(self):
        img = self.encoded(np.random.default_rng(2).uniform(0, 1, (64, 64, 3)))
        maes = [np.abs(tm.codec_proxy(img, crf).pixels - img.pixels).mean()
                for crf in tm.VALID_CRF]
        assert maes[0] < maes[1] < maes[2]

    def test_quality_scale(self):
        assert tm.crf_quality_scale(23) == 1.0
        assert tm.crf_quality_scale(29) == pytest.approx(2.0)

    def test_non_multiple_of_8_extent(self):
        img = self.encoded(np.random.default_rng(3).uniform(0, 1, (19, 13, 3)))
        out = tm.codec_proxy(img, 23)
        assert out.pixels.shape == (19, 13, 3)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_invalid_crf(self):
        img = self.encoded(np.zeros((8, 8, 3)))
        with pytest.raises(ConfigError):
            tm.codec_proxy(img, 30)

    def test_matches_per_block_reference(self):
        # a plain loop over edge-padded 8x8 blocks with its own DCT-II basis;
        # 37x53 needs padding on both axes and catches swapped transposes
        px = np.random.default_rng(4).uniform(0, 1, (37, 53, 3))
        u = np.arange(8)[:, None]
        n = np.arange(8)[None, :]
        basis = np.cos(np.pi * (2 * n + 1) * u / 16) * np.where(u == 0, np.sqrt(1 / 8), 0.5)
        for crf in tm.VALID_CRF:
            step = tm.JPEG_BASE / 255.0 * 0.25 * tm.crf_quality_scale(crf)
            expected = np.empty_like(px)
            for ch in range(3):
                plane = np.pad(px[:, :, ch], ((0, 3), (0, 3)), mode="edge")
                rec = np.empty_like(plane)
                for r in range(0, plane.shape[0], 8):
                    for c in range(0, plane.shape[1], 8):
                        coef = basis @ plane[r:r + 8, c:c + 8] @ basis.T
                        quant = np.trunc(coef / step) * step
                        quant[0, 0] = coef[0, 0]
                        rec[r:r + 8, c:c + 8] = basis.T @ quant @ basis
                expected[:, :, ch] = rec[:37, :53]
            got = tm.codec_proxy(self.encoded(px), crf).pixels
            np.testing.assert_allclose(got, np.clip(expected, 0.0, 1.0), rtol=0, atol=1e-12)


class TestDegrade:
    def test_output_contract(self):
        hdr = textured_hdr()
        spec = tm.DegradationSpec(tmo=ALL_OPS[0], crf=23, seed=0)
        sdr = tm.degrade(hdr, spec)
        assert sdr.tag.primaries is cm.Primaries.BT709
        assert sdr.tag.transfer is cm.Transfer.GAMMA709
        assert sdr.pixels.min() >= 0.0 and sdr.pixels.max() <= 1.0

    def test_deterministic(self):
        hdr = textured_hdr()
        spec = tm.DegradationSpec(tmo=ALL_OPS[1], crf=31, seed=7)
        a = tm.degrade(hdr, spec)
        b = tm.degrade(hdr, spec)
        assert np.array_equal(a.pixels, b.pixels)

    def test_passthrough_chain_recovers_sdr_range_input(self):
        # an SDR-range achromatic frame through the 100-nit hard clip and no
        # codec comes back limited only by 8-bit quantization
        nits = np.linspace(5.0, 95.0, 64).reshape(8, 8, 1) * np.ones((8, 8, 3))
        hdr = make_hdr(nits)
        op = tm.ToneOperator(tm.ToneKind.HARDCLIP_GM, {"peak_out_nits": 100.0})
        sdr = tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=None, seed=0))
        lin = cm.apply_transfer(sdr)
        np.testing.assert_allclose(lin.pixels, nits, atol=0.5)

    def test_rejects_non_pq_input(self):
        lin = cm.TaggedImage(np.full((8, 8, 3), 10.0),
                             cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR,
                                              cm.PQ_PEAK_NITS))
        with pytest.raises(TagError):
            tm.degrade(lin, tm.DegradationSpec(tmo=ALL_OPS[0], crf=None))

    def test_golden_ramp(self):
        # frozen capture of a 2x2 achromatic ramp through Reinhard, no codec
        nits = np.array([[[10.0] * 3, [100.0] * 3], [[500.0] * 3, [1000.0] * 3]])
        hdr = make_hdr(nits)
        op = tm.ToneOperator(tm.ToneKind.REINHARD, {"peak_in_nits": 1000.0})
        sdr = tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=None, seed=0))
        grays = sdr.pixels[..., 0] * 255.0
        np.testing.assert_allclose(grays, np.round(grays), atol=1e-9)
        expected = np.round(
            cm.bt709_oetf(np.array([[10 / 1010, 100 / 1100], [500 / 1500, 0.5]])) * 255.0)
        np.testing.assert_allclose(grays, expected)


class TestSpecJson:
    def test_round_trip(self):
        spec = tm.DegradationSpec(
            tmo=tm.ToneOperator(tm.ToneKind.LOGC, {"peak_in_nits": 4000.0}),
            crf=39, seed=11)
        assert tm.DegradationSpec.from_json(spec.to_json()) == spec

    def test_none_crf_round_trip(self):
        spec = tm.DegradationSpec(tmo=ALL_OPS[0], crf=None, seed=0)
        assert tm.DegradationSpec.from_json(spec.to_json()).crf is None

    def test_invalid_crf(self):
        with pytest.raises(ConfigError):
            tm.DegradationSpec(tmo=ALL_OPS[0], crf=24)
