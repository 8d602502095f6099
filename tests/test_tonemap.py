import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from lumaflux import colorimetry as cm
from lumaflux import tensorcore as tc
from lumaflux import tonemap as tm
from lumaflux.errors import ConfigError, DomainError, TagError
from test_tensorcore import fix_band_rows


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

# (rows, cols): several bands of 64 or 8 rows, a one-row last band, extents
# not multiples of 8; the default band height covers each in one band
BANDED_EXTENTS = [(150, 45), (129, 67), (7, 9)]
BANDED_ROWS = (None, 64, 8)  # None: the default band height


def per_block_codec(px, crf, basis=None):
    """The codec proxy as a plain loop over edge-padded 8x8 blocks, by default with its own
    DCT-II basis."""
    h, w, _ = px.shape
    if basis is None:
        u = np.arange(8)[:, None]
        n = np.arange(8)[None, :]
        basis = np.cos(np.pi * (2 * n + 1) * u / 16) * np.where(u == 0, np.sqrt(1 / 8), 0.5)
    step = tm.JPEG_BASE / 255.0 * 0.25 * tm.crf_quality_scale(crf)
    expected = np.empty_like(px)
    for ch in range(3):
        plane = np.pad(px[:, :, ch], ((0, -h % 8), (0, -w % 8)), mode="edge")
        rec = np.empty_like(plane)
        for r in range(0, plane.shape[0], 8):
            for c in range(0, plane.shape[1], 8):
                coef = basis @ plane[r:r + 8, c:c + 8] @ basis.T
                quant = np.trunc(coef / step) * step
                quant[0, 0] = coef[0, 0]
                rec[r:r + 8, c:c + 8] = basis.T @ quant @ basis
        expected[:, :, ch] = rec[:h, :w]
    return np.clip(expected, 0.0, 1.0)


def whole_frame_encode(img_pq, op):
    """degrade up to the codec, each stage on the whole frame through the public functions."""
    img = tm.tone_map(op, cm.decode(img_pq))
    img, _ = cm.convert_gamut(img, cm.Primaries.BT709)
    px = np.clip(img.pixels, 0.0, 1.0) * 100.0
    # BT.709 encoded from nits at the SDR nominal 100 nits
    encoded = cm.bt709_oetf(np.clip(px / 100.0, 0.0, 1.0))
    return tm.quantize(cm.TaggedImage(encoded, tm.SDR_TAG), 8).pixels


def cropped_hdr(extent):
    hdr = textured_hdr(size=max(-(-e // 8) * 8 for e in extent))
    return hdr.with_pixels(hdr.pixels[:extent[0], :extent[1]])


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
            cells = ", ".join(
                f"`{name}` ({default:g}, {tm._PARAM_RANGES[name.rsplit('_', 1)[-1]][1]})"
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
        # outside each parameter's range; at 1e-320 nits or gamma -1e308 a curve gave NaN
        ("Reinhard", {"peak_in_nits": 1e-320}),
        ("BT2446A", {"peak_in_nits": 1e-320}),
        ("BT2446A", {"peak_out_nits": 1e-320}),
        ("LogC", {"peak_in_nits": 0.0049}),
        ("ExpertStub", {"gamma": -1e308, "mix": 1}),
        ("ExpertStub", {"gamma": 0}),
        ("ExpertStub", {"mix": -0.01}),
        ("ExpertStub", {"mix": 1.01}),
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
    @pytest.mark.parametrize("kind", list(tm.ToneKind), ids=[k.value for k in tm.ToneKind])
    def test_finite_at_the_parameter_bounds(self, kind):
        # every combination of the parameters' range ends (and 1 and 10^4 nits), on
        # coloured pixels over 0 to 10^4 nits, one channel of each 0
        rng = np.random.default_rng(9)
        px = rng.uniform(0.0, cm.PQ_PEAK_NITS, (64, 3))
        px[np.arange(64), np.arange(64) % 3] = 0.0
        px[:3] = [[0.0, 0.0, 0.0], [cm.PQ_PEAK_NITS, 0.0, 0.0], [1e-3, 0.0, 1e-3]]
        img = cm.TaggedImage(px[None], cm.ColorSpaceTag(cm.Primaries.BT2020,
                                                        cm.Transfer.LINEAR, cm.PQ_PEAK_NITS))
        ends = {"nits": (cm.PU21_MIN_NITS, 1.0, 1e4, 1e308), "gamma": (5e-324, 1e308),
                "mix": (0.0, 1.0)}
        names = list(tm._CURVES[kind].__kwdefaults__)
        for vals in itertools.product(*(ends[name.rsplit("_", 1)[-1]] for name in names)):
            params = dict(zip(names, vals))
            out = tm.tone_map(tm.ToneOperator(kind, params), img).pixels
            assert np.all(np.isfinite(out)), params

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
        # 37x53 needs padding on both axes and catches swapped transposes
        px = np.random.default_rng(4).uniform(0, 1, (37, 53, 3))
        for crf in tm.VALID_CRF:
            got = tm.codec_proxy(self.encoded(px), crf).pixels
            np.testing.assert_allclose(got, per_block_codec(px, crf), rtol=0, atol=1e-12)


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
        # relative light, scaled to the SDR nominal 100 nits; gray keeps its value in BT.2020
        lin = cm.decode(sdr)
        np.testing.assert_allclose(lin.pixels * 100.0, nits, atol=0.5)

    @pytest.mark.parametrize("extent", BANDED_EXTENTS, ids=str)
    def test_banded_chain_matches_whole_frame_reference(self, extent, monkeypatch):
        hdr = cropped_hdr(extent)
        op = tm.ToneOperator(tm.ToneKind.BT2446A, {})
        encoded = whole_frame_encode(hdr, op)
        # the program's basis: a coefficient on a deadzone boundary rounds the same way
        want = {crf: per_block_codec(encoded, crf, tm.DCT8) for crf in tm.VALID_CRF}
        for band_rows in BANDED_ROWS:
            fix_band_rows(monkeypatch, band_rows)
            got = tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=None)).pixels
            assert np.array_equal(got, encoded), band_rows
            for crf in tm.VALID_CRF:
                got = tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=crf)).pixels
                assert np.array_equal(got, want[crf]), (band_rows, crf)

    @pytest.mark.parametrize("extent", BANDED_EXTENTS, ids=str)
    def test_variants_equal_codec_of_uncoded_frame(self, extent, monkeypatch):
        hdr = cropped_hdr(extent)
        op = tm.ToneOperator(tm.ToneKind.LOGC, {})
        crfs = (39, None, 23, 31)
        encoded = tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=None))
        want = {crf: tm.codec_proxy(encoded, crf).pixels for crf in crfs}
        assert encoded.tag == tm.SDR_TAG
        # read each band as it comes, and read none until every band has been made
        for band_rows, collect in itertools.product(BANDED_ROWS, (iter, list)):
            fix_band_rows(monkeypatch, band_rows)
            # NaN until a band fills it, so a row no band covers fails the comparison
            frames = np.full((len(crfs),) + encoded.shape, np.nan)
            tops = []
            for rows, bands in collect(tm.degrade_variants(cm.decode(hdr), op, crfs)):
                assert len(bands) == len(crfs)
                tops.append(rows.start)
                for frame, band in zip(frames, bands):
                    frame[rows] = band
            assert tops == sorted(tops, reverse=True), band_rows  # the bottom band first
            for crf, frame in zip(crfs, frames):
                assert np.array_equal(frame, want[crf]), (band_rows, collect, crf)

    def test_bands_hold_whole_blocks(self):
        # the most rows, in whole 8x8 blocks, within the pixel budget; at least one block
        for width in (1, 9, 45, 67, 960, 1920, 3840, 5000):
            rows = tc.band_rows(width)
            assert rows % 8 == 0 and rows >= 8, width
            assert rows * width <= tc.BAND_PIXELS or rows == 8, width

    @pytest.mark.parametrize("crfs", [(23, 30), (None, 24), ("23",)])
    def test_variants_reject_bad_crf_before_any_band(self, crfs, monkeypatch):
        linear = cm.decode(textured_hdr())
        monkeypatch.setattr(tm, "tone_map", self.no_band)
        with pytest.raises(ConfigError):
            tm.degrade_variants(linear, ALL_OPS[0], crfs)

    @pytest.mark.parametrize("tag", [
        cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS),
        cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.LINEAR, cm.PQ_PEAK_NITS),
    ], ids=["pq", "bt709"])
    def test_variants_reject_wrong_tag_before_any_band(self, tag, monkeypatch):
        img = cm.TaggedImage(np.full((16, 16, 3), 0.5), tag)
        monkeypatch.setattr(tm, "tone_map", self.no_band)
        with pytest.raises(TagError):
            tm.degrade_variants(img, ALL_OPS[0], (23,))

    @staticmethod
    def no_band(*args):
        raise AssertionError("a band ran")

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


# SHA-256 of the codec's output bytes, recorded before the codec moved from per-block
# matmuls to whole-band GEMMs: padded blocks on both axes, whole blocks, and a short
# last band on a whole-block width
CODEC_EXTENTS = [(19, 13), (37, 53), (64, 64), (136, 64), (43, 72)]
CODEC_PROXY_SHA256 = {
    (19, 13): "2ef907f89cfe49ee1e17c140155eb56cfb79b7fafcb77c8042132c247cc7492e",
    (37, 53): "9c27b8822a695b7cae8cb0100c535af17abd9f27d7051718989591160de129df",
    (64, 64): "8a9111488d4151fef9f383dd81a16768b90b0e0a221441a6a73fd0b90ca9137f",
    (136, 64): "3e751a77380f20790b96269bf8c4707a63eb4d121f87a2b719184a9fe77e2a62",
    (43, 72): "c4bb4dc89901d5a6f1b3064abb485915cf2862dd1d9e61d974f1398faa44bc3b",
}
VARIANTS_SHA256 = {
    (19, 13): "bb2b3b7684ba47aba17161f0a1e1a7ad6aba9be90384968ce85680ca2e907f6b",
    (37, 53): "7d100ef4c715985784c7afbf6cad84908edf578d6ac4760034f809a6416dbe8b",
    (64, 64): "edffa73da598dd50db76a3c4384366d49d5399b4283595ae28a5f97aee26121f",
    (136, 64): "39858260d04705e2a531adf4b4261c71058c6d40cef69d54ff3e151e4869942c",
    (43, 72): "0ffed03927d2a6f674ba1cf1e54ec6c6e535eda10eb758b58e4b60eb48243e1f",
}


class TestCodecPins:
    @pytest.mark.parametrize("extent", CODEC_EXTENTS, ids=str)
    @pytest.mark.parametrize("band_rows", [None, 8, 16])
    def test_codec_proxy_bytes(self, extent, band_rows, monkeypatch):
        fix_band_rows(monkeypatch, band_rows)
        px = np.random.default_rng(sum(extent)).uniform(0.0, 1.0, extent + (3,))
        img = cm.TaggedImage(px, tm.SDR_TAG)
        digest = hashlib.sha256()
        for crf in tm.VALID_CRF:
            digest.update(tm.codec_proxy(img, crf).pixels.tobytes())
        assert digest.hexdigest() == CODEC_PROXY_SHA256[extent]

    @pytest.mark.parametrize("extent", CODEC_EXTENTS, ids=str)
    @pytest.mark.parametrize("band_rows", [None, 8, 16])
    def test_degrade_variants_bytes(self, extent, band_rows, monkeypatch):
        fix_band_rows(monkeypatch, band_rows)
        crfs = (23, None, 39)
        op = ALL_OPS[CODEC_EXTENTS.index(extent)]
        frames = np.full((len(crfs),) + extent + (3,), np.nan)
        for rows, bands in tm.degrade_variants(cm.decode(cropped_hdr(extent)), op, crfs):
            for frame, band in zip(frames, bands):
                frame[rows] = band
        assert hashlib.sha256(frames.tobytes()).hexdigest() == VARIANTS_SHA256[extent]
