import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lumaflux import colorimetry as cm
from lumaflux import features as ft
from lumaflux import pfm
from lumaflux import tensorcore as tc
from lumaflux import tonemap as tm
from lumaflux.errors import DimensionError, DomainError, TagError
from test_tensorcore import fix_band_rows

# Published BT.2020 -> BT.709 matrix (ITU-R BT.2087) for cross checking
BT2087_2020_TO_709 = np.array([
    [1.6605, -0.5876, -0.0728],
    [-0.1246, 1.1329, -0.0083],
    [-0.0182, -0.1006, 1.1187],
])


def tagged(pixels, primaries=cm.Primaries.BT2020, transfer=cm.Transfer.LINEAR,
           peak=cm.PQ_PEAK_NITS):
    return cm.TaggedImage(np.asarray(pixels, dtype=np.float64),
                          cm.ColorSpaceTag(primaries, transfer, peak))


PQ_TAG = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
SDR_TAG = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)


class TestPQ:
    def test_round_trip_encode_decode(self):
        nits = np.linspace(0.0, cm.PQ_PEAK_NITS, 100001)
        back = cm.pq_decode(cm.pq_encode(nits))
        rel = np.abs(back - nits) / np.maximum(nits, 1.0)
        assert rel.max() < 1e-6

    def test_round_trip_decode_encode(self):
        sig = np.linspace(0.0, 1.0, 100001)
        back = cm.pq_encode(cm.pq_decode(sig))
        assert np.max(np.abs(back - sig)) < 1e-6

    def test_peak_signal_is_peak_nits(self):
        assert cm.pq_decode(np.array(1.0)) == pytest.approx(cm.PQ_PEAK_NITS, abs=1e-9)

    def test_reference_value_100_nits(self):
        # widely published PQ code value for 100 cd/m^2
        assert float(cm.pq_encode(100.0)) == pytest.approx(0.508078, abs=1e-6)

    def test_zero_maps_to_nonnegative_floor(self):
        v = float(cm.pq_encode(0.0))
        assert 0.0 <= v < 1e-4
        assert float(cm.pq_decode(np.array(0.0))) == 0.0

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            cm.pq_decode(np.array([0.5, 1.5]))

    @settings(max_examples=200, deadline=None)
    @given(nits=arrays(np.float64, 16, elements=st.floats(0.0, cm.PQ_PEAK_NITS)))
    def test_property_encode_decode(self, nits):
        back = cm.pq_decode(cm.pq_encode(nits))
        assert np.all(np.abs(back - nits) <= 1e-6 * np.maximum(nits, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(sig=arrays(np.float64, 16, elements=st.floats(0.0, 1.0)))
    def test_property_decode_encode(self, sig):
        # signals below the PQ floor pq_encode(0) decode to 0 nits
        assert np.max(np.abs(cm.pq_encode(cm.pq_decode(sig)) - sig)) < 1e-6


class TestBT709Transfer:
    def test_round_trip(self):
        x = np.linspace(0.0, 1.0, 4096)
        np.testing.assert_allclose(cm.bt709_eotf(cm.bt709_oetf(x)), x, atol=1e-9)

    def test_linear_toe(self):
        assert float(cm.bt709_oetf(0.01)) == pytest.approx(0.045, abs=1e-12)

    def test_monotone_across_knee(self):
        # the published constants leave a ~2.5e-4 jump at 0.018; the curve
        # must still be nondecreasing and invert exactly on both branches
        x = np.linspace(0.0, 0.04, 2001)
        assert np.all(np.diff(cm.bt709_oetf(x)) >= 0.0)

    def test_oetf_bits_of_the_two_branch_formula(self):
        # in place, the same operations in the same order; a scalar stays a scalar
        x = np.concatenate([np.linspace(-0.01, 1.0, 5001), [0.018, np.nextafter(0.018, 0), 0.0]])
        want = np.where(x < 0.018, 4.5 * x, 1.099 * np.power(np.maximum(x, 1e-12), 0.45) - 0.099)
        assert np.array_equal(cm.bt709_oetf(x), want)
        assert np.array_equal(cm.bt709_oetf(x.reshape(-1, 3, 1)), want.reshape(-1, 3, 1))
        for v in (0.5, 0.01):
            assert np.ndim(cm.bt709_oetf(v)) == 0 and cm.bt709_oetf(v) == cm.bt709_oetf([v])[0]

    def test_eotf_bits_of_the_two_branch_formula(self):
        # in place, the same operations in the same order; the knee is 4.5 * 0.018, one
        # ulp below 0.081, and a float32 band widens exactly; a scalar stays a scalar
        knee = 4.5 * 0.018
        v = np.concatenate([np.linspace(0.0, 1.0, 5000),
                            [knee, np.nextafter(knee, 0), np.nextafter(knee, 1), 0.081]])
        band = v.reshape(-1, 6, 3)  # 278 rows of 6 pixels
        for x in (v, band, band.astype(np.float32)):
            w = np.asarray(x, dtype=np.float64)
            want = np.where(w < knee, w / 4.5, np.power((w + 0.099) / 1.099, 1.0 / 0.45))
            got = cm.bt709_eotf(x)
            assert got.dtype == np.float64 and np.array_equal(got, want)
        for s in (0.5, 0.01, knee):
            assert np.ndim(cm.bt709_eotf(s)) == 0 and cm.bt709_eotf(s) == cm.bt709_eotf([s])[0]

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, 16, elements=st.floats(0.0, 1.0)))
    def test_property_round_trip(self, x):
        np.testing.assert_allclose(cm.bt709_eotf(cm.bt709_oetf(x)), x, rtol=0, atol=1e-9)


class TestGamut:
    def test_2020_to_709_matches_published(self):
        m = cm.gamut_matrix(cm.Primaries.BT2020, cm.Primaries.BT709)
        np.testing.assert_allclose(m, BT2087_2020_TO_709, atol=5e-4)

    def test_pairs_compose_to_identity(self):
        prims = list(cm.Primaries)
        for a in prims:
            for b in prims:
                m = cm.gamut_matrix(a, b) @ cm.gamut_matrix(b, a)
                np.testing.assert_allclose(m, np.eye(3), atol=1e-9)

    def test_white_point_preserved(self):
        for a in cm.Primaries:
            for b in cm.Primaries:
                m = cm.gamut_matrix(a, b)
                np.testing.assert_allclose(m @ np.ones(3), np.ones(3), atol=1e-6)

    def test_matrix_is_solved_once_and_read_only(self):
        for a in cm.Primaries:
            for b in cm.Primaries:
                m = cm.gamut_matrix(a, b)
                assert m is cm.gamut_matrix(a, b) and not m.flags.writeable
                fresh = np.eye(3) if a == b else np.linalg.solve(cm._rgb_to_xyz_matrix(b),
                                                                 cm._rgb_to_xyz_matrix(a))
                assert np.array_equal(m, fresh)
                with pytest.raises(ValueError):
                    m[0, 0] = 1.0

    def test_convert_gamut_reports_clamps(self):
        # saturated BT.2020 green falls outside BT.709
        img = tagged([[[0.0, 1.0, 0.0], [0.5, 0.5, 0.5]]])
        out, frac = cm.convert_gamut(img, cm.Primaries.BT709)
        assert frac == pytest.approx(0.5)
        assert out.pixels.min() >= 0.0
        assert out.tag.primaries is cm.Primaries.BT709

    @pytest.mark.parametrize("holds", ["negatives", "nan", "negative_zero", "no_negatives"])
    def test_clamp_fraction_is_mean_of_any_bit_for_bit(self, holds):
        # odd extents and a count that is no power of two, so the division rounds
        rng = np.random.default_rng(5)
        rgb = rng.uniform(0.0, 1.0, (37, 53, 3))
        if holds != "no_negatives":
            rgb[rng.uniform(size=rgb.shape) < 0.07] *= -1.0
        if holds == "nan":
            rgb[rng.uniform(size=rgb.shape) < 0.05] = np.nan
        if holds == "negative_zero":
            rgb[rng.uniform(size=rgb.shape) < 0.2] = -0.0
            assert np.any(np.signbit(rgb) & (rgb == 0.0))
        want = float(np.mean(np.any(rgb < 0.0, axis=-1)))
        assert cm._clamp_fraction(rgb) == want
        assert (want == 0.0) == (holds == "no_negatives")
        # and through convert_gamut, on the matrix product it clamps
        img = tagged(rgb)
        out = img.pixels @ cm.gamut_matrix(cm.Primaries.BT2020, cm.Primaries.BT709).T
        _, frac = cm.convert_gamut(img, cm.Primaries.BT709)
        assert frac == float(np.mean(np.any(out < 0.0, axis=-1)))

    def test_convert_gamut_requires_linear(self):
        img = tagged([[[0.1, 0.2, 0.3]]], transfer=cm.Transfer.PQ)
        with pytest.raises(TagError):
            cm.convert_gamut(img, cm.Primaries.BT709)


# height -> sha256 of Gamma709 decode, convert_gamut to BT.709 and delta_e_itp_map on
# seeded (height, 1, 3) frames. A matrix product on a frame one pixel wide may round
# otherwise than on a wider one: these pin the C-contiguous transposed matrices' bits there
WIDTH_ONE_SHA256 = {
    1: ("b585c1cdb03770aa13e241700accfe192d159ef8b02d9c5f8bfd05ff72904bd2",
        "365e19a18ffad85666b245e93aa6d093e724e70d0a10623925ff4f59273250f6",
        "842928352313e4848e9e5c15bd1aef70901b196f17818e9867fbd28c42cc07a7"),
    7: ("5ae414802678f8c57176706402b1e5ec91ac92dff63c00524d8571f2326e881a",
        "8634a0f35605c3d601eb946877dc4a91602ab79ff6404a3e12b70609b5c59bb9",
        "dceb9d0f22bf94a9b08c9832a452fec47e6e6e1639398a727657a6ba76516c00"),
    64: ("e73420fc512cf9d1f4eb627e0bb6bbcea40fa203ee03ce7afef73eedd7b4f4e4",
         "7d09df75c52cd50524149518e51591a6e886273b1796b809166104c5f42820bf",
         "f0b814fd42d27951a9d753217f943230c5fe9b028513d8fc8394603b9196e984"),
}


class TestColourProducts:
    @pytest.mark.parametrize("seed,height", [(0, 1), (1, 7), (2, 64)])
    def test_width_one_pins(self, seed, height):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.0, 1.0, (2, height, 1, 3))
        dec = cm.decode(tagged(a, cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)).pixels
        gamut, _ = cm.convert_gamut(tagged(a, peak=1.0), cm.Primaries.BT709)
        de = cm.delta_e_itp_map(tagged(a * 1000.0), tagged(b * 1000.0))
        got = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (dec, gamut.pixels, de))
        assert got == WIDTH_ONE_SHA256[height]

    def test_products_equal_the_transposed_view_beyond_one_pixel_wide(self):
        rng = np.random.default_rng(9)
        px = rng.uniform(0.0, 1.0, (5, 3, 3))
        m = cm.gamut_matrix(cm.Primaries.BT2020, cm.Primaries.BT709)
        out, _ = cm.convert_gamut(tagged(px, peak=1.0), cm.Primaries.BT709)
        assert out.pixels.tobytes() == np.maximum(px @ m.T, 0.0).tobytes()
        lms_pq = cm.pq_encode(px @ cm.RGB2020_TO_LMS.T)
        assert cm.rgb_to_ictcp(tagged(px)).tobytes() == (lms_pq @ cm.LMS_PQ_TO_ICTCP.T).tobytes()

    def test_transposes_are_cached_contiguous_and_read_only(self):
        for src in cm.Primaries:
            for dst in cm.Primaries:
                t = cm._gamut_matrix_t(src, dst)
                assert t is cm._gamut_matrix_t(src, dst)
                assert t.flags.c_contiguous and not t.flags.writeable
                assert np.array_equal(t, cm.gamut_matrix(src, dst).T)


class TestDecodeRangeCheck:
    @pytest.mark.parametrize("tag", [PQ_TAG, SDR_TAG], ids=["pq", "gamma709"])
    def test_band_is_read_once(self, tag):
        img = cm.TaggedImage(TestFloat32Storage.frame(), tag)
        reads = []

        class Counted:
            shape = img.shape

            def __init__(self):
                self.tag = img.tag

            def band(self, rows):
                reads.append(rows)
                return img.band(rows)

        got = cm.decode(Counted(), slice(8, 24))
        assert reads == [slice(8, 24)]
        assert got.pixels.tobytes() == cm.decode(img, slice(8, 24)).pixels.tobytes()

    @pytest.mark.parametrize("value", [np.nan, -0.25, 1.25, np.inf])
    def test_out_of_range_band_raises(self, value):
        px = TestFloat32Storage.frame()
        px[20, 3, 2] = value
        img = cm.TaggedImage(px, PQ_TAG)
        assert cm.decode(img, slice(0, 16)).pixels.shape == (16, 53, 3)
        with pytest.raises(DomainError, match="rows 16:32"):
            cm.decode(img, slice(16, 32))
        assert not cm.in_unit_range(px[16:32]) and cm.in_unit_range(px[:16])

    def test_range_checked_names_the_first_bad_pixel_of_the_first_bad_frame(self):
        first, second = TestFloat32Storage.frame(), TestFloat32Storage.frame()
        first[30, 1, 0] = np.nan
        second[2, 4, 1] = 1.5
        frames = [cm.TaggedImage(px, PQ_TAG) for px in (first, second)]
        with pytest.raises(DomainError, match=r"pixel \(30, 1, 0\)"):
            with cm.range_checked(*frames):
                cm.decode(frames[1], slice(0, 8))
        # an error whose frames all pass the check propagates as it was raised
        with pytest.raises(DomainError, match="mine"):
            with cm.range_checked(frames[0].with_pixels(second * 0.5)):
                raise DomainError("mine")


class TestTransferDispatch:
    def test_decode_uses_tag(self):
        img = tagged([[[0.5, 0.5, 0.5]]], transfer=cm.Transfer.PQ)
        lin = cm.decode(img)
        assert lin.tag == replace(img.tag, transfer=cm.Transfer.LINEAR)
        assert float(lin.pixels[0, 0, 0]) == pytest.approx(
            float(cm.pq_decode(np.array(0.5))))
        # Gamma709: relative light, moved from the tag's primaries to BT.2020
        sdr = tagged([[[0.5, 0.25, 0.75]]], primaries=cm.Primaries.BT709,
                     transfer=cm.Transfer.GAMMA709, peak=100.0)
        lin = cm.decode(sdr)
        assert lin.tag == cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, 1.0)
        want = cm.bt709_eotf(sdr.pixels) @ cm.gamut_matrix(cm.Primaries.BT709,
                                                             cm.Primaries.BT2020).T
        np.testing.assert_allclose(lin.pixels, want, rtol=1e-12)

    def test_decode_rejects_non_finite(self):
        # decode reads samples that passed check_encoded, which names the first bad pixel
        img = tagged([[[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]]], transfer=cm.Transfer.PQ)
        with pytest.raises(DomainError, match=r"pixel \(0, 1, 1\)"):
            cm.check_encoded(img)
        with pytest.raises(DomainError, match="flat index 4"):
            cm.pq_decode(img.pixels)

    def test_decode_rejects_linear(self):
        with pytest.raises(TagError):
            cm.decode(tagged([[[1.0, 1.0, 1.0]]]))

    @pytest.mark.parametrize("tag", [PQ_TAG, SDR_TAG], ids=["pq", "gamma709"])
    def test_row_bands_decode_as_the_whole_frame(self, tag, tmp_path, monkeypatch):
        # 37 x 53, no side a multiple of 8: four bands of 8 rows and a short last band,
        # from memory and from a PFM read band by band
        fix_band_rows(monkeypatch, 8)
        img = cm.TaggedImage(TestFloat32Storage.frame(), tag)
        want = cm.decode(img)
        pfm.write_tagged(str(tmp_path / "frame.pfm"), img)
        with pfm.open_tagged(str(tmp_path / "frame.pfm")) as frame:
            for src in (img, frame):
                got = np.full(img.shape, np.nan)
                for rows in tc.row_bands(37, 53):
                    band = cm.decode(src, rows)
                    assert band.tag == want.tag
                    got[rows] = band.pixels
                assert got.tobytes() == want.pixels.tobytes()


class TestLumaIctcp:
    def test_luma_weights(self):
        img = tagged([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        np.testing.assert_allclose(cm.luma2020(img), [[0.2627, 0.6780, 0.0593]])

    def test_scale_channels_bits_of_the_broadcast_product(self):
        rng = np.random.default_rng(0)
        ratio = rng.uniform(0.0, 3.0, (5, 7))
        for px in (rng.uniform(0.0, 1.0, (5, 7, 3)), rng.uniform(0.0, 1.0, (5, 7, 3)).astype(
                np.float32)):
            want = px * ratio[..., None]
            got = cm.scale_channels(px, ratio)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_achromatic_has_zero_chroma(self):
        img = tagged(np.full((2, 2, 3), 100.0))
        ictcp = cm.rgb_to_ictcp(img)
        np.testing.assert_allclose(ictcp[..., 1:], 0.0, atol=1e-9)
        # intensity equals the PQ encoding of the luminance
        np.testing.assert_allclose(ictcp[..., 0], float(cm.pq_encode(100.0)), atol=1e-9)

    def test_ictcp_bits_of_the_lms_clamped_first(self):
        # pq_encode's own clip takes the place of np.maximum(lms, 0.0): -0.0, NaN,
        # the smallest subnormal and values past the PQ peak keep every bit
        rng = np.random.default_rng(2)
        lms = rng.uniform(-50.0, 1.2e4, 4096)
        for k, special in enumerate((-0.0, 0.0, np.nan, 5e-324, -5e-324, 2e4, -2e4)):
            lms[k::11] = special
        assert cm.pq_encode(lms).tobytes() == cm.pq_encode(np.maximum(lms, 0.0)).tobytes()
        # RGB with negative, non-finite and out-of-range samples
        img = tagged(np.concatenate([rng.uniform(-5.0, 2e4, (8, 8, 3)),
                                     lms[:192].reshape(8, 8, 3)]))
        lms_of_img = img.pixels @ cm.RGB2020_TO_LMS.T
        want = cm.pq_encode(np.maximum(lms_of_img, 0.0)) @ cm.LMS_PQ_TO_ICTCP.T
        assert cm.rgb_to_ictcp(img).tobytes() == want.tobytes()

    def test_delta_e_properties(self):
        rng = np.random.default_rng(0)
        a = tagged(rng.uniform(1.0, 500.0, (4, 4, 3)))
        b = tagged(rng.uniform(1.0, 500.0, (4, 4, 3)))
        assert cm.delta_e_itp(a, a) == 0.0
        assert cm.delta_e_itp(a, b) > 0.0
        assert cm.delta_e_itp(a, b) == pytest.approx(cm.delta_e_itp(b, a), rel=1e-12)

    def test_delta_e_shape_mismatch(self):
        a = tagged(np.ones((2, 2, 3)))
        b = tagged(np.ones((3, 2, 3)))
        with pytest.raises(DimensionError):
            cm.delta_e_itp(a, b)


class TestPU21:
    def test_monotone_increasing(self):
        nits = np.linspace(cm.PU21_MIN_NITS, cm.PQ_PEAK_NITS, 4096)
        v = cm.pu21_encode(nits)
        assert np.all(np.diff(v) > 0)

    def test_anchor_near_zero_at_floor(self):
        assert abs(float(cm.pu21_encode(cm.PU21_MIN_NITS))) < 0.1

    def test_peak_value_plausible(self):
        # PU21 banding+glare maps 10^4 nits to roughly 600
        assert 500.0 < float(cm.pu21_encode(cm.PQ_PEAK_NITS)) < 700.0

    def test_clamps_below_floor(self):
        assert float(cm.pu21_encode(0.0)) == float(cm.pu21_encode(cm.PU21_MIN_NITS))


def pq_encode_closed_form(nits):
    ym = np.power(np.clip(nits, 0.0, cm.PQ_PEAK_NITS) / cm.PQ_PEAK_NITS, cm.PQ_M1)
    return np.power((cm.PQ_C1 + cm.PQ_C2 * ym) / (1.0 + cm.PQ_C3 * ym), cm.PQ_M2)


def pq_decode_closed_form(sig):
    vp = np.power(sig, 1.0 / cm.PQ_M2)
    num = np.maximum(vp - cm.PQ_C1, 0.0)
    return np.power(num / (cm.PQ_C2 - cm.PQ_C3 * vp), 1.0 / cm.PQ_M1) * cm.PQ_PEAK_NITS


def pu21_encode_closed_form(nits):
    p = cm.PU21_COEFFS
    ym = np.power(np.clip(nits, cm.PU21_MIN_NITS, cm.PQ_PEAK_NITS), p[3])
    return p[6] * (np.power((p[0] + p[1] * ym) / (1.0 + p[2] * ym), p[4]) - p[5])


def bt709_eotf_closed_form(sig):
    v = np.asarray(sig, dtype=np.float64)
    return np.where(v < 4.5 * 0.018, v / 4.5, np.power((v + 0.099) / 1.099, 1.0 / 0.45))[()]


# kernel -> (its out-of-place closed form, the samples it takes); the encoders
# clip, so they also get samples outside their range
IN_PLACE_KERNELS = {
    "bt709_eotf": (cm.bt709_eotf, bt709_eotf_closed_form, st.floats(0.0, 1.0)),
    "pq_encode": (cm.pq_encode, pq_encode_closed_form, st.floats(-1e3, 2e4)),
    "pq_decode": (cm.pq_decode, pq_decode_closed_form, st.floats(0.0, 1.0)),
    "pu21_encode": (cm.pu21_encode, pu21_encode_closed_form, st.floats(-1e3, 2e4)),
}


class TestInPlaceKernels:
    @pytest.mark.parametrize("name", sorted(IN_PLACE_KERNELS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_closed_form_and_keeps_input(self, name, data):
        kernel, closed_form, elements = IN_PLACE_KERNELS[name]
        shape = array_shapes(min_dims=0, max_dims=3, max_side=6)
        x = data.draw(arrays(np.float64, shape, elements=elements))
        before = x.copy()
        out = kernel(x)
        expected = closed_form(x)
        assert np.array_equal(x, before)
        assert np.array_equal(out, expected)
        assert type(out) is type(expected)  # a 0-d input gives a scalar, as before


class TestTags:
    def test_tag_json_round_trip(self):
        tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
        assert cm.ColorSpaceTag.from_json(tag.to_json()) == tag

    def test_peak_validation(self):
        with pytest.raises(DomainError):
            cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.LINEAR, -1.0)
        with pytest.raises(DomainError):
            cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, 20000.0)

    def test_image_shape_validation(self):
        with pytest.raises(DimensionError):
            cm.TaggedImage(np.zeros((4, 4)), cm.ColorSpaceTag(
                cm.Primaries.BT709, cm.Transfer.LINEAR, 100.0))


# name -> a decode of encoded samples as a frame read from a PFM stores them
FLOAT_DECODES = {
    "pq_decode": cm.pq_decode,
    "_pq_eotf": cm._pq_eotf,
    "decode PQ": lambda px: cm.decode(cm.TaggedImage(px, PQ_TAG)).pixels,
    "decode Gamma709": lambda px: cm.decode(cm.TaggedImage(px, SDR_TAG)).pixels,
    "linearize_sdr": lambda px: ft.linearize_sdr(cm.TaggedImage(px, SDR_TAG)).pixels,
    "quantize": lambda px: tm.quantize(cm.TaggedImage(px, SDR_TAG), 8).pixels,
    "codec_proxy": lambda px: tm.codec_proxy(cm.TaggedImage(px, SDR_TAG), 23).pixels,
    # whole 8x8 blocks, read unpadded from a view that is not C-contiguous
    "codec_proxy whole blocks": lambda px: tm.codec_proxy(
        cm.TaggedImage(px[:32, :48], SDR_TAG), 31).pixels,
}


class TestFloat32Storage:
    """Encoded frames keep their float32 samples; every decode computes in float64."""

    @staticmethod
    def frame():
        # 37 x 53: no side a multiple of a SIMD width or of the 8x8 codec block
        px = np.random.default_rng(5).uniform(0.0, 1.0, (37, 53, 3)).astype(np.float32)
        px.flat[:4] = [0.0, 1.0, 0.081, 0.5]  # both ends and the BT.709 toe's edge
        return px

    @pytest.mark.parametrize("name", sorted(FLOAT_DECODES))
    def test_float32_decodes_as_its_float64_cast(self, name):
        px = self.frame()
        got = FLOAT_DECODES[name](px)
        want = FLOAT_DECODES[name](px.astype(np.float64))
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_only_encoded_float32_is_kept(self):
        px = self.frame()
        assert cm.TaggedImage(px, PQ_TAG).pixels.dtype == np.float32
        assert cm.TaggedImage(px, SDR_TAG).pixels.dtype == np.float32
        linear = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, cm.PQ_PEAK_NITS)
        assert cm.TaggedImage(px, linear).pixels.dtype == np.float64
        assert cm.TaggedImage(px.astype(np.float16), PQ_TAG).pixels.dtype == np.float64
