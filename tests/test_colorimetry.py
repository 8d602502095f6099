import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from lumaflux import colorimetry as cm
from lumaflux.errors import DimensionError, DomainError, TagError

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

    def test_convert_gamut_reports_clamps(self):
        # saturated BT.2020 green falls outside BT.709
        img = tagged([[[0.0, 1.0, 0.0], [0.5, 0.5, 0.5]]])
        out, frac = cm.convert_gamut(img, cm.Primaries.BT709)
        assert frac == pytest.approx(0.5)
        assert out.pixels.min() >= 0.0
        assert out.tag.primaries is cm.Primaries.BT709

    def test_convert_gamut_requires_linear(self):
        img = tagged([[[0.1, 0.2, 0.3]]], transfer=cm.Transfer.PQ)
        with pytest.raises(TagError):
            cm.convert_gamut(img, cm.Primaries.BT709)


class TestTransferDispatch:
    def test_decode_uses_tag(self):
        img = tagged([[[0.5, 0.5, 0.5]]], transfer=cm.Transfer.PQ)
        lin = cm.apply_transfer(img)
        assert lin.tag.transfer is cm.Transfer.LINEAR
        assert float(lin.pixels[0, 0, 0]) == pytest.approx(
            float(cm.pq_decode(np.array(0.5))))

    def test_encode_round_trip_gamma709(self):
        img = tagged([[[10.0, 40.0, 90.0]]], primaries=cm.Primaries.BT709, peak=100.0)
        enc = cm.encode_transfer(img, cm.Transfer.GAMMA709)
        dec = cm.apply_transfer(enc)
        np.testing.assert_allclose(dec.pixels, img.pixels, atol=1e-9)

    def test_decode_rejects_non_finite(self):
        img = tagged([[[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]]], transfer=cm.Transfer.PQ)
        with pytest.raises(DomainError, match=r"pixel \(0, 1, 1\)"):
            cm.apply_transfer(img)
        with pytest.raises(DomainError, match="flat index 4"):
            cm.pq_decode(img.pixels)

    def test_decode_rejects_linear(self):
        with pytest.raises(TagError):
            cm.apply_transfer(tagged([[[1.0, 1.0, 1.0]]]))

    def test_encode_requires_target(self):
        # Linear is not an encoding curve
        with pytest.raises(TagError):
            cm.encode_transfer(tagged([[[1.0, 1.0, 1.0]]]), cm.Transfer.LINEAR)


class TestLumaIctcp:
    def test_luma_weights(self):
        img = tagged([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        np.testing.assert_allclose(cm.luma2020(img), [[0.2627, 0.6780, 0.0593]])

    def test_achromatic_has_zero_chroma(self):
        img = tagged(np.full((2, 2, 3), 100.0))
        ictcp = cm.rgb_to_ictcp(img)
        np.testing.assert_allclose(ictcp[..., 1:], 0.0, atol=1e-9)
        # intensity equals the PQ encoding of the luminance
        np.testing.assert_allclose(ictcp[..., 0], float(cm.pq_encode(100.0)), atol=1e-9)

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


# kernel -> (its out-of-place closed form, the samples it takes); the encoders
# clip, so they also get samples outside their range
IN_PLACE_KERNELS = {
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
