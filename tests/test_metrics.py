import tracemalloc

import numpy as np
import pytest

from lumaflux import colorimetry as cm
from lumaflux import metrics as mt
from lumaflux.errors import DimensionError, EvaluationError, TagError
from test_tensorcore import fix_band_rows


def pq_image(nits):
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    return cm.TaggedImage(cm.pq_encode(np.asarray(nits, dtype=np.float64)), tag)


class TestPsnrPu21:
    def test_identical_hits_cap(self):
        img = pq_image(np.full((4, 4, 3), 100.0))
        rep = mt.metric_report(img, img)
        assert rep.psnr_pu21 == rep.psnr_y_pu21 == mt.PSNR_CAP_DB

    def test_constant_pu21_offset_closed_form(self):
        # constant PU21-value difference c gives PSNR = 20 log10(range / c)
        nits_a = np.full((8, 8, 3), 100.0)
        v = float(cm.pu21_encode(100.0))
        c = 5.0
        # invert PU21 for v + c by bisection
        lo, hi = 100.0, 10000.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(cm.pu21_encode(mid)) < v + c:
                lo = mid
            else:
                hi = mid
        nits_b = np.full((8, 8, 3), 0.5 * (lo + hi))
        expected = 20.0 * np.log10(mt.PU21_RANGE / c)
        got = mt.metric_report(pq_image(nits_a), pq_image(nits_b)).psnr_pu21
        assert got == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = pq_image(rng.uniform(1.0, 1000.0, (8, 8, 3)))
        b = pq_image(rng.uniform(1.0, 1000.0, (8, 8, 3)))
        ab, ba = mt.metric_report(a, b), mt.metric_report(b, a)
        assert ab.psnr_pu21 == pytest.approx(ba.psnr_pu21, abs=1e-9)

    def test_monotone_under_noise_amplitude(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(10.0, 900.0, (16, 16, 3))
        ref = pq_image(base)
        scores = []
        for amp in (5.0, 20.0, 80.0):
            noisy = np.clip(base + rng.normal(0.0, amp, base.shape), 0.0, 10000.0)
            scores.append(mt.metric_report(ref, pq_image(noisy)).psnr_pu21)
        assert scores[0] > scores[1] > scores[2]

    def test_shape_and_tag_checks(self):
        a = pq_image(np.full((2, 2, 3), 10.0))
        b = pq_image(np.full((3, 2, 3), 10.0))
        with pytest.raises(DimensionError, match="^metric_report: image extents differ$"):
            mt.metric_report(a, b)
        lin = cm.TaggedImage(np.full((2, 2, 3), 10.0),
                             cm.ColorSpaceTag(cm.Primaries.BT2020,
                                              cm.Transfer.LINEAR, cm.PQ_PEAK_NITS))
        with pytest.raises(TagError):
            mt.metric_report(a, lin)


    @pytest.mark.parametrize("mse", [np.nan, np.inf])
    def test_non_finite_mse_is_evaluation_error(self, mse):
        # min(PSNR_CAP_DB, nan) is the cap; a NaN sample must not score 99 dB
        with pytest.raises(EvaluationError):
            mt._psnr(mse)


def banded_pair(seed, h, w):
    """Seeded PQ/BT.2020 reference and a noisy copy, in code values over [0, 1]."""
    rng = np.random.default_rng(seed)
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    a = rng.uniform(0.0, 1.0, (h, w, 3))
    b = np.clip(a + rng.normal(0.0, 0.02, a.shape), 0.0, 1.0)
    return cm.TaggedImage(a, tag), cm.TaggedImage(b, tag)


# (seed, height, width) -> float.hex of the report's psnr_pu21 and psnr_y_pu21, as
# recorded from the report's per-row sums, each column reduced in row order
BANDED_PINS = {
    (0, 200, 131): ("0x1.0db4d2cb4109cp+5", "0x1.12d389475fac1p+5"),
    (1, 130, 64): ("0x1.0dbc626d92f6dp+5", "0x1.12d60500a4a4fp+5"),
    (2, 129, 67): ("0x1.0de3633803c92p+5", "0x1.1284f498113b0p+5"),
}


class TestAcrossBands:
    """Frames in one band at the default band height, and in 64-row bands, the last one short."""

    @pytest.mark.parametrize("key", list(BANDED_PINS))
    def test_scores_are_pinned(self, key, monkeypatch):
        a, b = banded_pair(*key)
        for band_rows in (None, 64):
            fix_band_rows(monkeypatch, band_rows)
            rep = mt.metric_report(a, b)
            assert (rep.psnr_pu21.hex(), rep.psnr_y_pu21.hex()) == BANDED_PINS[key], band_rows

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("key", list(BANDED_PINS))
    def test_psnr_is_the_report_score(self, key, workers, monkeypatch):
        # the JSON fields `metrics` prints carry the pinned scores at any worker count
        a, b = banded_pair(*key)
        for band_rows in (None, 64):
            fix_band_rows(monkeypatch, band_rows)
            doc = mt.metric_report(a, b, workers=workers).to_json()
            got = (doc["psnr_pu21"].hex(), doc["psnr_y_pu21"].hex())
            assert got == BANDED_PINS[key], band_rows


class TestReport:
    def test_fields_and_schema(self):
        rng = np.random.default_rng(2)
        a = pq_image(rng.uniform(1.0, 500.0, (8, 8, 3)))
        b = pq_image(rng.uniform(1.0, 500.0, (8, 8, 3)))
        doc = mt.metric_report(a, b).to_json()
        assert sorted(doc) == ["delta_e_itp_mean", "peak_nits", "psnr_pu21", "psnr_y_pu21",
                               "pu21_variant", "schema_version"]
        assert doc["schema_version"] == 2
        assert doc["pu21_variant"] == "banding_glare"
        assert doc["delta_e_itp_mean"] > 0.0
        assert doc["psnr_pu21"] <= mt.PSNR_CAP_DB

    def test_validates_against_shipped_schema(self):
        img = pq_image(np.full((4, 4, 3), 50.0))
        doc = mt.metric_report(img, img).to_json()
        assert mt.validate_report(doc) == []
        assert list(doc.keys()) == list(mt.REPORT_SCHEMA.keys())
        doc.pop("psnr_pu21")
        doc["extra"] = 1
        problems = mt.validate_report(doc)
        assert any("missing" in p for p in problems)
        assert any("unknown" in p for p in problems)

    def test_bool_is_not_a_number(self):
        img = pq_image(np.full((4, 4, 3), 50.0))
        doc = mt.metric_report(img, img).to_json()
        doc.update(psnr_pu21=True, peak_nits=True, schema_version=False)
        assert mt.validate_report(doc) == [
            "field psnr_pu21 has invalid type bool",
            "field peak_nits has invalid type bool",
            "field schema_version has invalid type bool",
        ]

    def test_peak_memory_is_bounded(self):
        # per-row sums and band-sized temporaries only; the inputs are made
        # before tracing starts
        a, b = banded_pair(3, 640, 960)
        tracemalloc.start()
        try:
            mt.metric_report(a, b, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * a.pixels.nbytes

    def test_identical_report(self):
        img = pq_image(np.full((4, 4, 3), 50.0))
        rep = mt.metric_report(img, img)
        assert rep.psnr_pu21 == mt.PSNR_CAP_DB
        assert rep.delta_e_itp_mean == 0.0
