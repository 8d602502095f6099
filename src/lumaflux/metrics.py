"""Full-reference HDR quality metrics in PU21 space plus DeltaE_ITP.

PSNR is computed after PQ-decoding both images to absolute nits and
applying the PU21 perceptual encoding; the code range is the PU21 value
of 10^4 cd/m^2. Identical images report the 99 dB sentinel cap.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import colorimetry as cm
from . import tensorcore as tc
from .errors import DimensionError, EvaluationError, TagError

PSNR_CAP_DB = 99.0
REPORT_SCHEMA_VERSION = 2

# field name -> Python types its JSON value may take, in fixed emission order
REPORT_SCHEMA = {
    "psnr_pu21": (int, float),
    "psnr_y_pu21": (int, float),
    "delta_e_itp_mean": (int, float),
    "pu21_variant": str,
    "peak_nits": (int, float),
    "schema_version": int,
}


def validate_report(doc):
    """Check a report dict against REPORT_SCHEMA; returns a list of problems."""
    problems = []
    for key, types in REPORT_SCHEMA.items():
        if key not in doc:
            problems.append(f"missing field {key}")
        elif not isinstance(doc[key], types):
            problems.append(f"field {key} has invalid type {type(doc[key]).__name__}")
    problems.extend(f"unknown field {k}" for k in doc if k not in REPORT_SCHEMA)
    return problems


@dataclass
class MetricReport:
    psnr_pu21: float
    psnr_y_pu21: float
    delta_e_itp_mean: float
    pu21_variant: str = "banding_glare"
    peak_nits: float = cm.PQ_PEAK_NITS
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_json(self):
        return asdict(self)


def _check_tag(img):
    if img.tag.transfer is not cm.Transfer.PQ or img.tag.primaries is not cm.Primaries.BT2020:
        raise TagError("metrics expect PQ/BT.2020 images")


def _decode_to_nits(img):
    _check_tag(img)
    return cm.apply_transfer(img)


# PU21 code range: the PU21 value of 10^4 cd/m^2 less that of the lowest luminance
PU21_RANGE = float(cm.pu21_encode(cm.PQ_PEAK_NITS) - cm.pu21_encode(cm.PU21_MIN_NITS))


def psnr_pu21(ref, test, luma_only=False):
    """PSNR over PU21-encoded nits, all channels or luminance only."""
    return _psnr_linear(_decode_to_nits(ref), _decode_to_nits(test), luma_only)


def _squared_error(ref_lin, test_lin, luma_only):
    """Per-sample squared PU21 difference of two linear images."""
    if luma_only:
        a = cm.pu21_encode(cm.luma2020(ref_lin))
        b = cm.pu21_encode(cm.luma2020(test_lin))
    else:
        a = cm.pu21_encode(ref_lin.pixels)
        b = cm.pu21_encode(test_lin.pixels)
    return (a - b) ** 2


def _psnr(mse):
    mse = float(mse)
    if not np.isfinite(mse):
        # min(PSNR_CAP_DB, nan) would return the identical-image cap
        raise EvaluationError(f"psnr_pu21: non-finite mean squared error {mse}")
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 20.0 * np.log10(PU21_RANGE) - 10.0 * np.log10(mse))


def _psnr_linear(ref_lin, test_lin, luma_only):
    if ref_lin.pixels.shape != test_lin.pixels.shape:
        raise DimensionError("psnr_pu21: image extents differ")
    return _psnr(np.mean(_squared_error(ref_lin, test_lin, luma_only)))


def metric_report(ref, test, workers=1):
    """Assemble every in-scope metric into a machine-readable report.

    Decoding and the per-pixel errors run over row bands on `workers`
    threads; every mean is taken over the whole frame, so the report does
    not depend on `workers`.
    """
    # whole-frame checks, in the order a whole-frame decode of each would fail
    for img in (ref, test):
        _check_tag(img)
        cm.check_encoded(img)
    if ref.pixels.shape != test.pixels.shape:
        raise DimensionError("psnr_pu21: image extents differ")
    h, w, _ = ref.pixels.shape
    se_rgb = np.empty((h, w, 3))
    se_y = np.empty((h, w))
    de = np.empty((h, w))

    def band(rows):
        a = cm.apply_transfer(ref.with_pixels(ref.pixels[rows]))
        b = cm.apply_transfer(test.with_pixels(test.pixels[rows]))
        se_rgb[rows] = _squared_error(a, b, luma_only=False)
        se_y[rows] = _squared_error(a, b, luma_only=True)
        de[rows] = cm.delta_e_itp_map(a, b)

    tc.map_row_bands(band, h, workers)
    return MetricReport(
        psnr_pu21=_psnr(np.mean(se_rgb)),
        psnr_y_pu21=_psnr(np.mean(se_y)),
        delta_e_itp_mean=float(np.mean(de)),
    )
