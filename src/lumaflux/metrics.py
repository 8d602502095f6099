"""Full-reference HDR quality metrics in PU21 space plus DeltaE_ITP.

PSNR is computed after PQ-decoding both images to absolute nits and
applying the PU21 perceptual encoding; the code range is the PU21 value
of 10^4 cd/m^2. Identical images report the 99 dB sentinel cap.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import colorimetry as cm
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


def _decode_to_nits(img):
    if img.tag.transfer is not cm.Transfer.PQ or img.tag.primaries is not cm.Primaries.BT2020:
        raise TagError("metrics expect PQ/BT.2020 images")
    return cm.apply_transfer(img)


def pu21_range():
    return float(cm.pu21_encode(cm.PQ_PEAK_NITS) - cm.pu21_encode(cm.PU21_MIN_NITS))


def psnr_pu21(ref, test, luma_only=False):
    """PSNR over PU21-encoded nits, all channels or luminance only."""
    return _psnr_linear(_decode_to_nits(ref), _decode_to_nits(test), luma_only)


def _psnr_linear(ref_lin, test_lin, luma_only):
    if ref_lin.pixels.shape != test_lin.pixels.shape:
        raise DimensionError("psnr_pu21: image extents differ")
    if luma_only:
        a = cm.pu21_encode(cm.luma2020(ref_lin))
        b = cm.pu21_encode(cm.luma2020(test_lin))
    else:
        a = cm.pu21_encode(ref_lin.pixels)
        b = cm.pu21_encode(test_lin.pixels)
    mse = float(np.mean((a - b) ** 2))
    if not np.isfinite(mse):
        # min(PSNR_CAP_DB, nan) would return the identical-image cap
        raise EvaluationError(f"psnr_pu21: non-finite mean squared error {mse}")
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 20.0 * np.log10(pu21_range()) - 10.0 * np.log10(mse))


def metric_report(ref, test):
    """Assemble every in-scope metric into a machine-readable report."""
    ref_lin = _decode_to_nits(ref)
    test_lin = _decode_to_nits(test)
    return MetricReport(
        psnr_pu21=_psnr_linear(ref_lin, test_lin, luma_only=False),
        psnr_y_pu21=_psnr_linear(ref_lin, test_lin, luma_only=True),
        delta_e_itp_mean=cm.delta_e_itp(ref_lin, test_lin),
    )
