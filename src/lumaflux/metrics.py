"""Full-reference HDR quality metrics in PU21 space plus DeltaE_ITP.

There is one scoring path, `metric_report`: it PQ-decodes both images to
absolute nits over row bands, `tensorcore.band_rows` of the frame's width
tall, range-checking each band as it decodes it, and applies the PU21
perceptual encoding. Each image is an in-memory TaggedImage or an open
`pfm.PfmFrame`, read band by band in one pass; the code range is the
PU21 value of 10^4 cd/m^2. Each row keeps only its error sums, and every
mean reduces them in row order, so no whole-frame error plane is held.
Callers read a score off the report, `psnr_pu21` or `psnr_y_pu21`.
Identical images report the 99 dB sentinel cap.
"""

from dataclasses import dataclass, asdict, fields

import numpy as np

from . import colorimetry as cm
from . import tensorcore as tc
from .errors import DimensionError, DomainError, EvaluationError, TagError

PSNR_CAP_DB = 99.0
REPORT_SCHEMA_VERSION = 2


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


# field name -> Python types its JSON value may take, in emission order; an int may stand for a float
REPORT_SCHEMA = {f.name: (int, float) if f.type is float else f.type for f in fields(MetricReport)}


def validate_report(doc):
    """Check a report dict against REPORT_SCHEMA, where a bool is no number; returns the problems."""
    problems = []
    for key, types in REPORT_SCHEMA.items():
        if key not in doc:
            problems.append(f"missing field {key}")
        elif isinstance(doc[key], bool) or not isinstance(doc[key], types):
            problems.append(f"field {key} has invalid type {type(doc[key]).__name__}")
    problems.extend(f"unknown field {k}" for k in doc if k not in REPORT_SCHEMA)
    return problems


# PU21 code range: the PU21 value of 10^4 cd/m^2 less that of the lowest luminance
PU21_RANGE = float(cm.pu21_encode(cm.PQ_PEAK_NITS) - cm.pu21_encode(cm.PU21_MIN_NITS))


def _psnr(mse):
    mse = float(mse)
    if not np.isfinite(mse):
        # min(PSNR_CAP_DB, nan) would return the identical-image cap
        raise EvaluationError(f"psnr_pu21: non-finite mean squared error {mse}")
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 20.0 * np.log10(PU21_RANGE) - 10.0 * np.log10(mse))


def metric_report(ref, test, workers=1):
    """Assemble every in-scope metric into a machine-readable report.

    `ref` and `test` are TaggedImages or open `pfm.PfmFrame`s, whose tags
    and extents are checked first. Decoding and the per-pixel errors then run
    over row bands on `workers` threads, each band of each frame read once
    and range-checked as it is decoded (`colorimetry.decode`); a bad sample
    names `ref`'s first bad pixel, or if it has none `test`'s. Each row
    writes its sums of squared PU21 RGB error, squared PU21 luma error and
    DeltaE_ITP; each mean is the row-order sum of those over the sample
    count, so the report does not depend on `workers` or the band height.
    """
    for img in (ref, test):
        if img.tag.transfer is not cm.Transfer.PQ or img.tag.primaries is not cm.Primaries.BT2020:
            raise TagError("metrics expect PQ/BT.2020 images")
    if ref.shape != test.shape:
        raise DimensionError("metric_report: image extents differ")
    h, w, _ = ref.shape
    sums = np.empty((h, 3))  # per row: squared RGB error, squared luma error, DeltaE_ITP

    def band(rows):
        a = cm.decode(ref, rows)
        b = cm.decode(test, rows)
        se = cm.pu21_encode(a.pixels) - cm.pu21_encode(b.pixels)
        se *= se
        sums[rows, 0] = se.sum(axis=(1, 2))
        se = cm.pu21_encode(cm.luma2020(a)) - cm.pu21_encode(cm.luma2020(b))
        se *= se
        sums[rows, 1] = se.sum(axis=1)
        sums[rows, 2] = cm.delta_e_itp_map(a, b).sum(axis=1)

    try:
        tc.map_row_bands(band, h, w, workers)
    except DomainError:
        cm.check_encoded(ref)  # a bad reference pixel is named before any of `test`'s
        raise
    # each column reduced alone, pairwise in row order; sums.sum(axis=0) would add row by row
    rgb, luma, de = (np.sum(sums[:, k]) for k in range(3))
    return MetricReport(
        psnr_pu21=_psnr(rgb / (h * w * 3)),
        psnr_y_pu21=_psnr(luma / (h * w)),
        delta_e_itp_mean=float(de / (h * w)),
    )
