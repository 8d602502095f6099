"""Forward tone-mapping operators and the SDR degradation chain.

Each operator maps absolute HDR luminance to relative SDR-range linear
light in [0, 1]; chroma follows by luminance-ratio scaling so hue is
preserved. The full chain manufactures paired 8-bit BT.709 SDR frames
from PQ/BT.2020 HDR input, with a deterministic DCT codec proxy standing
in for real HEVC encodes at the three CRF working points.

`degrade_variants` takes the decoded (linear) frame and serves every CRF
of one operator from one pass over row bands of `tensorcore.band_rows`
(at most `tensorcore.BAND_PIXELS` pixels, a multiple of 8 rows), from the
bottom band up, the order in which a PFM stores rows: tone map, gamut
clamp, encode, quantize and the forward DCT run once per band, and only
the deadzone quantization and inverse DCT run per CRF. A band's
coefficients are one array in (u, block row, channel, block column, v)
order, so each transform is two GEMMs over the band, summing as the
per-block DCT8 @ X @ DCT8.T does. It yields bands, so no caller needs a
whole output frame. `degrade` and `codec_proxy` put one frame together
from the same band generator, on PQ input and on an encoded frame.
Banding never changes a bit: the bands hold whole 8x8 blocks and the
last band's edge padding is the whole frame's.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from . import colorimetry as cm
from . import tensorcore as tc
from .errors import ConfigError, DomainError, TagError

VALID_CRF = (23, 31, 39)

# JPEG Annex K luminance quantization base, reused for all three channels
JPEG_BASE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)

# Orthonormal DCT-II basis, 8 points
_DCT_N = 8
_dct_k = np.arange(_DCT_N)[:, None]
_dct_n = np.arange(_DCT_N)[None, :]
DCT8 = np.cos(np.pi * (2 * _dct_n + 1) * _dct_k / (2 * _DCT_N)) * np.sqrt(2.0 / _DCT_N)
DCT8[0, :] /= np.sqrt(2.0)
_DCT8_T = np.ascontiguousarray(DCT8.T)


class ToneKind(enum.Enum):
    REINHARD = "Reinhard"
    BT2446A = "BT2446A"
    BT2446C_GM = "BT2446C_GM"
    HARDCLIP_GM = "HardClipGM"
    BT2390EETF_GM = "BT2390EETF_GM"
    LOGC = "LogC"
    EXPERT_STUB = "ExpertStub"


# each curve parameter's range, by its name's last word: a luminance is at least PU21's floor
# (at 1e-320 nits a curve overflows to NaN); gamma and mix keep ExpertStub in [0, 1]
_PARAM_RANGES = {
    "nits": (lambda v: v >= cm.PU21_MIN_NITS, f">= {cm.PU21_MIN_NITS}"),
    "gamma": (lambda v: v > 0, "> 0"),
    "mix": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


@dataclass(frozen=True)
class ToneOperator:
    kind: ToneKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ToneKind(self.kind))
        except ValueError:
            raise ConfigError(f"unknown tone operator kind {self.kind!r}") from None
        if not isinstance(self.params, dict):
            raise ConfigError(f"{self.kind.value} params must be an object, got {self.params!r}")
        declared = _CURVES[self.kind].__kwdefaults__
        for name, val in self.params.items():
            if name not in declared:
                raise ConfigError(f"{self.kind.value} has no parameter {name!r}; "
                                  f"it takes {', '.join(declared)}")
            in_range, text = _PARAM_RANGES[name.rsplit("_", 1)[-1]]
            if not (cm.is_finite_number(val) and in_range(val)):
                raise ConfigError(f"{self.kind.value} {name} must be a finite number "
                                  f"{text}, got {val!r}")
        object.__setattr__(self, "params", dict(self.params))

    def to_json(self):
        return {"kind": self.kind.value, "params": dict(self.params)}

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict) or "kind" not in doc or set(doc) - {"kind", "params"}:
            raise ConfigError(f'a tone operator is {{"kind": ..., "params": {{...}}}}, got {doc!r}')
        return cls(kind=doc["kind"], params=doc.get("params", {}))


@dataclass(frozen=True)
class DegradationSpec:
    tmo: ToneOperator
    crf: int | None  # None bypasses the codec proxy
    seed: int = 0

    def __post_init__(self):
        _check_crf(self.crf)

    def to_json(self):
        return {"tmo": self.tmo.to_json(), "crf": self.crf, "seed": self.seed}

    @classmethod
    def from_json(cls, doc):
        return cls(
            tmo=ToneOperator.from_json(doc["tmo"]),
            crf=doc.get("crf"),
            seed=int(doc.get("seed", 0)),
        )


def _curve_reinhard(lum, *, peak_in_nits=1000.0):
    ln = lum / peak_in_nits
    return ln / (1.0 + ln)


def _curve_bt2446a(lum, *, peak_in_nits=1000.0, peak_out_nits=100.0):
    """ITU-R BT.2446 method A luminance mapping, HDR peak -> SDR peak."""
    yp = np.power(np.clip(lum / peak_in_nits, 0.0, 1.0), 1.0 / 2.4)
    rho_hdr = 1.0 + 32.0 * np.power(peak_in_nits / 10000.0, 1.0 / 2.4)
    rho_sdr = 1.0 + 32.0 * np.power(peak_out_nits / 10000.0, 1.0 / 2.4)
    yp = np.log1p((rho_hdr - 1.0) * yp) / np.log(rho_hdr)
    yc = np.where(
        yp <= 0.7399,
        1.0770 * yp,
        np.where(yp < 0.9909, -1.1510 * yp * yp + 2.7811 * yp - 0.6302, 0.5 * yp + 0.5),
    )
    ysdr = (np.power(rho_sdr, yc) - 1.0) / (rho_sdr - 1.0)
    return np.clip(np.power(ysdr, 2.4), 0.0, 1.0)


# BT.2446-C-style linear segment: its slope and knee (relative luminance)
BT2446C_SLOPE, BT2446C_KNEE = 4.0, 0.08


def _curve_bt2446c(lum, *, peak_in_nits=1000.0):
    """BT.2446 method C style: linear segment with exponential shoulder."""
    a, k = BT2446C_SLOPE, BT2446C_KNEE
    x = lum / peak_in_nits
    yk = a * k
    shoulder = yk + (1.0 - yk) * (1.0 - np.exp(-a * (x - k) / (1.0 - yk)))
    return np.where(x <= k, a * x, shoulder)


def _curve_hardclip(lum, *, peak_out_nits=100.0):
    return np.clip(lum / peak_out_nits, 0.0, 1.0)


def _curve_bt2390(lum, *, peak_in_nits=1000.0, peak_out_nits=100.0):
    """BT.2390 EETF: Hermite knee roll-off applied in the PQ domain."""
    e_src = cm.pq_encode(peak_in_nits)
    max_lum = cm.pq_encode(peak_out_nits) / e_src
    e1 = cm.pq_encode(np.clip(lum, 0.0, peak_in_nits)) / e_src
    if max_lum >= 1.0:
        e2 = e1
    else:
        ks = 1.5 * max_lum - 0.5
        t = (e1 - ks) / (1.0 - ks)
        spline = (
            (2.0 * t**3 - 3.0 * t**2 + 1.0) * ks
            + (t**3 - 2.0 * t**2 + t) * (1.0 - ks)
            + (-2.0 * t**3 + 3.0 * t**2) * max_lum
        )
        e2 = np.where(e1 < ks, e1, spline)
    out_nits = cm.pq_decode(np.clip(e2 * e_src, 0.0, 1.0))
    return np.clip(out_nits / peak_out_nits, 0.0, 1.0)


# LogC-style curve: c*log10(a*x + b) + d above `cut`, a linear toe slope*x + off below
LOGC_A, LOGC_B, LOGC_C, LOGC_D = 5.555556, 0.052272, 0.247190, 0.385537
LOGC_CUT, LOGC_SLOPE, LOGC_OFF = 0.010591, 5.367655, 0.092809


def _curve_logc(lum, *, peak_in_nits=1000.0):
    """LogC-style log curve with a linear toe, normalized to [0, 1]."""
    a, b, c, d = LOGC_A, LOGC_B, LOGC_C, LOGC_D
    cut, slope, off = LOGC_CUT, LOGC_SLOPE, LOGC_OFF
    x = lum / peak_in_nits
    y = np.where(x > cut, c * np.log10(a * x + b) + d, slope * x + off)
    y0 = slope * 0.0 + off
    y1 = c * np.log10(a + b) + d
    return np.clip((y - y0) / (y1 - y0), 0.0, 1.0)


def _curve_expert_stub(lum, *, peak_in_nits=1000.0, gamma=0.85, mix=0.2):
    """Configurable smooth grade for pipeline testing; not a published TMO."""
    x = np.clip(lum / peak_in_nits, 0.0, 1.0)
    return (1.0 - mix) * np.power(x, gamma) + mix * (3.0 * x * x - 2.0 * x**3)


_CURVES = {
    ToneKind.REINHARD: _curve_reinhard,
    ToneKind.BT2446A: _curve_bt2446a,
    ToneKind.BT2446C_GM: _curve_bt2446c,
    ToneKind.HARDCLIP_GM: _curve_hardclip,
    ToneKind.BT2390EETF_GM: _curve_bt2390,
    ToneKind.LOGC: _curve_logc,
    ToneKind.EXPERT_STUB: _curve_expert_stub,
}


def tone_curve(op, lum_nits):
    """Evaluate the operator's luminance curve on absolute nits."""
    lum = np.asarray(lum_nits, dtype=np.float64)
    if np.any(lum < 0.0):
        raise DomainError("tone curve input must be nonnegative")
    return _CURVES[op.kind](lum, **op.params)


def tone_map(op, img):
    """Tone map a linear BT.2020 HDR image to relative [0, 1] linear light."""
    if img.tag.transfer is not cm.Transfer.LINEAR or img.tag.primaries is not cm.Primaries.BT2020:
        raise TagError("tone_map expects linear BT.2020 input")
    if np.any(img.pixels < 0.0):
        raise DomainError("tone_map input must be nonnegative")
    lum = cm.luma2020(img)
    y = _CURVES[op.kind](lum, **op.params)  # nonnegative: the pixels were checked above
    ratio = np.where(lum > 0.0, y / np.maximum(lum, 1e-12), 0.0)
    out = cm.scale_channels(img.pixels, ratio)
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, 1.0)
    return cm.TaggedImage(np.clip(out, 0.0, 1.0, out=out), tag)


def quantize(img, bits):
    """Snap encoded samples to the 2^bits - 1 uniform grid: floor(x * L + 0.5), half up."""
    if bits not in (8, 10):
        raise ConfigError(f"unsupported bit depth {bits}")
    if img.tag.transfer is cm.Transfer.LINEAR:
        raise TagError("quantize expects an encoded image")
    levels = float(2**bits - 1)
    out = np.multiply(img.pixels, levels, dtype=np.float64)  # float64 whatever the storage
    np.floor(np.add(out, 0.5, out=out), out=out)
    out /= levels
    return img.with_pixels(out)


def crf_quality_scale(crf):
    """Quantizer scale: doubles every 6 CRF steps, 1.0 at CRF 23."""
    return 2.0 ** ((crf - 23) / 6.0)


def _check_crf(crf):
    if crf is not None and crf not in VALID_CRF:
        raise ConfigError(f"crf must be one of {VALID_CRF} or None, got {crf}")


def _blocks(px):
    """An (8k, 8l, 3) raster array as its (x, block row, channel, block column, y) view."""
    hh, ww, _ = px.shape
    return px.reshape(hh // _DCT_N, _DCT_N, ww // _DCT_N, _DCT_N, 3).transpose(1, 0, 4, 2, 3)


def _forward_dct(band):
    """The DCT-II of an (r, w, 3) band's 8x8 blocks, as an (8, n, m) array.

    Entry [u, i] is block row i's (channel, block column, v) coefficients: DCT8 @ X,
    then (.., 8) @ DCT8.T, X the band as (x, i, channel, block column, y), edge-padded
    with np.pad(mode="edge") only if it is not whole blocks.
    """
    r, w, _ = band.shape
    if r % _DCT_N or w % _DCT_N:
        band = np.pad(band, ((0, -r % _DCT_N), (0, -w % _DCT_N), (0, 0)), mode="edge")
    x = np.ascontiguousarray(_blocks(band))
    prod = DCT8 @ x.reshape(_DCT_N, -1)
    return (prod.reshape(-1, _DCT_N) @ _DCT8_T).reshape(x.shape[:2] + (-1,))


def _inverse_dct(coefs, step, r, w):
    """Deadzone-quantize by `step`; invert, DCT8.T @ Q then (.., 8) @ DCT8; clip to (r, w, 3)."""
    # deadzone: round toward zero so AC energy never grows; DC kept
    quant = np.trunc(coefs / step)
    quant *= step
    quant[0, :, ::_DCT_N] = coefs[0, :, ::_DCT_N]
    prod = _DCT8_T @ quant.reshape(_DCT_N, -1)
    np.matmul(prod.reshape(-1, _DCT_N), DCT8, out=quant.reshape(-1, _DCT_N))
    px = np.empty((coefs.shape[1] * _DCT_N, -(-w // _DCT_N) * _DCT_N, 3))
    # clipped on its way to raster order, in one pass
    np.clip(quant.reshape(_blocks(px).shape), 0.0, 1.0, out=_blocks(px))
    return px[:r, :w]


def _codec_bands(h, w, encode_band, crfs):
    """(rows, bands) for each row band of an h x w frame, the bottom band first.

    `bands` holds the band at each entry of `crfs`. Bands of tc.band_rows(w)
    rows pass once through `encode_band(rows)` and the forward DCT; each CRF
    then quantizes and inverts the band's coefficients, and a None CRF takes
    the encoded band itself. Band edges are multiples of 8 that depend only
    on the frame's extent, and the last band's edge padding is the whole
    frame's.
    """
    per_row = -(-w // _DCT_N)  # blocks in one row of blocks
    # each CRF's steps span one block row of coefficients at one u
    steps = [None if crf is None else np.tile((JPEG_BASE / 255.0 * 0.25 * crf_quality_scale(crf))
                                              [:, None], (1, per_row * 3, 1)).reshape(_DCT_N, 1, -1)
             for crf in crfs]
    for rows in reversed(tc.row_bands(h, w)):
        band = encode_band(rows)
        coefs = _forward_dct(band)
        yield rows, [band if step is None else _inverse_dct(coefs, step, len(band), w)
                     for step in steps]


def codec_proxy(img, crf):
    """Deterministic stand-in for lossy encoding: per-channel 8x8 DCT quantization."""
    _check_crf(crf)
    if crf is None:
        return img
    h, w, _ = img.pixels.shape
    frame = np.empty((h, w, 3))
    for rows, (band,) in _codec_bands(h, w, lambda rows: img.pixels[rows], (crf,)):
        frame[rows] = band
    return img.with_pixels(frame)


# the tag of every SDR frame and band that degrade and degrade_variants make
SDR_TAG = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)


def _encode_sdr(op, linear):
    """Tone map, gamut clamp, BT.709 encode and 8-bit quantize a linear BT.2020 frame's pixels."""
    img = tone_map(op, linear)
    img, _ = cm.convert_gamut(img, cm.Primaries.BT709)
    # convert_gamut returns a fresh array, so it is clipped in place
    px = np.clip(img.pixels, 0.0, 1.0, out=img.pixels)
    return quantize(img.with_pixels(cm.bt709_oetf(px), SDR_TAG), 8).pixels


def degrade_variants(linear, op, crfs):
    """The SDR bands of one tone operator at each of `crfs`, bottom band first; None skips the codec.

    An iterator of (rows, bands), one per row band of tc.row_bands, where
    bands[i] holds those rows at crfs[i] as float64 samples tagged SDR_TAG.
    `linear` is the decoded PQ/BT.2020 input (linear BT.2020 nits). The
    chain from the tone map to the forward DCT runs once per band for all
    of `crfs`; only the codec quantization and the inverse DCT run per CRF.
    The tag and every CRF are checked here, before any band runs.
    """
    tag = linear.tag
    if tag.transfer is not cm.Transfer.LINEAR or tag.primaries is not cm.Primaries.BT2020:
        raise TagError("degrade_variants expects a linear BT.2020 image")
    crfs = tuple(crfs)
    for crf in crfs:
        _check_crf(crf)
    h, w, _ = linear.pixels.shape
    return _codec_bands(h, w, lambda rows: _encode_sdr(op, linear.with_pixels(linear.pixels[rows])),
                        crfs)


def degrade(img_pq, spec):
    """Full HDR->SDR chain: PQ decode, tone map, gamut clamp, encode, quantize, codec."""
    if img_pq.tag.transfer is not cm.Transfer.PQ or img_pq.tag.primaries is not cm.Primaries.BT2020:
        raise TagError("degrade expects a PQ/BT.2020 image")
    linear = cm.decode(img_pq)
    frame = np.empty(img_pq.shape)
    for rows, (band,) in degrade_variants(linear, spec.tmo, (spec.crf,)):
        frame[rows] = band
    return cm.TaggedImage(frame, SDR_TAG)
