"""Physical color substrate: transfer functions, gamut matrices, ICtCp, PU21.

Linear images carry absolute luminance in cd/m^2 (nits), or relative
light for SDR; encoded images carry samples in [0, 1]. Every image is
tagged with its primaries, transfer curve, and peak luminance so
operations can validate their inputs instead of guessing. `decode` is
the one path from an encoded frame, or a band of one, to linear light.
"""

import enum
import functools
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import tensorcore as tc
from .errors import DimensionError, DomainError, TagError

PQ_PEAK_NITS = 10000.0

# SMPTE ST 2084 constants
PQ_M1 = 2610.0 / 16384.0
PQ_M2 = 2523.0 * 128.0 / 4096.0
PQ_C1 = 3424.0 / 4096.0
PQ_C2 = 2413.0 * 32.0 / 4096.0
PQ_C3 = 2392.0 * 32.0 / 4096.0

# BT.2020 luminance weights
LUMA_WEIGHTS_2020 = np.array([0.2627, 0.6780, 0.0593])

# CIE xy chromaticities, all D65 white
WHITE_D65 = (0.3127, 0.3290)
PRIMARIES_XY = {
    "BT709": ((0.640, 0.330), (0.300, 0.600), (0.150, 0.060)),
    "BT2020": ((0.708, 0.292), (0.170, 0.797), (0.131, 0.046)),
    "P3": ((0.680, 0.320), (0.265, 0.690), (0.150, 0.060)),
}

# ITU-R BT.2100 ICtCp matrices (exact rationals)
RGB2020_TO_LMS = np.array([
    [1688.0, 2146.0, 262.0],
    [683.0, 2951.0, 462.0],
    [99.0, 309.0, 3688.0],
]) / 4096.0

LMS_PQ_TO_ICTCP = np.array([
    [2048.0, 2048.0, 0.0],
    [6610.0, -13613.0, 7003.0],
    [17933.0, -17390.0, -543.0],
]) / 4096.0

# PU21 "banding + glare" fit (Mantiuk & Azimi 2021)
PU21_COEFFS = np.array([
    0.353487901, 0.3734658629, 8.277049286e-05,
    0.9062562627, 0.09150303166, 0.9099517204, 596.3148142,
])
PU21_MIN_NITS = 0.005


def is_finite_number(val):
    """True for a JSON number that converts to a finite float; bool is not a number."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


class Primaries(enum.Enum):
    BT709 = "BT709"
    BT2020 = "BT2020"
    P3 = "P3"


class Transfer(enum.Enum):
    LINEAR = "Linear"
    PQ = "PQ"
    GAMMA709 = "Gamma709"


@dataclass(frozen=True)
class ColorSpaceTag:
    primaries: Primaries
    transfer: Transfer
    peak_nits: float

    def __post_init__(self):
        if not 0 < self.peak_nits < np.inf:  # False for NaN too
            raise DomainError(f"peak_nits must be finite and positive, got {self.peak_nits!r}")
        if self.transfer is Transfer.PQ and self.peak_nits > PQ_PEAK_NITS:
            raise DomainError("PQ caps peak luminance at 10^4 cd/m^2")

    def to_json(self):
        return {
            "primaries": self.primaries.value,
            "transfer": self.transfer.value,
            "peak_nits": self.peak_nits,
        }

    @classmethod
    def from_json(cls, doc):
        peak = doc["peak_nits"]
        if not is_finite_number(peak):
            raise DomainError(f"peak_nits must be a finite JSON number, got {peak!r}")
        return cls(
            primaries=Primaries(doc["primaries"]),
            transfer=Transfer(doc["transfer"]),
            peak_nits=float(peak),
        )


@dataclass(frozen=True)
class TaggedImage:
    pixels: np.ndarray  # H x W x 3; float32 kept as stored when encoded, else float64
    tag: ColorSpaceTag

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.float32 or self.tag.transfer is Transfer.LINEAR:
            px = np.asarray(px, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] != 3:
            raise DimensionError(f"expected HxWx3 pixels, got {px.shape}")
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self):
        return self.pixels.shape

    def band(self, rows):
        """Rows `rows` (a slice) of the pixels, as `pfm.PfmFrame.band` reads them from a file."""
        return self.pixels[rows]

    def with_pixels(self, pixels, tag=None):
        return TaggedImage(pixels=pixels, tag=tag if tag is not None else self.tag)


def pq_encode(nits):
    """SMPTE ST 2084 inverse EOTF: absolute nits -> [0, 1] signal."""
    x = np.asarray(nits, dtype=np.float64)
    # y is our own array, also for a scalar, so every later step runs in place
    y = np.clip(x, 0.0, PQ_PEAK_NITS, out=np.empty_like(x))
    y /= PQ_PEAK_NITS
    y **= PQ_M1
    num = y * PQ_C2
    num += PQ_C1
    y *= PQ_C3
    y += 1.0
    np.divide(num, y, out=y)
    y **= PQ_M2
    return y[()]  # a scalar for a scalar input


def pq_decode(signal):
    """SMPTE ST 2084 EOTF: [0, 1] signal -> absolute nits."""
    v = np.asarray(signal, dtype=np.float64)
    bad = ~((v >= 0.0) & (v <= 1.0))
    if np.any(bad):
        raise DomainError(f"PQ decode input outside [0,1] at flat index {int(np.argmax(bad))}")
    return _pq_eotf(v)


def _pq_eotf(v):
    """pq_decode's arithmetic, in float64, on a float array already checked to lie in [0, 1]."""
    # num is our own float64 array, also for a scalar, so every later step runs
    # in place; a float32 input widens exactly inside the first ufunc
    num = np.power(v, 1.0 / PQ_M2, out=np.empty(np.shape(v)), dtype=np.float64)
    den = num * -PQ_C3  # PQ_C2 - PQ_C3 * num, bit for bit
    den += PQ_C2
    num -= PQ_C1
    np.maximum(num, 0.0, out=num)
    num /= den
    num **= 1.0 / PQ_M1
    num *= PQ_PEAK_NITS
    return num[()]


def bt709_oetf(linear):
    """BT.709 OETF with the linear toe, on relative linear light in [0, 1]."""
    x = np.asarray(linear, dtype=np.float64)
    y = np.maximum(x, 1e-12, out=np.empty_like(x))  # our own array, also for a scalar
    y **= 0.45
    y *= 1.099
    y -= 0.099
    np.multiply(x, 4.5, out=y, where=x < 0.018)
    return y[()]  # a scalar for a scalar input


def bt709_eotf(signal):
    """Inverse of the BT.709 OETF."""
    v = np.asarray(signal, dtype=np.float64)
    y = np.add(v, 0.099, out=np.empty(np.shape(v)))  # our own array, also for a scalar
    y /= 1.099
    np.power(y, 1.0 / 0.45, out=y)
    np.divide(v, 4.5, out=y, where=v < 4.5 * 0.018)  # the linear toe, below 0.0809...
    return y[()]  # a scalar for a scalar input


def _check_band(band, top):
    """Raise DomainError naming `band`'s first pixel outside [0, 1] or NaN; `top` is its top row."""
    # min and max carry a NaN through, and a NaN fails both comparisons
    if band.size and not (band.min() >= 0.0 and band.max() <= 1.0):
        r, c, k = (int(i) for i in np.argwhere(~((band >= 0.0) & (band <= 1.0)))[0])
        raise DomainError(f"encoded sample outside [0,1] at pixel {(top + r, c, k)}")


def check_encoded(img, visit=None):
    """Raise DomainError naming the first pixel of an encoded image outside [0, 1].

    A non-finite sample fails too. `img` is a TaggedImage or an open
    `pfm.PfmFrame`, read one tensorcore row band at a time on the calling
    thread (the check is memory-bound, and helper threads only add hand-offs),
    each band checked as `decode` checks it. `visit(rows, band)`, when
    given, is called on every band that passes.
    """
    h, w, _ = img.shape
    for rows in tc.row_bands(h, w):
        band = img.band(rows)
        _check_band(band, rows.start)
        if visit is not None:
            visit(rows, band)


def decode(img, rows=slice(None)):
    """Rows `rows` (a slice) of an encoded frame as tagged linear light.

    `img` is a TaggedImage or an open `pfm.PfmFrame`. The band is read once
    and range-checked before it decodes: a sample outside [0, 1], or not
    finite, raises DomainError naming the band's first such pixel in frame
    coordinates, as `check_encoded` names it. PQ gives absolute nits in the
    tag's primaries. Gamma709 gives relative [0, 1] light in BT.2020: the
    BT.709 EOTF, then the gamut conversion from the tag's primaries,
    negatives clamped as `convert_gamut` clamps them. A linear frame has
    nothing to decode.
    """
    tag = img.tag
    if tag.transfer is Transfer.LINEAR:
        raise TagError("image is already linear")
    band = img.band(rows)
    _check_band(band, rows.indices(img.shape[0])[0])
    if tag.transfer is Transfer.PQ:
        return TaggedImage(_pq_eotf(band), replace(tag, transfer=Transfer.LINEAR))
    wide = bt709_eotf(band) @ _gamut_matrix_t(tag.primaries, Primaries.BT2020)
    np.maximum(wide, 0.0, out=wide)
    return TaggedImage(wide, ColorSpaceTag(Primaries.BT2020, Transfer.LINEAR, 1.0))


def _rgb_to_xyz_matrix(primaries):
    (rx, ry), (gx, gy), (bx, by) = PRIMARIES_XY[primaries.value]
    wx, wy = WHITE_D65
    xyz = np.array([
        [rx / ry, gx / gy, bx / by],
        [1.0, 1.0, 1.0],
        [(1 - rx - ry) / ry, (1 - gx - gy) / gy, (1 - bx - by) / by],
    ])
    white = np.array([wx / wy, 1.0, (1 - wx - wy) / wy])
    scale = np.linalg.solve(xyz, white)
    return xyz * scale[None, :]


@functools.cache
def gamut_matrix(src, dst):
    """3x3 linear-RGB conversion between primaries, derived from CIE xy + D65; shared, read-only."""
    m = np.eye(3) if src == dst else np.linalg.solve(_rgb_to_xyz_matrix(dst),
                                                     _rgb_to_xyz_matrix(src))
    if abs(np.linalg.det(m)) < 1e-9:
        raise DomainError("degenerate gamut matrix")
    m.flags.writeable = False
    return m


def _frozen_transpose(m):
    """m.T as a C-contiguous read-only copy: the right-hand side of a per-pixel product."""
    t = np.ascontiguousarray(m.T)
    t.flags.writeable = False
    return t


@functools.cache
def _gamut_matrix_t(src, dst):
    return _frozen_transpose(gamut_matrix(src, dst))


def convert_gamut(img, dst):
    """Linear image to new primaries with negatives clamped; returns (image, clamp_fraction)."""
    if img.tag.transfer is not Transfer.LINEAR:
        raise TagError("gamut conversion operates on linear images")
    out = img.pixels @ _gamut_matrix_t(img.tag.primaries, dst)
    clamped = _clamp_fraction(out)
    np.maximum(out, 0.0, out=out)
    return img.with_pixels(out, replace(img.tag, primaries=dst)), clamped


def _clamp_fraction(rgb):
    """The fraction of pixels of an (..., 3) array with a channel below 0, a NaN or -0.0 not.

    Three plane compares and one count: an exact count over the pixel
    count, so the bits of np.mean(np.any(rgb < 0.0, axis=-1)), at a sixth
    of its cost; NaN for no pixels, as np.mean gives.
    """
    clamped = rgb[..., 0] < 0.0
    clamped |= rgb[..., 1] < 0.0
    clamped |= rgb[..., 2] < 0.0
    return float(np.float64(np.count_nonzero(clamped)) / clamped.size)


def luma2020(img):
    """BT.2020 luminance Y = 0.2627 R + 0.6780 G + 0.0593 B."""
    if img.tag.transfer is not Transfer.LINEAR or img.tag.primaries is not Primaries.BT2020:
        raise TagError("luma2020 expects a linear BT.2020 image")
    return img.pixels @ LUMA_WEIGHTS_2020


def scale_channels(pixels, ratio):
    """`pixels * ratio[..., None]` in float64, bit for bit, one channel at a time."""
    out = np.empty(pixels.shape)
    for c in range(pixels.shape[-1]):
        np.multiply(pixels[..., c], ratio, out=out[..., c])
    return out


_RGB2020_TO_LMS_T = _frozen_transpose(RGB2020_TO_LMS)
_LMS_PQ_TO_ICTCP_T = _frozen_transpose(LMS_PQ_TO_ICTCP)


def rgb_to_ictcp(img):
    """Linear BT.2020 nits -> ICtCp per ITU-R BT.2100 (PQ-encoded LMS)."""
    if img.tag.transfer is not Transfer.LINEAR or img.tag.primaries is not Primaries.BT2020:
        raise TagError("rgb_to_ictcp expects a linear BT.2020 image")
    # pq_encode's own clip takes negative LMS, and -0.0, to +0.0
    lms_pq = pq_encode(img.pixels @ _RGB2020_TO_LMS_T)
    return lms_pq @ _LMS_PQ_TO_ICTCP_T


def delta_e_itp_map(a, b):
    """Per-pixel DeltaE_ITP (ITU-R BT.2124, scaling 720, T = Ct/2), an H x W map."""
    if a.pixels.shape != b.pixels.shape:
        raise DimensionError("delta_e_itp: image extents differ")
    ia = rgb_to_ictcp(a)
    ib = rgb_to_ictcp(b)
    d = ia - ib
    d[..., 1] *= 0.5
    d *= d
    # summed left to right, as np.sum over the 3-long last axis sums it
    sq = d[..., 0] + d[..., 1]
    sq += d[..., 2]
    return 720.0 * np.sqrt(sq)


def delta_e_itp(a, b):
    """Mean per-pixel DeltaE_ITP."""
    return float(np.mean(delta_e_itp_map(a, b)))


def pu21_encode(nits):
    """PU21 banding+glare perceptual encoding of absolute luminance."""
    p = PU21_COEFFS
    x = np.asarray(nits, dtype=np.float64)
    # y is our own array, also for a scalar, so every later step runs in place
    y = np.clip(x, PU21_MIN_NITS, PQ_PEAK_NITS, out=np.empty_like(x))
    y **= p[3]
    num = y * p[1]
    num += p[0]
    y *= p[2]
    y += 1.0
    np.divide(num, y, out=y)
    y **= p[4]
    y -= p[5]
    y *= p[6]
    return y[()]
