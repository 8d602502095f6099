"""Physical color substrate: transfer functions, gamut matrices, ICtCp, PU21.

Linear images carry absolute luminance in cd/m^2 (nits); encoded images
carry samples in [0, 1]. Every image is tagged with its primaries,
transfer curve, and peak luminance so operations can validate their
inputs instead of guessing.
"""

import enum
import sys
from dataclasses import dataclass, replace

import numpy as np

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
    pixels: np.ndarray  # H x W x 3 float64
    tag: ColorSpaceTag

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] != 3:
            raise DimensionError(f"expected HxWx3 pixels, got {px.shape}")
        object.__setattr__(self, "pixels", px)

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
    # num is our own array, also for a scalar, so every later step runs in place
    num = np.power(v, 1.0 / PQ_M2, out=np.empty_like(v))
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
    return np.where(x < 0.018, 4.5 * x, 1.099 * np.power(np.maximum(x, 1e-12), 0.45) - 0.099)


def bt709_eotf(signal):
    """Inverse of the BT.709 OETF."""
    v = np.asarray(signal, dtype=np.float64)
    return np.where(v < 4.5 * 0.018, v / 4.5, np.power((v + 0.099) / 1.099, 1.0 / 0.45))


def apply_transfer(img):
    """Decode encoded pixels to linear light with the tag's transfer curve.

    Encoding takes an explicit target curve and lives in encode_transfer.
    Samples must lie in [0, 1]; a non-finite sample fails the check.
    """
    tag = img.tag
    if tag.transfer is Transfer.LINEAR:
        raise TagError("image is already linear")
    bad = ~((img.pixels >= 0.0) & (img.pixels <= 1.0))
    if np.any(bad):
        idx = tuple(int(k) for k in np.argwhere(bad)[0])
        raise DomainError(f"encoded sample outside [0,1] at pixel {idx}")
    if tag.transfer is Transfer.PQ:
        out = pq_decode(img.pixels)
    else:
        # SDR: relative signal scaled to the tagged peak
        out = bt709_eotf(img.pixels) * tag.peak_nits
    return img.with_pixels(out, replace(tag, transfer=Transfer.LINEAR))


def encode_transfer(img, transfer):
    """Encode a linear image with an explicit target curve."""
    tag = img.tag
    if tag.transfer is not Transfer.LINEAR:
        raise TagError("encode expects a linear-tagged image")
    if np.any(img.pixels < 0.0):
        raise DomainError("linear samples must be nonnegative before encoding")
    if transfer is Transfer.PQ:
        out = pq_encode(img.pixels)
    elif transfer is Transfer.GAMMA709:
        out = bt709_oetf(np.clip(img.pixels / tag.peak_nits, 0.0, 1.0))
    else:
        raise TagError(f"cannot encode with transfer {transfer}")
    return img.with_pixels(out, replace(tag, transfer=transfer))


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


def gamut_matrix(src, dst):
    """3x3 linear-RGB conversion between primaries, derived from CIE xy + D65."""
    if src == dst:
        return np.eye(3)
    m = np.linalg.solve(_rgb_to_xyz_matrix(dst), _rgb_to_xyz_matrix(src))
    if abs(np.linalg.det(m)) < 1e-9:
        raise DomainError("degenerate gamut matrix")
    return m


def convert_gamut(img, dst):
    """Linear image to new primaries with negatives clamped; returns (image, clamp_fraction)."""
    if img.tag.transfer is not Transfer.LINEAR:
        raise TagError("gamut conversion operates on linear images")
    out = img.pixels @ gamut_matrix(img.tag.primaries, dst).T
    clamp_fraction = float(np.mean(np.any(out < 0.0, axis=-1)))
    tag = replace(img.tag, primaries=dst)
    return img.with_pixels(np.maximum(out, 0.0), tag), clamp_fraction


def luma2020(img):
    """BT.2020 luminance Y = 0.2627 R + 0.6780 G + 0.0593 B."""
    if img.tag.transfer is not Transfer.LINEAR or img.tag.primaries is not Primaries.BT2020:
        raise TagError("luma2020 expects a linear BT.2020 image")
    return img.pixels @ LUMA_WEIGHTS_2020


def rgb_to_ictcp(img):
    """Linear BT.2020 nits -> ICtCp per ITU-R BT.2100 (PQ-encoded LMS)."""
    if img.tag.transfer is not Transfer.LINEAR or img.tag.primaries is not Primaries.BT2020:
        raise TagError("rgb_to_ictcp expects a linear BT.2020 image")
    lms = img.pixels @ RGB2020_TO_LMS.T
    lms_pq = pq_encode(np.maximum(lms, 0.0))
    return lms_pq @ LMS_PQ_TO_ICTCP.T


def delta_e_itp(a, b):
    """Mean per-pixel DeltaE_ITP (ITU-R BT.2124, scaling 720, T = Ct/2)."""
    if a.pixels.shape != b.pixels.shape:
        raise DimensionError("delta_e_itp: image extents differ")
    ia = rgb_to_ictcp(a)
    ib = rgb_to_ictcp(b)
    d = ia - ib
    d[..., 1] *= 0.5
    return float(np.mean(720.0 * np.sqrt(np.sum(d * d, axis=-1))))


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
