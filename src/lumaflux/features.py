"""Physical conditioning features: per-pixel maps, global stats, spectral bands.

The SDR input is linearized first (BT.709 EOTF, then gamut mapped to
BT.2020) so every descriptor lives in the same physical space as the HDR
target.
"""

from dataclasses import dataclass

import numpy as np

from . import colorimetry as cm
from . import tensorcore as tc
from .errors import ConfigError, DimensionError, TagError

# Most spectral bands a descriptor may ask for. An annulus is 0.5 / k_bands
# wide and the lowest nonzero frequency of a frame whose longer side is N is
# 1/N, so from about N bands on some annuli hold no frequency bin. 1024 leaves
# none empty on a 1920x1080 frame and keeps `r` and its JSON small.
MAX_K_BANDS = 1024


@dataclass
class PhysFeatures:
    y_map: np.ndarray  # H x W luminance
    loggrad_map: np.ndarray  # H x W, log(1 + |grad Y|)
    sat_map: np.ndarray  # H x W saturation in [0, 1]
    s_g: np.ndarray  # [mean, std, p95, p99]


@dataclass
class SpectralDescriptor:
    r: np.ndarray  # band energies, DC-first


def linearize_sdr(sdr):
    """Decode an encoded BT.709 SDR frame to linear BT.2020, relative [0, 1]."""
    if sdr.tag.transfer is not cm.Transfer.GAMMA709 or sdr.tag.primaries is not cm.Primaries.BT709:
        raise TagError("expected a Gamma709/BT709 SDR frame")
    linear = cm.apply_transfer(sdr)
    relative = linear.with_pixels(
        linear.pixels / linear.tag.peak_nits,
        cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.LINEAR, 1.0),
    )
    wide, _ = cm.convert_gamut(relative, cm.Primaries.BT2020)
    return wide


def gradient_magnitude(y_map):
    """Central differences with replicate borders."""
    padded = np.pad(y_map, 1, mode="edge")
    gy_r = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    gy_c = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    return np.sqrt(gy_r**2 + gy_c**2)


def saturation(rgb):
    mx = np.max(rgb, axis=-1)
    mn = np.min(rgb, axis=-1)
    return (mx - mn) / (mx + 1e-6)


def global_stats(y_map):
    """[mean, population std, p95, p99] with linear-interpolated percentiles."""
    flat = np.asarray(y_map, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        raise DimensionError("global_stats needs a nonempty map")
    p95, p99 = np.percentile(flat, [95.0, 99.0])
    return np.array([np.mean(flat), np.std(flat), p95, p99])


def global_mlp(s_g, w1, b1, w2, b2):
    """Two-layer perceptron over the global stats vector (tanh hidden)."""
    hidden = np.tanh(w1 @ s_g + b1)
    return w2 @ hidden + b2


def extract_phys(sdr):
    """Assemble physical maps and global stats."""
    wide = linearize_sdr(sdr)
    y = cm.luma2020(wide)
    loggrad = np.log1p(gradient_magnitude(y))
    sat = saturation(wide.pixels)
    return PhysFeatures(y_map=y, loggrad_map=loggrad, sat_map=sat, s_g=global_stats(y))


def spectral_descriptor(y_map, k_bands):
    """Radial band energies of the luminance power spectrum.

    Bands are equal-width annuli in normalized frequency [0, 0.5]; the
    conjugate-symmetric half-plane is double counted except the DC and
    Nyquist columns, and energies are normalized so their sum equals the
    spatial mean square (Parseval).
    """
    if not 2 <= k_bands <= MAX_K_BANDS:
        raise ConfigError(f"k_bands must be in [2, {MAX_K_BANDS}], got {k_bands!r}")
    y_map = np.asarray(y_map, dtype=np.float64)
    rows, cols = y_map.shape
    spec = tc.rfft2(y_map)
    fr = np.fft.fftfreq(rows)[:, None]
    fc = np.arange(spec.bins.shape[1])[None, :] / cols
    radius = np.sqrt(fr**2 + fc**2)
    band = np.minimum((radius / 0.5 * k_bands).astype(int), k_bands - 1)
    energies = np.zeros(k_bands)
    np.add.at(energies, band.reshape(-1), spec.weighted_power().reshape(-1))
    return SpectralDescriptor(r=energies / (rows * cols) ** 2)
