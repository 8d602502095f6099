"""Physical conditioning features: per-pixel maps, global stats, spectral bands.

The SDR input is linearized first (BT.709 EOTF, then gamut mapped to
BT.2020) so every descriptor lives in the same physical space as the HDR
target. `extract_phys` takes an in-memory frame or an open PFM and reads
it band by band, once: one pass over tensorcore row bands range-checks and
linearizes each band, `workers` bands at once, and the next builds the
log-gradient map from the luminance it wrote. The
global stats and the spectral bands read the whole luminance plane.
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


def _check_sdr(sdr):
    """Raise unless `sdr` is tagged as a Gamma709/BT709 frame."""
    if sdr.tag.transfer is not cm.Transfer.GAMMA709 or sdr.tag.primaries is not cm.Primaries.BT709:
        raise TagError("expected a Gamma709/BT709 SDR frame")


def linearize_sdr(sdr):
    """Decode an encoded BT.709 SDR frame to linear BT.2020, relative [0, 1]; range-checked."""
    _check_sdr(sdr)
    return cm.decode(sdr)


def gradient_magnitude(y_map):
    """Central differences with replicate borders."""
    return _gradient(np.pad(y_map, 1, mode="edge"))


def _gradient(padded):
    """Central-difference magnitude over a map padded by one sample on each side."""
    gy_r = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    gy_c = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    return np.sqrt(gy_r**2 + gy_c**2)


def saturation(rgb):
    """(max - min) / (max + 1e-6) over the three channels; a NaN channel gives NaN."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
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


def extract_phys(sdr, workers=1):
    """Assemble physical maps and global stats.

    `sdr` is a TaggedImage or an open `pfm.PfmFrame`. The per-pixel maps
    run over tensorcore row bands on `workers` threads: one pass reads each
    band once, range-checks and linearizes it (`colorimetry.decode`)
    and writes its luminance and saturation, a second writes each band's
    log-gradient from its rows of luminance and the row above and below it.
    A sample outside [0, 1] names the first such pixel, as a range check of
    the whole frame would. Borders are replicated only at the frame's
    edges, so the maps do not depend on `workers` or the band height.
    """
    _check_sdr(sdr)
    h, w, _ = sdr.shape
    y, sat, loggrad = np.empty((h, w)), np.empty((h, w)), np.empty((h, w))

    def linearize(rows):
        wide = cm.decode(sdr, rows)
        y[rows] = cm.luma2020(wide)
        sat[rows] = saturation(wide.pixels)

    def gradient(rows):
        # the band's rows and one beyond each edge; replicated only at the frame's edges
        halo = y[max(rows.start - 1, 0):rows.stop + 1]
        pad = ((int(rows.start == 0), int(rows.stop == h)), (1, 1))
        np.log1p(_gradient(np.pad(halo, pad, mode="edge")), out=loggrad[rows])

    tc.map_row_bands(linearize, h, w, workers)
    tc.map_row_bands(gradient, h, w, workers)
    return PhysFeatures(y_map=y, loggrad_map=loggrad, sat_map=sat, s_g=global_stats(y))


def spectral_descriptor(y_map, k_bands):
    """Radial band energies of the luminance power spectrum, DC first.

    Bands are equal-width annuli in normalized frequency [0, 0.5]; the
    conjugate-symmetric half-plane is double counted except the DC and
    Nyquist columns, and energies are normalized so their sum equals the
    spatial mean square (Parseval).
    """
    if not 2 <= k_bands <= MAX_K_BANDS:
        raise ConfigError(f"k_bands must be in [2, {MAX_K_BANDS}], got {k_bands!r}")
    y_map = np.asarray(y_map, dtype=np.float64)
    if y_map.ndim != 2 or y_map.size == 0:
        raise DimensionError(f"spectral_descriptor needs a nonempty 2-D map, got {y_map.shape}")
    rows, cols = y_map.shape
    # |F|^2 over the half-plane; a column with a conjugate twin (all but DC and
    # an even width's Nyquist) stands for two bins of the full plane
    power = np.abs(np.fft.rfft2(y_map)) ** 2
    power[:, 1:(cols + 1) // 2] *= 2.0
    fr = np.fft.fftfreq(rows)[:, None]
    fc = np.arange(power.shape[1])[None, :] / cols
    radius = np.sqrt(fr**2 + fc**2)
    band = np.minimum((radius / 0.5 * k_bands).astype(int), k_bands - 1)
    energies = np.bincount(band.reshape(-1), weights=power.reshape(-1), minlength=k_bands)
    return energies / (rows * cols) ** 2
