"""PFM image I/O plus the JSON sidecar carrying colorimetry and provenance.

PFM stores float32 samples, rows bottom-up: little-endian under a
negative scale, big-endian under a positive one. `write_pfm` writes
little-endian; `read_pfm` keeps the samples float32 in memory, in native
byte order and rows top-down, and every decode widens them to float64
in its own arithmetic. PFM has no colorimetry header, so every frame
travels with a sidecar JSON recording its color-space tag, the tool
version, a config hash, and the seed used to produce it. Both files are
written to a temporary name and renamed into place, so a failed write
never leaves a partial file under the final name. Malformed input raises
FrameFormatError.
"""

import contextlib
import hashlib
import json
import os
import sys
import threading

import numpy as np

from . import __version__
from . import colorimetry as cm
from .errors import DimensionError, FrameFormatError


def _write_atomic(path, chunks):
    """Write byte chunks to a temporary file next to path, then rename it over path."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_pfm(path, pixels):
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise DimensionError("write_pfm expects HxWx3 samples")
    h, w, _ = pixels.shape
    header = f"PF\n{w} {h}\n-1.0\n".encode()
    # one copy: rows flipped bottom-up and cast to float32 in a single pass
    payload = np.ascontiguousarray(pixels[::-1], dtype="<f4")
    _write_atomic(path, (header, memoryview(payload).cast("B")))


def read_pfm(path):
    """The samples of a 3-channel PFM as a native-order float32 (h, w, 3) array, rows top-down."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"PF":
            raise FrameFormatError(f"{path}: not a 3-channel PFM file")
        try:
            w, h = (int(v) for v in fh.readline().split())
            scale = float(fh.readline())
        except ValueError:
            raise FrameFormatError(f"{path}: malformed PFM dimensions or scale") from None
        if w <= 0 or h <= 0 or scale == 0.0 or not np.isfinite(scale):
            raise FrameFormatError(f"{path}: invalid PFM header {w}x{h}, scale {scale}")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = w * h * 3 * 4
        if size != expected:
            raise FrameFormatError(
                f"{path}: {size} payload bytes for a {w}x{h} frame, expected {expected}")
        px = np.empty((h, w, 3), dtype=np.float32)
        # each stored row straight into its top-down place: no payload copy
        for row in px[::-1]:
            if fh.readinto(row) != row.nbytes:
                raise FrameFormatError(f"{path}: payload ends early for a {w}x{h} frame")
    if (scale > 0.0) != (sys.byteorder == "big"):  # a positive scale stores big-endian
        px.byteswap(inplace=True)
    return px


def config_hash(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def sidecar_path(frame_path):
    return os.path.splitext(frame_path)[0] + ".json"


def write_sidecar(frame_path, tag, seed=0, config=None, extra=None):
    doc = {
        "tag": tag.to_json(),
        "tool_version": __version__,
        "seed": seed,
        "config_hash": config_hash(config or {}),
    }
    if extra:
        doc.update(extra)
    _write_atomic(sidecar_path(frame_path), (json.dumps(doc, indent=2, sort_keys=True).encode(),))


def read_tagged(frame_path):
    pixels = read_pfm(frame_path)
    side = sidecar_path(frame_path)
    try:
        with open(side) as fh:
            tag = cm.ColorSpaceTag.from_json(json.load(fh)["tag"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # nesting too deep
        raise FrameFormatError(f"{side}: no valid color-space tag ({exc!r})") from None
    return cm.TaggedImage(pixels, tag)


def write_tagged(frame_path, img, seed=0, config=None, extra=None):
    write_pfm(frame_path, img.pixels)
    write_sidecar(frame_path, img.tag, seed=seed, config=config, extra=extra)
