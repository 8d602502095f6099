"""PFM image I/O plus the JSON sidecar carrying colorimetry and provenance.

PFM stores float32 samples, rows bottom-up: little-endian under a
negative scale, big-endian under a positive one. `PfmWriter` writes a
frame little-endian, one row band at a time from the bottom up, each band
cast to float32 on its own, so a caller that makes its frame band by band
never holds it whole; `write_pfm` writes an in-memory frame through it.
`open_tagged` checks a frame's header, payload size and sidecar tag
without reading the payload; the frame it returns reads rows on demand,
one band per positioned read, as native-order float32 rows top-down, so a
command holds no whole input frame. `read_tagged` opens a frame the same
way and reads every row. PFM has no colorimetry header, so every frame
travels with a sidecar JSON recording its color-space tag, the tool
version, a config hash, and the seed used to produce it. Every file is
written to a temporary name and renamed into place (`write_atomic` for
whole files), and a frame's temporary file is unlinked if it is never
renamed, so a failed write never leaves a partial file under the final
name. A frame whose sidecar cannot be written is unlinked. Malformed
input raises FrameFormatError.
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
from . import tensorcore as tc
from .errors import DimensionError, FrameFormatError

HEADER_LINE_BYTES = 256  # longest PFM header line read, newline included
_IOV_MAX = 1024  # most buffers one positioned read takes: IOV_MAX on Linux and the BSDs
_READ_BYTES = 1 << 30  # most bytes asked of one positioned read, well under Linux's 2 GiB cap


def _temporary(path):
    """A name next to `path`, unique to this process and thread, to write it under."""
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")


def write_atomic(path, chunks):
    """Write byte chunks to a temporary file next to path, then rename it over path."""
    tmp = _temporary(path)
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class PfmWriter:
    """An h x w PFM written one row band at a time, the bottom band first.

    The file grows under a temporary name next to `path`; `commit` renames
    it into place once every row is written. Use it as a context manager:
    leaving the block without a commit unlinks the temporary file, so a
    failed write never leaves a partial file under the final name.
    """

    def __init__(self, path, h, w):
        self.path = path
        self.shape = (h, w, 3)
        self._left = h  # rows not yet written
        self._tmp = _temporary(path)
        self._file = contextlib.ExitStack()  # closes the file, once
        self._fh = self._file.enter_context(open(self._tmp, "xb"))
        self._fh.write(f"PF\n{w} {h}\n-1.0\n".encode())

    def write(self, band):
        """Append the (r, w, 3) band just above the rows written so far; its rows run top-down.

        The band is flipped and cast to little-endian float32 in one pass.
        """
        r = len(band)
        if band.shape[1:] != self.shape[1:] or r > self._left:
            raise DimensionError(f"{self.path}: a {band.shape} band does not fit the "
                                 f"{self._left} rows left of a {self.shape} frame")
        self._fh.write(memoryview(np.ascontiguousarray(band[::-1], dtype="<f4")).cast("B"))
        self._left -= r

    def commit(self):
        """Rename the finished file into place."""
        if self._left:
            raise DimensionError(f"{self.path}: {self._left} rows of a {self.shape} "
                                 "frame were never written")
        self._file.close()
        os.replace(self._tmp, self.path)
        self._tmp = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()
        if self._tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._tmp)


def write_pfm(path, pixels):
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise DimensionError("write_pfm expects HxWx3 samples")
    h, w, _ = pixels.shape
    with PfmWriter(path, h, w) as out:
        for rows in reversed(tc.row_bands(h, w)):
            out.write(pixels[rows])
        out.commit()


class PfmFrame:
    """An open 3-channel PFM file whose header has been checked; `band` reads its rows.

    `shape` is (h, w, 3) and `tag` the sidecar's color-space tag, or None
    when opened without one. Use it as a context manager, or `close` it.
    """

    def __init__(self, path):
        self.path = path
        self.tag = None
        self._fh = open(path, "rb")
        try:
            self._parse_header()
        except BaseException:
            self._fh.close()
            raise

    def _line(self, fault):
        """One header line of at most HEADER_LINE_BYTES; a longer one is refused with `fault`."""
        line = self._fh.readline(HEADER_LINE_BYTES)
        if len(line) == HEADER_LINE_BYTES and not line.endswith(b"\n"):
            raise FrameFormatError(f"{self.path}: {fault}")
        return line

    def _parse_header(self):
        path = self.path
        not_pfm = "not a 3-channel PFM file"
        if self._line(not_pfm).strip() != b"PF":
            raise FrameFormatError(f"{path}: {not_pfm}")
        malformed = "malformed PFM dimensions or scale"
        try:
            w, h = (int(v) for v in self._line(malformed).split())
            scale = float(self._line(malformed))
        except ValueError:
            raise FrameFormatError(f"{path}: {malformed}") from None
        if w <= 0 or h <= 0 or scale == 0.0 or not np.isfinite(scale):
            raise FrameFormatError(f"{path}: invalid PFM header {w}x{h}, scale {scale}")
        self._payload = self._fh.tell()
        size = os.fstat(self._fh.fileno()).st_size - self._payload
        expected = w * h * 3 * 4
        if size != expected:
            raise FrameFormatError(
                f"{path}: {size} payload bytes for a {w}x{h} frame, expected {expected}")
        self.shape = (h, w, 3)
        self._swap = (scale > 0.0) != (sys.byteorder == "big")  # a positive scale stores big-endian

    def band(self, rows):
        """Rows `rows` (a slice) as a native-order float32 (r, w, 3) array, rows top-down.

        The rows are one contiguous stretch of the bottom-up payload, read
        with positioned reads straight into their top-down places, so
        threads may read bands of one frame at once.
        """
        h, w, _ = self.shape
        top, stop, _ = rows.indices(h)
        out = np.empty((max(stop - top, 0), w, 3), dtype=np.float32)
        stored = out[::-1]  # the rows in file order
        row_bytes = w * 3 * 4
        offset = self._payload + (h - stop) * row_bytes
        step = max(1, min(_IOV_MAX, _READ_BYTES // row_bytes))
        for k in range(0, len(stored), step):
            chunk = list(stored[k:k + step])
            want = len(chunk) * row_bytes
            if os.preadv(self._fh.fileno(), chunk, offset) != want:
                raise FrameFormatError(f"{self.path}: payload ends early for a {w}x{h} frame")
            offset += want
        if self._swap:
            out.byteswap(inplace=True)
        return out

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def config_hash(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def sidecar_path(frame_path):
    return os.path.splitext(frame_path)[0] + ".json"


def write_sidecar(frame_path, tag, seed=0, config=None, extra=None):
    """Write frame_path's sidecar; unlink the frame if that fails, so no frame is left untagged."""
    doc = {
        "tag": tag.to_json(),
        "tool_version": __version__,
        "seed": seed,
        "config_hash": config_hash(config or {}),
    }
    if extra:
        doc.update(extra)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True)
        write_atomic(sidecar_path(frame_path), (text.encode(),))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(frame_path)
        raise


def _read_tag(frame_path):
    side = sidecar_path(frame_path)
    try:
        with open(side) as fh:
            return cm.ColorSpaceTag.from_json(json.load(fh)["tag"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # nesting too deep
        raise FrameFormatError(f"{side}: no valid color-space tag ({exc!r})") from None


def open_tagged(frame_path):
    """Open a PFM and its sidecar tag, checked as read_tagged checks them; reads no samples.

    Returns a PfmFrame whose `tag` is set; the caller closes it.
    """
    frame = PfmFrame(frame_path)
    try:
        frame.tag = _read_tag(frame_path)
    except BaseException:
        frame.close()
        raise
    return frame


def read_tagged(frame_path):
    with open_tagged(frame_path) as frame:
        return cm.TaggedImage(frame.band(slice(None)), frame.tag)


def write_tagged(frame_path, img, seed=0, config=None, extra=None):
    write_pfm(frame_path, img.pixels)
    write_sidecar(frame_path, img.tag, seed=seed, config=config, extra=extra)
