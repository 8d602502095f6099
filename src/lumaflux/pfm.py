"""PFM image I/O plus the JSON sidecar carrying colorimetry and provenance.

PFM stores float32 samples, rows bottom-up: little-endian under a negative
scale, big-endian under a positive one. `open_tagged` checks a frame's header,
payload size, sidecar tag and, if asked, the tag's format without reading the
payload; the frame it returns reads rows on demand, one band per positioned
read, as native-order float32 rows top-down. `read_tagged` reads every row.
PFM has no colorimetry header, so every frame travels with a sidecar JSON
recording its color-space tag, the tool version, a config hash and its
seed. Malformed input raises FrameFormatError. Every file is written
through `Outputs`, the set of one run's outputs: each under a temporary
name, then, once all are written and every frame is whole, all renamed
into place in the order added, each frame followed by its sidecar. A set
that fails unlinks every temporary file and every file it had renamed, and
puts back each earlier file one of its renames replaced. Frames are written
little-endian, one row band at a time in any order, each band cast to
float32 alone and written in place with one positioned write.
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
from .errors import ConfigError, DimensionError, FrameFormatError

HEADER_LINE_BYTES = 256  # longest PFM header line read, newline included
_IOV_MAX = 1024  # most buffers one positioned read takes: IOV_MAX on Linux and the BSDs
_READ_BYTES = 1 << 30  # most bytes asked of one positioned read, well under Linux's 2 GiB cap


class PfmWriter:
    """An h x w frame of an `Outputs` set, written one row band at a time, from any thread.

    Its temporary file is open from the first band to the last row.
    """

    def __init__(self, path, tmp, h, w):
        self.path = path
        self.shape = (h, w, 3)
        self._written = bytearray(h)  # 1 for each row written
        self._header = f"PF\n{w} {h}\n-1.0\n".encode()
        self._tmp = tmp
        self._fh = None
        self._lock = threading.Lock()

    def write(self, rows, band):
        """Write the (r, w, 3) band as rows `rows` (a slice) of the frame; its rows run top-down.

        It is flipped and cast to little-endian float32 in one pass, then
        written at its place in the bottom-up payload. A band that does not
        fit `rows`, or overlaps rows already written, raises DimensionError.
        """
        h, w, _ = self.shape
        top, stop, step = rows.indices(h)
        if step != 1 or top >= stop or band.shape != (stop - top, w, 3):
            raise DimensionError(f"{self.path}: a {band.shape} band does not fit rows "
                                 f"{top}:{stop} of a {self.shape} frame")
        data = memoryview(np.ascontiguousarray(band[::-1], dtype="<f4")).cast("B")
        with self._lock:
            if self._written.find(1, top, stop) != -1:
                raise DimensionError(f"{self.path}: rows {top}:{stop} of a {self.shape} "
                                     "frame overlap rows already written")
            if self._fh is None:
                self._fh = open(self._tmp, "xb")
                _pwrite_all(self._fh.fileno(), self._header, 0)
            _pwrite_all(self._fh.fileno(), data, len(self._header) + (h - stop) * w * 3 * 4)
            self._written[top:stop] = b"\1" * (stop - top)
            if self._written.find(0) == -1:
                self._fh.close()


def _pwrite_all(fd, data, offset):
    """Write all of `data` at `offset` of the file `fd`, in as many positioned writes as needed."""
    while data:
        done = os.pwrite(fd, data, offset)
        data, offset = data[done:], offset + done


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


def _identity(path):
    """The file at `path` under any name: its device and inode, or its real path if missing."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


class Outputs:
    """The output files of one run, as a context manager: all renamed into place, or none.

    Each file is written under a temporary name next to its own. On a clean
    exit every frame must be whole, and every file is renamed in the order
    added. On an exception, a frame with rows missing or a failed rename,
    every temporary file and every file already renamed is unlinked, and each
    earlier file a rename replaced comes back from a hard link made before it.
    Add files from one thread; a frame's bands may be written from any threads.
    A file added at the name of one of `inputs`, the files the run reads, or
    of a file added before, raises ConfigError before any of its bytes are
    written, so the set fails and every file stays as it was.
    """

    def __init__(self, inputs=()):
        self._inputs = {_identity(path): path for path in inputs}
        self._taken = set()  # the identity of every name added
        self._names = []  # (final name, temporary name), in the order added
        self._frames = []

    def _add(self, path):
        key = _identity(path)
        if key in self._inputs:
            raise ConfigError(f"output {path} is the input {self._inputs[key]}")
        if key in self._taken:
            raise ConfigError(f"output {path} is written twice")
        self._taken.add(key)
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")
        self._names.append((path, tmp))
        return tmp

    def file(self, path, data):
        """Add the file `path` holding the bytes `data`."""
        with open(self._add(path), "xb") as fh:
            fh.write(data)

    def frame(self, path, h, w):
        """Add an h x w frame at `path`; returns the PfmWriter its bands go through."""
        out = PfmWriter(path, self._add(path), h, w)
        self._frames.append(out)
        return out

    def sidecar(self, frame_path, tag, seed=0, config=None, extra=None):
        """Add the sidecar of the frame at `frame_path`."""
        doc = {"tag": tag.to_json(), "tool_version": __version__, "seed": seed,
               "config_hash": config_hash(config or {}), **(extra or {})}
        self.file(sidecar_path(frame_path), json.dumps(doc, indent=2, sort_keys=True).encode())

    def tagged(self, frame_path, img, seed=0, config=None, extra=None):
        """Add the TaggedImage `img` as a frame at `frame_path`, then its sidecar."""
        h, w = img.pixels.shape[:2]
        out = self.frame(frame_path, h, w)
        for rows in tc.row_bands(h, w):
            out.write(rows, img.pixels[rows])
        self.sidecar(frame_path, img.tag, seed, config, extra)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        renamed, kept = [], []  # kept: (name, a hard link to the earlier file at that name)
        try:
            for out in self._frames:
                if out._fh is not None:
                    out._fh.close()
            if exc_type is None:
                for out in self._frames:
                    if left := out._written.count(0):
                        raise DimensionError(f"{out.path}: {left} rows of a {out.shape} "
                                             "frame were never written")
                for path, tmp in self._names:
                    with contextlib.suppress(OSError):  # no earlier file there
                        os.link(path, tmp + ".old")
                        kept.append((path, tmp + ".old"))
                    os.replace(tmp, path)
                    renamed.append(path)
        finally:
            if failed := len(renamed) < len(self._names):
                for name in renamed + [tmp for _, tmp in self._names]:
                    with contextlib.suppress(OSError):
                        os.unlink(name)
            for path, old in kept:
                with contextlib.suppress(OSError):
                    if failed and path in renamed:
                        os.replace(old, path)  # the earlier file, back at its name
                    else:
                        os.unlink(old)


def _read_tag(frame_path):
    side = sidecar_path(frame_path)
    try:
        with open(side) as fh:
            return cm.ColorSpaceTag.from_json(json.load(fh)["tag"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # nesting too deep
        raise FrameFormatError(f"{side}: no valid color-space tag ({exc!r})") from None


def open_tagged(frame_path, fmt=None):
    """Open a PFM and its sidecar tag, checked as read_tagged checks them; reads no samples.

    A tag whose (transfer, primaries) is not `fmt`, when given, raises
    FrameFormatError. Returns a PfmFrame whose `tag` is set; the caller closes it.
    """
    frame = PfmFrame(frame_path)
    try:
        frame.tag = _read_tag(frame_path)
        got = (frame.tag.transfer, frame.tag.primaries)
        if fmt is not None and got != fmt:
            raise FrameFormatError(f"{frame_path}: expected a {fmt[0].value}/{fmt[1].value} "
                                   f"frame, got {got[0].value}/{got[1].value}")
    except BaseException:
        frame.close()
        raise
    return frame


def read_tagged(frame_path):
    with open_tagged(frame_path) as frame:
        return cm.TaggedImage(frame.band(slice(None)), frame.tag)


def write_tagged(frame_path, img, seed=0, config=None, extra=None):
    with Outputs() as outputs:
        outputs.tagged(frame_path, img, seed=seed, config=config, extra=extra)
