import errno
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lumaflux import colorimetry as cm
from lumaflux import pfm
from lumaflux import tensorcore as tc
from lumaflux.errors import ConfigError, DimensionError, FrameFormatError
from test_tensorcore import fix_band_rows

SDR_TAG = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)


def _rewrite(path, edit):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(data))


def _set_peak(path, value):
    def edit(data):
        doc = json.loads(data)
        doc["tag"]["peak_nits"] = value
        return json.dumps(doc).encode()

    _rewrite(pfm.sidecar_path(path), edit)


# name -> damage applied to a valid 5x4 tagged frame at `path`
DAMAGE = {
    "truncated": lambda path: _rewrite(path, lambda b: b[:-4]),
    "extra_payload": lambda path: _rewrite(path, lambda b: b + bytes(4)),
    "bad_dims": lambda path: _rewrite(path, lambda b: b.replace(b"4 5\n", b"4 x\n", 1)),
    "zero_dims": lambda path: _rewrite(path, lambda b: b.replace(b"4 5\n", b"0 5\n", 1)),
    "bad_magic": lambda path: _rewrite(path, lambda b: b"Pf" + b[2:]),
    "bad_json": lambda path: _rewrite(pfm.sidecar_path(path), lambda b: b[:-3]),
    "no_tag": lambda path: _rewrite(pfm.sidecar_path(path), lambda b: b'{"seed": 0}'),
    "invalid_tag": lambda path: _rewrite(pfm.sidecar_path(path),
                                         lambda b: b.replace(b'"BT709"', b'"BT601"')),
    "not_an_object": lambda path: _rewrite(pfm.sidecar_path(path), lambda b: b"[1, 2]"),
    "nan_peak": lambda path: _set_peak(path, float("nan")),
    "inf_peak": lambda path: _set_peak(path, float("inf")),
    "bool_peak": lambda path: _set_peak(path, True),
    "str_peak": lambda path: _set_peak(path, "100"),
    "deep_json": lambda path: _rewrite(pfm.sidecar_path(path),
                                       lambda b: b"[" * 100000 + b"]" * 100000),
    # header lines that run on past pfm.HEADER_LINE_BYTES without a newline
    "long_magic": lambda path: _rewrite(path, lambda b: b"PF" + b"F" * (1 << 16) + b[2:]),
    "long_dims": lambda path: _rewrite(path,
                                       lambda b: b.replace(b"4 5\n", b"4 5" + b" " * (1 << 16), 1)),
}


# name -> the message of its FrameFormatError, or its start where the rest is
# Python's own text; {path} is the frame and {side} its sidecar
DAMAGE_MESSAGES = {
    "truncated": "{path}: 236 payload bytes for a 4x5 frame, expected 240",
    "extra_payload": "{path}: 244 payload bytes for a 4x5 frame, expected 240",
    "bad_dims": "{path}: malformed PFM dimensions or scale",
    "zero_dims": "{path}: invalid PFM header 0x5, scale -1.0",
    "bad_magic": "{path}: not a 3-channel PFM file",
    "bad_json": "{side}: no valid color-space tag (JSONDecodeError(",
    "no_tag": "{side}: no valid color-space tag (KeyError('tag'))",
    "invalid_tag": "{side}: no valid color-space tag (ValueError(",
    "not_an_object": "{side}: no valid color-space tag (TypeError(",
    "nan_peak": "{side}: no valid color-space tag (DomainError("
                "'peak_nits must be a finite JSON number, got nan'))",
    "inf_peak": "{side}: no valid color-space tag (DomainError("
                "'peak_nits must be a finite JSON number, got inf'))",
    "bool_peak": "{side}: no valid color-space tag (DomainError("
                 "'peak_nits must be a finite JSON number, got True'))",
    "str_peak": "{side}: no valid color-space tag (DomainError("
                "\"peak_nits must be a finite JSON number, got '100'\"))",
    "deep_json": "{side}: no valid color-space tag (RecursionError(",
    "long_magic": "{path}: not a 3-channel PFM file",
    "long_dims": "{path}: malformed PFM dimensions or scale",
}


def write_big_endian(path, px):
    """Write px as a big-endian (positive-scale) PFM, rows bottom-up."""
    h, w, _ = px.shape
    with open(path, "wb") as fh:
        fh.write(f"PF\n{w} {h}\n1.0\n".encode())
        fh.write(np.ascontiguousarray(px[::-1], dtype=">f4").tobytes())


def write_frame(path, px, order=reversed):
    """Write px as one frame of its own Outputs set, its row bands in `order`."""
    h, w = px.shape[:2]
    with pfm.Outputs() as outputs:
        out = outputs.frame(path, h, w)
        for rows in order(tc.row_bands(h, w)):
            out.write(rows, px[rows])


ROOM = 40  # bytes a file takes on a full disk: a header plus part of a payload


class FullDisk:
    """File stand-in that accepts ROOM bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh
        self.room = ROOM

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        self.fh.write(chunk[:self.room])
        if len(chunk) > self.room:
            raise OSError(errno.ENOSPC, "no space left on device")
        self.room -= len(chunk)

    def fileno(self):
        return self.fh.fileno()

    def close(self):
        self.fh.close()


def fill_disk(monkeypatch):
    """Make every file pfm opens a FullDisk, and fail every positioned write past ROOM bytes."""
    real_open, real_pwrite = open, os.pwrite

    def pwrite(fd, data, offset):
        done = real_pwrite(fd, data[:max(ROOM - offset, 0)], offset)
        if done < len(data):
            raise OSError(errno.ENOSPC, "no space left on device")
        return done

    monkeypatch.setattr(pfm, "open", lambda p, mode: FullDisk(real_open(p, mode)), raising=False)
    monkeypatch.setattr(os, "pwrite", pwrite)


def read_samples(path):
    """Every row of the PFM at path, read as one band."""
    with pfm.PfmFrame(path) as frame:
        return frame.band(slice(None))


def damaged_frame(path, damage, tag=SDR_TAG):
    """Write a valid 5x4 tagged frame at path, then apply one DAMAGE entry."""
    pfm.write_tagged(str(path), cm.TaggedImage(np.full((5, 4, 3), 0.5), tag))
    DAMAGE[damage](str(path))
    return str(path)


def test_pfm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.uniform(0.0, 1.0, (5, 7, 3)).astype(np.float32)
    path = str(tmp_path / "frame.pfm")
    write_frame(path, px.astype(np.float64))
    back = read_samples(path)
    # float32 in native order, C-contiguous, rows top-down, bit for bit
    assert back.dtype == np.float32 and back.dtype.isnative
    assert back.flags.c_contiguous
    assert back.tobytes() == px.tobytes()


def test_big_endian_reads_as_its_little_endian_twin(tmp_path):
    px = np.random.default_rng(3).uniform(0.0, 1.0, (6, 5, 3)).astype(np.float32)
    px[0, 0] = [np.inf, -0.0, 1e-40]  # bytes a wrong swap would move
    little, big = str(tmp_path / "le.pfm"), str(tmp_path / "be.pfm")
    write_frame(little, px)
    write_big_endian(big, px)
    back = read_samples(big)
    assert back.dtype == np.float32 and back.dtype.isnative
    assert back.flags.c_contiguous
    assert back.tobytes() == read_samples(little).tobytes() == px.tobytes()


def test_pfm_header_format(tmp_path):
    path = str(tmp_path / "frame.pfm")
    write_frame(path, np.zeros((2, 3, 3)))
    with open(path, "rb") as fh:
        assert fh.readline() == b"PF\n"
        assert fh.readline() == b"3 2\n"
        assert float(fh.readline()) == -1.0


def test_pfm_rejects_gray(tmp_path):
    with pytest.raises(DimensionError), pfm.Outputs() as outputs:
        outputs.frame(str(tmp_path / "x.pfm"), 4, 4).write(slice(0, 4), np.zeros((4, 4)))
    assert os.listdir(tmp_path) == []


def test_tagged_round_trip(tmp_path):
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    px = np.random.default_rng(1).uniform(0, 1, (4, 4, 3)).astype(np.float32)
    img = cm.TaggedImage(px.astype(np.float64), tag)
    path = str(tmp_path / "frame.pfm")
    pfm.write_tagged(path, img, seed=9, config={"a": 1})
    back = pfm.read_tagged(path)
    assert back.tag == tag
    np.testing.assert_array_equal(back.pixels, img.pixels)


@st.composite
def tags(draw):
    transfer = draw(st.sampled_from(cm.Transfer))
    cap = cm.PQ_PEAK_NITS if transfer is cm.Transfer.PQ else 1e6
    peak = draw(st.floats(1e-3, cap))
    return cm.ColorSpaceTag(draw(st.sampled_from(cm.Primaries)), transfer, peak)


@settings(max_examples=100, deadline=None)
@given(px=arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3)),
                 elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
       tag=tags())
def test_property_tagged_round_trip(tmp_path_factory, px, tag):
    path = str(tmp_path_factory.getbasetemp() / "property.pfm")
    pfm.write_tagged(path, cm.TaggedImage(px.astype(np.float64), tag))
    back = pfm.read_tagged(path)
    assert back.tag == tag
    np.testing.assert_array_equal(back.pixels, px.astype(np.float64))


def test_sidecar_contents(tmp_path):
    tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
    img = cm.TaggedImage(np.zeros((2, 2, 3)), tag)
    path = str(tmp_path / "f.pfm")
    pfm.write_tagged(path, img, seed=4, config={"x": 2}, extra={"note": "hi"})
    with open(pfm.sidecar_path(path)) as fh:
        doc = json.load(fh)
    assert doc["seed"] == 4
    assert doc["note"] == "hi"
    assert doc["config_hash"] == pfm.config_hash({"x": 2})
    assert cm.ColorSpaceTag.from_json(doc["tag"]) == tag
    assert "tool_version" in doc


def test_config_hash_stable_under_key_order():
    assert pfm.config_hash({"a": 1, "b": 2}) == pfm.config_hash({"b": 2, "a": 1})
    assert pfm.config_hash({"a": 1}) != pfm.config_hash({"a": 2})


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_malformed_input_is_frame_format_error(tmp_path, damage):
    path = damaged_frame(tmp_path / "frame.pfm", damage)
    with pytest.raises(FrameFormatError) as err:
        pfm.read_tagged(path)
    want = DAMAGE_MESSAGES[damage].format(path=path, side=pfm.sidecar_path(path))
    assert str(err.value).startswith(want)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_open_refuses_every_damage(tmp_path, damage, monkeypatch):
    # refused before any sample is read
    path = damaged_frame(tmp_path / "frame.pfm", damage)
    monkeypatch.setattr(os, "preadv", None)
    with pytest.raises(FrameFormatError) as err:
        pfm.open_tagged(path)
    want = DAMAGE_MESSAGES[damage].format(path=path, side=pfm.sidecar_path(path))
    assert str(err.value).startswith(want)


@pytest.mark.parametrize("run_on", [b"PF" + b"F" * (20 << 20), b"PF\n4 5" + b" " * (20 << 20)],
                         ids=["magic", "dims"])
def test_header_lines_are_read_with_a_bound(tmp_path, run_on):
    # a 20 MiB header line is refused after HEADER_LINE_BYTES, not read whole
    path = str(tmp_path / "frame.pfm")
    with open(path, "wb") as fh:
        fh.write(run_on)
    tracemalloc.start()
    try:
        with pytest.raises(FrameFormatError):
            pfm.PfmFrame(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_open_reads_no_samples(tmp_path, monkeypatch):
    path = str(tmp_path / "frame.pfm")
    pfm.write_tagged(path, cm.TaggedImage(np.full((6, 5, 3), 0.5), SDR_TAG))
    monkeypatch.setattr(os, "preadv", None)
    with pfm.open_tagged(path) as frame:
        assert frame.shape == (6, 5, 3)
        assert frame.tag == SDR_TAG


def test_refused_format_closes_the_frame(tmp_path, monkeypatch):
    # the tag is refused after the frame's file is open; that file is closed, not leaked
    path = str(tmp_path / "frame.pfm")
    pfm.write_tagged(path, cm.TaggedImage(np.full((6, 5, 3), 0.5), SDR_TAG))
    opened = []

    def tracked(*args):
        opened.append(open(*args))
        return opened[-1]

    monkeypatch.setattr(pfm, "open", tracked, raising=False)
    with pytest.raises(FrameFormatError) as err:
        pfm.open_tagged(path, (cm.Transfer.PQ, cm.Primaries.BT2020))
    assert str(err.value) == f"{path}: expected a PQ/BT2020 frame, got Gamma709/BT709"
    assert opened and all(fh.closed for fh in opened)
    with pfm.open_tagged(path, (cm.Transfer.GAMMA709, cm.Primaries.BT709)) as frame:
        assert frame.tag == SDR_TAG


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("band_rows", [None, 5, 10**6])
def test_band_reads_equal_the_payload_rows(tmp_path, band_rows, workers, monkeypatch):
    # 150 x 1027: at the default height six bands of 24 rows and a short one of 6;
    # at 5 rows thirty bands; at 10**6 one band of the whole frame
    px = np.random.default_rng(4).uniform(0.0, 1.0, (150, 1027, 3)).astype(np.float32)
    px[149, 0] = [np.inf, -0.0, 1e-40]  # bytes a wrong swap would move, in the last band
    little, big = str(tmp_path / "le.pfm"), str(tmp_path / "be.pfm")
    write_frame(little, px)
    write_big_endian(big, px)
    fix_band_rows(monkeypatch, band_rows)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads that share the file interleave often
    try:
        for path in (little, big):
            got = np.full(px.shape, np.nan, dtype=np.float32)
            with pfm.PfmFrame(path) as frame:
                def read(rows):
                    band = frame.band(rows)
                    assert band.dtype == np.float32 and band.dtype.isnative
                    assert band.flags.c_contiguous
                    got[rows] = band

                tc.map_row_bands(read, *px.shape[:2], workers)
            assert got.tobytes() == read_samples(path).tobytes() == px.tobytes()
    finally:
        sys.setswitchinterval(switch)


def test_failed_write_keeps_existing_frame(tmp_path, monkeypatch):
    path = str(tmp_path / "frame.pfm")
    write_frame(path, np.zeros((4, 4, 3)))
    with open(path, "rb") as fh:
        before = fh.read()
    fill_disk(monkeypatch)
    with pytest.raises(OSError):
        write_frame(path, np.ones((4, 4, 3)))
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["frame.pfm"]


def test_failed_sidecar_write_unlinks_the_frame(tmp_path):
    path = tmp_path / "frame.pfm"
    (tmp_path / "frame.json").mkdir()
    with pytest.raises(IsADirectoryError):
        pfm.write_tagged(str(path), cm.TaggedImage(np.full((4, 4, 3), 0.5), SDR_TAG))
    assert os.listdir(tmp_path) == ["frame.json"]


def test_write_replaces_existing_frame(tmp_path):
    path = str(tmp_path / "frame.pfm")
    write_frame(path, np.zeros((4, 4, 3)))
    write_frame(path, np.ones((2, 3, 3)))
    np.testing.assert_array_equal(read_samples(path), np.ones((2, 3, 3)))
    assert os.listdir(tmp_path) == ["frame.pfm"]


def test_writer_renames_only_a_whole_frame(tmp_path):
    px = np.arange(7 * 5 * 3, dtype=np.float32).reshape(7, 5, 3)
    path = str(tmp_path / "frame.pfm")
    with pfm.Outputs() as outputs:
        out = outputs.frame(path, 7, 5)
        for rows in (slice(4, 7), slice(1, 4), slice(0, 1)):
            out.write(rows, px[rows])
    assert read_samples(path).tobytes() == px.tobytes()
    assert os.listdir(tmp_path) == ["frame.pfm"]
    # a band of the wrong width, one that does not match its rows, one past the
    # frame's height, a strided one, or a frame with rows missing at the end of the
    # block is refused, and its temporary file unlinked
    for bands in ([(slice(0, 7), px[:, :4])], [(slice(0, 3), px[:4])],
                  [(slice(5, 9), px[3:])], [(slice(0, 7, 2), px[::2])],
                  [(slice(1, 7), px[1:])]):
        with pytest.raises(DimensionError), pfm.Outputs() as outputs:
            out = outputs.frame(str(tmp_path / "x.pfm"), 7, 5)
            for rows, band in bands:
                out.write(rows, band)
        assert os.listdir(tmp_path) == ["frame.pfm"]


@pytest.mark.parametrize("order", ["reverse", "shuffled", "threads"])
def test_writer_bands_in_any_order_give_the_bottom_up_bytes(tmp_path, order, monkeypatch):
    # 150 x 1027 in bands of 8 rows: 19 bands, the last of 6 rows
    px = np.random.default_rng(5).uniform(0.0, 1.0, (150, 1027, 3)).astype(np.float32)
    px[149, 0] = [np.inf, -0.0, 1e-40]
    fix_band_rows(monkeypatch, 8)
    bottom_up = str(tmp_path / "bottom_up.pfm")
    write_frame(bottom_up, px)
    path = str(tmp_path / "frame.pfm")
    if order == "threads":
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads that share the file interleave often
        try:
            with pfm.Outputs() as outputs:
                out = outputs.frame(path, *px.shape[:2])
                tc.map_row_bands(lambda rows: out.write(rows, px[rows]), *px.shape[:2], 3)
        finally:
            sys.setswitchinterval(switch)
    else:
        rng = np.random.default_rng(6)
        orders = {"reverse": lambda bands: bands[::-1],
                  "shuffled": lambda bands: [bands[i] for i in rng.permutation(len(bands))]}
        write_frame(path, px, orders[order])
    with open(path, "rb") as a, open(bottom_up, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("bands", [
    [slice(0, 4), slice(0, 4)], [slice(4, 7), slice(0, 5)], [slice(0, 7), slice(6, 7)],
    [slice(2, 5), slice(0, 3), slice(5, 7)]], ids=["repeated", "overlap", "inside", "straddle"])
def test_writer_refuses_a_band_over_rows_already_written(tmp_path, bands):
    # a count of the rows left alone would take a repeated band for a missing one
    px = np.zeros((7, 5, 3))
    with pytest.raises(DimensionError, match="overlap"), pfm.Outputs() as outputs:
        out = outputs.frame(str(tmp_path / "frame.pfm"), 7, 5)
        for rows in bands:
            out.write(rows, px[rows])
    assert os.listdir(tmp_path) == []


def test_outputs_frame_missing_one_band_fails_the_set(tmp_path, monkeypatch):
    px = np.ones((40, 5, 3))
    fix_band_rows(monkeypatch, 8)
    with pytest.raises(DimensionError, match="8 rows"), pfm.Outputs() as outputs:
        outputs.file(str(tmp_path / "first.txt"), b"whole")
        out = outputs.frame(str(tmp_path / "frame.pfm"), 40, 5)
        for rows in tc.row_bands(40, 5)[::-1]:
            if rows.start != 16:
                out.write(rows, px[rows])
    assert os.listdir(tmp_path) == []


def test_outputs_exception_keeps_earlier_files(tmp_path):
    img = cm.TaggedImage(np.full((4, 4, 3), 0.5), SDR_TAG)
    path = str(tmp_path / "frame.pfm")
    with pfm.Outputs() as outputs:
        outputs.tagged(path, img, seed=1)
        outputs.file(path + ".txt", b"earlier")
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    with pytest.raises(RuntimeError), pfm.Outputs() as outputs:
        outputs.tagged(path, img.with_pixels(np.zeros((4, 4, 3))), seed=2)
        outputs.file(path + ".txt", b"later")
        raise RuntimeError("the run fails after every file is written")
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_outputs_frame_with_rows_missing_renames_nothing(tmp_path):
    with pytest.raises(DimensionError), pfm.Outputs() as outputs:
        outputs.file(str(tmp_path / "first.txt"), b"whole")
        outputs.frame(str(tmp_path / "frame.pfm"), 7, 5).write(slice(0, 6), np.zeros((6, 5, 3)))
        outputs.file(str(tmp_path / "last.txt"), b"whole")
    assert os.listdir(tmp_path) == []


def test_outputs_failed_rename_unlinks_the_files_renamed_before_it(tmp_path):
    (tmp_path / "c.txt").mkdir()
    with pytest.raises(IsADirectoryError), pfm.Outputs() as outputs:
        for name in ("a.txt", "b.txt", "c.txt", "d.txt"):
            outputs.file(str(tmp_path / name), name.encode())
    assert os.listdir(tmp_path) == ["c.txt"]


def test_outputs_failed_rename_puts_back_the_earlier_files(tmp_path):
    names = ("a.txt", "b.txt", "c.txt", "d.txt")
    for name in names:
        (tmp_path / name).write_bytes(b"earlier " + name.encode())
    (tmp_path / "c.txt").unlink()
    (tmp_path / "c.txt").mkdir()
    # a.txt and b.txt are replaced before c.txt's rename fails; d.txt never is
    with pytest.raises(IsADirectoryError), pfm.Outputs() as outputs:
        for name in names:
            outputs.file(str(tmp_path / name), b"later " + name.encode())
    assert sorted(os.listdir(tmp_path)) == list(names)
    for name in ("a.txt", "b.txt", "d.txt"):
        assert (tmp_path / name).read_bytes() == b"earlier " + name.encode()
    # once the run can finish, its files replace them and no hard link is left over
    (tmp_path / "c.txt").rmdir()
    with pfm.Outputs() as outputs:
        for name in names:
            outputs.file(str(tmp_path / name), b"later " + name.encode())
    assert sorted(os.listdir(tmp_path)) == list(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == b"later " + name.encode()


def test_outputs_refuse_an_input_or_a_name_written_twice(tmp_path):
    # the same file by another name: a hard link, a symlink, a path through ".."
    (tmp_path / "in.pfm").write_bytes(b"input")
    (tmp_path / "sub").mkdir()
    os.link(tmp_path / "in.pfm", tmp_path / "hard.pfm")
    os.symlink(tmp_path / "in.pfm", tmp_path / "soft.pfm")
    inputs = [str(tmp_path / "in.pfm"), str(tmp_path / "in.json")]  # the sidecar is missing
    before = sorted(os.listdir(tmp_path))
    for name in ("in.pfm", "hard.pfm", "soft.pfm", "sub/../in.pfm", "in.json", "sub/../in.json"):
        with pytest.raises(ConfigError), pfm.Outputs(inputs) as outputs:
            outputs.file(str(tmp_path / "first.txt"), b"written before the refused name")
            outputs.file(str(tmp_path / name), b"output")
        assert sorted(os.listdir(tmp_path)) == before
        assert (tmp_path / "in.pfm").read_bytes() == b"input"
    with pytest.raises(ConfigError), pfm.Outputs() as outputs:
        outputs.file(str(tmp_path / "out.txt"), b"a")
        outputs.file(str(tmp_path / "sub" / ".." / "out.txt"), b"b")
    assert sorted(os.listdir(tmp_path)) == before


def test_outputs_full_disk_on_a_file_leaves_nothing(tmp_path, monkeypatch):
    # the 1 x 1 frame's 24 bytes and the 30-byte file fit in FullDisk's 40 bytes
    # a file; the 100-byte file, added last, fails part-way
    fill_disk(monkeypatch)
    with pytest.raises(OSError) as err, pfm.Outputs() as outputs:
        outputs.frame(str(tmp_path / "frame.pfm"), 1, 1).write(slice(0, 1), np.zeros((1, 1, 3)))
        outputs.file(str(tmp_path / "frame.pfm.rqs.json"), bytes(30))
        outputs.file(str(tmp_path / "frame.pfm.trace.csv"), bytes(100))
    assert err.value.errno == errno.ENOSPC
    assert os.listdir(tmp_path) == []
