import errno
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lumaflux import colorimetry as cm
from lumaflux import pfm
from lumaflux.errors import DimensionError, FrameFormatError

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
}


def damaged_frame(path, damage, tag=SDR_TAG):
    """Write a valid 5x4 tagged frame at path, then apply one DAMAGE entry."""
    pfm.write_tagged(str(path), cm.TaggedImage(np.full((5, 4, 3), 0.5), tag))
    DAMAGE[damage](str(path))
    return str(path)


def test_pfm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.uniform(0.0, 1.0, (5, 7, 3)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "frame.pfm")
    pfm.write_pfm(path, px)
    back = pfm.read_pfm(path)
    np.testing.assert_array_equal(back, px)


def test_pfm_header_format(tmp_path):
    path = str(tmp_path / "frame.pfm")
    pfm.write_pfm(path, np.zeros((2, 3, 3)))
    with open(path, "rb") as fh:
        assert fh.readline() == b"PF\n"
        assert fh.readline() == b"3 2\n"
        assert float(fh.readline()) == -1.0


def test_pfm_rejects_gray(tmp_path):
    with pytest.raises(DimensionError):
        pfm.write_pfm(str(tmp_path / "x.pfm"), np.zeros((4, 4)))


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
    with pytest.raises(FrameFormatError):
        pfm.read_tagged(path)


def test_failed_write_keeps_existing_frame(tmp_path, monkeypatch):
    path = str(tmp_path / "frame.pfm")
    pfm.write_pfm(path, np.zeros((4, 4, 3)))
    with open(path, "rb") as fh:
        before = fh.read()

    class FullDisk:
        """File stand-in that accepts 40 bytes, then fails: header plus part of the payload."""

        def __init__(self, fh):
            self.fh = fh
            self.room = 40

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            self.fh.write(chunk[:self.room])
            if len(chunk) > self.room:
                raise OSError(errno.ENOSPC, "no space left on device")
            self.room -= len(chunk)

    real_open = open
    monkeypatch.setattr(pfm, "open", lambda p, mode: FullDisk(real_open(p, mode)), raising=False)
    with pytest.raises(OSError):
        pfm.write_pfm(path, np.ones((4, 4, 3)))
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["frame.pfm"]


def test_write_replaces_existing_frame(tmp_path):
    path = str(tmp_path / "frame.pfm")
    pfm.write_pfm(path, np.zeros((4, 4, 3)))
    pfm.write_pfm(path, np.ones((2, 3, 3)))
    np.testing.assert_array_equal(pfm.read_pfm(path), np.ones((2, 3, 3)))
    assert os.listdir(tmp_path) == ["frame.pfm"]
