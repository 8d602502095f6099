import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumaflux import adapters as ad
from lumaflux import cli
from lumaflux import colorimetry as cm
from lumaflux import features as ft
from lumaflux import pfm
from lumaflux import rqs
from lumaflux import tensorcore as tc
from lumaflux import tonemap as tm
from lumaflux.errors import ConfigError, TagError
from test_acceptance import synthetic_hdr
from test_pfm import SDR_TAG, damaged_frame
from test_tensorcore import fix_band_rows

# SHA-256 of the synthesize output tree for the A5 input frame; a change
# that moves it changes output bits and must say why
A5_TREE_SHA256 = "486b61f512511b38aaa0289deb5d8f80ce14e5c379472f8492da6512b68b9933"

# SHA-256 of the synthesize output tree for the A5 frame's top-left 150x45,
# neither extent a multiple of 8: one row band at the default band height,
# three of 64 rows, the last one short
BANDED_TREE_SHA256 = "44b82dfcc53d725b5a413ecf7a5cb3f197e8be68b10bba1d16e6786923d12922"

# SHA-256 of each fit-expand output, default config, for the A5 input frame
# and its Reinhard CRF-23 SDR frame; a change that moves one must say why
FIT_EXPAND_SHA256 = {
    "expanded.pfm": "c454ec8aff7b76a446d17d1d6be8b5c7eb9ea247ba90642c6ab79a283f889cca",
    "expanded.pfm.rqs.json": "0136698e9b2f1815ca7ce1565830277141a7db09a0fd94f09334a7796ad7010a",
    "expanded.pfm.trace.csv": "c71fb2c890382c31d72dc4e8e9969909e74c0795169996abc8e1601eb95731d8",
}

# SHA-256 of rqs.warm_start_raw(..., K=8).tobytes() on the sample pairs
# fit-expand fits for the same frames (4,096 pairs, no two luma values
# tied), and on those pairs with luma rounded to 1/256 (4,010 ties), each
# sorted by luma and ties by target as fit_rqs sorts them
WARM_START_SHA256 = {
    "luma": "80bd7c664536b5415cba99c7ec999b831a725872f0a0d407237384ee842b2e83",
    "luma_1/256": "0f7638941406a2d25754238577fda14823b579b5f3fa800a42f243f9af16ab32",
}

# SHA-256 of each fit-expand output, default config, for the A5 frame's
# top-left 150x45 as reference and an SDR frame whose chroma system is
# singular: a gray ramp (zero chroma) or one flat colour; a change that
# moves one must say why
SINGULAR_CHROMA_SHA256 = {
    "gray": {
        "expanded.pfm": "050aee875f347711b1db9328712c4f1fffe805586882b63cc1c4845d1ab3f644",
        "expanded.pfm.rqs.json": "94213d9e81b48155ebd7dd60fecb7f9bfe90dc8aad1fabae441faa01791c92f4",
        "expanded.pfm.trace.csv": "58944f5bb8445d0d864bf316d8cf82d1b2f53cbcb4486c269c18369521f4356c",
    },
    "flat": {
        "expanded.pfm": "e0424e5762eb62dce478a660bb03d3776c03a3b636a21047c68631605bb5bbc4",
        "expanded.pfm.rqs.json": "cb012f2dd260939691abba216aaa1fb9f7a850a235d81447150dd76b5af45f37",
        "expanded.pfm.trace.csv": "deb6ecb21abc8ec7c9fb5cca0037e8a9bc98b890c051ccc9a1fc05359b103c3f",
    },
}


def write_command_pair(tmp_path, size=960):
    """The A5 frame at `size` and an SDR frame of its samples, as files; returns (sdr,
    hdr, the bytes of one float64 RGB frame of that extent)."""
    hdr = synthetic_hdr(size=size)
    src, sdr = str(tmp_path / "hdr.pfm"), str(tmp_path / "sdr.pfm")
    pfm.write_tagged(src, hdr, seed=7)
    pfm.write_tagged(sdr, cm.TaggedImage(hdr.pixels, SDR_TAG))
    return sdr, src, hdr.pixels.size * 8


def command_peak(argv):
    """tracemalloc's peak over one cli.main(argv) call, which must exit 0."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def write_hdr(path, seed=0, size=64, peak=1000.0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.02, 1.0, (size // 8, size // 8, 3))
    nits = np.kron(base, np.ones((8, 8, 1))) * peak
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    pfm.write_tagged(str(path), cm.TaggedImage(cm.pq_encode(nits), tag), seed=seed)
    return str(path)


def write_fit_pair(tmp_path, size=64, extent=None):
    """The A5 frame at `size`, or its top-left (rows, cols) `extent` at the larger of
    the two, and its Reinhard CRF-23 SDR frame; returns (sdr, hdr) paths."""
    hdr = synthetic_hdr(size=size if extent is None else max(extent))
    if extent is not None:
        hdr = hdr.with_pixels(hdr.pixels[:extent[0], :extent[1]])
    src = str(tmp_path / "hdr.pfm")
    pfm.write_tagged(src, hdr, seed=7)
    op = tm.ToneOperator(tm.ToneKind.REINHARD, {"peak_in_nits": 1000.0})
    sdr = str(tmp_path / "sdr.pfm")
    pfm.write_tagged(sdr, tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=23)))
    return sdr, src


def seeded_pair(seed, rows, cols):
    """A seeded PQ/BT.2020 frame of 8x8 colour blocks and its Reinhard CRF-23 SDR
    frame, in memory; returns (sdr, hdr)."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.02, 1.0, (rows // 8 + 1, cols // 8 + 1, 3))
    nits = np.kron(base, np.ones((8, 8, 1)))[:rows, :cols] * 1000.0
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    hdr = cm.TaggedImage(cm.pq_encode(nits), tag)
    op = tm.ToneOperator(tm.ToneKind.REINHARD, {"peak_in_nits": 1000.0})
    return tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=23)), hdr


def tree_digest(root):
    acc = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            acc.update(name.encode())
            acc.update(fh.read())
    return acc.hexdigest()


@pytest.fixture
def hdr_frame(tmp_path):
    return write_hdr(tmp_path / "hdr.pfm")


@pytest.fixture
def nan_frame(tmp_path):
    hdr = synthetic_hdr(size=64)
    px = hdr.pixels.copy()
    px[3, 5, 1] = np.nan
    path = str(tmp_path / "nan.pfm")
    pfm.write_tagged(path, hdr.with_pixels(px), seed=7)
    return path


class TestSynthesize:
    def test_24_outputs(self, tmp_path, hdr_frame, capsys):
        out = tmp_path / "out"
        rc = cli.main(["synthesize", hdr_frame, "--output-dir", str(out)])
        assert rc == 0
        frames = [f for f in os.listdir(out) if f.endswith(".pfm")]
        sidecars = [f for f in os.listdir(out) if f.endswith(".json")]
        assert len(frames) == 24 and len(sidecars) == 24
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["frames"]) == 24

    def test_leaves_no_temporary_files(self, tmp_path, hdr_frame, capsys):
        out = tmp_path / "out"
        assert cli.main(["synthesize", hdr_frame, "--output-dir", str(out)]) == 0
        names = os.listdir(out)
        assert len(names) == 48
        assert sum(n.endswith(".pfm") for n in names) == 24
        assert sum(n.endswith(".json") for n in names) == 24

    def test_frames_equal_public_chain(self, tmp_path, capsys):
        # the shared per-operator chain writes what degrade + write_tagged write
        src = str(tmp_path / "hdr.pfm")
        pfm.write_tagged(src, synthetic_hdr(size=64), seed=7)
        out = tmp_path / "out"
        assert cli.main(["synthesize", src, "--output-dir", str(out)]) == 0
        hdr = pfm.read_tagged(src)
        ref = tmp_path / "ref"
        ref.mkdir()
        frames = sorted(f for f in os.listdir(out) if f.endswith(".pfm"))
        assert len(frames) == 24
        for name in frames:
            with open(pfm.sidecar_path(str(out / name))) as fh:
                spec = tm.DegradationSpec.from_json(json.load(fh)["degradation"])
            pfm.write_tagged(str(ref / name), tm.degrade(hdr, spec), seed=spec.seed,
                             config=cli.DEFAULT_CONFIG, extra={"degradation": spec.to_json()})
            for path in (name, pfm.sidecar_path(name)):
                assert (ref / path).read_bytes() == (out / path).read_bytes(), path

    def test_byte_exact_across_reruns_and_thread_counts(self, tmp_path, hdr_frame,
                                                        monkeypatch, capsys):
        digests = []
        for threads in ("1", "4", "4"):
            out = tmp_path / f"out_{len(digests)}"
            monkeypatch.setenv("LUMAFLUX_THREADS", threads)
            assert cli.main(["synthesize", hdr_frame, "--output-dir", str(out)]) == 0
            digests.append(tree_digest(str(out)))
        assert digests[0] == digests[1] == digests[2]

    def test_sidecar_records_degradation(self, tmp_path, hdr_frame, capsys):
        out = tmp_path / "out"
        cli.main(["synthesize", hdr_frame, "--output-dir", str(out)])
        name = sorted(f for f in os.listdir(out) if f.endswith(".json"))[0]
        with open(out / name) as fh:
            doc = json.load(fh)
        assert "degradation" in doc and doc["degradation"]["crf"] in (23, 31, 39)
        assert doc["tag"]["transfer"] == "Gamma709"

    def test_a5_tree_digest_is_pinned(self, tmp_path, capsys):
        src = str(tmp_path / "hdr.pfm")
        pfm.write_tagged(src, synthetic_hdr(size=64), seed=7)
        out = tmp_path / "out"
        assert cli.main(["synthesize", src, "--output-dir", str(out)]) == 0
        assert tree_digest(str(out)) == A5_TREE_SHA256

    def test_banded_tree_digest_is_pinned(self, tmp_path, monkeypatch, capsys):
        hdr = synthetic_hdr(size=150)
        src = str(tmp_path / "hdr.pfm")
        pfm.write_tagged(src, hdr.with_pixels(hdr.pixels[:, :45]), seed=7)
        for band_rows in (None, 64):
            fix_band_rows(monkeypatch, band_rows)
            for threads in ("1", "2", "4"):
                out = tmp_path / f"out_{band_rows}_{threads}"
                monkeypatch.setenv("LUMAFLUX_THREADS", threads)
                assert cli.main(["synthesize", src, "--output-dir", str(out)]) == 0
                assert tree_digest(str(out)) == BANDED_TREE_SHA256, (band_rows, threads)

    def test_non_finite_sample_is_numerical_failure(self, tmp_path, nan_frame, capsys):
        out = tmp_path / "out"
        rc = cli.main(["synthesize", nan_frame, "--output-dir", str(out)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pixel (3, 5, 1)" in captured.err
        assert not out.exists()  # made only once the input has passed its range check

    def test_command_peak_memory_is_bounded(self, tmp_path, monkeypatch, capsys):
        # a 480 x 960 frame in 15 bands of 32 rows on one thread. The input is
        # read band by band and each CRF's bands go straight to its file, so
        # only the shared linear frame covers the frame: 1.73 frames. Whole
        # codec coefficients and output frames per job would take it past 4
        hdr = synthetic_hdr(size=960)
        src = str(tmp_path / "hdr.pfm")
        pfm.write_tagged(src, hdr.with_pixels(hdr.pixels[:480]), seed=7)
        monkeypatch.setenv("LUMAFLUX_THREADS", "1")
        peak = command_peak(["synthesize", src, "--output-dir", str(tmp_path / "out")])
        assert peak <= 2.2 * 480 * 960 * 3 * 8

    def test_failed_rename_leaves_only_whole_frames(self, tmp_path, hdr_frame, capsys):
        # a directory under one output's name makes that frame's rename fail; the
        # frames and sidecars renamed before it are unlinked, so none is left
        out = tmp_path / "out"
        (out / "sdr_001_Reinhard_crf31.pfm").mkdir(parents=True)
        assert cli.main(["synthesize", hdr_frame, "--output-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("I/O failure")
        assert os.listdir(out) == ["sdr_001_Reinhard_crf31.pfm"]
        assert os.listdir(out / "sdr_001_Reinhard_crf31.pfm") == []

    def test_failed_rerun_keeps_the_earlier_run_files(self, tmp_path, hdr_frame, capsys):
        # a one-frame run, then a rerun of another frame whose sidecar's rename
        # fails after its frame's rename has replaced the earlier frame
        out = tmp_path / "out"
        for peak, doc in ((1000.0, "first.json"), (4000.0, "second.json")):
            (tmp_path / doc).write_text(json.dumps(
                {"tmos": [{"kind": "Reinhard", "params": {"peak_in_nits": peak}}], "crfs": [23]}))
        argv = ["synthesize", hdr_frame, "--output-dir", str(out), "--config"]
        assert cli.main(argv + [str(tmp_path / "first.json")]) == 0
        frame = out / "sdr_000_Reinhard_crf23.pfm"
        earlier = frame.read_bytes()
        (out / "sdr_000_Reinhard_crf23.json").unlink()
        (out / "sdr_000_Reinhard_crf23.json").mkdir()
        capsys.readouterr()
        assert cli.main(argv + [str(tmp_path / "second.json")]) == 2
        assert capsys.readouterr().out == ""
        assert sorted(os.listdir(out)) == ["sdr_000_Reinhard_crf23.json", frame.name]
        assert frame.read_bytes() == earlier

    def test_open_frame_files_are_bounded(self, tmp_path, hdr_frame, monkeypatch, capsys):
        # one worker, 6 operators of 3 CRFs, 4 bands of 16 rows: a frame's file is
        # open from its first band to its last row, so one operator's 3 at most
        real_open = open
        live, peak, opened = set(), [0], []

        class Tracked:
            def __init__(self, path, mode="r"):
                self.fh = real_open(path, mode)
                self.frame = "x" in mode and ".pfm." in os.path.basename(path)
                if self.frame:
                    opened.append(path)
                    live.add(self)
                    peak[0] = max(peak[0], len(live))

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def close(self):
                live.discard(self)
                self.fh.close()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        monkeypatch.setattr(pfm, "open", Tracked, raising=False)
        monkeypatch.setenv("LUMAFLUX_THREADS", "1")
        fix_band_rows(monkeypatch, 16)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tmos": cli.DEFAULT_CONFIG["tmos"][:6]}))
        out = tmp_path / "out"
        assert cli.main(["synthesize", hdr_frame, "--config", str(cfg),
                         "--output-dir", str(out)]) == 0
        assert len(opened) == 18 and not live
        assert peak[0] == len(cli.DEFAULT_CONFIG["crfs"])
        assert len(os.listdir(out)) == 36

    def test_failed_sidecar_write_leaves_no_untagged_frame(self, tmp_path, hdr_frame, capsys):
        # a directory under one sidecar's name makes that sidecar's rename fail
        out = tmp_path / "out"
        (out / "sdr_001_Reinhard_crf31.json").mkdir(parents=True)
        assert cli.main(["synthesize", hdr_frame, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("I/O failure")
        names = os.listdir(out)
        assert "sdr_001_Reinhard_crf31.pfm" not in names
        assert not [n for n in names if n.endswith(".tmp")]
        for name in (n for n in names if n.endswith(".pfm")):
            assert pfm.read_tagged(str(out / name)).tag == tm.SDR_TAG, name

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        rc = cli.main(["synthesize", str(tmp_path / "nope.pfm"),
                       "--output-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_empty_tmo_list_is_config_error(self, tmp_path, hdr_frame, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tmos": []}))
        rc = cli.main(["synthesize", hdr_frame, "--config", str(cfg),
                       "--output-dir", str(tmp_path / "o")])
        assert rc == 3

    def test_bad_crf_is_config_error(self, tmp_path, hdr_frame, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"crfs": [25]}))
        rc = cli.main(["synthesize", hdr_frame, "--config", str(cfg),
                       "--output-dir", str(tmp_path / "o")])
        assert rc == 3


class TestFitExpand:
    def test_round_trip(self, tmp_path, hdr_frame, capsys):
        out = tmp_path / "out"
        cli.main(["synthesize", hdr_frame, "--output-dir", str(out)])
        capsys.readouterr()
        sdr = sorted(str(out / f) for f in os.listdir(out)
                     if "Reinhard" in f and f.endswith(".pfm"))[0]
        dst = str(tmp_path / "expanded.pfm")
        rc = cli.main(["fit-expand", sdr, hdr_frame, "--output", dst])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["output"] == dst
        img = pfm.read_tagged(dst)
        assert img.tag.transfer is cm.Transfer.PQ
        assert img.tag.primaries is cm.Primaries.BT2020
        assert os.path.exists(dst + ".rqs.json")
        trace = np.loadtxt(dst + ".trace.csv", skiprows=1)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        sdr, src = write_fit_pair(tmp_path)
        dst = tmp_path / "expanded.pfm"
        assert cli.main(["fit-expand", sdr, src, "--output", str(dst)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in FIT_EXPAND_SHA256}
        assert digests == FIT_EXPAND_SHA256

    def test_warm_start_is_pinned(self, tmp_path, monkeypatch):
        sdr, src = write_fit_pair(tmp_path)
        # the pairs cmd_fit_expand passes to fit_rqs; 4,096 pixels need no stride
        y = cm.luma2020(ft.linearize_sdr(pfm.read_tagged(sdr))).reshape(-1)
        ref = cm.decode(pfm.read_tagged(src))
        t = np.clip(cm.luma2020(ref).reshape(-1) / 1000.0, 0.0, 1.0)
        warm_start_raw = rqs.warm_start_raw
        in_fit = []
        monkeypatch.setattr(rqs, "warm_start_raw",
                            lambda *args: in_fit.append(warm_start_raw(*args)) or in_fit[-1])
        digests = {}
        for name, luma in (("luma", y), ("luma_1/256", np.round(y * 256.0) / 256.0)):
            order = np.lexsort((t, luma))
            raw = warm_start_raw(luma[order], t[order], 8)
            digests[name] = hashlib.sha256(raw.tobytes()).hexdigest()
            # fit_rqs breaks ties the same way
            rqs.fit_rqs(luma, t, K=8, cfg=rqs.FitConfig(iterations=1))
            assert np.array_equal(in_fit[-1], raw)
        assert digests == WARM_START_SHA256

    @pytest.mark.parametrize("kind", sorted(SINGULAR_CHROMA_SHA256))
    def test_singular_chroma_system_is_pinned(self, tmp_path, kind, monkeypatch, capsys):
        # the 3x3 Gram matrix is singular; its minimum-norm solve still answers
        h, w = 150, 45
        hdr = synthetic_hdr(size=h)
        src = str(tmp_path / "hdr.pfm")
        pfm.write_tagged(src, hdr.with_pixels(hdr.pixels[:h, :w]), seed=7)
        ramp = 0.05 + 0.9 * np.arange(h * w).reshape(h, w) / (h * w - 1)
        px = {"gray": np.repeat(ramp[..., None], 3, axis=-1),
              "flat": np.broadcast_to([0.6, 0.45, 0.3], (h, w, 3))}[kind]
        sdr = str(tmp_path / "sdr.pfm")
        pfm.write_tagged(sdr, cm.TaggedImage(px, SDR_TAG))
        for threads in ("1", "3"):
            monkeypatch.setenv("LUMAFLUX_THREADS", threads)
            assert cli.main(["fit-expand", sdr, src, "--output",
                             str(tmp_path / "expanded.pfm")]) == 0
            digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                       for name in SINGULAR_CHROMA_SHA256[kind]}
            assert digests == SINGULAR_CHROMA_SHA256[kind]

    @pytest.mark.parametrize("seed,extent,fit_samples,stride", [
        (0, (150, 45), None, 1), (1, (200, 131), None, 1), (2, (129, 67), None, 1),
        (3, (150, 45), 1000, 6), (4, (301, 91), 1000, 27)])
    def test_chroma_solve_matches_lstsq_on_the_fit_samples(self, seed, extent, fit_samples,
                                                            stride, monkeypatch):
        sdr, hdr = seeded_pair(seed, *extent)
        cfg = cli.load_config(overrides={"fit_samples": fit_samples})
        assert max(1, extent[0] * extent[1] // cfg["fit_samples"]) == stride
        lstsq = np.linalg.lstsq
        solved = []
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: solved.append(lstsq(*args, **kw)) or solved[-1])
        _, params, _, _ = cli.fit_expand(sdr, hdr, cfg)
        (coef, *_), = solved

        # the N x 3 system over every stride-th pixel of the whole-frame decodes
        def strided(img):
            return img.with_pixels(img.pixels.reshape(1, -1, 3)[:, ::stride])

        def chroma(img):
            """B - Y and R - Y of a linear BT.2020 image, as N x 2."""
            y = cm.luma2020(img)[..., None]
            return (img.pixels[..., [2, 0]] - y).reshape(-1, 2)

        uv = chroma(cli.expand_sdr(strided(ft.linearize_sdr(sdr)), params, cfg["peak_nits"]))
        lhs = np.column_stack([uv, np.ones(len(uv))])
        want, *_ = lstsq(lhs, chroma(strided(cm.decode(hdr))), rcond=None)
        assert np.max(np.abs(coef - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("frame,tag", [
        ("ref", cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.GAMMA709, cm.PQ_PEAK_NITS)),
        ("ref", cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.PQ, cm.PQ_PEAK_NITS)),
        ("sdr", cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)),
        ("sdr", cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.GAMMA709, 100.0)),
    ], ids=["gamma709", "bt709", "sdr-pq", "sdr-bt2020"])
    def test_rejects_reference_not_pq_bt2020(self, frame, tag):
        # every band is decoded by its frame's tag, so the fit must refuse a frame of
        # another format, the SDR frame as well as the reference
        pair = dict(zip(("sdr", "ref"), seeded_pair(0, 64, 64)))
        pair[frame] = pair[frame].with_pixels(pair[frame].pixels, tag)
        with pytest.raises(TagError):
            cli.fit_expand(pair["sdr"], pair["ref"], cli.load_config())

    def test_peak_memory_is_bounded(self):
        # the fit's samples and one band's temporaries at a time; each band is
        # dropped once made, and the inputs are made before tracing starts
        ref = synthetic_hdr(size=960)
        sdr = cm.TaggedImage(ref.pixels.copy(), SDR_TAG)
        cfg = cli.load_config()
        tracemalloc.start()
        try:
            band, *_ = cli.fit_expand(sdr, ref, cfg)
            tc.map_row_bands(band, 960, 960)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * ref.pixels.nbytes

    def test_command_peak_memory_is_bounded(self, tmp_path, monkeypatch, capsys):
        # a 960 x 960 pair in 30 bands of 32 rows on one thread. The inputs
        # are read and the output written band by band, and no array covers
        # the frame. A float64 Y, B - Y, R - Y buffer for a second pass would
        # add one frame, and a whole float32 output half of one
        sdr, src, frame = write_command_pair(tmp_path)
        monkeypatch.setenv("LUMAFLUX_THREADS", "1")
        peak = command_peak(["fit-expand", sdr, src, "--output", str(tmp_path / "x.pfm")])
        assert peak <= 0.4 * frame

    def test_frame_below_min_samples_is_io_error(self, tmp_path, capsys):
        sdr, src = write_fit_pair(tmp_path, size=7)
        before = files_under(tmp_path)
        assert cli.main(["fit-expand", sdr, src, "--output", str(tmp_path / "x.pfm")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read") and "(7, 7, 3)" in captured.err
        assert files_under(tmp_path) == before

    def test_failed_sidecar_write_leaves_no_frame(self, tmp_path, capsys):
        sdr, src = write_fit_pair(tmp_path)
        out = tmp_path / "out"
        (out / "expanded.json").mkdir(parents=True)
        assert cli.main(["fit-expand", sdr, src, "--output", str(out / "expanded.pfm")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("I/O failure")
        assert os.listdir(out) == ["expanded.json"]

    def test_extent_mismatch_is_io_error(self, tmp_path, capsys):
        a = write_hdr(tmp_path / "a.pfm", size=32)
        b = write_hdr(tmp_path / "b.pfm", size=64)
        rc = cli.main(["fit-expand", a, b, "--output", str(tmp_path / "x.pfm")])
        assert rc == 2


class TestFitPairs:
    """fit_pairs decodes only the pixels the fit and the chroma solve read, each as a
    whole-frame decode would."""

    # (extent, fit_samples, every other row as a non-contiguous view, stride)
    @pytest.mark.parametrize("extent,fit_samples,view,stride", [
        ((1, 64), None, False, 1), ((100, 48), None, False, 1), ((150, 45), None, False, 1),
        ((256, 130), None, False, 2), ((150, 45), 1000, False, 6), ((300, 90), 1000, True, 13)])
    def test_equal_strided_whole_frame_luma(self, extent, fit_samples, view, stride):
        sdr, hdr = seeded_pair(3, *extent)
        if view:
            sdr, hdr = (img.with_pixels(img.pixels[::2]) for img in (sdr, hdr))
            assert not sdr.pixels.flags.c_contiguous
        cfg = cli.load_config(overrides={"fit_samples": fit_samples})
        h, w, _ = sdr.pixels.shape
        assert max(1, h * w // cfg["fit_samples"]) == stride
        wide, ref = ft.linearize_sdr(sdr), cm.decode(hdr)
        want = (cm.luma2020(wide).reshape(-1)[::stride],
                np.clip(cm.luma2020(ref) / cfg["peak_nits"], 0.0, 1.0).reshape(-1)[::stride],
                wide.pixels.reshape(1, -1, 3)[:, ::stride],
                ref.pixels.reshape(1, -1, 3)[:, ::stride])
        y_sdr, y_ref, sdr_lin, ref_lin = cli.fit_pairs(sdr, hdr, cfg)
        assert (sdr_lin.tag, ref_lin.tag) == (wide.tag, ref.tag)
        got = (y_sdr, y_ref, sdr_lin.pixels, ref_lin.pixels)
        assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]


class TestMetrics:
    def test_report_schema(self, tmp_path, hdr_frame, capsys):
        rc = cli.main(["metrics", hdr_frame, hdr_frame])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["psnr_pu21"] == 99.0
        assert doc["delta_e_itp_mean"] == 0.0
        assert doc["schema_version"] == 2
        assert sorted(doc) == ["delta_e_itp_mean", "peak_nits", "psnr_pu21", "psnr_y_pu21",
                               "pu21_variant", "schema_version"]

    def test_output_file(self, tmp_path, hdr_frame, capsys):
        dst = tmp_path / "report.json"
        assert cli.main(["metrics", hdr_frame, hdr_frame, "--output", str(dst)]) == 0
        assert json.loads(dst.read_text())["pu21_variant"] == "banding_glare"

    def test_missing_file(self, tmp_path, hdr_frame, capsys):
        assert cli.main(["metrics", hdr_frame, str(tmp_path / "nope.pfm")]) == 2

    def test_command_peak_memory_is_bounded(self, tmp_path, monkeypatch, capsys):
        # both 960 x 960 frames are read band by band, 32 rows at a time on
        # one thread: 0.25 float64 frames of band temporaries. Either input
        # held whole as float32 would add half a frame
        _, src, frame = write_command_pair(tmp_path)
        monkeypatch.setenv("LUMAFLUX_THREADS", "1")
        assert command_peak(["metrics", src, src]) <= 0.4 * frame

    def test_non_finite_sample_is_numerical_failure(self, tmp_path, nan_frame, capsys):
        clean = str(tmp_path / "clean.pfm")
        pfm.write_tagged(clean, synthetic_hdr(size=64), seed=7)
        dst = tmp_path / "report.json"
        for ref, test in ((clean, nan_frame), (nan_frame, clean)):
            assert cli.main(["metrics", ref, test, "--output", str(dst)]) == 4
            assert capsys.readouterr().out == ""
        assert not dst.exists()


def run_fit_expand_and_metrics(tmp_path, sdr, hdr, name):
    """fit-expand, then metrics on its output, into tmp_path/name; returns {file: bytes}."""
    out = tmp_path / name
    out.mkdir()
    assert cli.main(["fit-expand", sdr, hdr, "--output", str(out / "expanded.pfm")]) == 0
    assert cli.main(["metrics", hdr, str(out / "expanded.pfm"),
                     "--output", str(out / "report.json")]) == 0
    # the printed output names the output path, which differs per run
    return {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}


class TestRowBands:
    """fit-expand, metrics and features run their per-pixel stages over tensorcore row bands."""

    @pytest.mark.parametrize("band_rows", [None, 64, 16, 5])
    def test_pinned_bytes_at_any_thread_count(self, tmp_path, band_rows, monkeypatch, capsys):
        # the pins were recorded from whole-frame stages; the default band
        # height (None) and 64 cover the 64x64 frame in one band, and 16 and
        # 5 split it into 4 and 13 bands
        sdr, src = write_fit_pair(tmp_path)
        fix_band_rows(monkeypatch, band_rows)
        runs = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("LUMAFLUX_THREADS", threads)
            runs.append(run_fit_expand_and_metrics(tmp_path, sdr, src, f"t{threads}"))
            digests = {name: hashlib.sha256(runs[-1][name]).hexdigest()
                       for name in FIT_EXPAND_SHA256}
            assert digests == FIT_EXPAND_SHA256
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("extent", [(1, 64), (100, 48)])
    def test_edge_extents_equal_one_whole_frame_band(self, tmp_path, extent, monkeypatch,
                                                     capsys):
        # one row, and a height that is not a multiple of the band height
        sdr, src = write_fit_pair(tmp_path, extent=extent)
        fix_band_rows(monkeypatch, 10**6)
        monkeypatch.setenv("LUMAFLUX_THREADS", "1")
        whole = run_fit_expand_and_metrics(tmp_path, sdr, src, "whole")
        for band_rows in (None, 64):
            fix_band_rows(monkeypatch, band_rows)
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("LUMAFLUX_THREADS", threads)
                run = run_fit_expand_and_metrics(tmp_path, sdr, src, f"{band_rows}_{threads}")
                assert run == whole, (band_rows, threads)

    @pytest.mark.parametrize("frame,value", [("sdr", 1.5), ("sdr", np.nan), ("ref", -0.25),
                                             ("ref", np.nan)])
    def test_fit_expand_domain_error_in_last_band(self, tmp_path, frame, value, monkeypatch,
                                                  capsys):
        sdr, src = write_fit_pair(tmp_path, extent=(200, 64))
        fix_band_rows(monkeypatch, 64)  # bands of 64, 64, 64 and 8 rows
        path = {"sdr": sdr, "ref": src}[frame]
        img = pfm.read_tagged(path)
        px = img.pixels.copy()
        px[197, 5, 1] = value
        pfm.write_tagged(path, img.with_pixels(px))
        monkeypatch.setenv("LUMAFLUX_THREADS", "2")
        before = files_under(tmp_path)
        assert cli.main(["fit-expand", sdr, src, "--output", str(tmp_path / "x.pfm")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: encoded sample outside [0,1] "
                                "at pixel (197, 5, 1)\n")
        assert files_under(tmp_path) == before

    def test_fit_expand_names_the_sdr_frame_when_both_are_bad(self, tmp_path, monkeypatch,
                                                               capsys):
        # the SDR frame is checked first, as a whole-frame check of it would
        # fail, though the reference fails in an earlier band
        sdr, src = write_fit_pair(tmp_path, extent=(200, 64))
        fix_band_rows(monkeypatch, 64)  # bands of 64, 64, 64 and 8 rows
        for path, pixel, value in ((sdr, (197, 5, 1), 1.5), (src, (3, 5, 1), np.nan)):
            img = pfm.read_tagged(path)
            px = img.pixels.copy()
            px[pixel] = value
            pfm.write_tagged(path, img.with_pixels(px))
        monkeypatch.setenv("LUMAFLUX_THREADS", "2")
        assert cli.main(["fit-expand", sdr, src, "--output", str(tmp_path / "x.pfm")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: encoded sample outside [0,1] "
                                "at pixel (197, 5, 1)\n")

    @pytest.mark.parametrize("value", [1.5, np.nan])
    def test_features_domain_error_in_last_band(self, tmp_path, value, monkeypatch, capsys):
        sdr, _ = write_fit_pair(tmp_path, extent=(200, 64))
        fix_band_rows(monkeypatch, 64)  # bands of 64, 64, 64 and 8 rows
        img = pfm.read_tagged(sdr)
        px = img.pixels.copy()
        px[197, 5, 1] = value
        pfm.write_tagged(sdr, img.with_pixels(px))
        monkeypatch.setenv("LUMAFLUX_THREADS", "2")
        before = files_under(tmp_path)
        assert cli.main(["features", sdr, "--dump-maps"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: encoded sample outside [0,1] "
                                "at pixel (197, 5, 1)\n")
        assert files_under(tmp_path) == before

    def test_first_of_two_bad_bands_is_named(self, tmp_path, monkeypatch, capsys):
        # the first failing band in row order names its first bad pixel, which is
        # the frame's first, at any band height and thread count
        sdr, src = write_fit_pair(tmp_path, extent=(200, 64))
        for path in (sdr, src):
            img = pfm.read_tagged(path)
            px = img.pixels.copy()
            px[70, 2, 0] = 1.5
            px[197, 5, 1] = np.nan
            pfm.write_tagged(path, img.with_pixels(px))
        before = files_under(tmp_path)
        for argv in (["synthesize", src, "--output-dir", str(tmp_path / "out")],
                     ["features", sdr, "--dump-maps"]):
            for band_rows in (None, 64, 16):
                fix_band_rows(monkeypatch, band_rows)
                for threads in ("1", "3"):
                    monkeypatch.setenv("LUMAFLUX_THREADS", threads)
                    assert cli.main(argv) == 4
                    captured = capsys.readouterr()
                    assert captured.out == ""
                    assert captured.err == ("numerical failure: encoded sample outside [0,1] "
                                            "at pixel (70, 2, 0)\n"), (argv[0], band_rows, threads)
                    assert files_under(tmp_path) == before

    def test_clean_inputs_are_read_band_by_band_once(self, tmp_path, monkeypatch, capsys):
        # metrics, features and synthesize range-check each band in the pass that
        # decodes it; fit-expand reads its SDR frame once to check it and gather its
        # samples, then again to expand it, and its reference only the first time
        sdr, src = write_fit_pair(tmp_path, extent=(200, 64))
        fix_band_rows(monkeypatch, 64)  # bands of 64, 64, 64 and 8 rows
        monkeypatch.setenv("LUMAFLUX_THREADS", "2")
        reads = []
        band = pfm.PfmFrame.band

        def counted(frame, rows):
            reads.append((os.path.basename(frame.path), rows.indices(frame.shape[0])[:2]))
            return band(frame, rows)

        monkeypatch.setattr(pfm.PfmFrame, "band", counted)
        config = tmp_path / "one.json"
        config.write_text('{"tmos": [{"kind": "Reinhard", "params": {}}], "crfs": [23]}')
        edges = [(0, 64), (64, 128), (128, 192), (192, 200)]
        expanded = str(tmp_path / "x.pfm")
        for argv, want in (
                (["fit-expand", sdr, src, "--output", expanded], {"sdr.pfm": 2, "hdr.pfm": 1}),
                (["metrics", src, expanded], {"hdr.pfm": 1, "x.pfm": 1}),
                (["features", sdr], {"sdr.pfm": 1}),
                (["synthesize", src, "--config", str(config), "--output-dir",
                  str(tmp_path / "synth")], {"hdr.pfm": 1})):
            reads.clear()
            assert cli.main(argv) == 0
            assert sorted(reads) == sorted((name, rows) for name, times in want.items()
                                           for rows in edges for _ in range(times)), argv[0]
        capsys.readouterr()

    @pytest.mark.parametrize("ref_bad,test_bad", [((197, 5, 1), None), (None, (197, 5, 1)),
                                                  ((197, 5, 1), (3, 5, 1))])
    def test_metrics_domain_error_in_last_band(self, tmp_path, ref_bad, test_bad, monkeypatch,
                                               capsys):
        # bands of 160 and 40 rows; with both frames bad, the reference is
        # checked first and named, as a whole-frame decode of it would be,
        # though the test frame fails in band 0
        hdr = synthetic_hdr(size=200)
        paths = []
        for name, pixel, value in (("ref", ref_bad, np.nan), ("test", test_bad, 1.25)):
            px = hdr.pixels.copy()
            if pixel is not None:
                px[pixel] = value
            paths.append(str(tmp_path / f"{name}.pfm"))
            pfm.write_tagged(paths[-1], hdr.with_pixels(px))
        monkeypatch.setenv("LUMAFLUX_THREADS", "2")
        dst = tmp_path / "report.json"
        before = files_under(tmp_path)
        assert cli.main(["metrics", *paths, "--output", str(dst)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: encoded sample outside [0,1] "
                                "at pixel (197, 5, 1)\n")
        assert files_under(tmp_path) == before


class TestFeatures:
    def test_descriptor_json(self, tmp_path, hdr_frame, capsys):
        out = tmp_path / "out"
        cli.main(["synthesize", hdr_frame, "--output-dir", str(out)])
        capsys.readouterr()
        sdr = sorted(str(out / f) for f in os.listdir(out) if f.endswith(".pfm"))[0]
        rc = cli.main(["features", sdr])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["s_g"]) == 4
        assert len(doc["r"]) == 8
        assert doc["s_g"][2] <= doc["s_g"][3]
        assert min(doc["r"]) >= 0.0

    def test_wrong_tag_fails(self, tmp_path, hdr_frame, capsys):
        # an HDR frame is not the SDR frame features reads: an unusable input
        rc = cli.main(["features", hdr_frame])
        assert rc == 2

    def test_command_peak_memory_is_bounded(self, tmp_path, monkeypatch, capsys):
        # the 960 x 960 frame is read band by band; the three maps (one
        # float64 frame together) and the spectral bands' whole-frame planes
        # set the peak at 2.06 frames. The input held whole as float32 would
        # add half a frame
        sdr, _, frame = write_command_pair(tmp_path)
        monkeypatch.setenv("LUMAFLUX_THREADS", "1")
        assert command_peak(["features", sdr]) <= 2.3 * frame


class TestMalformedInput:
    @pytest.mark.parametrize("damage", ["truncated", "bad_json", "no_tag", "nan_peak", "inf_peak",
                                        "bool_peak", "str_peak", "deep_json", "long_magic",
                                        "long_dims"])
    @pytest.mark.parametrize("command", ["synthesize", "fit-expand", "metrics", "features"])
    def test_is_io_error(self, tmp_path, command, damage, capsys):
        # each command's own (first) input kind, so only the damage can fail it
        tag = (SDR_TAG if command in ("features", "fit-expand") else
               cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS))
        bad = damaged_frame(tmp_path / "bad.pfm", damage, tag=tag)
        argv = {
            "synthesize": ["synthesize", bad, "--output-dir", str(tmp_path / "o")],
            "fit-expand": ["fit-expand", bad, bad, "--output", str(tmp_path / "x.pfm")],
            "metrics": ["metrics", bad, bad],
            "features": ["features", bad],
        }[command]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read" in captured.err


def write_tagged_frame(path, transfer, primaries, size=64):
    """A clean frame of one colour space; only its tag and extent can fail a command."""
    pixels = np.full((size, size, 3), 0.25)
    tag = cm.ColorSpaceTag(primaries, transfer,
                           100.0 if transfer is cm.Transfer.GAMMA709 else cm.PQ_PEAK_NITS)
    pfm.write_tagged(str(path), cm.TaggedImage(pixels, tag))
    return str(path)


PQ2020 = (cm.Transfer.PQ, cm.Primaries.BT2020)
G709 = (cm.Transfer.GAMMA709, cm.Primaries.BT709)
LIN2020 = (cm.Transfer.LINEAR, cm.Primaries.BT2020)
PQP3 = (cm.Transfer.PQ, cm.Primaries.P3)

# (command, format of the frame under test, its extent, what stderr names):
# every command reads each input in one colour space, and metrics reads two
# frames of one extent, as fit-expand does
MISMATCHED_INPUTS = [
    ("synthesize", G709, 64, "expected a PQ/BT2020 frame, got Gamma709/BT709"),
    ("synthesize", LIN2020, 64, "expected a PQ/BT2020 frame, got Linear/BT2020"),
    ("features", PQ2020, 64, "expected a Gamma709/BT709 frame, got PQ/BT2020"),
    ("fit-expand sdr", PQ2020, 64, "expected a Gamma709/BT709 frame, got PQ/BT2020"),
    ("fit-expand ref", G709, 64, "expected a PQ/BT2020 frame, got Gamma709/BT709"),
    ("fit-expand ref", LIN2020, 64, "expected a PQ/BT2020 frame, got Linear/BT2020"),
    ("fit-expand ref", PQP3, 64, "expected a PQ/BT2020 frame, got PQ/P3"),
    ("metrics", G709, 64, "expected a PQ/BT2020 frame, got Gamma709/BT709"),
    ("metrics", LIN2020, 64, "expected a PQ/BT2020 frame, got Linear/BT2020"),
    ("metrics", PQ2020, 32, "extent (64, 64, 3) differs from"),
]


class TestMismatchedInput:
    @pytest.mark.parametrize("command,fmt,size,message", MISMATCHED_INPUTS,
                             ids=[f"{c}-{f[0].value}/{f[1].value}-{n}"
                                  for c, f, n, _ in MISMATCHED_INPUTS])
    def test_is_io_error_naming_file_and_tags(self, tmp_path, command, fmt, size, message,
                                              capsys):
        bad = write_tagged_frame(tmp_path / "bad.pfm", *fmt, size=size)
        sdr = write_tagged_frame(tmp_path / "sdr.pfm", *G709)
        hdr = write_tagged_frame(tmp_path / "hdr.pfm", *PQ2020)
        out = tmp_path / "out"
        argv = {
            "synthesize": ["synthesize", bad, "--output-dir", str(out)],
            "features": ["features", bad],
            "fit-expand sdr": ["fit-expand", bad, hdr, "--output", str(out / "x.pfm")],
            "fit-expand ref": ["fit-expand", sdr, bad, "--output", str(out / "x.pfm")],
            "metrics": ["metrics", hdr, bad, "--output", str(out / "r.json")],
        }[command]
        before = files_under(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read")
        assert message in captured.err
        assert bad in captured.err
        assert files_under(tmp_path) == before


def files_under(root):
    """Every directory under `root`, and every file with the SHA-256 of its bytes."""
    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    return {(d, f, digest(os.path.join(d, f)))
            for d, _, names in os.walk(root) for f in names} | {d for d, _, _ in os.walk(root)}


# (command, config file text or None, fault, exit code): malformed configs, a
# bad LUMAFLUX_THREADS, unusable outputs and configs that leave nothing to fit,
# each of which must exit 2, 3 or 4 with no traceback and no output
BAD_RUNS = [
    ("synthesize", '{"crfs": [null]}', None, 3),
    ("synthesize", '{"tmos": [{"kind": "Reinhard", "params": 5}]}', None, 3),
    ("synthesize", '{"seed": "x"}', None, 3),
    ("synthesize", '{"tmos": "Reinhard"}', None, 3),
    ("synthesize", "[1, 2]", None, 3),
    ("synthesize", '{"tmos": [{"kind": "Reinhard", "params": {"peak_in_nits": "5"}}]}', None, 3),
    ("synthesize", "{bad", None, 3),
    ("synthesize", '{"output_dir": "from_config"}', None, 3),
    ("fit-expand", '{"fit_samples": "abc"}', None, 3),
    ("features", '{"k_bands": "x"}', None, 3),
    ("fit-expand", '{"fit_samples": 0}', None, 3),
    ("fit-expand", '{"fit_samples": 63}', None, 3),
    ("synthesize", None, "missing_config", 2),
    ("synthesize", None, "output_is_file", 2),
    ("fit-expand", '{"fit_iterations": 10}', "no_output_dir", 2),
    ("metrics", None, "no_output_dir", 2),
    ("synthesize", '{"tmos": [{"kind": "Reinhard", "params": {"peak_in_nit": 5}}]}', None, 3),
    ("synthesize", '{"tmos": [{"kind": "Reinhard", "params": {"peak_in_nits": -5}}]}', None, 3),
    ("fit-expand", '{"peak_nits": -1000}', None, 3),
    ("fit-expand", '{"fit_iterations": -5}', None, 3),
    ("fit-expand", '{"spline_knots": 8.5}', None, 3),
    ("fit-expand", '{"spline_knots": 1000}', None, 3),
    ("synthesize", None, "LUMAFLUX_THREADS=abc", 3),
    ("synthesize", None, "LUMAFLUX_THREADS=0", 3),
    ("synthesize", None, "LUMAFLUX_THREADS=-2", 3),
    ("fit-expand", None, "LUMAFLUX_THREADS=abc", 3),
    ("fit-expand", None, "LUMAFLUX_THREADS=0", 3),
    ("fit-expand", None, "LUMAFLUX_THREADS=-2", 3),
    ("metrics", None, "LUMAFLUX_THREADS=abc", 3),
    ("metrics", None, "LUMAFLUX_THREADS=0", 3),
    ("metrics", None, "LUMAFLUX_THREADS=-2", 3),
    ("features", None, "LUMAFLUX_THREADS=abc", 3),
    ("features", None, "LUMAFLUX_THREADS=0", 3),
    ("features", None, "LUMAFLUX_THREADS=-2", 3),
    ("fit-expand", '{"crfs": [24]}', None, 3),
    ("features", '{"crfs": [24]}', None, 3),
    ("features", f'{{"k_bands": {ft.MAX_K_BANDS + 1}}}', None, 3),
    # operators that once exited 0 and wrote NaN frames, refused before the output
    # directory is made
    ("synthesize", '{"tmos": [{"kind": "Reinhard", "params": {"peak_in_nits": 1e-320}}], '
     '"crfs": [23]}', "no_output_dir", 3),
    ("synthesize", '{"tmos": [{"kind": "BT2446A", "params": {"peak_in_nits": 1e-320}}]}',
     "no_output_dir", 3),
    ("synthesize", '{"tmos": [{"kind": "BT2446A", "params": {"peak_out_nits": 1e-320}}]}',
     "no_output_dir", 3),
    ("synthesize", '{"tmos": [{"kind": "ExpertStub", "params": {"gamma": -1e308, "mix": 1}}]}',
     "no_output_dir", 3),
    # a peak below every reference luminance clips every fit target to 1; such runs once
    # exited 0 with an expanded frame fitted to constant targets, and now fail the fit
    ("fit-expand", '{"peak_nits": 0.001}', None, 4),
    ("fit-expand", '{"peak_nits": 1e-320}', None, 4),
    # outputs at an input's name, or a frame at its own sidecar's name, which once
    # replaced the input or the frame and exited 0
    ("fit-expand", None, "output_is_sdr", 3),
    ("fit-expand", "{}", "output_beside_config", 3),
    ("metrics", None, "output_is_hdr", 3),
    ("fit-expand", None, "output_is_own_sidecar", 3),
]


class TestBadConfigOrOutput:
    @pytest.mark.parametrize("command,config,fault,code", BAD_RUNS)
    def test_exit_code_and_no_output(self, tmp_path, command, config, fault, code, capsys,
                                     monkeypatch):
        hdr = write_hdr(tmp_path / "hdr.pfm")
        sdr = str(tmp_path / "sdr.pfm")
        op = tm.ToneOperator(tm.ToneKind.REINHARD, {})
        pfm.write_tagged(sdr, tm.degrade(pfm.read_tagged(hdr), tm.DegradationSpec(op, 23)))
        out = tmp_path / "out"
        if fault == "output_is_file":
            out.write_text("")
        elif fault != "no_output_dir":
            out.mkdir()
        argv = {
            "synthesize": ["synthesize", hdr, "--output-dir", str(out)],
            "fit-expand": ["fit-expand", sdr, hdr, "--output", str(out / "x.pfm")],
            "metrics": ["metrics", hdr, hdr, "--output", str(out / "r.json")],
            "features": ["features", sdr],
        }[command]
        outputs = {"output_is_sdr": sdr, "output_is_hdr": hdr,
                   "output_beside_config": str(tmp_path / "cfg.pfm"),  # its sidecar: the config
                   "output_is_own_sidecar": str(out / "x.json")}
        if fault in outputs:
            argv[-1] = outputs[fault]
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv += ["--config", str(tmp_path / "cfg.json")]
        elif fault == "missing_config":
            argv += ["--config", str(tmp_path / "missing.json")]
        elif fault and fault.startswith("LUMAFLUX_THREADS="):
            monkeypatch.setenv(*fault.split("=", 1))
        before = files_under(tmp_path)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        label = {3: "config error", 4: "numerical failure"}.get(code, ("cannot read",
                                                                       "I/O failure"))
        assert captured.err.startswith(label)
        assert files_under(tmp_path) == before


# (command, an output name a directory is put at): every output of every
# command, with synthesize's first, second and last frame and sidecar
OUTPUT_NAMES = [
    ("synthesize", "out/sdr_000_Reinhard_crf23.pfm"),
    ("synthesize", "out/sdr_001_Reinhard_crf31.pfm"),
    ("synthesize", "out/sdr_001_Reinhard_crf31.json"),
    ("synthesize", "out/sdr_023_ExpertStub_crf39.json"),
    ("fit-expand", "out/x.pfm"),
    ("fit-expand", "out/x.json"),
    ("fit-expand", "out/x.pfm.rqs.json"),
    ("fit-expand", "out/x.pfm.trace.csv"),
    ("metrics", "out/r.json"),
    ("features", "sdr.features.pfm"),
]


class TestFailedOutput:
    @pytest.mark.parametrize("command,name", OUTPUT_NAMES,
                             ids=[f"{c}-{n.split('/')[-1]}" for c, n in OUTPUT_NAMES])
    def test_leaves_only_the_colliding_directory(self, tmp_path, command, name, capsys):
        # each run writes every output, then fails to rename the one at `name`
        hdr = write_hdr(tmp_path / "hdr.pfm")
        sdr = str(tmp_path / "sdr.pfm")
        op = tm.ToneOperator(tm.ToneKind.REINHARD, {})
        pfm.write_tagged(sdr, tm.degrade(pfm.read_tagged(hdr), tm.DegradationSpec(op, 23)))
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / name).mkdir()
        argv = {
            "synthesize": ["synthesize", hdr, "--output-dir", str(out)],
            "fit-expand": ["fit-expand", sdr, hdr, "--output", str(out / "x.pfm")],
            "metrics": ["metrics", hdr, hdr, "--output", str(out / "r.json")],
            "features": ["features", sdr, "--dump-maps"],
        }[command]
        before = files_under(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("I/O failure")
        assert files_under(tmp_path) == before
        assert os.listdir(tmp_path / name) == []
        if name.startswith("out/"):
            assert os.listdir(out) == [os.path.basename(name)]


class TestLoadConfig:
    def test_defaults_pass(self):
        assert cli.load_config() == cli.DEFAULT_CONFIG

    def test_fit_defaults_are_the_library_defaults(self):
        cfg = cli.load_config()
        fit = rqs.FitConfig()
        assert (cfg["lambda_smooth"], cfg["fit_iterations"]) == (fit.lambda_smooth, fit.iterations)

    def test_values_kept_as_given(self, tmp_path):
        doc = {"peak_nits": 1000, "crfs": [39, 23], "fit_samples": 4096}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        cfg = cli.load_config(str(tmp_path / "cfg.json"))
        assert {k: cfg[k] for k in doc} == doc
        assert isinstance(cfg["peak_nits"], int)

    @pytest.mark.parametrize("doc", [
        {"lambda_rgb": 0.0}, {"seed": True}, {"peak_nits": 10001.0}, {"peak_nits": 0},
        {"lambda_smooth": -1e-3}, {"k_bands": 0}, {"feature_seed": -1}, {"tmos": []},
        {"crfs": [23.0]}, {"output_dir": 5}, {"tmos": [{"kind": "Reinhard", "param": {}}]},
        {"lambda_l1": 1.0}, {"k_bands": 10**13}, {"crfs": [23, 24]},
    ])
    def test_rejects(self, tmp_path, doc):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            cli.load_config(str(tmp_path / "cfg.json"))

    @pytest.mark.parametrize("text", ['{"lambda_smooth": NaN}', "[" * 100000 + "]" * 100000])
    def test_rejects_text(self, tmp_path, text):
        (tmp_path / "cfg.json").write_text(text)
        with pytest.raises(ConfigError):
            cli.load_config(str(tmp_path / "cfg.json"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
PARAM_NAMES = sorted({name for curve in tm._CURVES.values() for name in curve.__kwdefaults__})
TMO_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from([k.value for k in tm.ToneKind]) | JSON_VALUES},
    optional={"params": st.dictionaries(st.sampled_from(PARAM_NAMES) | st.text(max_size=4),
                                        JSON_VALUES | st.floats(0.0, 2e4), max_size=3)
              | JSON_VALUES},
) | JSON_VALUES
CONFIG_DOCS = st.dictionaries(
    st.sampled_from(sorted(cli.DEFAULT_CONFIG)) | st.text(max_size=8),
    JSON_VALUES | st.lists(TMO_DOCS, max_size=3) | st.integers(-2, 40) | st.floats(-1.0, 2e4),
    max_size=4,
) | JSON_VALUES


@settings(max_examples=150, deadline=None)
@given(doc=CONFIG_DOCS, tmo=TMO_DOCS)
def test_config_and_operator_parsing_raise_only_config_error(tmp_path_factory, doc, tmo):
    path = tmp_path_factory.getbasetemp() / "property_cfg.json"
    path.write_text(json.dumps(doc))
    for parse, arg in ((cli.load_config, str(path)), (tm.ToneOperator.from_json, tmo)):
        try:
            parse(arg)
        except ConfigError:
            pass


class TestArgParsing:
    def test_bad_flag_exits_config_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synthesize", "--bogus-flag"])
        assert exc.value.code == 3
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 3

    def test_non_pq_input_rejected(self, tmp_path, capsys):
        tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
        img = cm.TaggedImage(np.zeros((8, 8, 3)), tag)
        src = str(tmp_path / "sdr.pfm")
        pfm.write_tagged(src, img)
        rc = cli.main(["synthesize", src, "--output-dir", str(tmp_path / "o")])
        assert rc == 2


# after cli.main, a freed 4 MB array is reused from the heap, not mapped again: the
# second round's minor page faults go to stderr
HEAP_ROUNDS = """
import resource, sys
import numpy as np
from lumaflux import cli

try:
    cli.main(["--version"])
except SystemExit:
    pass

def round_trip():
    a = np.empty((4 << 20) // 8)
    a.fill(1.0)
    del a

round_trip()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
round_trip()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_main_keeps_freed_band_memory_on_the_heap():
    # glibc's own defaults, not the environment's, are what cli.main replaces
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                         env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", HEAP_ROUNDS], env=env, capture_output=True,
                         text=True, check=True)
    assert int(run.stderr) < 50


ARENA_ROUNDS = """
import ctypes, os, re, sys, threading
import numpy as np
from lumaflux import cli

try:
    cli.main(["--version"])
except SystemExit:
    pass

threads = len(os.sched_getaffinity(0)) + 2
barrier = threading.Barrier(threads)

def work():
    band = np.ones(1 << 17)  # 1 MiB, below the mmap threshold: from the thread's heap
    barrier.wait()
    del band

for _ in range(3):
    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout=60)
        assert not t.is_alive()

libc = ctypes.CDLL(None)
libc.open_memstream.restype = ctypes.c_void_p
libc.open_memstream.argtypes = (ctypes.POINTER(ctypes.c_char_p), ctypes.POINTER(ctypes.c_size_t))
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)
text, size = ctypes.c_char_p(), ctypes.c_size_t()
stream = libc.open_memstream(ctypes.byref(text), ctypes.byref(size))
libc.malloc_info(0, stream)
libc.fclose(stream)
print(len(re.findall(rb"<heap nr=", text.value)), file=sys.stderr)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the arenas are glibc's")
def test_main_caps_the_heaps_at_one_per_core_and_the_main_threads():
    # more threads alive at once than cores, in three pools one after another:
    # glibc's default would give each thread a heap of its own
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                         env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", ARENA_ROUNDS], env=env, capture_output=True,
                         text=True, check=True)
    assert int(run.stderr) <= len(os.sched_getaffinity(0)) + 1


class TestAdapterDemo:
    def test_report_passes(self, capsys):
        rc = cli.main(["adapter-demo"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backbone_preservation"] is True
        assert doc["rank_ok"] is True
        assert doc["gradients"]["passed"] is True
        assert doc["svd_tail_beyond_rank"] <= 1e-9

    @pytest.mark.parametrize("flags", ["--width 0", "--width -4", "--width 6", "--tokens 0",
                                       "--tokens -1", "--rank 0", "--rank -1", "--seed -1"])
    def test_out_of_range_flag_is_config_error(self, flags, capsys):
        assert cli.main(["adapter-demo", *flags.split()]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", ["--width 40000", "--tokens 1000000", "--rank 1000000000",
                                       "--width 840", "--width 4 --tokens 1500"])
    def test_size_over_budget_is_config_error(self, flags, monkeypatch, capsys):
        # refused by ToyBlockConfig's arithmetic, before any array is drawn
        def no_arrays(*args, **kwargs):
            raise AssertionError("an over-budget size reached an allocation")

        monkeypatch.setattr(ad.BackboneWeights, "seeded", no_arrays)
        assert cli.main(["adapter-demo", *flags.split()]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error") and "byte budget" in captured.err

    @pytest.mark.parametrize("flags", ["--width 16 --tokens 12 --rank 2",
                                       "--width 12 --tokens 5 --rank 3",
                                       "--width 4 --tokens 3 --rank 1"])
    def test_settable_sizes_pass(self, flags, capsys):
        assert cli.main(["adapter-demo", *flags.split()]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backbone_preservation"] and doc["rank_ok"] and doc["gradients"]["passed"]

    @pytest.mark.parametrize("seed", [1, 2, 10, 11, 12])
    def test_seeds_with_small_gradients_pass(self, seed, capsys):
        # small gradients on these seeds fail a check whose step sits at round-off
        assert cli.main(["adapter-demo", "--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out)["gradients"]["passed"] is True
