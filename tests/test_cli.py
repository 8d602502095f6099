import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumaflux import cli
from lumaflux import colorimetry as cm
from lumaflux import features as ft
from lumaflux import pfm
from lumaflux import rqs
from lumaflux import tonemap as tm
from lumaflux.errors import ConfigError
from test_acceptance import synthetic_hdr
from test_pfm import SDR_TAG, damaged_frame

# SHA-256 of the synthesize output tree for the A5 input frame; a change
# that moves it changes output bits and must say why
A5_TREE_SHA256 = "12b955b5b236734b59221d9a7a3728fb864717dbfdd4fd787baf3651ac7a7626"

# SHA-256 of each fit-expand output, default config, for the A5 input frame
# and its Reinhard CRF-23 SDR frame; a change that moves one must say why
FIT_EXPAND_SHA256 = {
    "expanded.pfm": "350df9d1d8d954c30700d4eab64762b7c48f737339d1449de272fd6e4fed232c",
    "expanded.pfm.rqs.json": "481c48abfdbbbc24247ab1c327d161d2449c48cf39ea3c21a55ab311768870a1",
    "expanded.pfm.trace.csv": "fd92b4f9ead47405ab06eca2ab31d74de7d9ec6b83bd2ab0817cc7e593c262f3",
}

# SHA-256 of rqs.warm_start_raw(..., K=8).tobytes() on the sample pairs
# fit-expand fits for the same frames (4,096 pairs, no two luma values
# tied), and on those pairs with luma rounded to 1/256 (4,010 ties), each
# sorted by np.argsort as fit_rqs sorts them
WARM_START_SHA256 = {
    "luma": "80bd7c664536b5415cba99c7ec999b831a725872f0a0d407237384ee842b2e83",
    "luma_1/256": "b11f73ec35f02d79be5781fa61445b2bdb55adb8973dcdcb0ebcf5886e15f6f3",
}


def write_hdr(path, seed=0, size=64, peak=1000.0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.02, 1.0, (size // 8, size // 8, 3))
    nits = np.kron(base, np.ones((8, 8, 1))) * peak
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    pfm.write_tagged(str(path), cm.TaggedImage(cm.pq_encode(nits), tag), seed=seed)
    return str(path)


def write_fit_pair(tmp_path, size=64):
    """The A5 frame at `size` and its Reinhard CRF-23 SDR frame; returns (sdr, hdr) paths."""
    hdr = synthetic_hdr(size=size)
    src = str(tmp_path / "hdr.pfm")
    pfm.write_tagged(src, hdr, seed=7)
    op = tm.ToneOperator(tm.ToneKind.REINHARD, {"peak_in_nits": 1000.0})
    sdr = str(tmp_path / "sdr.pfm")
    pfm.write_tagged(sdr, tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=23)))
    return sdr, src


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

    def test_non_finite_sample_is_numerical_failure(self, tmp_path, nan_frame, capsys):
        out = tmp_path / "out"
        rc = cli.main(["synthesize", nan_frame, "--output-dir", str(out)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pixel (3, 5, 1)" in captured.err
        assert not [f for f in os.listdir(out) if f.endswith(".pfm")]

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
        ref = cm.apply_transfer(pfm.read_tagged(src))
        t = np.clip(cm.luma2020(ref).reshape(-1) / 1000.0, 0.0, 1.0)
        warm_start_raw = rqs.warm_start_raw
        in_fit = []
        monkeypatch.setattr(rqs, "warm_start_raw",
                            lambda *args: in_fit.append(warm_start_raw(*args)) or in_fit[-1])
        digests = {}
        for name, luma in (("luma", y), ("luma_1/256", np.round(y * 256.0) / 256.0)):
            order = np.argsort(luma)
            raw = warm_start_raw(luma[order], t[order], 8)
            digests[name] = hashlib.sha256(raw.tobytes()).hexdigest()
            # fit_rqs breaks ties the same way
            rqs.fit_rqs(luma, t, K=8, cfg=rqs.FitConfig(iterations=1))
            assert np.array_equal(in_fit[-1], raw)
        assert digests == WARM_START_SHA256

    def test_frame_below_min_samples_is_io_error(self, tmp_path, capsys):
        sdr, src = write_fit_pair(tmp_path, size=7)
        before = files_under(tmp_path)
        assert cli.main(["fit-expand", sdr, src, "--output", str(tmp_path / "x.pfm")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot read") and "(7, 7, 3)" in captured.err
        assert files_under(tmp_path) == before

    def test_extent_mismatch_is_io_error(self, tmp_path, capsys):
        a = write_hdr(tmp_path / "a.pfm", size=32)
        b = write_hdr(tmp_path / "b.pfm", size=64)
        rc = cli.main(["fit-expand", a, b, "--output", str(tmp_path / "x.pfm")])
        assert rc == 2


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

    def test_non_finite_sample_is_numerical_failure(self, tmp_path, nan_frame, capsys):
        clean = str(tmp_path / "clean.pfm")
        pfm.write_tagged(clean, synthetic_hdr(size=64), seed=7)
        dst = tmp_path / "report.json"
        for ref, test in ((clean, nan_frame), (nan_frame, clean)):
            assert cli.main(["metrics", ref, test, "--output", str(dst)]) == 4
            assert capsys.readouterr().out == ""
        assert not dst.exists()


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


class TestMalformedInput:
    @pytest.mark.parametrize("damage", ["truncated", "bad_json", "no_tag", "nan_peak", "inf_peak",
                                        "bool_peak", "str_peak", "deep_json"])
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
    return {(d, f, os.path.getsize(os.path.join(d, f)))
            for d, _, names in os.walk(root) for f in names}


# (command, config file text or None, fault, exit code): malformed configs, a
# bad LUMAFLUX_THREADS and unusable outputs, each of which must exit 2 or 3
# with no traceback and no output
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
        label = "config error" if code == 3 else ("cannot read", "I/O failure")
        assert captured.err.startswith(label)
        assert files_under(tmp_path) == before


class TestLoadConfig:
    def test_defaults_pass(self):
        assert cli.load_config() == cli.DEFAULT_CONFIG

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
        {"lambda_l1": 1.0},
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
