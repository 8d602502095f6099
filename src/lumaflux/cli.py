"""Command-line surface: synthesize, fit-expand, metrics, features, adapter-demo.

Exit codes: 0 ok, 2 I/O failure (a missing or malformed input, a frame
tagged with another transfer or primaries than the command reads, frames
of different extents, an unwritable output), 3 invalid config (malformed
JSON, an unknown key, a value of the wrong type or range, an unknown
tone-operator parameter), 4 numerical failure. `main` alone maps
exceptions to codes: OSError -> 2, LumaFluxError -> its `exit_code`.
`--config` takes a JSON object whose keys are those of DEFAULT_CONFIG.
Each frame command writes its outputs as one `pfm.Outputs` set, renamed
into place together once all are written, and prints only after that, so
a run that fails leaves none of its outputs and prints nothing on stdout.
An output that would replace one of the run's inputs (a frame, its sidecar,
the `--config` file) exits 3 and leaves every file as it was.

Every frame command runs its per-pixel stages over row bands
(`tensorcore.map_row_bands`), LUMAFLUX_THREADS of them at once, and holds
no whole input or output frame. `main` sets glibc's mmap and trim
thresholds and its arena count for its own process, so band temporaries
reuse heap pages and do not fault in afresh every pass; library callers
keep their allocator's defaults. Each command that reads a frame opens it
with `pfm.open_tagged` and reads it from disk band by band. `synthesize`,
`metrics` and `features` read each band once, range-checked as
`colorimetry.decode` decodes it, and name an input's first bad pixel, the
reference's first in `metrics`. `fit-expand` reads its SDR frame and
reference once to range-check them and gather its fit samples, and its SDR
frame once more to expand it. `synthesize` adds every output first; each
band is then decoded once, and each operator runs its chain up to one
forward DCT once for all of its CRFs (`tonemap.sdr_bands`), writing each
CRF's band into that CRF's file. No stage draws random numbers: a frame's
seed is provenance in its sidecar only. The spline fit and the chroma least
squares see every stride-th pixel of the frame, each metric mean is a sum
of per-row sums, reduced in row order, and each band of the log-gradient
map reads one row of luminance beyond each of its edges. A band is the most
rows, in a multiple of 8 and at least 8, that hold no more than
`tensorcore.BAND_PIXELS` pixels. Band edges depend only on the frame's
extent, so outputs are byte-identical at any worker count.
"""

import argparse
import contextlib
import ctypes
import json
import os
import sys
# used by no command: perfbench's tracer reads and swaps cli.ThreadPoolExecutor
# to time pool threads, so the name stays until a run-stats record replaces that tracer
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import __version__
from . import adapters as ad
from . import colorimetry as cm
from . import features as ft
from . import metrics as mt
from . import pfm
from . import rqs
from . import tensorcore as tc
from . import tonemap as tm
from .errors import ConfigError, FrameFormatError, LumaFluxError, TagError

DEFAULT_CONFIG = {
    "tmos": [
        {"kind": "Reinhard", "params": {"peak_in_nits": 1000.0}},
        {"kind": "BT2446A", "params": {}},
        {"kind": "BT2446C_GM", "params": {}},
        {"kind": "HardClipGM", "params": {}},
        {"kind": "BT2390EETF_GM", "params": {}},
        {"kind": "LogC", "params": {}},
        {"kind": "ExpertStub", "params": {"gamma": 0.85}},
        {"kind": "ExpertStub", "params": {"gamma": 1.1, "mix": 0.35}},
    ],
    "crfs": [23, 31, 39],
    "seed": 0,
    "spline_knots": 8,
    "k_bands": 8,
    "peak_nits": 1000.0,
    "lambda_smooth": rqs.FitConfig().lambda_smooth,
    "fit_iterations": rqs.FitConfig().iterations,
    "fit_samples": 16384,
    "feature_seed": 7,
}


# lower bounds beyond the type check; a spline and a band split need two bins
_AT_LEAST = {"spline_knots": 2, "k_bands": 2, "fit_iterations": 1,
             "fit_samples": rqs.MIN_SAMPLES, "feature_seed": 0, "lambda_smooth": 0}


def _conforms(val, like):
    """True when `val` has the JSON type of `like`; an int may stand for a float."""
    if isinstance(like, list):
        return isinstance(val, list) and bool(val) and all(_conforms(v, like[0]) for v in val)
    if isinstance(like, float):
        return cm.is_finite_number(val)
    return isinstance(val, type(like)) and not isinstance(val, bool)


def load_config(path=None, overrides=None):
    """DEFAULT_CONFIG, then the JSON object at `path`, then `overrides`; checked, not rewritten."""
    cfg = dict(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: the config must be a JSON object")
        cfg.update(doc)
    cfg.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    for key, val in cfg.items():
        like = DEFAULT_CONFIG.get(key)
        if like is None:
            raise ConfigError(f"unknown config key {key!r}")
        if not _conforms(val, like):
            sample = like[:1] if isinstance(like, list) else like
            raise ConfigError(f"{key}: expected a value like {json.dumps(sample)}, got {val!r}")
        if key in _AT_LEAST and val < _AT_LEAST[key]:
            raise ConfigError(f"{key} must be >= {_AT_LEAST[key]}, got {val!r}")
    if cfg["spline_knots"] > rqs.MAX_BINS:
        raise ConfigError(f"spline_knots must be <= {rqs.MAX_BINS}, got {cfg['spline_knots']!r}")
    if cfg["k_bands"] > ft.MAX_K_BANDS:
        raise ConfigError(f"k_bands must be <= {ft.MAX_K_BANDS}, got {cfg['k_bands']!r}")
    if not 0 < cfg["peak_nits"] <= cm.PQ_PEAK_NITS:
        raise ConfigError(f"peak_nits must be in (0, 10000], got {cfg['peak_nits']!r}")
    for doc in cfg["tmos"]:
        tm.ToneOperator.from_json(doc)
    for crf in cfg["crfs"]:
        if crf not in tm.VALID_CRF:
            raise ConfigError(f"crfs entries must be one of {tm.VALID_CRF}, got {crf!r}")
    return cfg


def _max_workers():
    """LUMAFLUX_THREADS (default 4); anything but an integer >= 1 is a config error."""
    text = os.environ.get("LUMAFLUX_THREADS", "4")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"LUMAFLUX_THREADS must be an integer >= 1, got {text!r}")
    return workers


HDR_FORMAT = (cm.Transfer.PQ, cm.Primaries.BT2020)
SDR_FORMAT = (cm.Transfer.GAMMA709, cm.Primaries.BT709)
PQ_TAG = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)


def _reads(config, *frames):
    """What a run reads, which none of its outputs may replace: frames, sidecars, --config."""
    paths = [path for frame in frames for path in (frame, pfm.sidecar_path(frame))]
    return paths + [config] if config else paths


@contextlib.contextmanager
def _open_pair(path_a, fmt_a, path_b, fmt_b):
    """Two frames of the given (transfer, primaries) formats, which must share one extent."""
    with pfm.open_tagged(path_a, fmt_a) as a, pfm.open_tagged(path_b, fmt_b) as b:
        if a.shape != b.shape:
            raise FrameFormatError(f"{path_a}: extent {a.shape} differs from "
                                   f"{path_b} {b.shape}")
        yield a, b


def cmd_synthesize(args):
    cfg = load_config(args.config, {"seed": args.seed})
    workers = _max_workers()
    with (pfm.open_tagged(args.hdr_input, HDR_FORMAT) as hdr,
          pfm.Outputs(_reads(args.config, args.hdr_input)) as outputs):
        h, w, _ = hdr.shape
        outputs.directory(args.output_dir)
        paths, jobs = [], []  # jobs: (tone operator, the writer of each of its CRFs' frames)
        for tmo_doc in cfg["tmos"]:
            op = tm.ToneOperator.from_json(tmo_doc)
            outs = []
            for crf in cfg["crfs"]:
                idx = len(paths)
                spec = tm.DegradationSpec(tmo=op, crf=crf, seed=cfg["seed"] ^ idx)
                paths.append(os.path.join(args.output_dir,
                                          f"sdr_{idx:03d}_{op.kind.value}_crf{crf}.pfm"))
                outs.append(outputs.frame(paths[-1], h, w))
                outputs.sidecar(paths[-1], tm.SDR_TAG, seed=spec.seed, config=cfg,
                                extra={"degradation": spec.to_json()})
            jobs.append((op, outs))

        def band(rows):
            # one range-checked decode of the band, read by every operator
            linear = cm.decode(hdr, rows)
            for op, outs in jobs:
                for out, sdr in zip(outs, tm.sdr_bands(linear, op, cfg["crfs"])):
                    out.write(rows, sdr)

        tc.map_row_bands(band, h, w, workers)
    print(json.dumps({"frames": sorted(paths)}, indent=2))
    return 0


def fit_config(cfg):
    """The rqs.FitConfig a loaded config asks for."""
    return rqs.FitConfig(lambda_smooth=cfg["lambda_smooth"], iterations=cfg["fit_iterations"])


def expand_sdr(wide, params, peak_nits):
    """Apply a fitted tone spline to a linearized SDR frame; returns linear BT.2020 nits."""
    y_sdr = cm.luma2020(wide)
    y_hat = rqs.rqs_forward(params, y_sdr)
    ratio = np.where(y_sdr > 1e-8, y_hat / np.maximum(y_sdr, 1e-8), 0.0)
    nits = cm.scale_channels(wide.pixels, ratio)
    nits *= peak_nits
    np.clip(nits, 0.0, cm.PQ_PEAK_NITS, out=nits)
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, cm.PQ_PEAK_NITS)
    return cm.TaggedImage(nits, tag)


def _yuv(img):
    """Luma Y of a linear BT.2020 image, and the chroma lhs [B - Y, R - Y, 1] per pixel, N x 3."""
    y = cm.luma2020(img)
    px = img.pixels
    return y, np.stack([px[..., 2] - y, px[..., 0] - y, np.ones_like(y)], axis=-1).reshape(-1, 3)


def fit_pairs(sdr, ref, cfg):
    """(SDR luma, ref luma / peak_nits, SDR samples, ref samples) at every stride-th pixel.

    fit_rqs fits the luma pairs; the samples are the decoded linear 1 x N
    images they come from. The stride keeps about `fit_samples` pixels. Both
    frames are range-checked here: each is read once, band by band, and a
    band's samples are gathered as it passes its check, so the checks fail
    as whole-frame checks of `sdr`, then `ref`, would. Only the gathered
    pixels are decoded, each exactly as a whole-frame decode would decode it.
    """
    h, w, _ = sdr.shape
    stride = max(1, h * w // cfg["fit_samples"])

    def gather(img):
        # a contiguous 1 x N frame, so every kernel takes the path a whole frame takes;
        # the cast to float64 is exact, and every decode widens float32 samples to it
        samples = np.empty((-(-h * w // stride), 3))

        def visit(rows, band):
            first = -(-rows.start * w // stride)  # flat index first * stride is in this band
            stop = -(-rows.stop * w // stride)
            samples[first:stop] = band.reshape(-1, 3)[first * stride - rows.start * w::stride]

        cm.check_encoded(img, visit)
        return cm.decode(cm.TaggedImage(samples[None], img.tag))

    sdr_lin = gather(sdr)
    ref_lin = gather(ref)
    y_sdr = cm.luma2020(sdr_lin)
    # capped at the peak before the divide, which a tiny peak would overflow; the bits of
    # np.clip(luma / peak, 0.0, 1.0) on nonnegative luma
    peak = cfg["peak_nits"]
    y_ref = np.minimum(cm.luma2020(ref_lin), peak) / peak
    return y_sdr.reshape(-1), y_ref.reshape(-1), sdr_lin, ref_lin


def fit_expand(sdr, ref, cfg):
    """Fit a tone spline from `sdr` to `ref`, and a chroma mix toward `ref`, on their samples.

    `sdr` and `ref` are TaggedImages or open `pfm.PfmFrame`s, read band by
    band: `ref` once, `sdr` once more by each band(rows) call, which returns
    rows `rows` of `sdr` expanded, mixed and PQ-encoded (PQ_TAG). Returns
    (band, params, raw, trace), the last three fit_rqs's. The fit and the
    chroma solve both see the strided samples `fit_pairs` gathers: one 3 x 3
    Gram system of the expanded SDR samples' [B - Y, R - Y, 1] against the
    reference's B - Y and R - Y, solved here. So a band depends on its own
    rows alone, never on the worker count or band height; and colour that
    lies only in pixels the stride skips does not reach the mix.
    """
    # each frame is decoded by its tag, so a frame of another format must not get that far
    if (sdr.tag.transfer, sdr.tag.primaries) != SDR_FORMAT:
        raise TagError("fit_expand expects a Gamma709/BT709 SDR frame")
    if (ref.tag.transfer, ref.tag.primaries) != HDR_FORMAT:
        raise TagError("fit_expand expects a PQ/BT.2020 reference")
    peak = cfg["peak_nits"]
    y_sdr, y_ref, sdr_lin, ref_lin = fit_pairs(sdr, ref, cfg)
    params, raw, trace = rqs.fit_rqs(y_sdr, y_ref, K=cfg["spline_knots"], cfg=fit_config(cfg))
    _, lhs = _yuv(expand_sdr(sdr_lin, params, peak))
    _, ref_uv = _yuv(ref_lin)
    gram = lhs.T @ np.column_stack([lhs, ref_uv[:, :2]])
    # minimum norm, so a zero-chroma frame's singular system still has an answer
    coef, *_ = np.linalg.lstsq(gram[:, :3], gram[:, 3:], rcond=None)
    wr, wg, wb = cm.LUMA_WEIGHTS_2020

    def band(rows):
        y, lhs = _yuv(expand_sdr(cm.decode(sdr, rows), params, peak))
        uv = (lhs @ coef).reshape(y.shape + (2,))
        r = y + uv[..., 1]
        b = y + uv[..., 0]
        g = (y - wr * r - wb * b) / wg
        return cm.pq_encode(np.stack([r, g, b], axis=-1))

    return band, params, raw, trace


def cmd_fit_expand(args):
    cfg = load_config(args.config)
    workers = _max_workers()
    with (_open_pair(args.sdr, SDR_FORMAT, args.hdr_ref, HDR_FORMAT) as (sdr, ref),
          pfm.Outputs(_reads(args.config, args.sdr, args.hdr_ref)) as outputs):
        h, w, _ = sdr.shape
        if h * w < rqs.MIN_SAMPLES:
            raise FrameFormatError(f"{args.sdr}: extent {sdr.shape} has fewer than "
                                   f"{rqs.MIN_SAMPLES} pixels to fit a tone spline on")
        out = outputs.frame(args.output, h, w)
        band, params, raw, trace = fit_expand(sdr, ref, cfg)
        outputs.sidecar(args.output, PQ_TAG, seed=cfg["seed"], config=cfg)
        outputs.file(args.output + ".rqs.json",
                     rqs.fit_json(params, raw, fit_config(cfg)).encode())
        losses = "".join(f"{loss:.18e}\n" for loss in trace)  # 19 digits: each float64 round-trips
        outputs.file(args.output + ".trace.csv", f"loss\n{losses}".encode())
        tc.map_row_bands(lambda rows: out.write(rows, band(rows)), h, w, workers)
    print(json.dumps({"output": args.output, "final_loss": float(trace[-1])}, indent=2))
    return 0


def cmd_metrics(args):
    workers = _max_workers()
    with _open_pair(args.ref, HDR_FORMAT, args.test, HDR_FORMAT) as (ref, test):
        report = mt.metric_report(ref, test, workers)
    doc = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.output:
        with pfm.Outputs(_reads(None, args.ref, args.test)) as outputs:
            outputs.file(args.output, (doc + "\n").encode())
    print(doc)
    return 0


def feature_weights(cfg):
    """Seeded weights of the global-stats MLP: 4 stats -> 16 hidden -> 4 outputs."""
    rng = np.random.default_rng(cfg["feature_seed"])
    return (
        rng.normal(0.0, 0.3, (16, 4)), np.zeros(16),
        rng.normal(0.0, 0.3, (4, 16)), np.zeros(4),
    )


def _map_summary(name, arr):
    return {
        "name": name,
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "mean": float(np.mean(arr)),
    }


def cmd_features(args):
    cfg = load_config(args.config)
    workers = _max_workers()
    with pfm.open_tagged(args.frame, SDR_FORMAT) as sdr:
        feats = ft.extract_phys(sdr, workers)
    doc = {
        "s_g": feats.s_g.tolist(),
        "g": ft.global_mlp(feats.s_g, *feature_weights(cfg)).tolist(),
        "r": ft.spectral_descriptor(feats.y_map, cfg["k_bands"]).tolist(),
        "maps": [
            _map_summary("y", feats.y_map),
            _map_summary("loggrad", feats.loggrad_map),
            _map_summary("sat", feats.sat_map),
        ],
    }
    if args.dump_maps:
        maps = (feats.y_map, feats.loggrad_map, feats.sat_map)
        h, w = feats.y_map.shape
        with pfm.Outputs(_reads(args.config, args.frame)) as outputs:
            out = outputs.frame(os.path.splitext(args.frame)[0] + ".features.pfm", h, w)
            for rows in tc.row_bands(h, w):
                out.write(rows, np.stack([m[rows] for m in maps], axis=-1))
    print(json.dumps(doc, indent=2))
    return 0


def cmd_adapter_demo(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cfg = ad.ToyBlockConfig(d=args.width, n_tokens=args.tokens, rank=args.rank)
    backbone = ad.BackboneWeights.seeded(cfg, seed=args.seed)
    state = ad.AdapterState.seeded(cfg, seed=args.seed + 1)
    inputs = ad.demo_inputs(cfg, seed=args.seed + 2)
    z = inputs[0]

    null_state = ad.AdapterState.null(cfg)
    adapted, _ = ad.block_forward(z, *inputs[1:], backbone, null_state, cfg, t=0.5, layer=0)
    vanilla = ad.vanilla_block_forward(z, backbone)
    preservation = bool(np.array_equal(adapted, vanilla))

    tail = ad.low_rank_svd_tail(state, cfg)
    rank_ok = tail <= 1e-9

    report = ad.grad_check_adapters(backbone, state, cfg, inputs)
    doc = {
        "backbone_preservation": preservation,
        "svd_tail_beyond_rank": tail,
        "rank_ok": rank_ok,
        "gradients": report,
        "version": __version__,
    }
    print(json.dumps(doc, indent=2))
    ok = preservation and rank_ok and report["passed"]
    return 0 if ok else 4


def build_parser():
    parser = argparse.ArgumentParser(prog="lumaflux", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="degrade an HDR frame into SDR variants")
    p.add_argument("hdr_input")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", default="out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("fit-expand", help="fit a tone spline and expand SDR to HDR")
    p.add_argument("sdr")
    p.add_argument("hdr_ref")
    p.add_argument("--output", default="expanded.pfm")
    p.add_argument("--config")
    p.set_defaults(func=cmd_fit_expand)

    p = sub.add_parser("metrics", help="full-reference HDR metric report")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--output")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("features", help="dump physical feature descriptors")
    p.add_argument("frame")
    p.add_argument("--config")
    p.add_argument("--dump-maps", action="store_true")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("adapter-demo", help="run adapter preservation/rank/gradient suites")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--tokens", type=int, default=8)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_adapter_demo)
    return parser


# glibc's mallopt parameters, from malloc.h, and the pair its dynamic rule settles on
# once a block at its 64-bit ceiling is freed: the trim threshold twice the mmap one
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _set_heap_thresholds():
    """Serve band temporaries from the heap, and keep what they free, where libc has mallopt.

    Under glibc's 128 KiB default mmap threshold every band-sized array is a
    fresh mapping whose pages fault in on first touch, in every pass. Setting
    either threshold also turns off glibc's dynamic adjustment of both. Each
    of glibc's heaps (arenas) keeps what its threads free, so there is at most
    one per core the process may run on, plus the main thread's: a pool whose
    threads start while the last pool's threads are still exiting then shares
    their heaps instead of filling a new one.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the C library the interpreter links
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError, TypeError):  # no mallopt, no C library, or no affinity
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, cores + 1)


def main(argv=None):
    _set_heap_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract reserves 2 for I/O
        if exc.code not in (0, None):
            raise SystemExit(3)
        raise
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 2
    except LumaFluxError as exc:
        label = {2: "cannot read", 3: "config error"}.get(exc.exit_code, "numerical failure")
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
